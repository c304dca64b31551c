"""Minimal reverse-mode automatic differentiation over numpy arrays.

The tape is made of graph nodes, kept apart from the tensors, as PyTorch
keeps ``grad_fn`` nodes apart from its tensors. Each :class:`Tensor` holds
its ndarray and one :class:`_Node`; the node holds the parents' nodes, the
gradient flowing into it and one vector-Jacobian closure that returns every
parent's gradient from one call, as PyTorch's ``Function.backward`` does,
but no forward array. The tape therefore keeps only the arrays a VJP
captured: an array no VJP reads, such as a sigmoid's input, is freed as soon
as the model code drops its Tensor. ``backward()`` on a scalar walks the
nodes once in reverse topological order, accumulates gradients into the
leaves (nodes with no parents) and uses the tape up as it goes, like
PyTorch's default: once a node's VJP has run, its grad, parents and closure
are dropped, so a training step holds at most one sentence's tape. Grad
arrays are never mutated in place, so closures may alias their upstream
gradient safely.

Only the operations the model needs are implemented. A non-Tensor operand of
a binary op is a constant and does not enter the graph; matmul stacks over
leading axes, so attention heads can be a batch axis. Inside a
:func:`no_grad` block nothing is recorded, so intermediates are freed as soon
as the next op has used them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "dropout",
    "glorot",
    "layer_norm",
    "logsumexp",
    "no_grad",
    "segment_sum",
    "softmax",
    "watch_relu_kinks",
]

# Optional instrumentation: when a watch list is installed, relu() records the
# smallest |pre-activation| it sees so finite-difference checks can verify
# they are not straddling a kink.
_relu_margins: list[float] | None = None


@contextmanager
def watch_relu_kinks():
    global _relu_margins
    prev = _relu_margins
    _relu_margins = margins = []
    try:
        yield margins
    finally:
        _relu_margins = prev


# False inside no_grad(): new tensors then record no parents and no VJP.
_grad_enabled = True


@contextmanager
def no_grad():
    """Build tensors without a tape, for forward passes that never call backward()."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape broadcasting started from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _data(x):
    """The array of a Tensor; any other operand is a constant and passes as it is."""
    return x.data if isinstance(x, Tensor) else x


def _binary(out: np.ndarray, operands: tuple, vjps: tuple) -> Tensor:
    """The result of a binary op on two operands, each a Tensor or a constant.

    Only Tensor operands become parents; a constant gets no gradient. Each VJP
    result is summed down to the shape of its operand, undoing broadcasting.
    """
    parents = tuple(x for x in operands if isinstance(x, Tensor))
    # the shapes, not the Tensors: the tape holds only the arrays a VJP reads
    kept = [(vjp, x.data.shape) for x, vjp in zip(operands, vjps) if isinstance(x, Tensor)]
    return Tensor(out, parents, lambda g: [_unbroadcast(vjp(g), shape) for vjp, shape in kept])


def _matmul(a, b) -> Tensor:
    """a @ b, stacked over any leading axes; the VJPs swap only the last two axes."""
    x, y = _data(a), _data(b)
    vjps = (lambda g: g @ np.swapaxes(y, -1, -2), lambda g: np.swapaxes(x, -1, -2) @ g)
    return _binary(x @ y, (a, b), vjps)


def _axis_tuple(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


class _Node:
    """A Tensor's place on the tape: its parents' nodes, the gradient flowing in
    and one VJP, which maps that gradient to one gradient per parent, in parent
    order. It holds no forward array, only what the VJP captured."""

    __slots__ = ("grad", "parents", "vjp")

    def __init__(self, parents: tuple[_Node, ...], vjp):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.vjp = vjp


class Tensor:
    __slots__ = ("data", "_node")

    # keep numpy from absorbing us into object arrays; reflected ops run instead
    __array_ufunc__ = None

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data)
        if not _grad_enabled:
            parents, vjp = (), None
        self._node = _Node(tuple([p._node for p in parents]) if parents else (), vjp)

    @property
    def grad(self) -> np.ndarray | None:
        return self._node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._node.grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # -- graph traversal ---------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad of every leaf reachable from self.

        self must be scalar-shaped. The walk runs over nodes, not tensors,
        so it reaches only the arrays the VJP closures captured. The tape
        is used up, as PyTorch's default ``retain_graph=False`` does: each
        non-leaf node, self's included, ends with grad None, no parents and
        no VJP, so its closure and the arrays it holds are freed as soon as
        the walk passes it. Only leaves, the tensors whose node has no
        parents, keep ``.grad``. Leaf grads add up across repeated backward
        calls on fresh graphs; set them to None between steps.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        root = self._node
        order: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        ones = np.ones_like(self.data)
        root.grad = ones if root.grad is None else root.grad + ones
        while order:
            node = order.pop()
            if not node.parents:
                continue
            for parent, contrib in zip(node.parents, node.vjp(node.grad)):
                parent.grad = contrib if parent.grad is None else parent.grad + contrib
            # every consumer of node has run: free its closure and grad
            node.grad, node.parents, node.vjp = None, (), None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return _binary(self.data + _data(other), (self, other), (lambda g: g, lambda g: g))

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(self.data - _data(other), (self, other), (lambda g: g, np.negative))

    def __mul__(self, other):
        a, b = self.data, _data(other)
        return _binary(a * b, (self, other), (lambda g: g * b, lambda g: g * a))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Tensor):
            # a / c and a * (1 / c) round differently; the model is built on the second
            return self * (1.0 / other)
        a, b = self.data, other.data
        return _binary(a / b, (self, other), (lambda g: g / b, lambda g: -g * a / (b * b)))

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    # -- indexing and shape --------------------------------------------------

    def __getitem__(self, idx):
        src_shape = self.data.shape
        src_dtype = self.data.dtype

        def vjp(g):
            if isinstance(idx, np.ndarray) and idx.ndim == 1 and idx.dtype.kind in "iu":
                return (_scatter_rows(g, idx, src_shape[0]),)
            out = np.zeros(src_shape, dtype=src_dtype)
            np.add.at(out, idx, g)
            return (out,)

        return Tensor(self.data[idx], (self,), vjp)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], tuple):
            shape = shape[0]
        src = self.data.shape
        return Tensor(self.data.reshape(shape), (self,), lambda g: (g.reshape(src),))

    def transpose(self, *axes):
        """Permute the axes, reversing them when none are given."""
        ndim = self.data.ndim
        axes = tuple(a % ndim for a in axes) if axes else tuple(reversed(range(ndim)))
        inverse = tuple(int(a) for a in np.argsort(axes))
        return Tensor(self.data.transpose(axes), (self,), lambda g: (g.transpose(inverse),))

    @property
    def T(self):
        return self.transpose()

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        src = self.data.shape
        axes = _axis_tuple(axis, self.data.ndim)
        out = self.data.sum(axis=axes if axis is not None else None, keepdims=keepdims)

        def vjp(g):
            gg = g
            if not keepdims:
                for a in sorted(axes):
                    gg = np.expand_dims(gg, a)
            return (np.broadcast_to(gg, src),)

        return Tensor(out, (self,), vjp)

    def mean(self, axis=None, keepdims=False):
        axes = _axis_tuple(axis, self.data.ndim)
        count = math.prod(self.data.shape[a] for a in axes) if self.data.ndim else 1
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities -------------------------------------------

    def relu(self):
        if _relu_margins is not None and self.data.size:
            _relu_margins.append(float(np.abs(self.data).min()))
        mask = self.data > 0
        return Tensor(np.where(mask, self.data, 0.0), (self,), lambda g: (g * mask,))

    def tanh(self):
        y = np.tanh(self.data)
        return Tensor(y, (self,), lambda g: (g * (1.0 - y * y),))

    def sigmoid(self):
        y = _sigmoid(self.data)
        return Tensor(y, (self,), lambda g: (_sigmoid_vjp(g, y),))

    def exp(self):
        y = np.exp(self.data)
        return Tensor(y, (self,), lambda g: (g * y,))

    def sqrt(self):
        y = np.sqrt(self.data)
        return Tensor(y, (self,), lambda g: (g * (0.5 / y),))

    def item(self) -> float:
        return float(self.data)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, branch-free.

    exp(-|x|) lies in [0, 1], so it never overflows; the numerator is 1 or
    that same exp. The result is a new C-contiguous array; x is not modified.
    """
    e = np.exp(-np.abs(x))
    out = np.maximum(e, x >= 0, order="C")
    e += 1
    out /= e
    return out


def _sigmoid_vjp(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The sigmoid's input gradient, from its output y; neither input is modified."""
    return g * y * (1.0 - y)


def _scatter_rows(rows: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Zeros of n rows with rows[k] added into row idx[k]: np.add.at, exactly.

    Rows are added level by level: one vectorised pass adds the first
    occurrence of every index, the next pass the second, and so on. Each row
    of the output thus receives its rows in their order in ``rows``, as
    np.add.at adds them, so the two agree byte for byte.
    """
    out = np.zeros((n,) + rows.shape[1:], dtype=rows.dtype)
    if not len(idx):
        return out
    idx = np.where(idx < 0, idx + n, idx)
    order = np.argsort(idx, kind="stable")
    ranked = idx[order]
    pos = np.arange(len(idx))
    # rank of each occurrence among equal indices: its distance from the run start
    starts = np.r_[True, ranked[1:] != ranked[:-1]]
    rank = pos - np.maximum.accumulate(np.where(starts, pos, 0))
    by_level = order[np.argsort(rank, kind="stable")]
    sizes = np.bincount(rank)
    for hi, size in zip(np.cumsum(sizes), sizes):
        level = by_level[hi - size : hi]
        out[idx[level]] += rows[level]
    return out


def segment_sum(x: Tensor, segments: np.ndarray, n: int) -> Tensor:
    """Add row k of x into output row segments[k]; the output has n rows.

    Rows are added in their order in x, onto zeros, so a row that no segment
    names stays zero. The VJP gathers the upstream gradient: g[segments].
    """
    return Tensor(_scatter_rows(x.data, segments, n), (x,), lambda g: (g[segments],))


def softmax(scores: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``. Non-finite scores give non-finite weights, for the
    loss check to report."""
    y = scores.data - np.max(scores.data, axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return Tensor(y, (scores,), vjp)


def _logsumexp(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log sum exp(a), e, z) along ``axis``, keepdims: exp(a - max) is e and its sum z,
    so e / z are the softmax weights the VJP scales g by."""
    m = np.max(a, axis=axis, keepdims=True)
    e = np.exp(a - m)
    z = e.sum(axis=axis, keepdims=True)
    return np.log(z) + m, e, z


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    out, e, z = _logsumexp(x.data, axis)
    if not keepdims:
        out = np.squeeze(out, axis=axis)

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        return ((e / z) * gg,)

    return Tensor(out, (x,), vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate is 0 or no rng is supplied."""
    if rate <= 0.0 or rng is None:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    return x * (keep / np.asarray(1.0 - rate, dtype=x.data.dtype))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + 1e-5).sqrt() * gain + bias


def glorot(rng: np.random.Generator | None, fan_in: int, fan_out: int, dtype=np.float64) -> Tensor:
    """A (fan_in, fan_out) weight drawn uniformly from +-sqrt(6 / (fan_in + fan_out)),
    or zeros without an rng: a shape to read stored values into."""
    if rng is None:
        return Tensor(np.zeros((fan_in, fan_out), dtype))
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype))
