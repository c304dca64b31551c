"""Minimal reverse-mode automatic differentiation over numpy arrays.

Each :class:`Tensor` wraps an ndarray and remembers its parent tensors plus
one vector-Jacobian closure per parent. ``backward()`` on a scalar walks the
recorded graph once in reverse topological order and accumulates gradients
into every reachable tensor. Grad arrays are never mutated in place, so
closures may alias their upstream gradient safely.

Only the operations the model needs are implemented. Non-Tensor operands of
binary ops are treated as constants and do not enter the graph. Inside a
:func:`no_grad` block nothing is recorded, so intermediates are freed as soon
as the next op has used them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "concat",
    "dropout",
    "layer_norm",
    "logsumexp",
    "masked_softmax",
    "no_grad",
    "segment_sum",
    "watch_relu_kinks",
    "zero_grads",
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


# False inside no_grad(): new tensors then record no parents and no VJPs.
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


def _axis_tuple(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_vjps")

    # keep numpy from absorbing us into object arrays; reflected ops run instead
    __array_ufunc__ = None

    def __init__(self, data, parents=(), vjps=(), dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        if not _grad_enabled:
            parents, vjps = (), ()
        self._parents: tuple[Tensor, ...] = parents
        self._vjps = vjps

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
        """Accumulate d(self)/d(leaf) into .grad of every reachable tensor.

        self must be scalar-shaped. Grads add up across repeated backward
        calls; clear them with :func:`zero_grads` between steps.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = (
            np.ones_like(self.data) if self.grad is None else self.grad + np.ones_like(self.data)
        )
        for node in reversed(order):
            g = node.grad
            if g is None or not node._parents:
                continue
            for parent, vjp in zip(node._parents, node._vjps):
                contrib = vjp(g)
                parent.grad = contrib if parent.grad is None else parent.grad + contrib

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            sa, sb = self.data.shape, other.data.shape
            return Tensor(
                self.data + other.data,
                (self, other),
                (lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(g, sb)),
            )
        sa = self.data.shape
        return Tensor(self.data + other, (self,), (lambda g: _unbroadcast(g, sa),))

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.data, (self,), (lambda g: -g,))

    def __sub__(self, other):
        if isinstance(other, Tensor):
            sa, sb = self.data.shape, other.data.shape
            return Tensor(
                self.data - other.data,
                (self, other),
                (lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(-g, sb)),
            )
        sa = self.data.shape
        return Tensor(self.data - other, (self,), (lambda g: _unbroadcast(g, sa),))

    def __rsub__(self, other):
        sa = self.data.shape
        return Tensor(other - self.data, (self,), (lambda g: _unbroadcast(-g, sa),))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            a, b = self.data, other.data
            return Tensor(
                a * b,
                (self, other),
                (
                    lambda g: _unbroadcast(g * b, a.shape),
                    lambda g: _unbroadcast(g * a, b.shape),
                ),
            )
        a = self.data
        return Tensor(a * other, (self,), (lambda g: _unbroadcast(g * other, a.shape),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            a, b = self.data, other.data
            return Tensor(
                a / b,
                (self, other),
                (
                    lambda g: _unbroadcast(g / b, a.shape),
                    lambda g: _unbroadcast(-g * a / (b * b), b.shape),
                ),
            )
        return self * (1.0 / other)

    def __matmul__(self, other):
        if isinstance(other, Tensor):
            a, b = self.data, other.data
            return Tensor(
                a @ b,
                (self, other),
                (lambda g: g @ b.T, lambda g: a.T @ g),
            )
        a = self.data
        c = np.asarray(other)
        return Tensor(a @ c, (self,), (lambda g: g @ c.T,))

    def __rmatmul__(self, other):
        c = np.asarray(other)
        b = self.data
        return Tensor(c @ b, (self,), (lambda g: c.T @ g,))

    # -- indexing and shape --------------------------------------------------

    def __getitem__(self, idx):
        src_shape = self.data.shape
        src_dtype = self.data.dtype

        def vjp(g):
            if isinstance(idx, np.ndarray) and idx.ndim == 1 and idx.dtype.kind in "iu":
                return _scatter_rows(g, idx, src_shape[0])
            out = np.zeros(src_shape, dtype=src_dtype)
            np.add.at(out, idx, g)
            return out

        return Tensor(self.data[idx], (self,), (vjp,))

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], tuple):
            shape = shape[0]
        src = self.data.shape
        return Tensor(self.data.reshape(shape), (self,), (lambda g: g.reshape(src),))

    @property
    def T(self):
        return Tensor(self.data.T, (self,), (lambda g: g.T,))

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
            return np.broadcast_to(gg, src)

        return Tensor(out, (self,), (vjp,))

    def mean(self, axis=None, keepdims=False):
        axes = _axis_tuple(axis, self.data.ndim)
        count = math.prod(self.data.shape[a] for a in axes) if self.data.ndim else 1
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities -------------------------------------------

    def relu(self):
        if _relu_margins is not None and self.data.size:
            _relu_margins.append(float(np.abs(self.data).min()))
        mask = self.data > 0
        return Tensor(np.where(mask, self.data, 0.0), (self,), (lambda g: g * mask,))

    def tanh(self):
        y = np.tanh(self.data)
        return Tensor(y, (self,), (lambda g: g * (1.0 - y * y),))

    def sigmoid(self):
        y = _sigmoid(self.data)
        return Tensor(y, (self,), (lambda g: g * y * (1.0 - y),))

    def exp(self):
        y = np.exp(self.data)
        return Tensor(y, (self,), (lambda g: g * y,))

    def log(self):
        a = self.data
        return Tensor(np.log(a), (self,), (lambda g: g / a,))

    def sqrt(self):
        y = np.sqrt(self.data)
        return Tensor(y, (self,), (lambda g: g * (0.5 / y),))

    def item(self) -> float:
        return float(self.data)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, branch-free.

    exp(-|x|) lies in [0, 1], so it never overflows; the numerator is 1 or
    that same exp. Works in place and allocates two arrays the size of x.
    """
    e = np.empty_like(x)
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
    e += 1
    out /= e
    return out


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(k: int):
        lo, hi = offsets[k], offsets[k + 1]
        sl = [slice(None)] * datas[k].ndim
        sl[axis] = slice(lo, hi)
        sl = tuple(sl)
        return lambda g: g[sl]

    return Tensor(
        np.concatenate(datas, axis=axis),
        tuple(tensors),
        tuple(make_vjp(k) for k in range(len(tensors))),
    )


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
    return Tensor(_scatter_rows(x.data, segments, n), (x,), (lambda g: g[segments],))


def masked_softmax(scores: Tensor, mask: np.ndarray | None, axis: int = -1) -> Tensor:
    """Softmax with hard exclusion of masked entries.

    Entries where mask == 0 get weight exactly 0; each row must keep at least
    one admissible entry. ``mask=None`` admits every entry. Backward uses the
    standard softmax Jacobian, which is exactly zero at excluded entries.
    """
    s = scores.data if mask is None else np.where(mask > 0, scores.data, -np.inf)
    m = np.max(s, axis=axis, keepdims=True)
    if not np.isfinite(m).all():
        raise ValueError("mask has a row with no admissible entries")
    e = np.exp(s - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return y * (g - dot)

    return Tensor(y, (scores,), (vjp,))


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    a = x.data
    m = np.max(a, axis=axis, keepdims=True)
    e = np.exp(a - m)
    z = e.sum(axis=axis, keepdims=True)
    out = np.log(z) + m
    if not keepdims:
        out = np.squeeze(out, axis=axis)

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        return (e / z) * gg

    return Tensor(out, (x,), (vjp,))


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate is 0 or no rng is supplied."""
    if rate <= 0.0 or rng is None:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    return x * (keep / np.asarray(1.0 - rate, dtype=x.data.dtype))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gain + bias


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
