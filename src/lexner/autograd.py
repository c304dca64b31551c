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

Only the operations the model needs are implemented: on Tensor, the binary
arithmetic, matmul, indexing, sum and three nonlinearities; beside it,
logsumexp, dropout and one op for each sublayer the model fuses. A
non-Tensor operand of a binary op is a constant and does not enter the
graph. Inside a :func:`no_grad` block nothing is recorded, so intermediates
are freed as soon as the next op has used them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "attention",
    "dropout",
    "edge_attention",
    "ffn_residual",
    "glorot",
    "layer_norm",
    "logsumexp",
    "no_grad",
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


def _watch_relu(h: np.ndarray) -> None:
    """Record min |h| of a relu input h while a watch list is installed."""
    if _relu_margins is not None and h.size:
        _relu_margins.append(float(np.abs(h).min()))


def _relu(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.where(x > 0, x, 0.0) into ``out`` (which may be x), byte for byte, without
    a bool mask: fmax turns NaN into 0.0, and adding 0.0 turns -0.0 into +0.0."""
    np.fmax(x, 0.0, out=out)
    out += 0.0
    return out


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

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    # -- indexing -------------------------------------------------------------

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

    # -- elementwise nonlinearities -------------------------------------------

    def relu(self):
        _watch_relu(self.data)
        y = _relu(self.data, np.empty(self.data.shape, self.data.dtype))
        return Tensor(y, (self,), lambda g: (g * (y > 0),))

    def tanh(self):
        y = np.tanh(self.data)
        return Tensor(y, (self,), lambda g: (g * (1.0 - y * y),))

    def sigmoid(self):
        y = _sigmoid(self.data)
        return Tensor(y, (self,), lambda g: (_sigmoid_vjp(g, y),))

    def item(self) -> float:
        return float(self.data)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, branch-free.

    exp(-|x|) lies in [0, 1], so it never overflows; the numerator is 1 or
    that same exp. The result is a new C-contiguous array; x is not modified.
    Two float arrays and one bool mask are made: the exp runs in place and
    the mask is cast to floats once, so max(mask, e) is a float ufunc.
    """
    e = np.abs(x, out=np.empty(x.shape, x.dtype))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.array(x >= 0, x.dtype, order="C")
    np.maximum(out, e, out=out)
    e += 1
    out /= e
    return out


def _sigmoid_vjp(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The sigmoid's input gradient, from its output y; neither input is modified."""
    return g * y * (1.0 - y)


_PAIRS = {np.dtype(np.float32): np.complex64, np.dtype(np.float64): np.complex128}


def _scatter_rows(rows: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Zeros of n rows with rows[k] added into row idx[k]: np.add.at, exactly.

    One np.add.at on the flat output, in ``rows`` order. Even-width float32 and
    float64 rows go as complex pairs, whose halves round as the floats do.
    """
    flat = np.ascontiguousarray(rows).reshape(len(idx), math.prod(rows.shape[1:]))
    pair = _PAIRS.get(flat.dtype)
    if pair is not None and flat.shape[1] % 2 == 0:
        flat = flat.view(pair)
    width = flat.shape[1]
    out = np.zeros(n * width, flat.dtype)
    np.add.at(out, (idx[:, None] * width + np.arange(width)).reshape(-1), flat.reshape(-1))
    return out.view(rows.dtype).reshape((n,) + rows.shape[1:])


def attention(
    q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float
) -> tuple[Tensor, np.ndarray]:
    """Multi-head softmax(q @ k.T * scale) @ v as one tape op: the (n, d)
    output and the (heads, n, n) softmax weights.

    q, k and v are (n, d) with the heads as column blocks of width d / heads,
    as in :func:`edge_attention`; the head split and merge are ndarray views,
    and the heads are a batch axis of the products. The scores are one
    (heads, n, n) buffer that becomes the weights in place (scale, shift by
    the row max, exp, divide by the row sum), so no other n x n array is
    made; the VJP holds it. The VJP runs the op-by-op chain's steps in its
    order, so output and gradients are its bytes. Non-finite scores give
    non-finite weights, for the loss check.
    """
    n, d = q.data.shape
    split = (n, heads, d // heads)
    # q and v as (heads, n, d_z), k as (heads, d_z, n)
    x, z = (t.data.reshape(split).transpose(1, 0, 2) for t in (q, v))
    y = k.data.reshape(split).transpose(1, 2, 0)
    a = x @ y
    a *= scale
    a -= np.max(a, axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)

    def vjp(g):
        g = g.reshape(split).transpose(1, 0, 2)
        g_a = g @ np.swapaxes(z, -1, -2)
        g_v = np.swapaxes(a, -1, -2) @ g
        # the softmax VJP a * (g_a - sum(g_a * a)), then the scale, on g_a's own buffer
        g_a -= (g_a * a).sum(axis=-1, keepdims=True)
        g_a *= a
        g_a *= scale
        g_q = g_a @ np.swapaxes(y, -1, -2)
        g_k = np.swapaxes(x, -1, -2) @ g_a
        return (g_q.transpose(1, 0, 2).reshape(n, d), g_k.transpose(2, 0, 1).reshape(n, d),
                g_v.transpose(1, 0, 2).reshape(n, d))

    return Tensor((a @ z).transpose(1, 0, 2).reshape(n, d), (q, k, v), vjp), a


def edge_attention(
    q: Tensor, k: Tensor, v: Tensor, dst: np.ndarray, src: np.ndarray, heads: int, scale: float
) -> tuple[Tensor, np.ndarray]:
    """Graph attention along the edges (dst, src) as one tape op: the (n, d)
    output and the (E, heads) edge weights.

    q, k and v are (n, d) with the heads as column blocks of width d / heads.
    The edges must be sorted by destination and reach every node. Each
    destination's softmax runs over its incoming edges: the score of an edge
    is its head's q[dst] . k[src] times ``scale``, shifted by the
    destination's max score, which only keeps exp() finite. Its weight
    scales v[src] into the destination's row. The forward and the VJP take
    the op-by-op chain's steps in its order, so output and gradients are its
    bytes. The VJP holds q, k, v, the exp'd scores, their per-destination
    sums and the weights: (E, heads) arrays, never an (E, d) one.
    """
    xq, xk, xv = q.data, k.data, v.data
    n, d = xq.shape
    fan_in = np.bincount(dst, minlength=n)
    if len(fan_in) != n or not fan_in.all() or np.any(dst[1:] < dst[:-1]):
        raise ValueError(f"edges must be sorted by destination and reach each of {n} nodes")
    e, d_z = len(dst), d // heads
    p = xq[dst]
    p *= xk[src]
    w = p.reshape(e, heads, d_z).sum(axis=2)
    del p  # (E, d): gone before v[src] is gathered
    w *= scale
    w -= np.maximum.reduceat(w, np.cumsum(fan_in) - fan_in, axis=0)[dst]
    np.exp(w, out=w)
    dd = _scatter_rows(w, dst, n)[dst]
    att = w / dd
    m = xv[src].reshape(e, heads, d_z)
    np.multiply(att.reshape(e, heads, 1), m, out=m)

    def vjp(g):
        g_m = g[dst].reshape(e, heads, d_z)
        g_att = (g_m * xv[src].reshape(e, heads, d_z)).sum(axis=2)
        g_m *= att.reshape(e, heads, 1)
        g_v = _scatter_rows(g_m.reshape(e, d), src, n)
        # the division's two VJPs: w's own term and its share of the row sum dd
        g_w = g_att / dd + _scatter_rows(-g_att * w / (dd * dd), dst, n)[dst]
        g_w *= w
        g_w *= scale
        g_p = np.broadcast_to(g_w.reshape(e, heads, 1), (e, heads, d_z))
        g_q = _scatter_rows((g_p * xk[src].reshape(e, heads, d_z)).reshape(e, d), dst, n)
        g_k = _scatter_rows((g_p * xq[dst].reshape(e, heads, d_z)).reshape(e, d), src, n)
        return g_q, g_k, g_v

    return Tensor(_scatter_rows(m.reshape(e, d), dst, n), (q, k, v), vjp), att


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


def _dropout_scale(shape, dtype, rate: float, rng: np.random.Generator | None):
    """Inverted dropout's factors, kept entries 1 / (1 - rate) and dropped ones 0;
    None when rate is 0 or no rng is supplied, so nothing is drawn."""
    if rate <= 0.0 or rng is None:
        return None
    keep = (rng.random(shape) >= rate).astype(dtype)
    return keep / np.asarray(1.0 - rate, dtype=dtype)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate is 0 or no rng is supplied."""
    scale = _dropout_scale(x.data.shape, x.data.dtype, rate, rng)
    return x if scale is None else x * scale


def ffn_residual(
    x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
    rate: float = 0.0, rng: np.random.Generator | None = None,
) -> Tensor:
    """x + dropout(relu(x @ w1 + b1) @ w2 + b2) as one tape op.

    The hidden layer h is one buffer that the relu overwrites, so the op
    makes two arrays of its own: r = relu(h) and the output. The VJP holds
    x, r and the dropout factors, and takes the op-by-op chain's steps in
    its order, so output and gradients are its bytes; relu's mask h > 0 is
    r > 0. While a watch list is installed, min |h| is recorded as
    ``Tensor.relu`` records it.
    """
    xd, w1d, w2d = x.data, w1.data, w2.data
    r = xd @ w1d
    r += b1.data
    _watch_relu(r)
    _relu(r, r)
    y = r @ w2d
    y += b2.data
    scale = _dropout_scale(y.shape, y.dtype, rate, rng)
    if scale is not None:
        y *= scale
    np.add(xd, y, out=y)

    def vjp(g):
        g_u = g if scale is None else g * scale
        g_h = g_u @ np.swapaxes(w2d, -1, -2)
        g_h *= r > 0
        g_x = g + g_h @ np.swapaxes(w1d, -1, -2)
        g_w1 = np.swapaxes(xd, -1, -2) @ g_h
        g_w2 = np.swapaxes(r, -1, -2) @ g_u
        return g_x, g_w1, g_h.sum(axis=0), g_w2, g_u.sum(axis=0)

    return Tensor(y, (x, w1, b1, w2, b2), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """(x - mean) / sqrt(var + 1e-5) * gain + bias over the last axis, one tape op.

    The VJP is closed-form in the op-by-op chain's order, so output and
    gradients are its bytes: c = x - mean gets g_ĉ/s, then t twice (one per
    factor of c * c), and the mean's gradient comes last. It holds c, c/s
    and s, never x.
    """
    xd, gd = x.data, gain.data
    k = 1.0 / xd.shape[-1]
    c = xd - xd.sum(axis=-1, keepdims=True) * k
    s = np.sqrt((c * c).sum(axis=-1, keepdims=True) * k + 1e-5)
    c_hat = c / s

    def vjp(g):
        g_hat = g * gd
        g_s = (-g_hat * c / (s * s)).sum(axis=-1, keepdims=True)
        t = g_s * (0.5 / s) * k * c
        g_c = g_hat / s + t + t
        lead = tuple(range(g.ndim - 1))
        g_x = g_c + np.negative(g_c).sum(axis=-1, keepdims=True) * k
        return g_x, (g * c_hat).sum(axis=lead), g.sum(axis=lead)

    return Tensor(c_hat * gd + bias.data, (x, gain, bias), vjp)


def glorot(rng: np.random.Generator | None, fan_in: int, fan_out: int, dtype=np.float64) -> Tensor:
    """A (fan_in, fan_out) weight drawn uniformly from +-sqrt(6 / (fan_in + fan_out)),
    or zeros without an rng: a shape to read stored values into."""
    if rng is None:
        return Tensor(np.zeros((fan_in, fan_out), dtype))
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype))
