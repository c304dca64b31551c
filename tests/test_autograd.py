"""The tape engine: every op's gradient against central finite differences."""

import gc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest

from lexner.autograd import (
    Tensor,
    _scatter_rows,
    _sigmoid,
    _sigmoid_vjp,
    dropout,
    layer_norm,
    logsumexp,
    no_grad,
    segment_sum,
    softmax,
)


def masked_softmax(scores: Tensor, mask: np.ndarray | None, axis: int = -1) -> Tensor:
    """Softmax with hard exclusion of masked entries: a reference for test oracles.

    Entries where mask == 0 get the score -inf, so weight exactly 0 and, by the
    softmax Jacobian, gradient exactly 0; each row must keep at least one
    admissible entry. ``mask=None`` admits every entry: lexner's own softmax.
    """
    if mask is None:
        return softmax(scores, axis)
    if not (mask > 0).any(axis=axis).all():
        raise ValueError("mask has a row with no admissible entries")
    return softmax(scores + np.where(mask > 0, 0.0, -np.inf).astype(scores.data.dtype), axis)


def tape_nodes(t: Tensor) -> int:
    """Nodes reachable from t's node, t's own included."""
    seen, stack = set(), [t._node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


def held_arrays(t: Tensor) -> list[np.ndarray]:
    """The ndarrays the VJP closures of the nodes reachable from t hold: in their
    cells and default arguments, in functions, lists and tuples found there.

    Both walks are loops: a nested function that calls itself is a reference
    cycle, and it would keep what it found alive until a gc pass."""
    nodes, done, objs = [t._node], set(), []
    while nodes:
        node = nodes.pop()
        if id(node) not in done:
            done.add(id(node))
            nodes.extend(node.parents)
            objs.append(node.vjp)
    found, seen = [], set()
    while objs:
        obj = objs.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            objs.extend(obj)
        elif hasattr(obj, "__code__"):
            objs.extend(cell.cell_contents for cell in obj.__closure__ or ())
            objs.extend(obj.__defaults__ or ())
    return found


@contextmanager
def gc_off():
    """Cyclic gc paused, so an array a lifetime test watches must die by its
    reference count alone, not by whenever a collection happens to run."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """The tensors joined along ``axis``; the VJP hands each one its slice of g.

    A single tensor is returned as it is: tensors are never written in place.
    """
    if len(tensors) == 1:
        return tensors[0]
    datas = [t.data for t in tensors]
    ends = np.cumsum([d.shape[axis] for d in datas]).tolist()
    lead = (slice(None),) * (axis % datas[0].ndim)
    slices = [(*lead, slice(lo, hi)) for lo, hi in zip([0, *ends], ends)]
    out = np.concatenate(datas, axis=axis)
    return Tensor(out, tuple(tensors), lambda g: [g[s] for s in slices])


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f(x)
        flat[i] = old - h
        fm = f(x)
        flat[i] = old
        gflat[i] = (fp - fm) / (2 * h)
    return g


def check_op(build, shapes, seed=0, atol=1e-7):
    """build(list of Tensors) -> Tensor; verifies gradients w.r.t. every input."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    weights = None

    def loss_arrays(*arrs):
        nonlocal weights
        out = build([Tensor(a) for a in arrs])
        if weights is None:
            weights = rng.standard_normal(out.data.shape)
        return float((out.data * weights).sum())

    loss_arrays(*arrays)  # fixes the projection weights
    tensors = [Tensor(a) for a in arrays]
    out = build(tensors)
    scalar = (out * weights).sum()
    scalar.backward()
    for pos, (t, a) in enumerate(zip(tensors, arrays)):
        expect = numeric_grad(
            lambda x, pos=pos: loss_arrays(*[x if k == pos else arrays[k] for k in range(len(arrays))]),
            a.copy(),
        )
        np.testing.assert_allclose(t.grad, expect, atol=atol, err_msg=f"input {pos}")


class TestArithmetic:
    def test_add_sub_mul_div(self):
        check_op(lambda ts: ts[0] + ts[1], [(3, 4), (3, 4)])
        check_op(lambda ts: ts[0] - ts[1], [(3, 4), (3, 4)])
        check_op(lambda ts: ts[0] * ts[1], [(3, 4), (3, 4)])
        check_op(lambda ts: ts[0] / (ts[1] * ts[1] + 1.0), [(3, 4), (3, 4)])

    def test_broadcasting(self):
        check_op(lambda ts: ts[0] + ts[1], [(3, 4), (4,)])
        check_op(lambda ts: ts[0] * ts[1], [(2, 3, 4), (1, 3, 1)])
        check_op(lambda ts: ts[0] + ts[1], [(1, 4), (3, 1)])

    def test_constants_stay_out_of_graph(self):
        x = Tensor(np.ones((2, 2)))
        prod = x * np.array([[2.0, 3.0], [4.0, 5.0]])
        assert prod._node.parents == (x._node,)
        (prod + 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [[2, 3], [4, 5]])
        c = np.full((2, 2), 2.0)
        for y in (x + c, c + x, x - c, x * 2.0, 2.0 * x, x / c, x @ c, c @ x):
            assert y._node.parents == (x._node,)

    def test_constant_operands_broadcast(self):
        c = np.arange(1.0, 5.0)
        check_op(lambda ts: ts[0] + c, [(3, 1)])
        check_op(lambda ts: ts[0] - c, [(3, 1)])
        check_op(lambda ts: ts[0] * c, [(3, 1)])
        check_op(lambda ts: ts[0] / c, [(3, 1)])

    def test_matmul(self):
        check_op(lambda ts: ts[0] @ ts[1], [(3, 4), (4, 5)])

    def test_stacked_matmul(self):
        check_op(lambda ts: ts[0] @ ts[1], [(3, 2, 4), (3, 4, 5)])

    def test_broadcast_matmul(self):
        check_op(lambda ts: ts[0] @ ts[1], [(3, 2, 4), (4, 5)])
        check_op(lambda ts: ts[0] @ ts[1], [(2, 4), (3, 4, 5)])

    def test_matmul_with_constant(self):
        c = np.arange(6.0).reshape(2, 3)
        check_op(lambda ts: c @ ts[0], [(3, 4)])
        check_op(lambda ts: ts[0] @ c, [(4, 2)])
        stacked = np.arange(12.0).reshape(2, 2, 3)
        check_op(lambda ts: stacked @ ts[0], [(3, 4)])
        check_op(lambda ts: ts[0] @ stacked, [(4, 2)])


class TestIndexingAndShape:
    def test_slices(self):
        check_op(lambda ts: ts[0][1:3], [(5, 4)])
        check_op(lambda ts: ts[0][:, 1:3], [(4, 5)])

    def test_integer_row_gather_with_duplicates(self):
        idx = np.array([0, 2, 2, 1])
        check_op(lambda ts: ts[0][idx], [(3, 4)])

    def test_pairwise_gather_with_duplicates(self):
        rows = np.array([0, 1, 0])
        cols = np.array([2, 2, 2])
        check_op(lambda ts: ts[0][rows, cols], [(3, 4)])

    def test_reshape_transpose(self):
        check_op(lambda ts: ts[0].reshape(6, 2), [(3, 4)])
        check_op(lambda ts: ts[0].reshape(3, 1, 4), [(3, 4)])
        check_op(lambda ts: ts[0].T, [(3, 4)])

    def test_transpose(self):
        check_op(lambda ts: ts[0].transpose(1, 0, 2), [(2, 3, 4)])
        check_op(lambda ts: ts[0].transpose(2, 0, 1), [(2, 3, 4)])
        check_op(lambda ts: ts[0].transpose(0, -1, 1), [(2, 3, 4)])
        check_op(lambda ts: ts[0].transpose(), [(2, 3, 4)])
        check_op(lambda ts: ts[0].T, [(2, 3, 4)])
        x = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(Tensor(x).transpose(2, 0, 1).data, x.transpose(2, 0, 1))
        np.testing.assert_array_equal(Tensor(x).T.data, x.T)

    def test_concat(self):
        check_op(lambda ts: concat([ts[0], ts[1]], axis=1), [(3, 2), (3, 4)])
        check_op(lambda ts: concat([ts[0], ts[1], ts[0]], axis=0), [(2, 3), (1, 3)])

    def test_concat_with_a_zero_row_part(self):
        check_op(lambda ts: concat([ts[0], ts[1], ts[2]]), [(2, 3), (0, 3), (4, 3)])
        check_op(lambda ts: concat([ts[1], ts[0]], axis=-1), [(3, 2), (3, 0)])
        parts = [Tensor(np.ones((0, 3))), Tensor(np.ones((2, 3)))]
        (concat(parts) * 2.0).sum().backward()
        assert parts[0].grad.shape == (0, 3)
        np.testing.assert_array_equal(parts[1].grad, np.full((2, 3), 2.0))

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_concat_vjp_hands_each_part_its_slice(self, axis):
        rng = np.random.default_rng(55)
        shapes = [(2, 3, 4), (2, 3, 4), (2, 3, 4)]
        parts = [Tensor(rng.standard_normal(s).astype(np.float32)) for s in shapes]
        out = concat(parts, axis=axis)
        np.testing.assert_array_equal(out.data, np.concatenate([p.data for p in parts], axis))
        g = rng.standard_normal(out.shape).astype(np.float32)
        g.reshape(-1)[::3] = -0.0
        for got, want in zip(out._node.vjp(g), np.split(g, 3, axis=axis), strict=True):
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
            assert np.shares_memory(got, g)  # a view: nothing is copied

    def test_concat_of_one_tensor_is_that_tensor(self):
        x = Tensor(np.ones((2, 3)))
        assert concat([x]) is x


def ref_segment_sum(x, segments, n):
    """Row k of x added into row segments[k], one row at a time, onto zeros."""
    out = np.zeros((n,) + x.shape[1:], dtype=x.dtype)
    for k, s in enumerate(segments):
        out[s] = out[s] + x[k]
    return out


class TestSegmentSum:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_a_row_loop(self, dtype):
        rng = np.random.default_rng(50)
        # rows 1 and 4 of the output receive nothing; 3 receives four rows
        segments = np.array([3, 0, 3, 2, 3, 0, 3, 5])
        x = rng.standard_normal((8, 5)).astype(dtype)
        got = segment_sum(Tensor(x), segments, 6)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.data, ref_segment_sum(x, segments, 6))
        assert not got.data[[1, 4]].any()

    def test_keeps_trailing_dimensions_and_empty_input(self):
        x = np.random.default_rng(51).standard_normal((3, 2, 4))
        got = segment_sum(Tensor(x), np.array([1, 1, 0]), 2)
        np.testing.assert_array_equal(got.data, ref_segment_sum(x, [1, 1, 0], 2))
        empty = segment_sum(Tensor(np.zeros((0, 4))), np.zeros(0, dtype=np.int64), 3)
        np.testing.assert_array_equal(empty.data, np.zeros((3, 4)))

    def test_gradient(self):
        segments = np.array([2, 0, 2, 2, 0])
        check_op(lambda ts: segment_sum(ts[0], segments, 4), [(5, 3)])

    def test_vjp_gathers_the_upstream_gradient(self):
        x = Tensor(np.ones((4, 2), dtype=np.float32))
        segments = np.array([1, 0, 1, 1])
        g = np.arange(6, dtype=np.float32).reshape(3, 2)
        (segment_sum(x, segments, 3) * g).sum().backward()
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, g[segments])


def add_at(rows, idx, n):
    out = np.zeros((n,) + rows.shape[1:], dtype=rows.dtype)
    np.add.at(out, idx, rows)
    return out


class TestScatterRows:
    """The level-by-level row scatter behind segment_sum and row-gather VJPs
    is byte-equal to np.add.at."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("trailing", [(), (5,), (3, 4)])
    def test_byte_equal_to_add_at(self, dtype, trailing):
        rng = np.random.default_rng(52)
        for n, e in ((6, 40), (50, 30), (1, 9), (4, 0)):
            idx = rng.integers(0, n, e)
            rows = (rng.standard_normal((e,) + trailing) * 1e3).astype(dtype)
            rows[::4] = -0.0  # 0.0 + -0.0 is +0.0; so must the helper's first level be
            got = _scatter_rows(rows, idx, n)
            assert got.dtype == dtype and got.shape == (n,) + trailing
            assert got.tobytes() == add_at(rows, idx, n).tobytes()

    def test_negative_indices_and_heavy_repeats(self):
        rng = np.random.default_rng(53)
        idx = np.array([2, -1, 3, 2, 2, -4, 0, 3])
        rows = rng.standard_normal((8, 3))
        assert _scatter_rows(rows, idx, 4).tobytes() == add_at(rows, idx, 4).tobytes()

    def test_row_gather_vjp_is_the_same_scatter(self):
        rng = np.random.default_rng(54)
        x = Tensor(rng.standard_normal((5, 3)).astype(np.float32))
        idx = np.array([4, 0, 4, 4, 1, 0])
        g = rng.standard_normal((6, 3)).astype(np.float32)
        (x[idx] * g).sum().backward()
        assert x.grad.dtype == np.float32
        assert x.grad.tobytes() == add_at(g, idx, 5).tobytes()


class TestReductions:
    def test_sum_axes(self):
        check_op(lambda ts: ts[0].sum(), [(3, 4)])
        check_op(lambda ts: ts[0].sum(axis=0), [(3, 4)])
        check_op(lambda ts: ts[0].sum(axis=1, keepdims=True), [(3, 4)])
        check_op(lambda ts: ts[0].sum(axis=(0, 2)), [(2, 3, 4)])

    def test_mean(self):
        check_op(lambda ts: ts[0].mean(), [(3, 4)])
        check_op(lambda ts: ts[0].mean(axis=-1, keepdims=True), [(3, 4)])
        x = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_allclose(x.mean(axis=1).data, [1.0, 4.0])

    def test_logsumexp_matches_numpy(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6)) * 10
        got = logsumexp(Tensor(x), axis=1).data
        expect = np.log(np.exp(x - x.max(1, keepdims=True)).sum(1)) + x.max(1)
        np.testing.assert_allclose(got, expect, rtol=1e-12)
        check_op(lambda ts: logsumexp(ts[0], axis=1), [(4, 6)])
        check_op(lambda ts: logsumexp(ts[0], axis=0, keepdims=True), [(4, 6)])

    def test_logsumexp_is_stable_for_large_inputs(self):
        x = Tensor(np.array([1000.0, 1000.0]))
        assert np.isfinite(logsumexp(x, axis=0).data)


class TestNonlinearities:
    def test_gradients(self):
        check_op(lambda ts: ts[0].tanh(), [(3, 4)])
        check_op(lambda ts: ts[0].sigmoid(), [(3, 4)])
        check_op(lambda ts: ts[0].exp(), [(3, 4)])
        check_op(lambda ts: (ts[0] * ts[0] + 0.5).sqrt(), [(3, 4)])
        # keep relu inputs away from the kink
        check_op(lambda ts: (ts[0] + 5.0).relu() + (ts[0] - 5.0).relu(), [(3, 4)])

    def test_relu_values(self):
        x = Tensor(np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(x.relu().data, [0.0, 0.0, 3.0])

    def test_sigmoid_is_stable(self):
        x = Tensor(np.array([-1000.0, 0.0, 1000.0]))
        np.testing.assert_allclose(x.sigmoid().data, [0.0, 0.5, 1.0])


def two_branch_sigmoid(x: np.ndarray) -> np.ndarray:
    """Reference: split by sign so neither exp can overflow."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_grid(dtype) -> np.ndarray:
    """Random inputs over many scales, with the special values at the front."""
    tiny = np.finfo(dtype).tiny
    special = [0.0, -0.0, 1000.0, -1000.0, np.inf, -np.inf, np.nan, -np.nan,
               tiny, -tiny, 1.0, -1.0, 17.0, -17.0, 37.0, -37.0,
               # exp underflows to subnormals, then to zero, in float32 and float64
               -88.0, -95.0, -104.0, -120.0, -708.0, -720.0, -745.0, -760.0]
    rng = np.random.default_rng(0)
    x = rng.standard_normal((37, 41, 5)) * rng.choice([1e-3, 1.0, 10.0, 100.0], (37, 41, 5))
    x.flat[: len(special)] = special
    return x.astype(dtype)


class TestSigmoidOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_two_branch_formula(self, dtype):
        x = sigmoid_grid(dtype)
        for view in (x, x.transpose(2, 0, 1), x[:, ::3], x[0, 0, 0]):
            got = _sigmoid(view)
            want = two_branch_sigmoid(view)
            assert got.dtype == want.dtype and got.shape == want.shape
            # NaN in gives NaN out; IEEE leaves its sign bit to exp, so only
            # the non-NaN entries are compared bit for bit
            nan = np.isnan(want)
            np.testing.assert_array_equal(np.isnan(got), nan)
            bits = f"u{got.itemsize}"
            np.testing.assert_array_equal(
                np.ascontiguousarray(got[~nan]).view(bits),
                np.ascontiguousarray(want[~nan]).view(bits),
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_overflow_or_invalid_on_finite_inputs(self, dtype):
        x = sigmoid_grid(dtype)
        finite = x[np.isfinite(x)]
        with np.errstate(over="raise", invalid="raise"):
            y = _sigmoid(finite)
        assert ((y >= 0) & (y <= 1)).all()

    def test_does_not_modify_its_input(self):
        x = sigmoid_grid(np.float64)
        before = x.copy()
        _sigmoid(x)
        np.testing.assert_array_equal(x, before)


SPECIAL = [0.0, -0.0, 1000.0, -1000.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 17.0, -17.0,
           -88.0, -104.0, -708.0, -760.0]


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal dtype, shape and NaN positions, and bit-equal everywhere else."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    bits = f"u{got.itemsize}"
    np.testing.assert_array_equal(
        np.ascontiguousarray(got[~nan]).view(bits), np.ascontiguousarray(want[~nan]).view(bits)
    )


def multiscale(shape, dtype, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 10.0, 100.0], shape)
    return x.astype(dtype)


# a large size for the sigmoid kernels: their cases run at and around it
N = 1 << 16


class TestBlockedSigmoid:
    """_sigmoid and _sigmoid_vjp at many sizes, from empty to about 2.5 * N
    elements: the oracles hold at every size, with special values at fixed
    positions deep inside the array and at its end, and on views."""

    SIZES = [0, 1, N, N + 1, 5 * N // 2 + 3]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", SIZES)
    def test_bit_equal_to_two_branch_formula_at_every_size(self, dtype, size):
        x = multiscale(size, dtype)
        x[: len(SPECIAL)] = SPECIAL[:size]
        assert_same_bits(_sigmoid(x), two_branch_sigmoid(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values_at_block_boundaries(self, dtype):
        x = multiscale(5 * N // 2, dtype)
        for value in SPECIAL:
            x[[N - 1, N, N + 1, -1]] = value
            assert_same_bits(_sigmoid(x), two_branch_sigmoid(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_views_read_in_logical_order(self, dtype):
        x = multiscale((80, 64, 64), dtype)  # 5 * N elements
        x.flat[N - 1 : N - 1 + len(SPECIAL)] = SPECIAL
        zero_d = x[5:6, 6, 7].reshape(())
        views = (x.transpose(2, 0, 1), x[:, ::2], x[::-1, 3:, ::5], x.T[:7], x[5, 6, 7], zero_d)
        for view in views:
            got = _sigmoid(view)
            assert got.flags.c_contiguous
            assert_same_bits(got, two_branch_sigmoid(view))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", SIZES)
    def test_vjp_is_the_unblocked_expression_byte_for_byte(self, dtype, size):
        y = _sigmoid(multiscale(size, dtype, seed=1))
        g = multiscale(size, dtype, seed=2)
        want = g * y * (1.0 - y)
        got = _sigmoid_vjp(g, y)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_vjp_on_views_and_broadcast_gradients(self, dtype):
        y = _sigmoid(multiscale((80, 64, 64), dtype, seed=1))
        g = multiscale((80, 64, 64), dtype, seed=2)
        cases = [(g.transpose(2, 0, 1), y.transpose(2, 0, 1)), (g[:, ::2], y[:, ::2]),
                 (g[5, 6, 7], y[5, 6, 7]), (np.broadcast_to(np.ones((), dtype), y.shape), y)]
        for gv, yv in cases:
            want = gv * yv * (1.0 - yv)
            got = _sigmoid_vjp(gv, yv)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    def test_vjp_of_a_float64_gradient_through_a_float32_output(self):
        y = _sigmoid(multiscale(N + 5, np.float32, seed=1))
        g = multiscale(N + 5, np.float64, seed=2)
        want = g * y * (1.0 - y)
        got = _sigmoid_vjp(g, y)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_neither_kernel_writes_to_its_inputs(self, dtype):
        x = multiscale(5 * N // 2, dtype)
        x[N - 1 : N - 1 + len(SPECIAL)] = SPECIAL
        g = multiscale(x.shape, dtype, seed=3)
        y = _sigmoid(x)
        before = [a.tobytes() for a in (x, y, g)]
        _sigmoid(x)
        _sigmoid(x[::-2])
        _sigmoid_vjp(g, y)
        _sigmoid_vjp(g[::-2], y[::-2])
        assert [a.tobytes() for a in (x, y, g)] == before


class TestNoGrad:
    def test_tensors_made_inside_have_no_parents(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        with no_grad():
            y = (x * 2.0 + x).sigmoid().sum(axis=1)
            z = softmax(x @ x.T)
        for t in (y, z):
            assert t._node.parents == () and t._node.vjp is None
        np.testing.assert_array_equal(y.data, (x * 2.0 + x).sigmoid().sum(axis=1).data)

    def test_recording_resumes_after_nesting(self):
        x = Tensor(np.ones(3))
        with no_grad():
            with no_grad():
                assert (x + 1.0)._node.parents == ()
            assert (x + 1.0)._node.parents == ()
        assert (x + 1.0)._node.parents == (x._node,)

    def test_recording_resumes_after_an_exception(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        y = (x * 3.0).sum()
        y.backward()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0, 3.0])


class TestMaskedSoftmax:
    def test_rows_sum_to_one_and_masked_entries_are_exact_zero(self):
        rng = np.random.default_rng(2)
        scores = rng.standard_normal((6, 6)) * 3
        mask = (rng.random((6, 6)) < 0.5).astype(np.uint8)
        np.fill_diagonal(mask, 1)
        y = masked_softmax(Tensor(scores), mask).data
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(y[mask == 0] == 0.0)

    def test_single_element_row(self):
        y = masked_softmax(Tensor(np.array([[3.0]])), np.ones((1, 1))).data
        assert y[0, 0] == 1.0

    def test_fully_masked_row_rejected(self):
        mask = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        with pytest.raises(ValueError):
            masked_softmax(Tensor(np.zeros((2, 2))), mask)

    def test_non_finite_scores_are_not_a_mask_error(self):
        """A diverging model's NaN or infinite scores flow on; only the mask can be at fault."""
        with np.errstate(invalid="ignore"):
            for scores in ([[np.nan, 0.0], [1.0, 2.0]], [[np.inf, 0.0], [1.0, 2.0]]):
                for mask in (None, np.ones((2, 2))):
                    y = masked_softmax(Tensor(np.array(scores)), mask).data
                    assert np.isnan(y[0]).all() and np.isfinite(y[1]).all()
            y = masked_softmax(Tensor(np.array([[-np.inf, 0.0], [1.0, 2.0]])), None).data
            np.testing.assert_array_equal(y[0], [0.0, 1.0])

    def test_stacked_rows(self):
        rng = np.random.default_rng(4)
        check_op(lambda ts: masked_softmax(ts[0], None), [(3, 4, 4)], seed=4)
        scores = rng.standard_normal((3, 4, 4))
        stacked = masked_softmax(Tensor(scores), None).data
        for i in range(3):
            assert stacked[i].tobytes() == masked_softmax(Tensor(scores[i]), None).data.tobytes()

    def test_gradient(self):
        rng = np.random.default_rng(3)
        mask = (rng.random((5, 5)) < 0.6).astype(np.uint8)
        np.fill_diagonal(mask, 1)
        check_op(lambda ts: masked_softmax(ts[0], mask), [(5, 5)])

    def test_gradient_is_zero_at_masked_entries(self):
        mask = np.array([[1, 0], [1, 1]], dtype=np.uint8)
        x = Tensor(np.array([[1.0, 5.0], [0.5, 0.5]]))
        y = masked_softmax(x, mask)
        (y * np.ones((2, 2))).sum().backward()
        assert x.grad[0, 1] == 0.0


class TestLayerNorm:
    def test_normalizes_rows(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((3, 8)) * 4 + 2)
        g = Tensor(np.ones(8))
        b = Tensor(np.zeros(8))
        y = layer_norm(x, g, b).data
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-4)

    def test_gradient(self):
        check_op(lambda ts: layer_norm(ts[0], ts[1], ts[2]), [(3, 8), (8,), (8,)])


class TestDropout:
    def test_identity_without_rng_or_rate(self):
        x = Tensor(np.ones((4, 4)))
        assert dropout(x, 0.0, np.random.default_rng(0)) is x
        assert dropout(x, 0.5, None) is x

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        y = dropout(x, 0.3, rng).data
        kept = y[y > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7)
        assert abs(y.mean() - 1.0) < 0.02

    def test_deterministic_given_rng_state(self):
        a = dropout(Tensor(np.ones((5, 5))), 0.4, np.random.default_rng(9)).data
        b = dropout(Tensor(np.ones((5, 5))), 0.4, np.random.default_rng(9)).data
        np.testing.assert_array_equal(a, b)


class TestBackward:
    def test_shared_subexpression_accumulates(self):
        x = Tensor(np.array(2.0))
        y = x * x + x  # dy/dx = 2x + 1 = 5
        y.backward()
        assert float(x.grad) == 5.0

    def test_grads_accumulate_across_backward_calls(self):
        x = Tensor(np.array([1.0, 2.0]))
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0, 5.0])

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)).backward()

    def test_deep_chain_does_not_recurse(self):
        x = Tensor(np.array(1.0))
        y = x
        for _ in range(5000):
            y = y + 1.0
        y.backward()
        assert float(x.grad) == 1.0

    def test_float32_stays_float32(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        y = ((x * 0.5 + 1.0).tanh() @ Tensor(np.ones((2, 2), dtype=np.float32))).sum()
        assert y.dtype == np.float32
        y.backward()
        assert x.grad.dtype == np.float32

    def test_backward_uses_up_the_graph_and_leaves_keep_grads(self):
        rng = np.random.default_rng(60)
        x = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal(4))
        h = (x * w).sigmoid()
        loss = (h.sum(axis=1) * h.sum(axis=1)).sum()
        nodes, stack = {}, [loss._node]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node.parents)
        inner = [n for n in nodes.values() if n.parents]
        assert len(inner) == 6
        loss.backward()
        for n in inner:
            assert n.grad is None and n.parents == () and n.vjp is None
        assert x.grad.shape == x.shape and w.grad.shape == w.shape

    @gc_off()
    def test_backward_frees_intermediate_arrays(self):
        x = Tensor(np.linspace(-2.0, 2.0, 12).reshape(3, 4))
        y = x.sigmoid()
        ref = weakref.ref(y.data)
        loss = (y * y).sum()
        del y
        assert ref() is not None  # the tape holds it until backward
        loss.backward()
        assert ref() is None
        assert x.grad is not None

    @gc_off()
    def test_arrays_no_vjp_reads_die_before_backward(self):
        xv = np.linspace(-2.0, 2.0, 12).reshape(3, 4)

        def leaf_grad(drop_pre: bool) -> bytes:
            x = Tensor(xv.copy())
            pre = x + 1.0
            ref = weakref.ref(pre.data)
            loss = pre.sigmoid().sum()
            if drop_pre:
                del pre
                # the sigmoid VJP reads only its output: the tape does not hold its input
                assert ref() is None
            loss.backward()
            return x.grad.tobytes()

        y = _sigmoid(xv + 1.0)
        assert leaf_grad(True) == leaf_grad(False) == (y * (1.0 - y)).tobytes()

    @gc_off()
    def test_a_binary_op_keeps_its_operands_shapes_not_their_tensors(self):
        x = Tensor(np.linspace(-2.0, 2.0, 12).reshape(3, 4))
        h = x * 2.0
        ref = weakref.ref(h.data)
        loss = (h + 1.0).sum()
        del h
        # the add's VJP reads neither operand, so the tape does not hold h's array
        assert ref() is None
        loss.backward()
        np.testing.assert_array_equal(x.grad, np.full((3, 4), 2.0))

    def test_leaf_grads_are_the_byte_exact_chain_rule(self):
        rng = np.random.default_rng(61)
        # a shared subexpression: the add's grad reaches x before the product's two
        xv = rng.standard_normal(5)
        x = Tensor(xv.copy())
        (x * x + x).sum().backward()
        assert x.grad.tobytes() == ((1.0 + xv) + xv).tobytes()
        # broadcasting: b's grad is summed down over the rows
        xv, bv, c = rng.standard_normal((3, 4)), rng.standard_normal(4), rng.standard_normal((3, 4))
        x, b = Tensor(xv.copy()), Tensor(bv.copy())
        (x * b * c).sum().backward()
        assert x.grad.tobytes() == (c * bv).tobytes()
        assert b.grad.tobytes() == (c * xv).sum(axis=0).tobytes()
        # a row gather into segment_sum: gather the grad by segment, scatter it by row
        xv, c = rng.standard_normal((5, 3)), rng.standard_normal((3, 3))
        idx, segments = np.array([0, 2, 2, 4, 0]), np.array([1, 0, 1, 1, 2])
        x = Tensor(xv.copy())
        (segment_sum(x[idx], segments, 3) * c).sum().backward()
        assert x.grad.tobytes() == add_at(c[segments], idx, 5).tobytes()

    def test_one_vjp_call_per_node_even_with_a_parent_named_twice(self):
        """An op with parents (x, w, x), as x * w * x in one node: backward()
        calls its VJP once, and each leaf's gradient is the sum of what that
        one call returned for its slots, in parent order."""
        rng = np.random.default_rng(63)
        xv, wv, c = (rng.standard_normal((3, 4)) for _ in range(3))
        x, w = Tensor(xv.copy()), Tensor(wv.copy())
        returned = []

        def vjp(g):
            returned.append((g * wv * xv, g * xv * xv, g * xv * wv))
            return returned[-1]

        (Tensor(xv * wv * xv, (x, w, x), vjp) * c).sum().backward()
        assert len(returned) == 1
        first, middle, last = returned[0]
        assert x.grad.tobytes() == (first + last).tobytes()
        assert w.grad.tobytes() == middle.tobytes()

    def test_numpy_left_operands_defer_to_tensor(self):
        x = Tensor(np.ones(3))
        y = np.full(3, 2.0) * x + np.ones(3)
        assert isinstance(y, Tensor)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, 2.0)
