import threading
import tracemalloc

import numpy as np
import pytest

from iisan import autodiff as ad
from iisan.autodiff import Adam, Parameter, Tape, Tensor
from iisan.errors import ContractError, DimensionError
from iisan.layers import TransformerBlock, causal_mask


def _param(data, name, trainable=True, dtype=np.float32):
    return Parameter(Tensor(np.asarray(data, dtype=dtype)), name, trainable)


def _grad_of(build_loss, params):
    with Tape() as tape:
        loss = build_loss()
    return ad.backward(tape, loss, params)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 3)).astype(np.float32))
    eye = Tensor(np.eye(3, dtype=np.float32))
    out = ad.matmul(eye, a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_hand_values():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
    b = Tensor(np.array([[1.0], [1.0]], dtype=np.float32))
    out = ad.matmul(a, b)
    np.testing.assert_array_equal(out.data, np.array([[3.0], [7.0]], dtype=np.float32))


def test_matmul_shape_error_names_both_shapes():
    a = Tensor(np.zeros((2, 3), dtype=np.float32))
    b = Tensor(np.zeros((4, 2), dtype=np.float32))
    with pytest.raises(DimensionError) as exc:
        ad.matmul(a, b)
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_matmul_grad_matches_ones_times_bt():
    # d sum(a@b) / da = ones @ b^T, checked against finite differences too
    rng = np.random.default_rng(1)
    a = _param(rng.normal(size=(5, 4)), "a")
    bdata = rng.normal(size=(4, 3)).astype(np.float32)
    b = Tensor(bdata)

    grads = _grad_of(lambda: ad.sum_all(ad.matmul(a.tensor, b)), [a])
    expected = np.ones((5, 3), dtype=np.float32) @ bdata.T
    np.testing.assert_allclose(grads["a"], expected, rtol=1e-6)

    report = ad.finite_difference_check(
        [a], lambda: ad.sum_all(ad.matmul(a.tensor, b)), step=1e-3, tolerance=1e-3)
    assert report.passed, report.per_param


def test_linear_gradient_vs_finite_differences():
    rng = np.random.default_rng(10)
    x = _param(rng.normal(size=(4, 5)), "x", dtype=np.float64)
    w = _param(rng.normal(size=(5, 3)), "w", dtype=np.float64)
    b = _param(rng.normal(size=(3,)), "b", dtype=np.float64)
    weights = Tensor(rng.uniform(0.5, 1.5, size=(4, 3)), dtype=np.float64)

    def loss_fn():
        return ad.sum_all(ad.mul(ad.linear(x.tensor, w.tensor, b.tensor), weights))

    report = ad.finite_difference_check([x, w, b], loss_fn, step=1e-6, tolerance=1e-5)
    assert report.passed, report.per_param


@pytest.mark.parametrize("x_shape, w_shape, b_shape", [
    ((5,), (5, 3), (3,)), ((4, 6), (5, 3), (3,)), ((4, 5), (5, 3), (4,)),
], ids=["1d-x", "inner-mismatch", "bias-length"])
def test_linear_shape_error_names_the_shapes(x_shape, w_shape, b_shape):
    x, w, b = (Tensor(np.zeros(shape, dtype=np.float32)) for shape in (x_shape, w_shape, b_shape))
    with pytest.raises(DimensionError) as exc:
        ad.linear(x, w, b)
    assert all(str(shape) in str(exc.value) for shape in (x_shape, w_shape, b_shape))


def test_sigmoid_at_zero():
    one, zero = (Tensor(np.asarray(v, dtype=np.float32)) for v in (1.0, 0.0))
    out = ad.gate(Tensor(np.zeros((), dtype=np.float32)), one, zero)
    assert out.item() == pytest.approx(0.5)


def test_layernorm_constant_vector_yields_offset():
    x = Tensor(np.full((6,), 3.25, dtype=np.float32))
    gain = Tensor(np.full((6,), 2.0, dtype=np.float32))
    offset = Tensor(np.arange(6, dtype=np.float32))
    out = ad.layernorm(x, gain, offset)
    np.testing.assert_allclose(out.data, offset.data, atol=1e-5)


def test_gelu_gradient_vs_finite_differences():
    rng = np.random.default_rng(2)
    x = _param(rng.normal(size=(100,)) * 2.0, "x")
    report = ad.finite_difference_check(
        [x], lambda: ad.sum_all(ad.gelu(x.tensor)), step=1e-3, tolerance=1e-3)
    assert report.passed, report.per_param


def test_elementwise_ops_take_equal_shapes_only():
    a = Tensor(np.ones((2, 2), dtype=np.float32))
    s = Tensor(np.asarray(2.0, dtype=np.float32))
    row = Tensor(np.ones((2,), dtype=np.float32))
    np.testing.assert_array_equal(ad.add(a, a).data, np.full((2, 2), 2.0, np.float32))
    np.testing.assert_array_equal(ad.mul(a, a).data, np.ones((2, 2), np.float32))
    for op in (ad.add, ad.mul, lambda x, y: ad.gate(s, x, y)):
        for x, y in ((a, s), (s, a), (a, row), (row, a)):
            with pytest.raises(DimensionError):
                op(x, y)
    with pytest.raises(DimensionError):
        ad.gate(row, a, a)  # the gate's raw value is a scalar


def test_backward_simple_square():
    w = _param([3.0], "w")
    grads = _grad_of(lambda: ad.sum_all(ad.mul(w.tensor, w.tensor)), [w])
    np.testing.assert_allclose(grads["w"], [6.0], rtol=1e-6)


def test_backward_frozen_param_absent():
    w = _param([2.0], "w")
    frozen = _param([4.0], "frozen", trainable=False)
    grads = _grad_of(lambda: ad.sum_all(ad.mul(w.tensor, frozen.tensor)), [w, frozen])
    assert "frozen" not in grads
    np.testing.assert_allclose(grads["w"], [4.0], rtol=1e-6)


class _Holder:
    """Not a Module: the parameter walk does not enter it."""

    def __init__(self, p):
        self.p = p


class _Leaf(ad.Module):
    def __init__(self, name):
        self.w = _param([1.0], f"{name}.w")


class _Toy(ad.Module):
    def __init__(self):
        self.first = _param([0.0], "first")
        self.width = 3
        self.label = "toy"
        self.holder = _Holder(_param([0.0], "held"))
        self.nested = _Leaf("nested")
        self.absent = None
        self.layers = [_Leaf("list0"), _param([0.0], "list1")]
        self.pair = (_param([0.0], "tuple0"), _Leaf("tuple1"))
        self.gates = {2: _param([0.0], "dict2"), 1: _Leaf("dict1")}
        self.last = _param([0.0], "last")


def test_module_parameters_walk_attributes_in_assignment_order():
    """Parameters held directly, by nested Modules and by list, tuple and dict
    values, in assignment (and insertion) order; None, scalars, strings and a
    non-Module object holding a Parameter are skipped."""
    assert [p.name for p in _Toy().parameters()] == [
        "first", "nested.w", "list0.w", "list1", "tuple0", "tuple1.w", "dict2", "dict1.w", "last"]


def test_parameter_trainable_is_its_tensor_flag():
    p = _param([1.0], "p", trainable=False)
    assert not p.trainable and not p.tensor.requires_grad
    p.tensor.requires_grad = True
    assert p.trainable


def test_backward_unreachable_trainable_is_zero():
    w = _param([2.0], "w")
    unused = _param([5.0], "unused")
    grads = _grad_of(lambda: ad.sum_all(ad.mul(w.tensor, w.tensor)), [w, unused])
    np.testing.assert_array_equal(grads["unused"], [0.0])


def test_backward_rejects_non_scalar_loss():
    w = _param([1.0, 2.0], "w")
    with pytest.raises(ContractError):
        with Tape() as tape:
            loss = ad.mul(w.tensor, w.tensor)
        ad.backward(tape, loss, [w])


def test_gradient_accumulates_for_shared_input():
    # f(x) = x + x  =>  df/dx = 2
    x = _param([1.5], "x")
    grads = _grad_of(lambda: ad.sum_all(ad.add(x.tensor, x.tensor)), [x])
    np.testing.assert_allclose(grads["x"], [2.0], rtol=1e-6)


def test_determinism_bit_identical_runs():
    def run():
        rng = np.random.default_rng(42)
        w = _param(rng.normal(size=(4, 4)), "w")
        x = Tensor(rng.normal(size=(4, 4)).astype(np.float32))
        grads = _grad_of(lambda: ad.sum_all(ad.gelu(ad.matmul(x, w.tensor))), [w])
        return grads["w"].tobytes()

    assert run() == run()


def test_take_rows_scatter_adds_repeats():
    table = _param(np.arange(8, dtype=np.float32).reshape(4, 2), "table")
    grads = _grad_of(lambda: ad.sum_all(ad.take_rows(table.tensor, [1, 1, 3])), [table])
    expected = np.zeros((4, 2), dtype=np.float32)
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(grads["table"], expected)


def test_concat_routes_gradients_to_each_part():
    left = _param(np.arange(6, dtype=np.float32).reshape(3, 2), "left")
    right = _param(np.arange(6, 12, dtype=np.float32).reshape(3, 2), "right")
    weights = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))

    grads = _grad_of(lambda: ad.sum_all(ad.mul(ad.concat([right.tensor, left.tensor], 1), weights)),
                     [left, right])
    np.testing.assert_array_equal(grads["right"], weights.data[:, :2])
    np.testing.assert_array_equal(grads["left"], weights.data[:, 2:])


@pytest.mark.parametrize("heads", [2, 4])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "causal"])
def test_attention_gradient_vs_finite_differences(heads, masked):
    rng = np.random.default_rng(0)
    q, k, v = (_param(rng.normal(size=(5, 8)), name, dtype=np.float64) for name in "qkv")
    weights = Tensor(rng.normal(size=(5, 8)), dtype=np.float64)
    mask = causal_mask(5) if masked else None

    def loss_fn():
        out = ad.attention(q.tensor, k.tensor, v.tensor, heads, mask)
        return ad.sum_all(ad.mul(out, weights))

    report = ad.finite_difference_check([q, k, v], loss_fn, step=1e-6, tolerance=1e-5)
    assert report.passed, report.per_param


def _batched_linear(rng):
    x, w, b = (_param(rng.normal(size=shape), name, dtype=np.float64)
               for shape, name in (((2, 3, 4), "x"), ((4, 5), "w"), ((5,), "b")))
    return [x, w, b], lambda: ad.linear(x.tensor, w.tensor, b.tensor)


def _batched_attention(rng):
    q, k, v = (_param(rng.normal(size=(3, 4, 6)), name, dtype=np.float64) for name in "qkv")
    return [q, k, v], lambda: ad.attention(q.tensor, k.tensor, v.tensor, 2, causal_mask(4))


def _repeating_take_rows(rng):
    table = _param(rng.normal(size=(4, 3)), "table", dtype=np.float64)
    return [table], lambda: ad.take_rows(table.tensor, [[1, 3, 1], [0, 1, 1]])


def _reshape(rng):
    x = _param(rng.normal(size=(2, 3, 4)), "x", dtype=np.float64)
    return [x], lambda: ad.reshape(x.tensor, (6, 4))


@pytest.mark.parametrize("build", [_batched_linear, _batched_attention, _repeating_take_rows, _reshape],
                         ids=["linear-3d", "attention-batched-causal", "take_rows-2d-index", "reshape"])
def test_batch_axis_gradients_vs_finite_differences(build):
    rng = np.random.default_rng(4)
    params, op = build(rng)
    shape = op().shape
    weights = Tensor(rng.uniform(0.5, 1.5, size=shape), dtype=np.float64)
    report = ad.finite_difference_check(params, lambda: ad.sum_all(ad.mul(op(), weights)),
                                        step=1e-6, tolerance=1e-5)
    assert report.passed, report.per_param


def test_attention_rows_are_convex_mixes_of_values():
    rng = np.random.default_rng(3)
    q, k = (Tensor(rng.normal(size=(4, 6)).astype(np.float32)) for _ in range(2))
    v = Tensor(np.ones((4, 6), dtype=np.float32))
    np.testing.assert_allclose(ad.attention(q, k, v, 3, causal_mask(4)).data, v.data, rtol=1e-6)
    with pytest.raises(DimensionError):
        ad.attention(q, k, v, 4, None)  # 4 heads do not divide 6 columns


def test_transformer_block_tape_entries_do_not_grow_with_heads():
    x = Tensor(np.random.default_rng(9).normal(size=(5, 8)).astype(np.float32))
    counts = []
    for heads in (1, 2, 4):
        block = TransformerBlock(8, heads, "block", np.random.default_rng(0))
        with Tape() as tape:
            block(x, causal_mask(5))
        counts.append(len(tape.entries))
    assert counts == [12, 12, 12]  # ln, 4 linears, attention, add, ln, 2 linears, gelu, add


def test_masked_ce_gradient_vs_finite_differences():
    rng = np.random.default_rng(4)
    logits = _param(rng.normal(size=(3, 6)), "logits")
    allowed = rng.uniform(size=(3, 6)) > 0.3
    positives = np.array([0, 2, 5])
    allowed[np.arange(3), positives] = True

    report = ad.finite_difference_check(
        [logits], lambda: ad.masked_softmax_ce(logits.tensor, allowed, positives),
        step=1e-3, tolerance=1e-3)
    assert report.passed, report.per_param


def test_masked_ce_gradient_holds_no_subnormal():
    # gaps of 80-110 below the row maximum put exp(z - max) in the normal,
    # subnormal (below ~87.3) and zero (below ~103.3) ranges of float32
    rng = np.random.default_rng(11)
    t, c = 6, 64
    z = (-rng.uniform(80.0, 110.0, size=(t, c))).astype(np.float32)
    positives = rng.integers(0, c, size=t)
    z[np.arange(t), positives] = 0.0
    allowed = rng.uniform(size=(t, c)) > 0.2
    allowed[np.arange(t), positives] = True
    logits = _param(z, "logits")
    with Tape() as tape:
        loss = ad.masked_softmax_ce(logits.tensor, allowed, positives)
    g = ad.backward(tape, loss, [logits])["logits"]

    tiny = np.finfo(np.float32).tiny
    assert int(((g != 0) & (np.abs(g) < tiny)).sum()) == 0
    rows = np.arange(t)
    zm = np.where(allowed, z, -np.inf)
    m = zm.max(axis=1)
    e = np.exp(zm - m[:, None])
    assert ((e > 0) & (e < tiny)).any()  # the unflushed formula does meet subnormals here
    s = e.sum(axis=1)
    expected = np.asarray(((m + np.log(s)) - z[rows, positives]).mean(), dtype=np.float32)
    assert loss.data.tobytes() == expected.tobytes()
    unflushed = (e / s[:, None]) / t
    unflushed[rows, positives] -= 1.0 / t
    np.testing.assert_array_equal(g, np.where(np.abs(unflushed) < tiny, 0, unflushed))


def test_finite_difference_check_linear_model():
    rng = np.random.default_rng(5)
    w = _param(rng.uniform(-1.0, 1.0, size=(8,)), "w")
    x = Tensor(rng.uniform(0.5, 1.5, size=(8,)).astype(np.float32))
    report = ad.finite_difference_check(
        [w], lambda: ad.sum_all(ad.mul(w.tensor, x)), step=1e-3, tolerance=1e-3)
    assert report.max_rel_err < 1e-4, report.per_param


def test_finite_difference_check_empty_model():
    report = ad.finite_difference_check([], lambda: Tensor(np.asarray(0.0)))
    assert report.per_param == {}
    assert report.passed


def test_gate_gradient_at_raw_zero():
    # loss = sigmoid(raw) * c + (1 - sigmoid(raw)) * 0 at raw=0 has gradient 0.25 * c
    raw = _param(np.asarray(0.0), "raw")
    c = 3.0
    c_t, zero = (Tensor(np.asarray(v, dtype=np.float32)) for v in (c, 0.0))
    grads = _grad_of(lambda: ad.gate(raw.tensor, c_t, zero), [raw])
    assert float(grads["raw"]) == pytest.approx(0.25 * c, rel=1e-6)
    report = ad.finite_difference_check(
        [raw], lambda: ad.gate(raw.tensor, c_t, zero), step=1e-3, tolerance=1e-3)
    assert report.passed


@pytest.mark.parametrize("raw_value", [-3.0, 0.0, 3.0])
def test_gate_gradient_vs_finite_differences(raw_value):
    rng = np.random.default_rng(8)
    raw = _param(np.asarray(raw_value), "raw", dtype=np.float64)
    x, y = (_param(rng.normal(size=(4, 5)), name, dtype=np.float64) for name in "xy")
    # weights away from zero keep every gradient element above the differences' roundoff
    weights = Tensor(rng.uniform(0.5, 1.5, size=(4, 5)), dtype=np.float64)

    def loss_fn():
        return ad.sum_all(ad.mul(ad.gate(raw.tensor, x.tensor, y.tensor), weights))

    report = ad.finite_difference_check([raw, x, y], loss_fn, step=1e-6, tolerance=1e-5)
    assert report.passed, report.per_param


def test_float64_mode_tighter_tolerance():
    rng = np.random.default_rng(6)
    w = _param(rng.normal(size=(6, 3)), "w", dtype=np.float64)
    x = Tensor(rng.normal(size=(4, 6)), dtype=np.float64)

    def loss_fn():
        return ad.sum_all(ad.gelu(ad.matmul(x, w.tensor)))

    report = ad.finite_difference_check([w], loss_fn, step=1e-6, tolerance=1e-5)
    assert report.passed, report.per_param


def test_adam_zero_lr_keeps_parameters():
    w = _param([1.0, -2.0], "w")
    before = w.data.copy()
    opt = Adam([w], lr=0.0)
    opt.step({"w": np.array([0.5, 0.5], dtype=np.float32)})
    np.testing.assert_array_equal(w.data, before)


def test_adam_moves_against_gradient():
    w = _param([1.0], "w")
    opt = Adam([w], lr=0.1)
    opt.step({"w": np.array([1.0], dtype=np.float32)})
    assert float(w.data[0]) < 1.0


class _PerParameterAdam:
    """Adam with its state kept per parameter: the reference for the flat one."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = params, lr, 0
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}

    def step(self, grads):
        self.t += 1
        b1, b2 = Adam.beta1, Adam.beta2
        bc1, bc2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p in self.params:
            g, m, v = grads[p.name], self.m[p.name], self.v[p.name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + Adam.eps)
            p.tensor.data -= np.asarray(self.lr * update, dtype=p.data.dtype)


def test_flat_adam_matches_per_parameter_adam_bit_for_bit():
    rng = np.random.default_rng(12)
    shapes = {"s": (), "v": (3,), "w": (4, 5)}
    start = {n: rng.normal(size=shape) for n, shape in shapes.items()}
    flat = [_param(start[n], n) for n in shapes]
    ref = [_param(start[n], n) for n in shapes]
    opt, ref_opt = Adam(flat, lr=1e-3), _PerParameterAdam(ref, lr=1e-3)
    for _ in range(5):
        grads = {n: rng.normal(size=shape).astype(np.float32) for n, shape in shapes.items()}
        ref_opt.step(grads)
        opt.step({**grads, "backbone.only": np.ones(7, dtype=np.float32)})  # not the optimizer's: ignored
        for a, b in zip(flat, ref):
            assert a.data.shape == b.data.shape
            assert a.data.tobytes() == b.data.tobytes(), a.name


def test_flat_adam_step_allocates_less_than_one_parameter_buffer():
    rng = np.random.default_rng(13)
    params = [_param(rng.normal(size=shape), f"p{i}") for i, shape in enumerate([(), (3,), (256, 128)])]
    grads = {p.name: rng.normal(size=p.data.shape).astype(np.float32) for p in params}
    opt = Adam(params, lr=1e-3)
    opt.step(grads)
    buffer_bytes = 4 * sum(p.data.size for p in params)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        opt.step(grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < buffer_bytes, (peak, buffer_bytes)


def test_adam_rejects_a_missing_or_misshapen_gradient():
    w, b = _param(np.ones((2, 3)), "w"), _param(np.zeros(3), "b")
    opt = Adam([w, b], lr=0.1)
    with pytest.raises(ContractError, match="'b'"):
        opt.step({"w": np.ones((2, 3), dtype=np.float32)})
    with pytest.raises(DimensionError, match="'w'"):
        opt.step({"w": np.ones(6, dtype=np.float32), "b": np.ones(3, dtype=np.float32)})
    assert opt.t == 0  # a refused step leaves the optimizer as it was
    np.testing.assert_array_equal(w.data, np.ones((2, 3)))


def test_all_values_finite_after_ops():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(9, 8)).astype(np.float32) * 10.0)
    gain = Tensor(np.ones(8, dtype=np.float32))
    offset = Tensor(np.zeros(8, dtype=np.float32))
    gates = [ad.gate(Tensor(r), x, x) for r in (x.data.min(), x.data.max())]
    for out in (ad.gelu(x), *gates, ad.layernorm(x, gain, offset), ad.attention(x, x, x, 2, None)):
        assert np.isfinite(out.data).all()


def test_tape_scopes_label_entries():
    w = _param([2.0], "w")
    with Tape() as tape:
        with ad.scope("backbone"):
            hidden = ad.mul(w.tensor, w.tensor)
        loss = ad.sum_all(hidden)
    assert [e.scope for e in tape.entries] == ["backbone", ""]
    assert len([e for e in tape.entries if e.scope.startswith("backbone")]) == 1


def test_tape_records_only_its_own_thread():
    w = _param(np.eye(2), "w")
    thread_tapes = []

    def matmuls():
        for _ in range(200):
            ad.matmul(w.tensor, w.tensor)

    def worker():
        matmuls()  # no tape is active on this thread
        with Tape() as own:  # and it may start its own
            matmuls()
        thread_tapes.append(own)

    with Tape() as tape:
        thread = threading.Thread(target=worker)
        thread.start()
        matmuls()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(tape.entries) == 200
    assert [len(t.entries) for t in thread_tapes] == [200]
    with pytest.raises(ContractError):
        with Tape(), Tape():
            pass
