import threading

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
