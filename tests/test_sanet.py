import numpy as np
import pytest

from iisan import autodiff as ad
from iisan import sanet
from iisan.autodiff import Tensor
from iisan.errors import ConfigError, ContractError
from iisan.sanet import (MODE_ASYM_EVEN_ALL, MODE_ASYM_GROUPED, MODE_SYMMETRIC_EVEN,
                         IisanModel, select_layers)


# --- layer selection ----------------------------------------------------------

def test_symmetric_even_twelve_layers():
    plan = select_layers(MODE_SYMMETRIC_EVEN, 12)
    assert plan.kept_indices == (2, 4, 6, 8, 10, 12)
    assert plan.m == 6


def test_grouped_eighty_layer_text_encoder():
    plan = select_layers(MODE_ASYM_GROUPED, 80, 12)
    assert plan.group_size == 13
    assert plan.m == 6
    assert plan.kept_indices == (15, 28, 41, 54, 67, 80)


def test_grouped_twenty_four_layers():
    plan = select_layers(MODE_ASYM_GROUPED, 24, 12)
    assert plan.group_size == 3
    assert plan.kept_indices == (9, 12, 15, 18, 21, 24)


def test_grouped_group_size_is_maximal():
    for src in (24, 32, 80, 17, 50):
        plan = select_layers(MODE_ASYM_GROUPED, src, 12)
        k, m = plan.group_size, plan.m
        assert src - k * m >= 1
        assert src - (k + 1) * m < 1


def test_even_all_spreads_over_source():
    plan = select_layers(MODE_ASYM_EVEN_ALL, 24, 12)
    assert plan.kept_indices == (4, 8, 12, 16, 20, 24)
    assert select_layers(MODE_ASYM_EVEN_ALL, 12, 12).kept_indices == (2, 4, 6, 8, 10, 12)


def test_plan_legality_across_random_configs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        image_layers = int(rng.integers(2, 33))
        m = image_layers // 2
        src = int(rng.integers(max(2, m + 1), 129))
        for mode in (MODE_ASYM_EVEN_ALL, MODE_ASYM_GROUPED):
            plan = select_layers(mode, src, image_layers)
            kept = plan.kept_indices
            assert len(kept) == m
            assert all(1 <= i <= src for i in kept)
            assert all(b > a for a, b in zip(kept, kept[1:]))
    for src in range(2, 65):
        plan = select_layers(MODE_SYMMETRIC_EVEN, src)
        assert plan.kept_indices == tuple(range(2, src + 1, 2))


def test_infeasible_plans_rejected():
    with pytest.raises(ConfigError):
        select_layers(MODE_SYMMETRIC_EVEN, 1)
    with pytest.raises(ConfigError):
        select_layers(MODE_ASYM_GROUPED, 6, 12)  # k would be 0
    with pytest.raises(ConfigError):
        select_layers(MODE_ASYM_EVEN_ALL, 4, 12)  # 6 blocks cannot fit in 4 layers
    with pytest.raises(ConfigError):
        select_layers("bogus", 12)


# --- blocks and gates -----------------------------------------------------------

def test_sanblock_zero_init_is_identity():
    rng = np.random.default_rng(1)
    blk = sanet.SanBlock(8, 3, "blk", rng)
    x = Tensor(rng.normal(size=(4, 8)).astype(np.float32))
    np.testing.assert_array_equal(blk(x).data, x.data)


def test_sanblock_hand_arithmetic():
    rng = np.random.default_rng(2)
    blk = sanet.SanBlock(2, 1, "blk", rng)
    blk.down.w.tensor.data = np.array([[1.0], [2.0]], dtype=np.float32)
    blk.down.b.tensor.data = np.array([0.5], dtype=np.float32)
    blk.up.w.tensor.data = np.array([[3.0, -1.0]], dtype=np.float32)
    blk.up.b.tensor.data = np.array([0.25, 0.5], dtype=np.float32)
    x = np.array([[0.2, -0.3]], dtype=np.float32)
    z = 0.2 * 1.0 + (-0.3) * 2.0 + 0.5  # 0.1
    g = 0.5 * z * (1.0 + np.tanh(0.7978845608028654 * (z + 0.044715 * z ** 3)))
    expected = x + np.array([[g * 3.0 + 0.25, g * -1.0 + 0.5]])
    np.testing.assert_allclose(blk(Tensor(x)).data, expected, atol=1e-6)


def test_sanblock_gradient_vs_finite_differences():
    rng = np.random.default_rng(3)
    blk = sanet.SanBlock(5, 2, "blk", rng)
    blk.up.w.tensor.data = rng.normal(size=(2, 5)).astype(np.float32) * 0.3
    x = Tensor(rng.normal(size=(3, 5)).astype(np.float32))
    report = ad.finite_difference_check(
        blk.parameters(), lambda: ad.sum_all(blk(x)), step=1e-3, tolerance=1e-3)
    assert report.passed, report.per_param


def test_gate_value_stays_in_open_interval():
    g = _model().intra_text.gates[2].tensor
    one, zero = (Tensor(np.asarray(v, dtype=np.float32)) for v in (1.0, 0.0))
    for raw in (-30.0, 0.0, 30.0):
        g.data = np.asarray(raw, dtype=np.float32)
        v = float(ad.gate(g, one, zero).data)
        assert 0.0 <= v <= 1.0
    g.data = np.asarray(0.0, dtype=np.float32)
    assert float(ad.gate(g, one, zero).data) == 0.5


# --- towers ---------------------------------------------------------------------

def _model(variant="vs", text_layers=8, text_dim=6, image_layers=8, image_dim=6, **kw):
    kw.setdefault("bottleneck", 3)
    kw.setdefault("dseq", 5)
    kw.setdefault("seed", 7)
    return IisanModel(variant, text_layers, text_dim, image_layers, image_dim, **kw)


def _randomize(model, seed=11, scale=0.2):
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.tensor.data = (rng.normal(size=p.data.shape) * scale).astype(np.float32)


def _random_stack(m, n, dim, seed):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=(n, dim)).astype(np.float32)) for _ in range(m + 1)]


def test_intra_gate_saturation_ignores_later_states():
    model = _model()
    tower = model.intra_text
    _randomize(model)
    for gate in tower.gates.values():
        gate.tensor.data = np.asarray(30.0, dtype=np.float32)  # sigmoid == 1.0 in float32
    states = _random_stack(tower.m, 2, 6, seed=4)
    out = tower(states)
    cascade = states[0]
    for blk in tower.blocks:
        cascade = blk(cascade)
    np.testing.assert_array_equal(out.data, cascade.data)


def test_intra_m1_uses_single_block_only():
    model = _model(text_layers=2, image_layers=2)
    tower = model.intra_text
    assert tower.m == 1 and not tower.gates
    states = _random_stack(1, 3, 6, seed=5)
    np.testing.assert_array_equal(tower(states).data, tower.blocks[0](states[0]).data)


def test_intra_stack_length_contract():
    model = _model()
    with pytest.raises(ContractError):
        model.intra_text(_random_stack(2, 1, 6, seed=6))


def _params_by_name(model):
    return {p.name: p.data for p in model.parameters()}


def _np_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x ** 3)))


def _np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _np_sanb(x, p, name):
    h = _np_gelu(x @ p[f"{name}.down.w"] + p[f"{name}.down.b"])
    return x + (h @ p[f"{name}.up.w"] + p[f"{name}.up.b"])


def _np_intra(states, p, prefix, m):
    b = _np_sanb(states[0], p, f"{prefix}.block1")
    for i in range(2, m + 1):
        g = _np_sigmoid(p[f"{prefix}.gate{i}"])
        b = _np_sanb(g * b + (1.0 - g) * states[i], p, f"{prefix}.block{i}")
    return b


def _np_inter(text, image, p, m, with_dtl):
    if with_dtl:
        text = [t @ p["dtl.w"] + p["dtl.b"] for t in text]
    g = _np_sigmoid(p["inter.gate1"])
    b = _np_sanb(g * image[0] + (1.0 - g) * text[0], p, "inter.block1")
    for i in range(2, m + 1):
        g = _np_sigmoid(p[f"inter.gate{i}"])
        b = _np_sanb(g * image[i] + (1.0 - g) * text[i] + b, p, f"inter.block{i}")
    return b


def _np_item_embed(model, text, image):
    p = _params_by_name(model)
    m = model.m
    e_text = _np_intra(text, p, "intra_text", m)
    e_image = _np_intra(image, p, "intra_image", m)
    e_inter = _np_inter(text, image, p, m, model.dtl is not None)
    return np.concatenate([e_image, e_inter, e_text], axis=1) @ p["fusion.w"] + p["fusion.b"]


def test_intra_matches_straight_line_oracle_at_default_gates():
    model = _model()
    _randomize(model)
    for gate in model.intra_text.gates.values():
        gate.tensor.data = np.asarray(0.0, dtype=np.float32)
    states = _random_stack(model.m, 3, 6, seed=8)
    out = model.intra_text(states)
    expected = _np_intra([s.data for s in states], _params_by_name(model), "intra_text", model.m)
    np.testing.assert_allclose(out.data, expected, atol=1e-6)


def test_inter_gate_saturation_drops_text_dependency():
    model = _model()
    _randomize(model)
    for gate in model.inter.gates.values():
        gate.tensor.data = np.asarray(30.0, dtype=np.float32)
    image = _random_stack(model.m, 2, 6, seed=9)
    text_a = _random_stack(model.m, 2, 6, seed=10)
    text_b = _random_stack(model.m, 2, 6, seed=11)
    out_a = model.inter(text_a, image, model.dtl)
    out_b = model.inter(text_b, image, model.dtl)
    np.testing.assert_array_equal(out_a.data, out_b.data)


def test_inter_identical_stacks_reduce_to_state_plus_previous():
    model = _model()
    _randomize(model)
    rng = np.random.default_rng(12)
    for gate in model.inter.gates.values():
        gate.tensor.data = np.asarray(rng.normal(), dtype=np.float32)
    stack = _random_stack(model.m, 2, 6, seed=13)
    out = model.inter(stack, stack, None)

    p = _params_by_name(model)
    b = _np_sanb(stack[0].data, p, "inter.block1")
    for i in range(2, model.m + 1):
        b = _np_sanb(stack[i].data + b, p, f"inter.block{i}")
    np.testing.assert_allclose(out.data, b, atol=1e-5)


def test_inter_asymmetric_matches_dtl_oracle():
    model = _model(variant="va", text_layers=16, text_dim=10, image_layers=8, image_dim=6)
    _randomize(model)
    text = _random_stack(model.m, 2, 10, seed=14)
    image = _random_stack(model.m, 2, 6, seed=15)
    out = model.inter(text, image, model.dtl)
    expected = _np_inter([t.data for t in text], [i.data for i in image],
                         _params_by_name(model), model.m, with_dtl=True)
    np.testing.assert_allclose(out.data, expected, atol=1e-6)


# --- whole model ----------------------------------------------------------------

def test_item_embed_zero_init_shape_and_determinism():
    model = IisanModel("vs", 12, 16, 12, 16, bottleneck=4, dseq=64, seed=3)
    text = _random_stack(model.m, 5, 16, seed=16)
    image = _random_stack(model.m, 5, 16, seed=17)
    out = model.item_embed(text, image)
    assert out.shape == (5, 64)
    np.testing.assert_array_equal(out.data, model.item_embed(text, image).data)


def test_item_embed_matches_full_graph_oracle():
    model = _model(variant="va", text_layers=12, text_dim=8, image_layers=6, image_dim=4)
    _randomize(model)
    text = _random_stack(model.m, 2, 8, seed=18)
    image = _random_stack(model.m, 2, 4, seed=19)
    out = model.item_embed(text, image)
    expected = _np_item_embed(model, [t.data for t in text], [i.data for i in image])
    np.testing.assert_allclose(out.data, expected, atol=1e-6)


def test_item_embed_gradients_cover_every_component():
    model = _model(variant="va", text_layers=12, text_dim=8, image_layers=6, image_dim=4)
    _randomize(model)
    text = _random_stack(model.m, 2, 8, seed=20)
    image = _random_stack(model.m, 2, 4, seed=21)
    with ad.Tape() as tape:
        loss = ad.sum_all(model.item_embed(text, image))
    grads = ad.backward(tape, loss, model.parameters())
    prefixes = {name.split(".")[0] for name, g in grads.items() if np.abs(g).max() > 0}
    assert {"intra_text", "intra_image", "inter", "dtl", "fusion"} <= prefixes


def test_item_embed_records_one_tape_entry_per_gate():
    model = _model(variant="va", text_layers=12, text_dim=8, image_layers=6, image_dim=4)
    m = model.m
    with ad.Tape() as tape:
        model.item_embed(_random_stack(m, 2, 8, seed=22), _random_stack(m, 2, 4, seed=23))
    gates = 3 * m - 2  # m - 1 per intra tower, m in the inter tower
    blocks = 3 * m * 4  # down linear, gelu, up linear, residual add
    links = (m - 1) + (m + 1) + 2  # inter residual adds, dtl linears, concat and fusion linear
    # one entry per gate; sigmoid, mul, one_minus, mul and add took five
    assert len(tape.entries) == blocks + gates + links


def test_variant_validation():
    with pytest.raises(ConfigError):
        IisanModel("vs", 12, 8, 12, 6)  # unequal dims
    with pytest.raises(ConfigError):
        IisanModel("vs", 12, 8, 10, 8)  # unequal layer counts
    with pytest.raises(ConfigError):
        IisanModel("va", 12, 8, 12, 6, text_mode=MODE_SYMMETRIC_EVEN)
    with pytest.raises(ConfigError):
        IisanModel("vx", 12, 8, 12, 8)
    with pytest.raises(ConfigError):
        sanet.plans_for("vs", 12, 12, MODE_ASYM_GROUPED)  # rejected, not silently ignored


def test_symmetric_model_has_no_dtl_and_va_has_one():
    assert _model().dtl is None
    va = _model(variant="va", text_layers=16, text_dim=10)
    assert va.dtl is not None
