import dataclasses

import numpy as np
import pytest

from iisan import costmodel as cm
from iisan.autodiff import Tape
from iisan.backbone import EncoderConfig, FrozenEncoder
from iisan.cache import CacheStore
from iisan.errors import ConfigError, ContractError
from iisan.recsys import (SEGMENTS, EncodeStateProvider, InteractionDataset, SeqEncoder, TrainConfig,
                          compute_popularity, evaluate, regime_model, split_leave_one_out, step_loss, train)
from iisan.sanet import IisanModel


def _cfgs(layers=12, hidden=768):
    return (EncoderConfig("text", layers, hidden, 512, 32, 1),
            EncoderConfig("image", layers, hidden, 256, 32, 2))


def _all(batch=32, **kw):
    text, image = _cfgs(**kw)
    san = cm.SanSpec()
    return {r: cm.estimate(text, image, san, r, batch=batch) for r in cm.REGIMES}


def test_cached_regime_has_zero_backbone_forward():
    reports = _all()
    assert reports[cm.DPEFT_CACHED].fwd_backbone_flops == 0
    assert reports[cm.DPEFT_UNCACHED].fwd_backbone_flops > 0


def test_backward_flops_strict_ordering():
    r = _all()
    assert r[cm.FFT].bwd_flops > r[cm.EPEFT_ADAPTER].bwd_flops
    assert r[cm.EPEFT_ADAPTER].bwd_flops > r[cm.DPEFT_UNCACHED].bwd_flops
    assert r[cm.DPEFT_UNCACHED].bwd_flops >= r[cm.DPEFT_CACHED].bwd_flops


def test_activation_ordering_and_fft_ratio():
    r = _all()
    act = [r[k].activation_bytes for k in (cm.DPEFT_CACHED, cm.DPEFT_UNCACHED,
                                           cm.EPEFT_ADAPTER, cm.FFT)]
    assert act[0] <= act[1] < act[2] < act[3]
    assert r[cm.FFT].activation_bytes / r[cm.DPEFT_CACHED].activation_bytes >= 10


def test_activation_bytes_linear_in_batch():
    one = _all(batch=1)
    many = _all(batch=32)
    for regime in cm.REGIMES:
        assert many[regime].activation_bytes == 32 * one[regime].activation_bytes


def test_monotonicity_in_size_knobs():
    base = _all(batch=8, layers=12, hidden=64)
    bigger_batch = _all(batch=16, layers=12, hidden=64)
    deeper = _all(batch=8, layers=24, hidden=64)
    wider = _all(batch=8, layers=12, hidden=128)
    numeric = [f.name for f in dataclasses.fields(cm.CostReport)
               if f.name.endswith(("flops", "bytes", "params"))]
    for regime in cm.REGIMES:
        for variant in (bigger_batch, deeper, wider):
            for field in numeric:
                assert getattr(variant[regime], field) >= getattr(base[regime], field), \
                    (regime, field)


def test_cache_bytes_matches_cache_module_formula():
    from iisan.cache import cache_file_size

    text, image = _cfgs(layers=12, hidden=64)
    report = cm.estimate(text, image, cm.SanSpec(), cm.DPEFT_CACHED, catalog_items=777)
    m = 6
    expected = cache_file_size(777, m + 1, 64) + cache_file_size(777, m + 1, 64)
    assert report.cache_bytes == expected
    assert cm.estimate(text, image, cm.SanSpec(), cm.FFT).cache_bytes == 0


def test_epeft_and_dpeft_params_same_order_of_magnitude():
    r = _all()
    ratio = r[cm.EPEFT_ADAPTER].trainable_params / r[cm.DPEFT_CACHED].trainable_params
    assert 0.1 < ratio < 10
    assert r[cm.FFT].trainable_params > 50 * r[cm.DPEFT_CACHED].trainable_params


def test_param_counts_match_real_builders():
    text_cfg = EncoderConfig("text", 3, 16, 40, 20, 5)
    enc = FrozenEncoder(text_cfg)
    assert cm.backbone_param_count(text_cfg) == sum(p.data.size for p in enc.parameters())

    vs = IisanModel("vs", 8, 16, 8, 16, bottleneck=4, dseq=12, seed=0)
    assert cm.tower_param_count(16, 16, 4, 4, 12, asymmetric=False) == \
        sum(p.data.size for p in vs.parameters())

    va = IisanModel("va", 24, 32, 8, 16, bottleneck=4, dseq=12, seed=0)
    assert cm.tower_param_count(32, 16, 4, 4, 12, asymmetric=True) == \
        sum(p.data.size for p in va.parameters())

    seq = SeqEncoder(dim=24, blocks=2, heads=2, max_seq_len=10)
    assert cm.seq_param_count(24, 2, 10) == sum(p.data.size for p in seq.parameters())


# (fwd_backbone, fwd_peft, bwd, activation bytes, params, cache bytes), trained, traversed
PINNED = {
    "vs": {
        cm.FFT: ((1114112, 18944, 2266112, 449024, 40752, 0), ("backbone", "head", "seq"), ()),
        cm.EPEFT_ADAPTER: ((1114112, 117248, 1348608, 338432, 2384, 0),
                           ("adapter", "head", "seq"), ("backbone",)),
        cm.DPEFT_UNCACHED: ((1114112, 26112, 52224, 20480, 2220, 0), ("tower", "seq"), ()),
        cm.DPEFT_CACHED: ((0, 26112, 52224, 20480, 2220, 20060), ("tower", "seq"), ()),
    },
    "va": {
        cm.FFT: ((2162688, 36352, 4398080, 732928, 90712, 0), ("backbone", "head", "seq"), ()),
        cm.EPEFT_ADAPTER: ((2162688, 200192, 2563072, 544512, 4488, 0),
                           ("adapter", "head", "seq"), ("backbone",)),
        cm.DPEFT_UNCACHED: ((2162688, 53760, 107520, 35712, 3700, 0), ("tower", "seq"), ()),
        cm.DPEFT_CACHED: ((0, 53760, 107520, 35712, 3700, 24860), ("tower", "seq"), ()),
    },
}


def _pinned_pair(variant):
    """Encoder configs and side shape of a small symmetric (4x16/4x16) or asymmetric (8x24/4x16) pair."""
    if variant == "vs":
        text = EncoderConfig("text", 4, 16, 512, 32, 1)
        san = cm.SanSpec("vs", bottleneck=4, dseq=8, seq_blocks=1, seq_heads=2, seq_len=6)
    else:
        text = EncoderConfig("text", 8, 24, 512, 32, 1)
        san = cm.SanSpec("va", bottleneck=4, dseq=8, seq_blocks=2, seq_heads=2, seq_len=6)
    return text, EncoderConfig("image", 4, 16, 256, 32, 2), san


@pytest.mark.parametrize("variant", ["vs", "va"])
def test_estimate_pinned_reports(variant):
    """Exact reports for every regime on a small symmetric and asymmetric pair."""
    text, image, san = _pinned_pair(variant)
    for regime, (numbers, trained, traversed) in PINNED[variant].items():
        r = cm.estimate(text, image, san, regime, batch=4, catalog_items=50)
        assert (r.fwd_backbone_flops, r.fwd_peft_flops, r.bwd_flops, r.activation_bytes,
                r.trainable_params, r.cache_bytes) == numbers, regime
        assert (r.weight_grad_segments, r.traversal_segments) == (trained, traversed), regime
        assert r.workload == cm.Workload(4, 8, 16, 6, 50)


@pytest.mark.parametrize("variant", ["vs", "va"])
@pytest.mark.parametrize("regime", cm.REGIMES)
def test_regime_model_trains_what_the_table_and_the_cost_model_name(regime, variant):
    """The model `regime_model` builds trains exactly the segments `SEGMENTS` names,
    and as many elements as `estimate` counts."""
    text, image, san = _pinned_pair(variant)
    trainable = [p for p in regime_model(regime, text, image, san, seed=0).parameters() if p.trainable]
    assert sum(p.data.size for p in trainable) == cm.estimate(text, image, san, regime).trainable_params
    assert {cm.segment_of(p.name) for p in trainable} == set(SEGMENTS[regime][0])


def test_unknown_regime_rejected():
    text, image = _cfgs()
    with pytest.raises(ConfigError):
        cm.estimate(text, image, cm.SanSpec(), "lora")


# --- compare -------------------------------------------------------------------

def test_compare_pass_on_defaults():
    comparison = cm.compare(list(_all().values()))
    assert comparison.verdict == "PASS"
    assert any("regime" in line for line in comparison.lines)


def test_compare_single_report_is_contract_error():
    text, image = _cfgs()
    only = cm.estimate(text, image, cm.SanSpec(), cm.FFT)
    with pytest.raises(ContractError, match="at least two reports"):
        cm.compare([only])


def test_compare_detects_violation():
    reports = list(_all().values())
    broken = [dataclasses.replace(r) for r in reports]
    for r in broken:
        if r.regime == cm.DPEFT_CACHED:
            r.activation_bytes = max(q.activation_bytes for q in broken) + 1
    assert cm.compare(broken).verdict == "FAIL"


def test_compare_rejects_mixed_workloads():
    text, image = _cfgs()
    a = cm.estimate(text, image, cm.SanSpec(), cm.FFT, batch=8)
    b = cm.estimate(text, image, cm.SanSpec(), cm.DPEFT_CACHED, batch=16)
    with pytest.raises(ContractError):
        cm.compare([a, b])


# --- gradient-flow probe ----------------------------------------------------------

@pytest.fixture(scope="module")
def probes():
    return {regime: cm.gradient_flow_probe(regime) for regime in cm.REGIMES}


def test_probe_dpeft_backbone_untouched(probes):
    for regime in (cm.DPEFT_CACHED, cm.DPEFT_UNCACHED):
        report = probes[regime]
        assert report.grad_param_names.isdisjoint(report.backbone_param_names)
        assert report.backbone_weights_unchanged
        assert not report.backbone_activations_retained
        assert report.grad_param_names  # towers and encoder did train
        # names with a non-zero gradient only: `up` starts at zero, so `down` gets none yet
        assert "intra_text.block1.down.w" not in report.grad_param_names
        assert "intra_text.block1.up.w" in report.grad_param_names


def test_probe_fft_touches_everything(probes):
    report = probes[cm.FFT]
    assert report.grad_param_names == report.all_param_names
    assert report.backbone_param_names <= report.grad_param_names
    assert report.backbone_activations_retained
    assert not report.backbone_weights_unchanged


def test_probe_epeft_adapters_only_but_activations_retained(probes):
    report = probes[cm.EPEFT_ADAPTER]
    assert any(name.startswith("adapter.") for name in report.grad_param_names)
    assert not any(name.startswith("adapter.") and ".down." in name for name in report.grad_param_names)
    assert report.grad_param_names.isdisjoint(report.backbone_param_names)
    assert report.backbone_weights_unchanged
    assert report.backbone_activations_retained  # the embedded-adapter memory cost


def test_probe_and_estimator_agree_on_trained_segments(probes):
    text, image = _cfgs(layers=2, hidden=8)
    san = cm.SanSpec(bottleneck=4, dseq=8)
    for regime in cm.REGIMES:
        report = cm.estimate(text, image, san, regime)
        assert tuple(sorted(report.weight_grad_segments)) == probes[regime].segments_with_gradients


def test_probe_cached_regime_reads_a_cache(monkeypatch):
    """The probe's dpeft_cached step reads its item states from a cache, not from the encoders."""
    calls = {"read_items": 0, "encode": 0}

    def counting(owner, attr, key):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    counting(CacheStore, "read_items", "read_items")
    counting(EncodeStateProvider, "batch_states", "encode")
    cm.gradient_flow_probe(cm.DPEFT_CACHED)
    assert calls["read_items"] >= 1 and calls["encode"] == 0


def _pooled_model(regime, setup):
    """The fft or epeft model over the setup's encoders, as the probe builds it."""
    san = cm.SanSpec(bottleneck=setup.bottleneck, dseq=setup.dseq, seq_len=cm.PROBE_SEQ_LEN)
    return regime_model(regime, setup.text_cfg, setup.image_cfg, san, seed=1)


@pytest.mark.parametrize("regime", [cm.FFT, cm.EPEFT_ADAPTER])
def test_pooled_item_model_trains_and_evaluates_through_recsys(regime):
    """`recsys.train` and `evaluate` take the fft and epeft item models as they take towers."""
    setup = cm.ProbeSetup.default()
    rec = _pooled_model(regime, setup)
    items = rec.items
    split = split_leave_one_out(InteractionDataset.from_users(setup.users))
    popularity = compute_popularity(split)
    users = sorted(split.train)
    before = float(step_loss(rec, users, split, popularity, items)[1].data)
    result = train(rec, split, popularity, items, TrainConfig(lr=1e-3, batch_size=2, epochs=3))
    assert result.steps == 6 and np.isfinite(result.epoch_losses).all()
    # epoch means of 3 users in batches of 2 average different batches, so the
    # full batch's loss, without dropout, shows the training
    assert float(step_loss(rec, users, split, popularity, items)[1].data) < before
    assert evaluate(rec, split, items).evaluated_user_count == len(split.test)


@pytest.mark.parametrize("regime", [cm.FFT, cm.EPEFT_ADAPTER])
def test_pooled_item_model_tape_entries_do_not_grow_with_items(regime):
    items = _pooled_model(regime, cm.ProbeSetup.default()).items
    counts = []
    for n in (3, 12):
        with Tape() as tape:
            items.item_embed(*items.batch_states(range(n)))
        counts.append(len(tape.entries))
    assert counts[0] == counts[1] > 0
