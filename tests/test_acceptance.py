"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import math
import time

import numpy as np

from iisan import autodiff as ad
from iisan import costmodel as cm
from iisan import recsys
from iisan.autodiff import Tensor
from iisan.backbone import EncoderConfig, FrozenEncoder
from iisan.cache import CacheStore, build_cache, cache_file_size, header_size, write_cache
from iisan.cli import SyntheticSpec, generate_synthetic
from iisan.recsys import TrainConfig, inbatch_debiased_ce, metrics_from_scores
from iisan.sanet import MODE_ASYM_GROUPED, select_layers


def _verdict(number: int, name: str, passed: bool, started: float) -> None:
    state = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {state} ({time.time() - started:.1f}s)")
    assert passed, f"criterion {number} ({name}) failed"


# -- 1 ---------------------------------------------------------------------------

def test_c1_gradient_flow_law():
    started = time.time()
    ok = True
    for regime in (cm.DPEFT_CACHED, cm.DPEFT_UNCACHED):
        report = cm.gradient_flow_probe(regime)
        ok &= report.grad_param_names.isdisjoint(report.backbone_param_names)
        ok &= report.backbone_weights_unchanged
        ok &= bool(report.grad_param_names)
    fft = cm.gradient_flow_probe(cm.FFT)
    ok &= fft.grad_param_names == fft.all_param_names
    ok &= fft.backbone_param_names <= fft.grad_param_names
    ok &= time.time() - started < 10
    _verdict(1, "gradient-flow law", ok, started)


# -- 2 ---------------------------------------------------------------------------

def test_c2_cache_equivalence(tmp_path):
    started = time.time()
    generate_synthetic(SyntheticSpec(200, 50, 0.9, 8, 16, seed=7), tmp_path / "it.tsv")
    split = recsys.split_leave_one_out(recsys.load_interactions(tmp_path / "it.tsv"))
    pop = recsys.compute_popularity(split)
    text_enc = FrozenEncoder(EncoderConfig("text", 12, 64, 512, 32, 11))
    image_enc = FrozenEncoder(EncoderConfig("image", 12, 64, 256, 32, 22))

    def fresh():
        return recsys.build_rec_model("vs", 12, 64, 12, 64, bottleneck=16, dseq=64,
                                      seq_blocks=2, seq_heads=2, max_seq_len=10, seed=5)

    plans = fresh().iisan
    build_cache(text_enc, list(split.catalog), plans.text_plan.cache_layers(), tmp_path / "t.iisc")
    build_cache(image_enc, list(split.catalog), plans.image_plan.cache_layers(), tmp_path / "i.iisc")
    cached = recsys.CachedStateProvider(
        CacheStore(tmp_path / "t.iisc", text_enc.fingerprint),
        CacheStore(tmp_path / "i.iisc", image_enc.fingerprint),
        plans.text_plan, plans.image_plan)
    uncached = recsys.EncodeStateProvider(text_enc, image_enc, plans.text_plan, plans.image_plan)

    cfg = TrainConfig(lr=1e-3, batch_size=32, epochs=5, dropout=0.1, seed=5)
    curves = [recsys.train(fresh(), split, pop, provider, cfg).epoch_losses
              for provider in (cached, uncached)]
    ok = curves[0] == curves[1] and len(curves[0]) == 5
    ok &= time.time() - started < 120
    _verdict(2, "cached/uncached bit-identical training", ok, started)


# -- 3 ---------------------------------------------------------------------------

def test_c3_group_selection():
    started = time.time()
    expected_k = {24: 3, 32: 5, 80: 13}
    ok = True
    for text_layers, k in expected_k.items():
        plan = select_layers(MODE_ASYM_GROUPED, text_layers, 12)
        ok &= plan.group_size == k
        ok &= plan.m == 6
        ok &= text_layers - k * 6 >= 1
        ok &= text_layers - (k + 1) * 6 < 1  # maximality
        ok &= max(plan.kept_indices) == text_layers
    _verdict(3, "group layer-drop selection", ok, started)


# -- 4 ---------------------------------------------------------------------------

def _oracle_loss(logits64, items, pop, positives, owned):
    log_p = np.array([math.log(pop[i]) for i in items], dtype=np.float64)
    total = 0.0
    for t in range(len(positives)):
        a = logits64[t] - log_p
        pos_col = items.index(positives[t])
        num = math.exp(a[pos_col])
        den = num + sum(math.exp(a[c]) for c, item in enumerate(items)
                        if c != pos_col and item not in owned[t])
        total += -math.log(num / den)
    return total / len(positives)


def test_c4_loss_oracle():
    # run in the engine's 64-bit verification mode: the 1e-6 absolute bound is
    # below float32 representation noise, and the criterion targets the
    # stabilized-summation algorithm, not the storage dtype
    started = time.time()
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 13))
        t = int(rng.integers(1, 6))
        items = sorted(rng.choice(500, size=c, replace=False).tolist())
        pop = {i: float(rng.uniform(0.005, 1.0)) for i in items}
        logits = rng.normal(size=(t, c)) * 3.0
        positives = [int(items[rng.integers(c)]) for _ in range(t)]
        owned = []
        for k in range(t):
            own = {i for i in items if rng.uniform() < 0.4}
            own.add(positives[k])
            owned.append(own)
        loss = float(inbatch_debiased_ce(Tensor(logits, dtype=np.float64), items, pop,
                                         positives, owned).data)
        worst = max(worst, abs(loss - _oracle_loss(logits, items, pop, positives, owned)))

    only_positive = float(inbatch_debiased_ce(
        Tensor(np.array([[1.7, -0.4]]), dtype=np.float64),
        [3, 9], {3: 0.6, 9: 0.4}, [3], [{3, 9}]).data)
    symmetric = float(inbatch_debiased_ce(
        Tensor(np.array([[0.8, 0.8]]), dtype=np.float64),
        [3, 9], {3: 0.5, 9: 0.5}, [3], [{3}]).data)

    ok = worst < 1e-6
    ok &= abs(only_positive) < 1e-12
    ok &= abs(symmetric - math.log(2.0)) < 1e-12
    ok &= time.time() - started < 30
    _verdict(4, f"loss oracle (worst abs err {worst:.2e})", ok, started)


# -- 5 ---------------------------------------------------------------------------

def _brute_force(rows, cutoff=10):
    hrs, ndcgs = [], []
    for scores, col in rows:
        order = sorted(range(len(scores)), key=lambda j: (-scores[j], j == col))
        rank = order.index(col) + 1
        hrs.append(1.0 if rank <= cutoff else 0.0)
        ndcgs.append(1.0 / math.log2(rank + 1) if rank <= cutoff else 0.0)
    return float(np.mean(hrs)), float(np.mean(ndcgs))


def test_c5_metric_oracle():
    started = time.time()
    rng = np.random.default_rng(50)
    ok = True
    for _ in range(200):
        users = int(rng.integers(1, 8))
        n = int(rng.integers(2, 51))
        rows = [(np.round(rng.normal(size=n), 2), int(rng.integers(n))) for _ in range(users)]
        report = metrics_from_scores(np.stack([s for s, _ in rows]), [col for _, col in rows])
        hr, ndcg = _brute_force(rows)
        ok &= report.hr_at_10 == hr and report.ndcg_at_10 == ndcg

    down = -np.arange(12, dtype=float)
    rank1 = metrics_from_scores(down[None], [0])
    rank4 = metrics_from_scores(down[None], [3])
    rank11 = metrics_from_scores(down[None], [10])
    ok &= rank1.hr_at_10 == 1.0 and rank1.ndcg_at_10 == 1.0
    ok &= abs(rank4.ndcg_at_10 - 1.0 / math.log2(5)) < 1e-12
    ok &= rank11.hr_at_10 == 0.0 and rank11.ndcg_at_10 == 0.0
    ok &= time.time() - started < 30
    _verdict(5, "full-ranking metric oracle", ok, started)


# -- 6 ---------------------------------------------------------------------------

_CLASS_OF = (("dtl.", "dtl"), ("fusion.", "fusion"), ("seq.", "seq_encoder"))


def _param_class(name: str) -> str:
    for prefix, cls in _CLASS_OF:
        if name.startswith(prefix):
            return cls
    return "gate" if ".gate" in name else "sanb"


def _fd_world(dtype):
    rec = recsys.build_rec_model("va", 6, 6, 4, 4, bottleneck=2, dseq=4,
                                 seq_blocks=1, seq_heads=1, max_seq_len=5, seed=3)
    rng = np.random.default_rng(60)
    for p in rec.parameters():  # every parameter, so the model runs in `dtype`
        p.tensor.data = (rng.normal(size=p.data.shape) * 0.3).astype(dtype)
    m = rec.iisan.m
    text = [Tensor((rng.normal(size=(3, 6))).astype(dtype)) for _ in range(m + 1)]
    image = [Tensor((rng.normal(size=(3, 4))).astype(dtype)) for _ in range(m + 1)]
    pop = {0: 0.3, 1: 0.45, 2: 0.25}

    def loss_fn():
        items = rec.iisan.item_embed(text, image)
        states = rec.seq.states(ad.take_rows(items, [0, 1, 2]))
        logits = ad.matmul(states, ad.transpose(items))
        return inbatch_debiased_ce(logits, [0, 1, 2], pop, [1, 2, 0],
                                   [{1, 0}, {2}, {0, 2}])

    return rec, loss_fn


def test_c6_gradient_verification():
    started = time.time()
    ok = True
    for dtype, step, tol in ((np.float32, 1e-3, 1e-3), (np.float64, 1e-6, 1e-5)):
        rec, loss_fn = _fd_world(dtype)
        report = ad.finite_difference_check(rec.parameters(), loss_fn, step=step, tolerance=tol)
        by_class: dict[str, float] = {}
        for name, err in report.per_param.items():
            cls = _param_class(name)
            by_class[cls] = max(by_class.get(cls, 0.0), err)
        ok &= set(by_class) == {"sanb", "gate", "dtl", "fusion", "seq_encoder"}
        ok &= all(err < tol for err in by_class.values())
        print(f"  {np.dtype(dtype).name}: " +
              " ".join(f"{cls}={err:.2e}" for cls, err in sorted(by_class.items())))
    ok &= time.time() - started < 120
    _verdict(6, "finite-difference gradient verification", ok, started)


# -- 7 ---------------------------------------------------------------------------

def _train_and_eval(variant, text_layers, text_dim, seed, split, pop, tmp_path):
    text_enc = FrozenEncoder(EncoderConfig("text", text_layers, text_dim, 512, 32, 11))
    image_enc = FrozenEncoder(EncoderConfig("image", 12, 32, 256, 32, 22))
    rec = recsys.build_rec_model(variant, text_layers, text_dim, 12, 32,
                                 bottleneck=16, dseq=64, seq_blocks=2, seq_heads=2,
                                 max_seq_len=10, seed=seed)
    tdir = tmp_path / f"{variant}-{seed}"
    tdir.mkdir(exist_ok=True)
    build_cache(text_enc, list(split.catalog), rec.iisan.text_plan.cache_layers(), tdir / "t.iisc")
    build_cache(image_enc, list(split.catalog), rec.iisan.image_plan.cache_layers(), tdir / "i.iisc")
    provider = recsys.CachedStateProvider(
        CacheStore(tdir / "t.iisc", text_enc.fingerprint),
        CacheStore(tdir / "i.iisc", image_enc.fingerprint),
        rec.iisan.text_plan, rec.iisan.image_plan)
    cfg = TrainConfig(lr=1e-3, batch_size=32, epochs=50, dropout=0.1, seed=seed)
    recsys.train(rec, split, pop, provider, cfg)
    return recsys.evaluate(rec, split, provider).hr_at_10


def test_c7_learning_signal(tmp_path):
    started = time.time()
    generate_synthetic(SyntheticSpec(200, 50, 0.9, 8, 16, seed=7), tmp_path / "it.tsv")
    split = recsys.split_leave_one_out(recsys.load_interactions(tmp_path / "it.tsv"))
    pop = recsys.compute_popularity(split)
    baseline = recsys.popularity_baseline(split, pop).hr_at_10

    hr_vs = _train_and_eval("vs", 12, 32, 7, split, pop, tmp_path)
    va_runs = [_train_and_eval("va", 24, 48, seed, split, pop, tmp_path) for seed in (7, 8, 9)]
    va_mean = float(np.mean(va_runs))
    noise = max(float(np.std(va_runs, ddof=1)), 0.02)  # seed scatter, floored at 2% HR

    print(f"  baseline={baseline:.4f} vs={hr_vs:.4f} va={va_runs} (mean {va_mean:.4f}, noise {noise:.4f})")
    ok = hr_vs >= 1.5 * baseline
    ok &= va_mean >= hr_vs - noise
    ok &= time.time() - started < 600
    _verdict(7, "trained model beats popularity; asymmetric holds up", ok, started)


# -- 8 ---------------------------------------------------------------------------

def test_c8_cost_ordering():
    started = time.time()
    text = EncoderConfig("text", 12, 768, 512, 32, 1)
    image = EncoderConfig("image", 12, 768, 256, 32, 2)
    reports = {r: cm.estimate(text, image, cm.SanSpec(), r, batch=32) for r in cm.REGIMES}
    act = {r: reports[r].activation_bytes for r in cm.REGIMES}
    bwd = {r: reports[r].bwd_flops for r in cm.REGIMES}
    ok = act[cm.DPEFT_CACHED] <= act[cm.DPEFT_UNCACHED] < act[cm.EPEFT_ADAPTER] < act[cm.FFT]
    ok &= bwd[cm.DPEFT_CACHED] <= bwd[cm.DPEFT_UNCACHED] < bwd[cm.EPEFT_ADAPTER] < bwd[cm.FFT]
    ratio = act[cm.FFT] / act[cm.DPEFT_CACHED]
    ok &= ratio >= 10
    ok &= time.time() - started < 1
    _verdict(8, f"cost ordering (activation ratio {ratio:.1f}x)", ok, started)


# -- 9 ---------------------------------------------------------------------------

def test_c9_cache_integrity(tmp_path):
    started = time.time()
    rng = np.random.default_rng(90)
    m, h, n = 7, 64, 10_000
    rows = [(i, rng.normal(size=(m, h)).astype(np.float32)) for i in range(n)]
    path = tmp_path / "big.iisc"
    summary = write_cache(path, 0xACCE55, range(m), h, rows)

    ok = summary.byte_size == cache_file_size(n, m, h) == path.stat().st_size
    store = CacheStore(path, expected_fingerprint=0xACCE55)
    sample = rng.choice(n, size=n, replace=False)
    for i in sample:
        if not np.array_equal(store.read_item(int(i)), rows[i][1]):
            ok = False
            break

    payload = {}
    for kept in (2, 4, 8):
        s = write_cache(tmp_path / f"m{kept}.iisc", 1, range(kept), h,
                        [(i, r[:kept] if kept <= m else np.repeat(r, 2, axis=0)[:kept])
                         for i, r in rows[:100]])
        payload[kept] = s.byte_size - header_size(kept) - 100 * 8
    ok &= payload[4] == 2 * payload[2] and payload[8] == 4 * payload[2]
    ok &= time.time() - started < 60
    _verdict(9, "cache roundtrip, size formula, linear pruning", ok, started)
