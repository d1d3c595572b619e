import hashlib
import math
import struct
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iisan import autodiff as ad
from iisan import backbone, recsys
from iisan.autodiff import Tensor
from iisan.backbone import EncoderConfig, FrozenEncoder
from iisan.cache import CacheStore, build_cache
from iisan.cli import SyntheticSpec, generate_synthetic
from iisan.costmodel import PROBE_SEQ_LEN, ProbeSetup
from iisan.errors import ContractError, FormatError, InputError, StalenessError, VersionError
from iisan.recsys import (InteractionDataset, TrainConfig, compute_popularity,
                          inbatch_debiased_ce, metrics_from_ranks, popularity_baseline,
                          rank_pessimistic, split_leave_one_out)
from iisan.sanet import plans_for


# --- splits and popularity ------------------------------------------------------

def test_split_rule():
    ds = InteractionDataset.from_users({1: [10, 11, 12, 13]})
    split = split_leave_one_out(ds)
    assert split.train[1] == [10, 11]
    assert split.val[1] == 12
    assert split.test[1] == 13
    assert split.dropped_users == 0


def test_split_drops_short_users_and_counts():
    ds = InteractionDataset.from_users({1: [1, 2], 2: [3, 4, 5]})
    split = split_leave_one_out(ds)
    assert 1 not in split.train
    assert split.dropped_users == 1


def test_split_deterministic():
    ds = InteractionDataset.from_users({u: [u, u + 1, u + 2, u + 3] for u in range(5)})
    a, b = split_leave_one_out(ds), split_leave_one_out(ds)
    assert a.train == b.train and a.val == b.val and a.test == b.test


def test_split_empty_dataset():
    with pytest.raises(InputError):
        split_leave_one_out(InteractionDataset({}, ()))


def test_popularity_smoothing_arithmetic():
    ds = InteractionDataset.from_users({1: [0, 0, 0, 1, 9, 9], 2: [0, 1, 1]})
    split = split_leave_one_out(ds)
    # train interactions: user1 [0,0,0,1], user2 [0] -> counts {0:4, 1:1}, total 5
    p = compute_popularity(split)
    assert p[0] == pytest.approx(5 / (5 + 3))
    assert p[1] == pytest.approx(2 / (5 + 3))
    assert p[9] == pytest.approx(1 / (5 + 3))  # unseen in train, smoothed


def test_popularity_uniform_and_sums_to_one():
    rng = np.random.default_rng(0)
    users = {u: [int(v) for v in rng.integers(0, 30, size=8)] for u in range(40)}
    split = split_leave_one_out(InteractionDataset.from_users(users))
    p = compute_popularity(split)
    assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)

    uniform = InteractionDataset.from_users({u: [u % 4, (u + 1) % 4, (u + 2) % 4] for u in range(8)})
    pu = compute_popularity(split_leave_one_out(uniform))
    assert len(set(round(v, 12) for v in pu.values())) == 1


def test_interactions_roundtrip(tmp_path):
    users = {3: [5, 6, 7], 1: [9, 8, 7, 6]}
    path = tmp_path / "it.tsv"
    recsys.save_interactions(path, users)
    ds = recsys.load_interactions(path)
    assert ds.users == {1: [9, 8, 7, 6], 3: [5, 6, 7]}
    assert ds.catalog == (5, 6, 7, 8, 9)


@pytest.mark.parametrize("second", ["2\t3 -5 4", f"2\t3 {2**64} 4", "1\t7 8 9"],
                         ids=["negative-item", "item-2**64", "repeated-user"])
def test_interactions_must_fit_the_cache_format(tmp_path, second):
    path = tmp_path / "it.tsv"
    path.write_text(f"1\t{2**64 - 1} 0 1\n{second}\n", encoding="utf-8")
    with pytest.raises(InputError, match=f"{path}:2: "):
        recsys.load_interactions(path)
    path.write_text(f"1\t{2**64 - 1} 0 1\n", encoding="utf-8")
    assert recsys.load_interactions(path).catalog == (0, 1, 2**64 - 1)


# --- sequential encoder ---------------------------------------------------------

def test_seq_causal_mask_property():
    enc = recsys.SeqEncoder(dim=8, blocks=2, heads=2, max_seq_len=6, seed=1)
    rng = np.random.default_rng(2)
    embs = rng.normal(size=(5, 8)).astype(np.float32)
    full = enc.states(Tensor(embs)).data
    shorter = enc.states(Tensor(embs[:3])).data
    np.testing.assert_array_equal(full[:3], shorter)


def test_batched_states_match_each_window_alone():
    """Right-padded windows in one pass get, at their real positions, the states
    each window gets alone; the pads hold noise, which no real position reads."""
    enc = recsys.SeqEncoder(dim=8, blocks=2, heads=2, max_seq_len=6, seed=1)
    rng = np.random.default_rng(2)
    lengths = [2, 6, 3, 5, 4, 1]
    embs = rng.normal(size=(len(lengths), 6, 8)).astype(np.float32)
    batched = enc.states(Tensor(embs)).data
    for i, s in enumerate(lengths[:-1]):
        np.testing.assert_array_equal(batched[i, :s], enc.states(Tensor(embs[i, :s])).data)
    # Alone, a one-position window's products are matrix-vector products, and
    # from 9 positions on numpy's pairwise sum groups a softmax row by its
    # length; both round differently from the padded pass, within float32 roundoff.
    np.testing.assert_allclose(batched[-1, :1], enc.states(Tensor(embs[-1, :1])).data, rtol=0, atol=1e-5)
    wide = recsys.SeqEncoder(dim=16, blocks=2, heads=2, max_seq_len=12, seed=1)
    embs = rng.normal(size=(12, 12, 16)).astype(np.float32)
    batched = wide.states(Tensor(embs)).data
    for s in range(1, 13):
        np.testing.assert_allclose(batched[s - 1, :s], wide.states(Tensor(embs[s - 1, :s])).data,
                                   rtol=0, atol=1e-5)


def _loss_world(users, seed=5):
    """Float64 sequence encoder and item matrix, `users` windows of 2-7 items
    over 24 items, and the split and popularity the loss reads."""
    rng = np.random.default_rng(seed)
    seq = recsys.SeqEncoder(dim=8, blocks=2, heads=2, max_seq_len=6, seed=3)
    for p in seq.parameters():
        p.tensor.data = p.data.astype(np.float64)
    windows = {u: [int(v) for v in rng.choice(24, size=int(rng.integers(2, 8)), replace=False)]
               for u in range(users)}
    candidates = sorted({v for w in windows.values() for v in w})
    items = ad.Parameter(Tensor(rng.normal(size=(len(candidates), 8)), dtype=np.float64), "items")
    split = recsys.Split(windows, {}, {}, 0, tuple(range(24)))
    popularity = {v: 1.0 / 24 for v in range(24)}
    return seq, items, candidates, windows, split, popularity


def test_sequence_loss_gradients_match_a_per_window_oracle():
    seq, items, candidates, windows, split, popularity = _loss_world(5)
    col = {v: i for i, v in enumerate(candidates)}

    def per_window():
        users = sorted(windows)
        rows = [seq.states(ad.take_rows(items.tensor, [col[v] for v in windows[u][:-1]])) for u in users]
        logits = ad.matmul(ad.concat(rows, 0), ad.transpose(items.tensor))
        positives = [v for u in users for v in windows[u][1:]]
        owned = [set(split.train[u]) for u in users for _ in windows[u][1:]]
        return inbatch_debiased_ce(logits, candidates, popularity, positives, owned)

    params = [items, *seq.parameters()]
    with ad.Tape() as tape:
        loss = recsys.sequence_loss(seq, items.tensor, candidates, windows, split, popularity)
    grads = ad.backward(tape, loss, params)
    with ad.Tape() as tape:
        expected = per_window()
    expected_grads = ad.backward(tape, expected, params)
    assert loss.dtype == np.float64
    np.testing.assert_allclose(loss.data, expected.data, rtol=1e-12)
    for name, g in expected_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=1e-9, atol=1e-12, err_msg=name)


def test_sequence_loss_tape_entries_do_not_grow_with_users():
    counts = []
    for users in (2, 32):
        seq, items, candidates, windows, split, popularity = _loss_world(users)
        with ad.Tape() as tape:
            recsys.sequence_loss(seq, items.tensor, candidates, windows, split, popularity)
        counts.append(len(tape.entries))
    assert counts[0] == counts[1]


def test_seq_single_item():
    enc = recsys.SeqEncoder(dim=8, blocks=2, heads=2, max_seq_len=6, seed=1)
    out = enc.states(Tensor(np.ones((1, 8), dtype=np.float32)))
    assert out.shape == (1, 8)
    assert np.isfinite(out.data).all()


def _np_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x ** 3)))


def _np_ln(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + np.float32(eps)) * g + b


def test_seq_matches_single_head_oracle():
    enc = recsys.SeqEncoder(dim=4, blocks=1, heads=1, max_seq_len=4, seed=5)
    rng = np.random.default_rng(6)
    embs = rng.normal(size=(2, 4)).astype(np.float32)
    out = enc.states(Tensor(embs)).data

    p = {q.name: q.data for q in enc.parameters()}
    x = embs + p["seq.positions"][:2]
    h = _np_ln(x, p["seq.block1.ln1.gain"], p["seq.block1.ln1.offset"])
    q = h @ p["seq.block1.wq.w"] + p["seq.block1.wq.b"]
    k = h @ p["seq.block1.wk.w"] + p["seq.block1.wk.b"]
    v = h @ p["seq.block1.wv.w"] + p["seq.block1.wv.b"]
    scores = q @ k.T / np.sqrt(np.float32(4)) + np.array([[0, -1e9], [0, 0]], dtype=np.float32)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = (e / e.sum(axis=-1, keepdims=True)) @ v
    x = x + (attn @ p["seq.block1.wo.w"] + p["seq.block1.wo.b"])
    h2 = _np_ln(x, p["seq.block1.ln2.gain"], p["seq.block1.ln2.offset"])
    x = x + (_np_gelu(h2 @ p["seq.block1.fc1.w"] + p["seq.block1.fc1.b"]) @ p["seq.block1.fc2.w"]
             + p["seq.block1.fc2.b"])
    expected = _np_ln(x, p["seq.ln_out.gain"], p["seq.ln_out.offset"])
    np.testing.assert_allclose(out, expected, atol=1e-5)


# --- loss -----------------------------------------------------------------------

def _oracle_loss(logits, items, pop, positives, owned):
    """Unstabilized 64-bit softmax, straight from the definition."""
    log_p = np.array([math.log(pop[i]) for i in items], dtype=np.float64)
    total = 0.0
    for t in range(len(positives)):
        a = logits[t].astype(np.float64) - log_p
        pos_col = items.index(positives[t])
        num = math.exp(a[pos_col])
        den = num
        for c, item in enumerate(items):
            if c != pos_col and item not in owned[t]:
                den += math.exp(a[c])
        total += -math.log(num / den)
    return total / len(positives)


def test_loss_positive_only_is_zero():
    logits = Tensor(np.array([[2.5, -1.0, 0.3]], dtype=np.float32))
    pop = {0: 0.2, 1: 0.3, 2: 0.5}
    loss = inbatch_debiased_ce(logits, [0, 1, 2], pop, [0], [{0, 1, 2}])
    assert float(loss.data) == pytest.approx(0.0, abs=1e-7)


def test_loss_symmetric_pair_is_ln2():
    logits = Tensor(np.array([[1.3, 1.3]], dtype=np.float32))
    pop = {0: 0.5, 1: 0.5}
    loss = inbatch_debiased_ce(logits, [0, 1], pop, [0], [{0}])
    assert float(loss.data) == pytest.approx(math.log(2.0), rel=1e-6)


def test_loss_matches_oracle_on_random_batches():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        c = int(rng.integers(2, 9))
        t = int(rng.integers(1, 5))
        items = sorted(rng.choice(100, size=c, replace=False).tolist())
        pop = {i: float(rng.uniform(0.01, 1.0)) for i in items}
        logits = rng.normal(size=(t, c)).astype(np.float32) * 2.0
        positives = [int(items[rng.integers(c)]) for _ in range(t)]
        owned = []
        for k in range(t):
            own = {i for i in items if rng.uniform() < 0.4}
            own.add(positives[k])
            # a user's history also holds items outside this batch's candidates
            own.update(int(i) for i in rng.integers(100, 200, size=int(rng.integers(0, 3))))
            owned.append(own)
        loss = float(inbatch_debiased_ce(Tensor(logits), items, pop, positives, owned).data)
        expected = _oracle_loss(logits, items, pop, positives, owned)
        worst = max(worst, abs(loss - expected))
    assert worst < 1e-6, worst


def test_loss_requires_ascending_candidates():
    logits = Tensor(np.zeros((2, 5), dtype=np.float32))
    for items in ([4, 17, 9, 23, 31], [4, 9, 9, 23, 31]):  # unsorted, duplicate
        pop = {i: 0.2 for i in items}
        with pytest.raises(ContractError, match="strictly ascending"):
            inbatch_debiased_ce(logits, items, pop, [9, 4], [{9}, {4}])
    # any id a cache record holds, above 2^63 too
    big = Tensor(np.array([[1.3, 1.3]], dtype=np.float32))
    loss = inbatch_debiased_ce(big, [3, 2**64 - 1], {3: 0.5, 2**64 - 1: 0.5}, [3], [{3}])
    assert float(loss.data) == pytest.approx(math.log(2.0), rel=1e-6)


def test_loss_debias_direction():
    items = [0, 1]
    logits = Tensor(np.array([[1.0, 1.0]], dtype=np.float32))
    lo = float(inbatch_debiased_ce(logits, items, {0: 0.5, 1: 0.1}, [0], [{0}]).data)
    logits2 = Tensor(np.array([[1.0, 1.0]], dtype=np.float32))
    hi = float(inbatch_debiased_ce(logits2, items, {0: 0.5, 1: 0.4}, [0], [{0}]).data)
    assert hi < lo  # more popular negative contributes less


def test_loss_validation():
    pop = {0: 0.5, 1: 0.5}
    with pytest.raises(ContractError):
        inbatch_debiased_ce(Tensor(np.array([[np.nan, 0.0]], dtype=np.float32)), [0, 1], pop, [0], [{0}])
    with pytest.raises(InputError):
        inbatch_debiased_ce(Tensor(np.zeros((1, 2), dtype=np.float32)), [0, 1], {0: 0.5, 1: 0.0}, [0], [{0}])
    with pytest.raises(ContractError):
        inbatch_debiased_ce(Tensor(np.zeros((0, 2), dtype=np.float32)), [0, 1], pop, [], [])


def test_loss_gradient_vs_finite_differences():
    rng = np.random.default_rng(10)
    logits = ad.Parameter(Tensor(rng.normal(size=(3, 4)).astype(np.float32)), "logits")
    items = [2, 5, 7, 11]
    pop = {i: float(rng.uniform(0.1, 0.9)) for i in items}
    positives = [5, 2, 11]
    owned = [{5, 7}, {2}, {11, 5}]
    report = ad.finite_difference_check(
        [logits],
        lambda: inbatch_debiased_ce(logits.tensor, items, pop, positives, owned),
        step=1e-3, tolerance=1e-3)
    assert report.passed, report.per_param


# --- evaluation helpers -----------------------------------------------------------

def test_rank_fixtures():
    scores = np.array([[5.0, 4.0, 3.0, 2.0, 1.0]] * 2)
    assert rank_pessimistic(scores, [0, 3]).tolist() == [1, 4]
    ties = np.array([[2.0, 2.0, 2.0]])
    assert rank_pessimistic(ties, [1]).tolist() == [3]  # equal scores count ahead of the target


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ranks_of_a_score_matrix_match_the_per_row_definition(data):
    users, items = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
    # few distinct values, so most rows hold ties, the target's included
    values = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
    scores = np.array(data.draw(st.lists(st.lists(values, min_size=items, max_size=items),
                                         min_size=users, max_size=users)))
    targets = data.draw(st.lists(st.integers(0, items - 1), min_size=users, max_size=users))
    expected = []
    for row, col in zip(scores, targets):  # per row: greater scores, then equal others, then itself
        expected.append(int((row > row[col]).sum()) + int((row == row[col]).sum()) - 1 + 1)
    assert rank_pessimistic(scores, targets).tolist() == expected


def test_metric_fixtures():
    def single(rank_scores, col):
        return metrics_from_ranks(rank_pessimistic(rank_scores[None], [col]))

    top = single(np.array([9.0, 1.0, 0.0]), 0)
    assert top.hr_at_10 == 1.0 and top.ndcg_at_10 == pytest.approx(1.0)

    scores = -np.arange(12, dtype=float)
    r4 = single(scores, 3)
    assert r4.ndcg_at_10 == pytest.approx(1.0 / math.log2(5))
    r11 = single(scores, 10)
    assert r11.hr_at_10 == 0.0 and r11.ndcg_at_10 == 0.0


def _brute_force_metrics(rows, cutoff=10):
    """Sort-based oracle: target placed after every equal score."""
    hrs, ndcgs = [], []
    for scores, col in rows:
        order = sorted(range(len(scores)), key=lambda j: (-scores[j], j == col))
        rank = order.index(col) + 1
        hrs.append(1.0 if rank <= cutoff else 0.0)
        ndcgs.append(1.0 / math.log2(rank + 1) if rank <= cutoff else 0.0)
    return float(np.mean(hrs)), float(np.mean(ndcgs))


def test_metrics_equal_brute_force_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        scores = np.round(rng.normal(size=n), 2)  # rounding forces score ties
        col = int(rng.integers(n))
        report = metrics_from_ranks(rank_pessimistic(scores[None], [col]))
        hr, ndcg = _brute_force_metrics([(scores, col)])
        assert report.hr_at_10 == hr
        assert report.ndcg_at_10 == ndcg


def test_popularity_baseline_uniform_and_top():
    users = {u: [u % 20, (u + 3) % 20, (u + 7) % 20] for u in range(40)}
    split = split_leave_one_out(InteractionDataset.from_users(users))
    uniform = {i: 1.0 / 20 for i in range(20)}
    report = popularity_baseline(split, uniform)
    expected_hr = np.mean([1.0 if split.test[u] < 10 else 0.0 for u in split.test])
    assert report.hr_at_10 == pytest.approx(float(expected_hr))

    top_pop = {i: (0.9 if i == 5 else 0.1 / 19) for i in range(20)}
    split5 = split_leave_one_out(InteractionDataset.from_users(
        {u: [u % 20, (u + 1) % 20, 5] for u in range(10)}))
    assert popularity_baseline(split5, top_pop).hr_at_10 == 1.0


def test_popularity_baseline_matches_brute_force():
    rng = np.random.default_rng(12)
    items = list(range(30))
    users = {u: [int(v) for v in rng.choice(30, size=5)] for u in range(25)}
    split = split_leave_one_out(InteractionDataset.from_users(users))
    # make sure the catalog covers every item id the targets reference
    pop = {i: float(rng.uniform(0.01, 1.0)) for i in split.catalog}
    report = popularity_baseline(split, pop)

    order = sorted(split.catalog, key=lambda i: (-pop[i], i))
    ranks = {item: r for r, item in enumerate(order, 1)}
    hr = np.mean([1.0 if ranks[split.test[u]] <= 10 else 0.0 for u in split.test])
    ndcg = np.mean([1.0 / math.log2(ranks[split.test[u]] + 1) if ranks[split.test[u]] <= 10 else 0.0
                    for u in split.test])
    assert report.hr_at_10 == pytest.approx(float(hr))
    assert report.ndcg_at_10 == pytest.approx(float(ndcg))


# --- training -----------------------------------------------------------------

def _tiny_world(tmp_path, users=30, items=20, strength=0.9, seed=3):
    data = tmp_path / "it.tsv"
    generate_synthetic(SyntheticSpec(users, items, strength, 6, 9, seed), data)
    ds = recsys.load_interactions(data)
    split = split_leave_one_out(ds)
    pop = compute_popularity(split)
    text_cfg = EncoderConfig("text", 4, 16, 64, 16, seed=31)
    image_cfg = EncoderConfig("image", 4, 16, 64, 32, seed=32)
    text_enc, image_enc = FrozenEncoder(text_cfg), FrozenEncoder(image_cfg)
    return ds, split, pop, text_cfg, image_cfg, text_enc, image_enc


def _tiny_rec(seed=0, dseq=16):
    return recsys.build_rec_model("vs", 4, 16, 4, 16, bottleneck=4, dseq=dseq,
                                  seq_blocks=2, seq_heads=2, max_seq_len=6, seed=seed)


def test_zero_lr_leaves_parameters_unchanged(tmp_path):
    _, split, pop, _, _, text_enc, image_enc = _tiny_world(tmp_path)
    rec = _tiny_rec()
    provider = recsys.EncodeStateProvider(text_enc, image_enc,
                                          rec.items.text_plan, rec.items.image_plan)
    before = {p.name: p.data.copy() for p in rec.parameters()}
    cfg = TrainConfig(lr=0.0, batch_size=8, epochs=1, dropout=0.1, seed=1)
    recsys.train(rec, split, pop, provider, cfg)
    for p in rec.parameters():
        np.testing.assert_array_equal(p.data, before[p.name])


def test_same_seed_bit_identical_loss_curves(tmp_path):
    _, split, pop, _, _, text_enc, image_enc = _tiny_world(tmp_path)
    curves = []
    for _ in range(2):
        rec = _tiny_rec()
        provider = recsys.EncodeStateProvider(text_enc, image_enc,
                                              rec.items.text_plan, rec.items.image_plan)
        cfg = TrainConfig(lr=1e-3, batch_size=8, epochs=2, dropout=0.1, seed=5)
        curves.append(recsys.train(rec, split, pop, provider, cfg).epoch_losses)
    assert curves[0] == curves[1]


def test_cached_and_uncached_training_are_bit_identical(tmp_path):
    _, split, pop, _, _, text_enc, image_enc = _tiny_world(tmp_path)
    plans = _tiny_rec().items
    text_plan, image_plan = plans.text_plan, plans.image_plan
    build_cache(text_enc, list(split.catalog), text_plan.cache_layers(), tmp_path / "t.iisc")
    build_cache(image_enc, list(split.catalog), image_plan.cache_layers(), tmp_path / "i.iisc")
    cached = recsys.CachedStateProvider(
        CacheStore(tmp_path / "t.iisc", text_enc.fingerprint),
        CacheStore(tmp_path / "i.iisc", image_enc.fingerprint), text_plan, image_plan)
    uncached = recsys.EncodeStateProvider(text_enc, image_enc, text_plan, image_plan)

    curves = []
    for provider in (cached, uncached):
        rec = _tiny_rec()
        cfg = TrainConfig(lr=1e-3, batch_size=8, epochs=2, dropout=0.1, seed=9)
        curves.append(recsys.train(rec, split, pop, provider, cfg).epoch_losses)
    assert curves[0] == curves[1]


def test_epoch_loss_is_the_terms_weighted_mean_of_step_losses(monkeypatch):
    """Batches of 2 over the probe's 3 users leave a 1-user last batch; each user's
    window has 2 loss terms, so the steps weigh 4 and 2."""
    setup = ProbeSetup.default()
    split = split_leave_one_out(InteractionDataset.from_users(setup.users))
    assert all(len(split.train[u]) - 1 == 2 for u in split.train)
    rec = recsys.build_rec_model("vs", 2, 8, 2, 8, bottleneck=setup.bottleneck, dseq=setup.dseq,
                                 max_seq_len=PROBE_SEQ_LEN, seed=1)
    provider = recsys.EncodeStateProvider(FrozenEncoder(setup.text_cfg), FrozenEncoder(setup.image_cfg),
                                          rec.items.text_plan, rec.items.image_plan)
    steps = []
    train_step = recsys.train_step

    def recording(rec, users, *args):
        steps.append((train_step(rec, users, *args), 2 * len(users)))
        return steps[-1][0]

    monkeypatch.setattr(recsys, "train_step", recording)
    cfg = TrainConfig(lr=1e-3, batch_size=2, epochs=2, dropout=0.1, seed=3)
    result = recsys.train(rec, split, compute_popularity(split), provider, cfg)
    assert [terms for _, terms in steps] == [4, 2, 4, 2]
    for epoch, loss in enumerate(result.epoch_losses):
        (a, wa), (b, wb) = steps[2 * epoch:2 * epoch + 2]
        assert loss == pytest.approx((wa * a + wb * b) / (wa + wb), rel=1e-12)
        assert loss != pytest.approx((a + b) / 2, rel=1e-12)


def test_encode_provider_serves_the_cached_bits_across_chunks(tmp_path):
    """130 items span three ENCODE_CHUNK passes per encoder of c7's pair; the
    encoded layers are the bits a per-item cache build stores."""
    text_enc = FrozenEncoder(EncoderConfig("text", 24, 48, 512, 32, 11))
    image_enc = FrozenEncoder(EncoderConfig("image", 12, 32, 256, 32, 22))
    text_plan, image_plan = plans_for("va", 24, 12, "asym_grouped")
    ids = list(range(7, 7 + 3 * 130, 3))
    build_cache(text_enc, ids, text_plan.cache_layers(), tmp_path / "t.iisc")
    build_cache(image_enc, ids, image_plan.cache_layers(), tmp_path / "i.iisc")
    cached = recsys.CachedStateProvider(CacheStore(tmp_path / "t.iisc", text_enc.fingerprint),
                                        CacheStore(tmp_path / "i.iisc", image_enc.fingerprint),
                                        text_plan, image_plan).batch_states(ids)
    encoded = recsys.EncodeStateProvider(text_enc, image_enc, text_plan, image_plan).batch_states(ids)
    for cached_side, encoded_side in zip(cached, encoded, strict=True):
        assert len(cached_side) == len(encoded_side)
        for c, e in zip(cached_side, encoded_side):
            np.testing.assert_array_equal(e.data, c.data)


def test_encode_provider_runs_one_backbone_pass_per_chunk(monkeypatch):
    text_enc = FrozenEncoder(EncoderConfig("text", 2, 8, 64, 16, seed=1))
    image_enc = FrozenEncoder(EncoderConfig("image", 2, 8, 64, 32, seed=2))
    text_plan, image_plan = plans_for("vs", 2, 2, None)
    provider = recsys.EncodeStateProvider(text_enc, image_enc, text_plan, image_plan)
    calls = Counter()
    forward = backbone.forward

    def counting(enc, tokens, *args):
        calls[enc.cfg.modality] += 1
        return forward(enc, tokens, *args)

    monkeypatch.setattr(backbone, "forward", counting)
    for items, passes in ((50, 1), (130, 3)):
        calls.clear()
        provider.batch_states(list(range(items)))
        assert calls == {"text": passes, "image": passes}


def test_cached_provider_rejects_mismatched_layers(tmp_path):
    _, split, _, _, _, text_enc, image_enc = _tiny_world(tmp_path)
    plans = _tiny_rec().items
    build_cache(text_enc, list(split.catalog), (0, 1), tmp_path / "t.iisc")
    build_cache(image_enc, list(split.catalog), plans.image_plan.cache_layers(), tmp_path / "i.iisc")
    with pytest.raises(StalenessError):
        recsys.CachedStateProvider(CacheStore(tmp_path / "t.iisc"), CacheStore(tmp_path / "i.iisc"),
                                   plans.text_plan, plans.image_plan)


def test_encode_provider_rejects_plan_for_other_depth(tmp_path):
    _, _, _, _, _, text_enc, image_enc = _tiny_world(tmp_path)
    deeper = recsys.build_rec_model("va", 8, 16, 4, 16, bottleneck=4, dseq=16).items
    with pytest.raises(StalenessError):
        recsys.EncodeStateProvider(text_enc, image_enc, deeper.text_plan, deeper.image_plan)


def test_training_loss_decreases_on_planted_structure(tmp_path):
    data = tmp_path / "it.tsv"
    generate_synthetic(SyntheticSpec(50, 20, 0.9, 8, 12, seed=13), data)
    split = split_leave_one_out(recsys.load_interactions(data))
    pop = compute_popularity(split)
    text_enc = FrozenEncoder(EncoderConfig("text", 4, 16, 64, 16, seed=41))
    image_enc = FrozenEncoder(EncoderConfig("image", 4, 16, 64, 32, seed=42))
    rec = recsys.build_rec_model("vs", 4, 16, 4, 16, bottleneck=8, dseq=32,
                                 seq_blocks=2, seq_heads=2, max_seq_len=10, seed=1)
    provider = recsys.EncodeStateProvider(text_enc, image_enc,
                                          rec.items.text_plan, rec.items.image_plan)
    cfg = TrainConfig(lr=1e-3, batch_size=16, epochs=50, dropout=0.1, seed=21)
    result = recsys.train(rec, split, pop, provider, cfg)
    assert result.epoch_losses[-1] < 0.7 * result.epoch_losses[0], result.epoch_losses[::10]


def test_evaluate_end_to_end_and_no_leakage(tmp_path):
    _, split, pop, _, _, text_enc, image_enc = _tiny_world(tmp_path)
    rec = _tiny_rec()
    provider = recsys.EncodeStateProvider(text_enc, image_enc,
                                          rec.items.text_plan, rec.items.image_plan)
    report = recsys.evaluate(rec, split, provider)
    assert 0.0 <= report.ndcg_at_10 <= 1.0 and 0.0 <= report.hr_at_10 <= 1.0
    assert report.evaluated_user_count == len(split.test)
    again = recsys.evaluate(rec, split, provider)
    assert (report.hr_at_10, report.ndcg_at_10) == (again.hr_at_10, again.ndcg_at_10)
    assert report.machine_line().startswith("METRICS hr10=")

    # removing a test item from the catalog must raise, not silently score
    clipped = recsys.Split(split.train, split.val, split.test, split.dropped_users,
                           tuple(i for i in split.catalog if i != split.test[min(split.test)]))
    with pytest.raises(InputError):
        recsys.evaluate(rec, clipped, provider)


# --- checkpoints -----------------------------------------------------------------

FPS = (0x7E47, 0x1A6E)  # the (text, image) encoder fingerprints the test checkpoints record


def _va_rec(seed=0, text_mode="asym_grouped"):
    return recsys.build_rec_model("va", 8, 24, 4, 16, text_mode=text_mode, bottleneck=4,
                                  dseq=16, seq_blocks=2, seq_heads=2, max_seq_len=6, seed=seed)


def _header_fields(rec):
    i = rec.items
    return (i.variant, i.text_plan, i.image_plan, i.text_dim, i.image_dim, i.bottleneck, i.dseq,
            len(rec.seq.blocks), rec.seq.blocks[0].heads, rec.seq.max_seq_len)


@pytest.mark.parametrize("build", [_tiny_rec, _va_rec, partial(_va_rec, text_mode=None)],
                         ids=["vs", "va-asym_grouped", "va-default-mode"])
def test_checkpoint_roundtrip_through_disk(tmp_path, build):
    """The header stores the resolved text mode, so a model built without one
    loads with the plans it was trained on."""
    rec = build(seed=4)
    rng = np.random.default_rng(14)
    for p in rec.parameters():
        p.tensor.data = rng.normal(size=p.data.shape).astype(np.float32)
    path = tmp_path / "m.ckpt"
    recsys.save_rec_checkpoint(path, rec, FPS)
    loaded = recsys.load_rec_checkpoint(path, FPS)
    assert _header_fields(loaded) == _header_fields(rec)  # plans include the mode and group size
    assert (loaded.items.dtl is None) == (rec.items.variant == "vs")
    for a, b in zip(rec.parameters(), loaded.parameters(), strict=True):
        assert a.name == b.name
        np.testing.assert_array_equal(a.data, b.data)


def _layout_digest(model):
    """Count and sha256 of a model's ordered (name, shape) list: the order a checkpoint stores it in."""
    layout = [(p.name, p.data.shape) for p in model.parameters()]
    return len(layout), hashlib.sha256(repr(layout).encode()).hexdigest()


def test_checkpoint_layout_is_pinned():
    """`Module.parameters` walks attributes in assignment order, and a checkpoint
    stores weights in that order: reordering an `__init__` changes the file layout."""
    assert _layout_digest(_va_rec()) == (
        67, "3b0f3a8a0d2650808c29f1737eb556ddbae200281da0c689d29b6d44fc650397")
    epeft = recsys.regime_model(recsys.EPEFT_ADAPTER, EncoderConfig("text", 4, 16, 64, 16, seed=3),
                                EncoderConfig("image", 2, 8, 64, 32, seed=4),
                                recsys.SanSpec(bottleneck=4, dseq=16), seed=0).items
    assert _layout_digest(epeft) == (
        126, "223c4bbd0c362c9e2bf173239b18927271de5a6f5d2911b4bddec80af3479c02")


def test_header_that_cannot_be_packed_leaves_the_old_checkpoint(tmp_path):
    rec = _va_rec()
    path = tmp_path / "m.ckpt"
    recsys.save_rec_checkpoint(path, rec, FPS)
    good = path.read_bytes()
    rec.seq.max_seq_len = recsys.U16_MAX + 1
    with pytest.raises(struct.error):
        recsys.save_rec_checkpoint(path, rec, FPS)
    assert path.read_bytes() == good


def test_checkpoint_from_other_encoders_is_stale(tmp_path):
    path = tmp_path / "m.ckpt"
    recsys.save_rec_checkpoint(path, _va_rec(), FPS)
    with pytest.raises(StalenessError) as exc:
        recsys.load_rec_checkpoint(path, (FPS[0], 0x99))
    assert "0x7e47/0x1a6e" in str(exc.value) and "0x7e47/0x99" in str(exc.value)


def test_version_1_checkpoint_is_version_error(tmp_path):
    path = tmp_path / "m.ckpt"
    recsys.save_rec_checkpoint(path, _va_rec(), FPS)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<H", raw, 4, 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError) as exc:
        recsys.load_rec_checkpoint(path, FPS)
    assert exc.value.offset == 4


DIMS_AT = 12  # magic, version u16, variant and mode codes u8, text and image layers u16
COUNT_AT = DIMS_AT + 22  # after four u32 widths and three u16 seq fields


@pytest.fixture(scope="module")
def va_checkpoint(tmp_path_factory):
    """Bytes of a va/asym_grouped checkpoint and a path to write damaged copies to."""
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    recsys.save_rec_checkpoint(path, _va_rec(), FPS)
    return path.read_bytes(), path


def test_checkpoint_truncated_at_every_offset(va_checkpoint):
    raw, path = va_checkpoint
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError) as exc:
            recsys.load_rec_checkpoint(path, FPS)
        assert exc.value.offset is not None, cut


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_checkpoint_reader_raises_only_format_errors(va_checkpoint, data):
    """A changed byte anywhere in the file, alone or with a truncation, is a
    FormatError (VersionError is one) with a byte offset."""
    raw, path = va_checkpoint
    at = data.draw(st.integers(0, len(raw) - 1))
    damaged = bytearray(raw)
    damaged[at] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]))
    cut = data.draw(st.integers(at + 1, len(raw)))
    path.write_bytes(bytes(damaged[:cut]))
    with pytest.raises(FormatError) as exc:
        recsys.load_rec_checkpoint(path, FPS)
    assert exc.value.offset is not None


@pytest.mark.parametrize("patch", ["seq_heads=0", "seq_heads=3", "variant=vs"])
def test_checkpoint_without_a_buildable_model_is_format_error(va_checkpoint, patch):
    """Header fields that decode but describe no model (no heads, heads not dividing
    dseq=16, or a symmetric variant over unequal widths) fail at the dimensions block."""
    raw, path = va_checkpoint
    damaged = bytearray(raw)
    if patch == "variant=vs":
        damaged[6] = 0
    else:  # seq heads: the u16 after four u32 widths and the u16 block count
        damaged[DIMS_AT + 18:DIMS_AT + 20] = struct.pack("<H", int(patch[-1]))
    path.write_bytes(bytes(damaged))
    with pytest.raises(FormatError) as exc:
        recsys.load_rec_checkpoint(path, FPS)
    assert exc.value.offset == DIMS_AT


@pytest.mark.parametrize("patch", ["count=2**63", "text_dim=10**9", "8 bytes appended"])
def test_checkpoint_sizes_are_checked_before_allocation(va_checkpoint, patch):
    """The parameter count must be the one the header describes and the file must
    end with the digest after the last parameter; both are FormatErrors before
    any allocation."""
    raw, path = va_checkpoint
    damaged, offset = bytearray(raw), DIMS_AT
    if patch == "count=2**63":
        damaged[COUNT_AT:COUNT_AT + 8] = struct.pack("<Q", 2 ** 63)
    elif patch == "text_dim=10**9":
        damaged[DIMS_AT:DIMS_AT + 4] = struct.pack("<I", 10 ** 9)
    else:
        damaged += bytes(8)
        offset = len(raw)
    path.write_bytes(bytes(damaged))
    with pytest.raises(FormatError) as exc:
        recsys.load_rec_checkpoint(path, FPS)
    assert exc.value.offset == offset


@pytest.mark.parametrize("at, value", [(DIMS_AT + 18, 1), (COUNT_AT + 8, 0), (COUNT_AT + 16, 0),
                                       (COUNT_AT + 24, 0xFF), (-9, 0xFF)],
                         ids=["seq-heads-2-to-1", "text-fingerprint", "image-fingerprint",
                              "first-parameter", "last-parameter"])
def test_change_that_passes_the_header_checks_fails_the_digest(va_checkpoint, at, value):
    """A byte that still describes a buildable model, a fingerprint byte or a
    parameter byte changes the digest: a FormatError at the digest, never a
    model with other weights or a stale-encoder report."""
    raw, path = va_checkpoint
    damaged = bytearray(raw)
    assert damaged[at] != value
    damaged[at] = value
    path.write_bytes(bytes(damaged))
    with pytest.raises(FormatError) as exc:
        recsys.load_rec_checkpoint(path, FPS)
    assert exc.value.offset == len(raw) - 8
