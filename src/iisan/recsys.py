"""Sequential recommendation on top of tower item embeddings.

Datasets are user -> chronological item-id sequences. The leave-one-out
split reserves the last item for test and the penultimate for validation.
Training scores every position of a user's train prefix against all
in-batch items with an in-batch debiased softmax loss (logits shifted by
-log popularity, negatives restricted to items the user never interacted
with), optimized by Adam. Evaluation ranks the target against the complete
catalog with pessimistic tie-breaking.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Module, Parameter, Tape, Tensor
from .backbone import EncoderConfig, FrozenEncoder, encode_item, fingerprint, item_tokens
from .cache import ITEM_ID_LIMIT, CacheStore, _read_exact, atomic_write
from .errors import ConfigError, ContractError, FormatError, InputError, StalenessError, VersionError
from .layers import LayerNorm, TransformerBlock, causal_mask, dropout
from .sanet import (MODES, VARIANT_ASYMMETRIC, VARIANT_SYMMETRIC, IisanModel, LayerDropPlan, PooledItemModel,
                    plans_for, tower_param_count)


# ---------------------------------------------------------------------------
# datasets and splits
# ---------------------------------------------------------------------------

@dataclass
class InteractionDataset:
    users: dict[int, list[int]]
    catalog: tuple[int, ...]

    @classmethod
    def from_users(cls, users: Mapping[int, Sequence[int]]) -> "InteractionDataset":
        items = sorted({v for seq in users.values() for v in seq})
        return cls({u: list(seq) for u, seq in users.items()}, tuple(items))


def load_interactions(path) -> InteractionDataset:
    """Parse `user_id<TAB>item_id[ item_id]*` lines, one line per user; item ids
    lie in [0, 2^64), the range a cache record can hold."""
    users: dict[int, list[int]] = {}
    # a byte that is not UTF-8 reads as a lone surrogate, which no int parses: a malformed line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                user_part, items_part = line.split("\t")
                user = int(user_part)
                items = [int(tok) for tok in items_part.split(" ") if tok]
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: malformed interaction line") from exc
            if not items:
                raise InputError(f"{path}:{lineno}: user {user} has no items")
            if user in users:
                raise InputError(f"{path}:{lineno}: user {user} is listed on an earlier line")
            bad = next((v for v in items if not 0 <= v < ITEM_ID_LIMIT), None)
            if bad is not None:
                raise InputError(f"{path}:{lineno}: item id {bad} is outside [0, 2^64)")
            users[user] = items
    if not users:
        raise InputError(f"{path}: no interactions")
    return InteractionDataset.from_users(users)


def save_interactions(path, users: Mapping[int, Sequence[int]]) -> None:
    """The lines `load_interactions` parses, by ascending user; the file appears
    whole or not at all."""
    with atomic_write(path) as f:
        for user in sorted(users):
            f.write(f"{user}\t{' '.join(str(v) for v in users[user])}\n".encode())


@dataclass
class Split:
    train: dict[int, list[int]]
    val: dict[int, int]
    test: dict[int, int]
    dropped_users: int
    catalog: tuple[int, ...]


def split_leave_one_out(dataset: InteractionDataset) -> Split:
    """Last item held out for test, penultimate for validation; users with
    fewer than three interactions are dropped (and counted)."""
    if not dataset.users:
        raise InputError("empty dataset")
    train: dict[int, list[int]] = {}
    val: dict[int, int] = {}
    test: dict[int, int] = {}
    dropped = 0
    for user in sorted(dataset.users):
        seq = dataset.users[user]
        if len(seq) < 3:
            dropped += 1
            continue
        train[user] = list(seq[:-2])
        val[user] = seq[-2]
        test[user] = seq[-1]
    if not train:
        raise InputError("no user has enough interactions for a leave-one-out split")
    return Split(train, val, test, dropped, dataset.catalog)


def compute_popularity(split: Split) -> dict[int, float]:
    """Additively smoothed train-frequency: p_i = (count_i + 1) / (total + |catalog|)."""
    counts = {item: 0 for item in split.catalog}
    total = 0
    for seq in split.train.values():
        for item in seq:
            counts[item] += 1
            total += 1
    if total == 0:
        raise InputError("no training interactions")
    denom = total + len(split.catalog)
    return {item: (c + 1) / denom for item, c in counts.items()}


# ---------------------------------------------------------------------------
# sequential encoder
# ---------------------------------------------------------------------------

def seq_param_count(dseq: int, blocks: int, max_seq_len: int) -> int:
    """Parameters of a `SeqEncoder`, computed without building it."""
    return max_seq_len * dseq + blocks * (12 * dseq * dseq + 13 * dseq) + 2 * dseq


class SeqEncoder(Module):
    """Causal transformer over item embeddings; the last position is the user state."""

    def __init__(self, dim: int = 64, blocks: int = 2, heads: int = 2,
                 max_seq_len: int = 10, seed: Optional[int] = 0):
        """Random weights drawn from `seed`; with `seed=None` nothing is drawn and
        the drawn weights start at zero, for a model whose weights are loaded next."""
        if blocks < 1:
            raise ConfigError(f"the sequential encoder needs at least one block, got {blocks}")
        rng = None if seed is None else np.random.default_rng(seed)
        self.dim = dim
        self.max_seq_len = max_seq_len
        pos = (np.zeros((max_seq_len, dim), dtype=np.float32) if rng is None
               else (rng.standard_normal((max_seq_len, dim)) * 0.02).astype(np.float32))
        self.pos_table = Parameter(Tensor(pos), "seq.positions")
        self.blocks = [TransformerBlock(dim, heads, f"seq.block{i + 1}", rng) for i in range(blocks)]
        self.ln_out = LayerNorm(dim, "seq.ln_out")

    def states(self, item_embs: Tensor, drop=None, rows: Optional[np.ndarray] = None) -> Tensor:
        """Per-position states of (…, s, dim) embedded sequences, causal; with
        `rows`, only the (len(rows), dim) states at those rows of the positions
        flattened to (-1, dim), which the top block alone prunes to.

        Windows batched along the leading axes are right-padded to a common s:
        a real position never attends to the pads after it.
        """
        s = item_embs.shape[-2]
        if s == 0:
            raise InputError("empty item sequence")
        if s > self.max_seq_len:
            raise ContractError(f"sequence length {s} exceeds max_seq_len {self.max_seq_len}")
        positions = np.broadcast_to(np.arange(s), item_embs.shape[:-1])
        x = ad.add(item_embs, ad.take_rows(self.pos_table.tensor, positions))
        if drop is not None:
            x = drop(x)
        mask = causal_mask(s, dtype=item_embs.data.dtype)
        for blk in self.blocks[:-1]:
            x = blk(x, attn_mask=mask, drop=drop)
        return self.ln_out(self.blocks[-1](x, attn_mask=mask, drop=drop, rows=rows))


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def inbatch_debiased_ce(logits: Tensor, candidates: Sequence[int],
                        popularity: Mapping[int, float],
                        positives: Sequence[int],
                        owned: Sequence[set[int]]) -> Tensor:
    """In-batch debiased cross-entropy.

    `logits` is (terms, candidates) with columns aligned to `candidates`,
    which must be strictly ascending item ids, so the stabilized summation
    runs in one order whoever builds the batch. Each term's denominator keeps
    its positive plus every in-batch item the user never interacted with;
    logits are shifted by -log(popularity).
    """
    t = len(positives)
    if t < 1:
        raise ContractError("inbatch_debiased_ce: empty batch")
    if len(owned) != t:
        raise ContractError("inbatch_debiased_ce: owned sets do not match positives")
    if logits.shape != (t, len(candidates)):
        raise ContractError(f"inbatch_debiased_ce: logits {logits.shape} do not match "
                            f"{t} terms x {len(candidates)} candidates")
    if not np.isfinite(logits.data).all():
        raise ContractError("inbatch_debiased_ce: non-finite logit")
    if any(a >= b for a, b in zip(candidates, candidates[1:])):
        raise ContractError("inbatch_debiased_ce: candidates are not strictly ascending item ids")

    pops = np.array([popularity[i] for i in candidates], dtype=np.float64)
    if (pops <= 0).any():
        raise InputError("inbatch_debiased_ce: popularity must be positive for every candidate")
    adjusted = ad.add(logits, Tensor(np.broadcast_to(-np.log(pops).astype(logits.data.dtype), logits.shape)))

    col = {item: i for i, item in enumerate(candidates)}
    missing = next((pos for pos in positives if pos not in col), None)
    if missing is not None:
        raise ContractError(f"inbatch_debiased_ce: positive {missing} not among candidates")
    pos_cols = np.array([col[pos] for pos in positives], dtype=np.int64)
    # terms of one user share one set object: its columns are looked up once
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for row, own in enumerate(owned):
        if id(own) not in groups:
            groups[id(own)] = ([], [col[item] for item in own if item in col])
        groups[id(own)][0].append(row)
    allowed = np.ones((t, len(candidates)), dtype=bool)
    for rows, cols in groups.values():
        allowed[np.ix_(rows, cols)] = False
    allowed[np.arange(t), pos_cols] = True
    return ad.masked_softmax_ce(adjusted, allowed, pos_cols)


# ---------------------------------------------------------------------------
# item-state providers
# ---------------------------------------------------------------------------

ENCODE_CHUNK = 64  # items per backbone pass in `EncodeStateProvider.batch_states`


class EncodeStateProvider:
    """Recompute pruned stacks from the frozen encoders on every request, one
    backbone pass per encoder and ENCODE_CHUNK items."""

    def __init__(self, text_encoder: FrozenEncoder, image_encoder: FrozenEncoder,
                 text_plan: LayerDropPlan, image_plan: LayerDropPlan):
        for enc, plan in ((text_encoder, text_plan), (image_encoder, image_plan)):
            if plan.source_layers != enc.cfg.layers:
                raise StalenessError(
                    f"{enc.cfg.modality} plan was derived for {plan.source_layers} layers, "
                    f"the encoder has {enc.cfg.layers}")
        self.encoders = (text_encoder, image_encoder)
        self.layers = (list(text_plan.cache_layers()), list(image_plan.cache_layers()))

    def batch_states(self, item_ids: Sequence[int]) -> tuple[list[Tensor], list[Tensor]]:
        out = []
        for enc, layers in zip(self.encoders, self.layers):
            tokens = np.array([item_tokens(enc.cfg, i) for i in item_ids])
            chunks = [encode_item(enc, tokens[start:start + ENCODE_CHUNK])[:, layers]
                      for start in range(0, len(tokens), ENCODE_CHUNK)]
            out.append(_layer_tensors(np.concatenate(chunks)))
        return tuple(out)


class CachedStateProvider:
    """Serve pruned stacks from immutable cache files."""

    def __init__(self, text_store: CacheStore, image_store: CacheStore,
                 text_plan: LayerDropPlan, image_plan: LayerDropPlan):
        for store, plan, side in ((text_store, text_plan, "text"), (image_store, image_plan, "image")):
            if store.header.kept_layers != plan.cache_layers():
                raise StalenessError(
                    f"{side} cache keeps layers {store.header.kept_layers}, the plan needs "
                    f"{plan.cache_layers()}; rebuild the cache")
        self.stores = (text_store, image_store)

    def batch_states(self, item_ids: Sequence[int]) -> tuple[list[Tensor], list[Tensor]]:
        return tuple(_layer_tensors(store.read_items(item_ids)) for store in self.stores)


def _layer_tensors(states: np.ndarray) -> list[Tensor]:
    """One (items, hidden_dim) Tensor per kept layer of an (items, kept, hidden_dim) array."""
    return [Tensor(states[:, j]) for j in range(states.shape[1])]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class RecModel(Module):
    """`items.item_embed(*provider.batch_states(ids))` embeds item ids, a row each:
    `IisanModel` towers, the only item model a checkpoint stores, or the fft and
    epeft `sanet.PooledItemModel`. `seq` encodes users over those rows."""

    items: IisanModel | PooledItemModel
    seq: SeqEncoder


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 32
    epochs: int = 5
    dropout: float = 0.1
    seed: int = 7


@dataclass
class TrainResult:
    epoch_losses: list[float]
    steps: int


def batch_windows(users: Sequence[int], split: Split, max_seq_len: int) -> dict[int, list[int]]:
    """Per-user training windows: the last max_seq_len+1 items of the train prefix."""
    windows = {u: split.train[u][-(max_seq_len + 1):] for u in users}
    windows = {u: w for u, w in windows.items() if len(w) >= 2}
    if not windows:
        raise InputError("batch has no user with a trainable prefix")
    return windows


def user_states(seq: SeqEncoder, item_matrix: Tensor, col: Mapping[int, int],
                windows: Sequence[list[int]], drop=None, last: bool = False) -> Tensor:
    """(windows, L, dim) states of item windows right-padded to the longest, L,
    in one sequence pass; `col` maps items to matrix rows. Pads embed row 0,
    and no real position reads their states. With `last`, the (windows, dim)
    states at each window's last position, the only rows the top block computes."""
    rows = np.zeros((len(windows), max(len(w) for w in windows)), dtype=np.int64)
    for i, w in enumerate(windows):
        rows[i, :len(w)] = [col[v] for v in w]
    embs = ad.take_rows(item_matrix, rows)
    if not last:
        return seq.states(embs, drop)
    read = np.arange(len(windows)) * rows.shape[1] + [len(w) - 1 for w in windows]
    # a lone row would take numpy's matrix-vector product, which rounds unlike the
    # full pass's matrix products, so one window reads its row twice
    states = seq.states(embs, drop, np.resize(read, max(2, len(read))))
    return states if len(read) > 1 else ad.take_rows(states, [0])


def sequence_loss(seq: SeqEncoder, item_matrix: Tensor, candidates: Sequence[int],
                  windows: Mapping[int, list[int]], split: Split,
                  popularity: Mapping[int, float], drop=None) -> Tensor:
    """Next-item loss over every position of every window, against in-batch items."""
    users = sorted(windows)
    col = {item: i for i, item in enumerate(candidates)}
    inputs = [windows[u][:-1] for u in users]
    states = user_states(seq, item_matrix, col, inputs, drop)
    width = states.shape[1]
    # the real positions, user by user, then position by position
    real = np.concatenate([i * width + np.arange(len(w)) for i, w in enumerate(inputs)])
    rows = ad.take_rows(ad.reshape(states, (-1, seq.dim)), real)
    positives: list[int] = []
    owned: list[set[int]] = []
    for u in users:
        targets = windows[u][1:]
        positives.extend(targets)
        owned.extend([set(split.train[u])] * len(targets))
    logits = ad.matmul(rows, ad.transpose(item_matrix))
    return inbatch_debiased_ce(logits, candidates, popularity, positives, owned)


def step_loss(rec: RecModel, users: Sequence[int], split: Split, popularity: Mapping[int, float],
              provider, drop=None) -> tuple[Tape, Tensor]:
    """The tape and the sequence loss of a batch of users, whose windows are cut to
    the model's own length, `rec.seq.max_seq_len`."""
    windows = batch_windows(users, split, rec.seq.max_seq_len)
    candidates = sorted({item for w in windows.values() for item in w})
    inputs = provider.batch_states(candidates)
    with Tape() as tape:
        item_matrix = rec.items.item_embed(*inputs)
        loss = sequence_loss(rec.seq, item_matrix, candidates, windows, split, popularity, drop)
    return tape, loss


def train_step(rec: RecModel, users: Sequence[int], split: Split,
               popularity: Mapping[int, float], provider, cfg: TrainConfig,
               opt: Adam, dropout_rng: np.random.Generator) -> float:
    """One optimizer step over a batch of users, with dropout; returns the batch loss."""
    tape, loss = step_loss(rec, users, split, popularity, provider,
                           lambda t: dropout(t, cfg.dropout, dropout_rng))
    opt.step(ad.backward(tape, loss, rec.parameters()))
    return float(loss.data)


def train(rec: RecModel, split: Split, popularity: Mapping[int, float],
          provider, cfg: TrainConfig) -> TrainResult:
    """Adam over all trainable parameters; deterministic for a fixed seed. An
    epoch's loss is the mean of its step losses weighted by each batch's loss
    terms, its windows' next-item positions, so every position counts alike
    whichever batch it falls in."""
    users = [u for u in sorted(split.train) if len(split.train[u]) >= 2]
    if not users:
        raise InputError("no users with at least two training interactions")
    shuffle_seq, dropout_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    dropout_rng = np.random.default_rng(dropout_seq)
    opt = Adam(rec.parameters(), lr=cfg.lr)

    losses = []
    steps = 0
    for _ in range(cfg.epochs):
        order = [users[i] for i in shuffle_rng.permutation(len(users))]
        epoch, terms = [], []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            epoch.append(train_step(rec, batch, split, popularity, provider, cfg,
                                    opt, dropout_rng))
            terms.append(sum(len(w) - 1 for w in batch_windows(batch, split, rec.seq.max_seq_len).values()))
            steps += 1
        losses.append(float(np.average(epoch, weights=terms)))
    return TrainResult(losses, steps)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class MetricReport:
    hr_at_10: float
    ndcg_at_10: float
    evaluated_user_count: int

    def machine_line(self) -> str:
        return f"METRICS hr10={self.hr_at_10:.6f} ndcg10={self.ndcg_at_10:.6f} users={self.evaluated_user_count}"


# users per sequence pass in `evaluate`, which keeps eval's peak memory below
# training's. A pass's top block gathers one row per user into a 2-D matrix, whose
# matrix products round as the full pass's do; `user_states` doubles a lone row.
# The passes are not rebalanced: OpenBLAS rounds `last @ items.T` differently
# below some row count (24 rows against a 50-item catalog), so the scores would move.
EVAL_CHUNK = 32
CUTOFF = 10  # the k of HR@k and NDCG@k
_DISCOUNT = np.array([1.0 / math.log2(rank + 1) for rank in range(1, CUTOFF + 1)])  # NDCG gain by rank


def rank_pessimistic(scores: np.ndarray, target_cols: Sequence[int]) -> np.ndarray:
    """1-based rank of each row's target column in a (rows, catalog) score
    matrix, with equal scores counted ahead of it."""
    t = np.take_along_axis(scores, np.asarray(target_cols, dtype=np.int64)[:, None], axis=1)
    return (scores > t).sum(axis=1) + (scores == t).sum(axis=1)


def metrics_from_ranks(ranks: np.ndarray) -> MetricReport:
    """HR@10 and NDCG@10 over 1-based ranks."""
    if not len(ranks):
        raise InputError("no users to evaluate")
    hit = ranks <= CUTOFF
    gains = np.where(hit, _DISCOUNT[np.minimum(ranks, CUTOFF) - 1], 0.0)
    return MetricReport(float(np.mean(hit)), float(np.mean(gains)), len(ranks))


def evaluate(rec: RecModel, split: Split, provider) -> MetricReport:
    """Full-catalog ranking of each user's test item.

    The user's window is the train prefix plus the validation item, cut to
    the model's own length, `rec.seq.max_seq_len`. Users are scored EVAL_CHUNK
    at a time, in ascending order. A user is scored from the state at its
    window's last position, so in each pass the top sequence block runs its
    attention at every position, whose keys and values the last one reads,
    and `wo`, the residuals, the MLP and `ln_out` on one gathered row per
    user alone: the same bits as the full pass at those rows. A non-finite
    score ranks nothing, so it is an InputError naming the first such user.
    """
    catalog = list(split.catalog)
    if not catalog:
        raise InputError("empty catalog")
    col = {item: i for i, item in enumerate(catalog)}
    missing = [u for u, v in split.test.items() if v not in col]
    if missing:
        raise InputError(f"test item of user {missing[0]} is not in the catalog; "
                         "evaluation would silently leak")

    item_matrix = rec.items.item_embed(*provider.batch_states(catalog))
    users = sorted(split.test)
    ranks = []
    for start in range(0, len(users), EVAL_CHUNK):
        chunk = users[start:start + EVAL_CHUNK]
        windows = [(split.train[u] + [split.val[u]])[-rec.seq.max_seq_len:] for u in chunk]
        last = user_states(rec.seq, item_matrix, col, windows, last=True).data
        with np.errstate(invalid="ignore", over="ignore"):  # reported below, by user
            scores = last @ item_matrix.data.T
        finite = np.isfinite(scores).all(axis=1)
        if not finite.all():
            raise InputError(f"user {chunk[int(np.argmin(finite))]} has a non-finite score: the checkpoint "
                             "or the item states hold a NaN or an infinity")
        ranks.append(rank_pessimistic(scores, [col[split.test[u]] for u in chunk]))
    return metrics_from_ranks(np.concatenate(ranks))


def popularity_baseline(split: Split, popularity: Mapping[int, float]) -> MetricReport:
    """Rank the catalog by popularity (ties broken by item id) for every user's test item."""
    order = sorted(split.catalog, key=lambda item: (-popularity[item], item))
    rank = {item: r for r, item in enumerate(order, 1)}
    return metrics_from_ranks(np.array([rank[split.test[u]] for u in sorted(split.test)], dtype=np.int64))


# ---------------------------------------------------------------------------
# regimes and checkpoints
# ---------------------------------------------------------------------------

FFT = "fft"
EPEFT_ADAPTER = "epeft_adapter"
DPEFT_UNCACHED = "dpeft_uncached"
DPEFT_CACHED = "dpeft_cached"
REGIMES = (FFT, EPEFT_ADAPTER, DPEFT_UNCACHED, DPEFT_CACHED)

# regime -> (segments whose weights train, segments the gradient only passes through)
SEGMENTS = {
    FFT: (("backbone", "head", "seq"), ()),
    EPEFT_ADAPTER: (("adapter", "head", "seq"), ("backbone",)),
    DPEFT_UNCACHED: (("tower", "seq"), ()),
    DPEFT_CACHED: (("tower", "seq"), ()),
}


@dataclass(frozen=True)
class SanSpec:
    """Shape of the trainable side: towers or head and adapters, and the sequential encoder."""

    variant: str = "vs"
    bottleneck: int = 16
    dseq: int = 64
    seq_blocks: int = 2
    seq_heads: int = 2
    seq_len: int = 10
    text_mode: str = ""  # the text layer-drop mode; "" takes the variant's default


def build_rec_model(variant: str, text_layers: int, text_dim: int, image_layers: int,
                    image_dim: int, text_mode: Optional[str] = None, bottleneck: int = 16,
                    dseq: int = 64, seq_blocks: int = 2, seq_heads: int = 2,
                    max_seq_len: int = 10, seed: Optional[int] = 0) -> RecModel:
    """Towers and sequential encoder drawn from `seed` and `seed + 1`; with
    `seed=None` nothing is drawn, for a model whose weights are loaded next."""
    iisan = IisanModel(variant, text_layers, text_dim, image_layers, image_dim,
                       text_mode=text_mode, bottleneck=bottleneck, dseq=dseq, seed=seed)
    seq = SeqEncoder(dim=dseq, blocks=seq_blocks, heads=seq_heads,
                     max_seq_len=max_seq_len, seed=None if seed is None else seed + 1)
    return RecModel(iisan, seq)


def regime_model(regime: str, text_cfg: EncoderConfig, image_cfg: EncoderConfig, san: SanSpec,
                 seed: int) -> RecModel:
    """Towers when `regime` trains them, else a `PooledItemModel` with trainable
    encoders iff the backbone trains and adapters iff the adapter segment trains."""
    if regime not in SEGMENTS:
        raise ConfigError(f"unknown regime {regime!r}")
    trained = SEGMENTS[regime][0]
    if "tower" in trained:
        return build_rec_model(san.variant, text_cfg.layers, text_cfg.hidden_dim, image_cfg.layers,
                               image_cfg.hidden_dim, san.text_mode, san.bottleneck, san.dseq,
                               san.seq_blocks, san.seq_heads, san.seq_len, seed)
    encoders = [FrozenEncoder(cfg, trainable="backbone" in trained) for cfg in (text_cfg, image_cfg)]
    items = PooledItemModel(*encoders, san.bottleneck, san.dseq, "adapter" in trained, seed + 2)
    return RecModel(items, SeqEncoder(san.dseq, san.seq_blocks, san.seq_heads, san.seq_len, seed + 1))


def cache_path(cache_dir, modality: str) -> Path:
    """The cache file of one modality's item states."""
    return Path(cache_dir) / f"{modality}.iisc"


def state_provider(regime: str, text_cfg: EncoderConfig, image_cfg: EncoderConfig, items, cache_dir):
    """`items` itself when the backbone runs on the tape; else the encoders' states, computed
    on every request (dpeft_uncached) or read from `cache_dir` with no encoder built (dpeft_cached)."""
    trained, traversed = SEGMENTS[regime]
    if "backbone" in trained + traversed:
        return items
    plans = items.text_plan, items.image_plan
    if regime == DPEFT_UNCACHED:
        return EncodeStateProvider(FrozenEncoder(text_cfg), FrozenEncoder(image_cfg), *plans)
    try:
        stores = [CacheStore(cache_path(cache_dir, cfg.modality), expected_fingerprint=fingerprint(cfg))
                  for cfg in (text_cfg, image_cfg)]
    except FileNotFoundError as exc:
        raise StalenessError(f"cache file missing ({exc.filename}); run `iisan cache` first") from exc
    return CachedStateProvider(*stores, *plans)


CHECKPOINT_MAGIC = b"IISM"
CHECKPOINT_VERSION = 3
_VARIANTS = (VARIANT_SYMMETRIC, VARIANT_ASYMMETRIC)  # index = on-disk code
_HEADER = struct.Struct("<HBBHHIIIIHHHQQQ")  # after the magic, the fields `save_rec_checkpoint` lists
_DIMS_AT = 12  # byte offset of the text width, the first field after the layer counts
_PARAMS_AT = len(CHECKPOINT_MAGIC) + _HEADER.size
_DIGEST_SIZE = 8
U16_MAX = 0xFFFF  # largest layer count, seq block count, head count or max_seq_len a u16 field holds


def _digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=_DIGEST_SIZE).digest()


def save_rec_checkpoint(path, rec: RecModel, encoder_fingerprints: tuple[int, int]) -> None:
    """IISM v3, little-endian: magic, version u16, then the arguments of
    `build_rec_model`: variant u8, the resolved text layer-drop mode u8, text
    and image layers u16 each, text, image, bottleneck and dseq widths u32
    each, seq blocks, heads and max_seq_len u16 each. Then the parameter count
    u64, the text and image encoder fingerprints u64 each, every parameter as
    float32 in the order of `Module.parameters`' walk (attribute assignment
    order), and an 8-byte blake2b digest of every byte before it. The file
    appears whole or not at all."""
    items, seq, params = rec.items, rec.seq, rec.parameters()
    # packed before the file is opened: a field that does not fit leaves the old file whole
    header = CHECKPOINT_MAGIC + _HEADER.pack(
        CHECKPOINT_VERSION, _VARIANTS.index(items.variant), MODES.index(items.text_plan.mode),
        items.text_plan.source_layers, items.image_plan.source_layers,
        items.text_dim, items.image_dim, items.bottleneck, items.dseq,
        len(seq.blocks), seq.blocks[0].heads, seq.max_seq_len,
        sum(p.data.size for p in params), *encoder_fingerprints)
    body = b"".join([header, *(np.ascontiguousarray(p.data, dtype="<f4").tobytes() for p in params)])
    with atomic_write(path) as f:
        f.write(body)
        f.write(_digest(body))


def load_rec_checkpoint(path, expected_fingerprints: tuple[int, int]) -> RecModel:
    """The checkpoint's model, built by `build_rec_model`, if it was trained on
    items from the encoders with the expected (text, image) fingerprints; else
    a StalenessError. A damaged file is a FormatError."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "checkpoint magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}", offset=0)
        (version, variant_code, mode_code, text_layers, image_layers, text_dim, image_dim, bottleneck,
         dseq, seq_blocks, seq_heads, max_seq_len, total, *fingerprints) = \
            _HEADER.unpack(_read_exact(f, _HEADER.size, "checkpoint header"))
        if version != CHECKPOINT_VERSION:
            raise VersionError(f"unsupported checkpoint version {version}", offset=4)
        if variant_code >= len(_VARIANTS):
            raise FormatError(f"unknown variant code {variant_code}", offset=6)
        if mode_code >= len(MODES):
            raise FormatError(f"unknown layer-drop mode code {mode_code}", offset=7)
        variant, text_mode = _VARIANTS[variant_code], MODES[mode_code]
        try:
            m = plans_for(variant, text_layers, image_layers, text_mode)[0].m
            # checked before anything is allocated: the count against the one the
            # header describes, the file size against the count
            described = (tower_param_count(text_dim, image_dim, m, bottleneck, dseq,
                                           variant == VARIANT_ASYMMETRIC)
                         + seq_param_count(dseq, seq_blocks, max_seq_len))
            if total != described:
                raise FormatError(f"parameter count {total} does not match the {described} "
                                  "parameters the header describes", offset=_DIMS_AT)
            end, size = _PARAMS_AT + 4 * total + _DIGEST_SIZE, os.fstat(f.fileno()).st_size
            if size != end:
                raise FormatError(f"checkpoint has {size} bytes, its header implies {end}",
                                  offset=min(size, end))
            rec = build_rec_model(variant, text_layers, text_dim, image_layers, image_dim, text_mode,
                                  bottleneck, dseq, seq_blocks, seq_heads, max_seq_len, seed=None)
        except ConfigError as exc:
            raise FormatError(f"checkpoint header describes no valid model: {exc}", offset=_DIMS_AT) from exc
        f.seek(0)
        body, digest = f.read(end - _DIGEST_SIZE), f.read(_DIGEST_SIZE)
    if _digest(body) != digest:
        raise FormatError("checkpoint digest does not match its contents", offset=end - _DIGEST_SIZE)
    if tuple(fingerprints) != tuple(expected_fingerprints):
        raise StalenessError(
            f"checkpoint {path} was trained on encoders {fingerprints[0]:#x}/{fingerprints[1]:#x} "
            f"(text/image), expected {expected_fingerprints[0]:#x}/{expected_fingerprints[1]:#x}; "
            "retrain, or set the encoders it was trained with")
    flat, offset = np.frombuffer(body, dtype="<f4", offset=_PARAMS_AT), 0
    for p in rec.parameters():  # `Module.parameters`' walk order, as saved
        n = p.data.size
        p.tensor.data = flat[offset:offset + n].reshape(p.data.shape).astype(np.float32)
        offset += n
    return rec
