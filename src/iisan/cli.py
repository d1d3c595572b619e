"""Command-line surface: gen | cache | train | eval | profile.

Configuration is line-oriented `key = value` text with `#` comments; flags
override file values, which override defaults. Every command echoes the
resolved config and its hash so reports are reproducible. Exit statuses:
0 success, 2 config error, 3 input error (including a file that is missing
or cannot be read, and a model or array too large to allocate), 4 stale
artifact (including a missing cache file or a cache without an item of the
data), 5 failed ordering verdict.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import costmodel, recsys
from .backbone import EncoderConfig, FrozenEncoder, IMAGE_TOKEN_COUNT, TEXT_TOKEN_COUNT, fingerprint
from .cache import atomic_write, build_cache, verify_cache
from .errors import ConfigError, IisanError, InputError, StalenessError
from .sanet import MODES, plans_for

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_STALE = 4
EXIT_VERDICT = 5


@dataclass
class RunConfig:
    variant: str = "vs"
    seed: int = 7
    regime: str = "dpeft_cached"
    out: str = "runs"
    data: str = ""
    cache_dir: str = ""
    checkpoint: str = ""

    text_layers: int = 12
    text_hidden: int = 64
    text_vocab: int = 512
    text_max_positions: int = 32
    text_seed: int = 11
    text_mode: str = ""

    image_layers: int = 12
    image_hidden: int = 64
    image_vocab: int = 256
    image_max_positions: int = 32
    image_seed: int = 22

    san_bottleneck: int = 16
    seq_dim: int = 64
    seq_blocks: int = 2
    seq_heads: int = 2
    seq_max_len: int = 10

    train_batch: int = 32
    train_lr: float = 1e-4
    train_epochs: int = 5
    train_dropout: float = 0.1

    gen_users: int = 200
    gen_items: int = 50
    gen_strength: float = 0.9
    gen_min_len: int = 8
    gen_max_len: int = 16

    profile_batch: int = 32


_SECTIONS = ("text", "image", "san", "seq", "train", "gen", "profile")


def _key(field_name: str) -> str:
    """Config key of a RunConfig field: `text_max_positions` -> `text.max_positions`."""
    section, _, rest = field_name.partition("_")
    return f"{section}.{rest}" if section in _SECTIONS else field_name


_KEYS = {_key(f.name): f.name for f in fields(RunConfig)}
_FIELD_TO_KEY = {v: k for k, v in _KEYS.items()}


def parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            try:  # a byte that is not UTF-8 reads as a lone surrogate, which does not encode
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ConfigError(f"{path}:{lineno}: line is not UTF-8 text") from exc
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def build_config(file_values: dict[str, str], overrides: dict[str, str]) -> RunConfig:
    """Precedence: flags (overrides) > file > defaults."""
    cfg = RunConfig()
    types = {f.name: f.type for f in fields(RunConfig)}
    merged = dict(file_values)
    merged.update(overrides)
    for key, raw in merged.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        attr = _KEYS[key]
        kind = types[attr]
        try:
            if kind == "int":
                value = int(raw)
            elif kind == "float":
                value = float(raw)
            else:
                value = raw
        except ValueError as exc:
            raise ConfigError(f"config key {key}: cannot parse {raw!r}") from exc
        setattr(cfg, attr, value)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.variant not in ("vs", "va"):
        raise ConfigError(f"variant must be vs or va, got {cfg.variant!r}")
    if cfg.regime not in (recsys.DPEFT_CACHED, recsys.DPEFT_UNCACHED):
        raise ConfigError(f"training regime must be dpeft_cached or dpeft_uncached, got {cfg.regime!r}")
    if cfg.text_mode and cfg.text_mode not in MODES:
        raise ConfigError(f"unknown text.mode {cfg.text_mode!r}")
    if not (0.0 <= cfg.gen_strength <= 1.0):
        raise ConfigError("gen.strength must lie in [0, 1]")
    if cfg.text_max_positions < TEXT_TOKEN_COUNT or cfg.image_max_positions < IMAGE_TOKEN_COUNT:
        raise ConfigError("encoder max_positions too small for synthetic item token counts")
    for least, names in ((1, ("train_batch", "train_epochs", "seq_dim", "seq_blocks", "seq_heads",
                              "seq_max_len", "san_bottleneck", "gen_users", "gen_items", "profile_batch")),
                         (0, ("seed", "text_seed", "image_seed"))):
        for name in names:
            if getattr(cfg, name) < least:
                raise ConfigError(f"{_FIELD_TO_KEY[name]} must be >= {least}, got {getattr(cfg, name)}")
    if cfg.seq_dim % cfg.seq_heads:
        raise ConfigError(f"seq.heads must divide seq.dim {cfg.seq_dim}, got {cfg.seq_heads}")
    for name in ("seq_max_len", "seq_blocks", "seq_heads", "text_layers", "image_layers"):
        if getattr(cfg, name) > recsys.U16_MAX:  # the checkpoint and cache store these as u16
            raise ConfigError(f"{_FIELD_TO_KEY[name]} must be <= {recsys.U16_MAX}, got {getattr(cfg, name)}")
    if not (0.0 <= cfg.train_dropout < 1.0):
        raise ConfigError(f"train.dropout must lie in [0, 1), got {cfg.train_dropout}")
    if not (math.isfinite(cfg.train_lr) and cfg.train_lr > 0):
        raise ConfigError(f"train.lr must be finite and positive, got {cfg.train_lr}")


def config_lines(cfg: RunConfig) -> list[str]:
    return [f"{_FIELD_TO_KEY[f.name]} = {getattr(cfg, f.name)}" for f in fields(RunConfig)]


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256("\n".join(config_lines(cfg)).encode()).hexdigest()[:12]


def _resolve_paths(cfg: RunConfig) -> None:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg.data = cfg.data or str(out / "interactions.tsv")
    cfg.cache_dir = cfg.cache_dir or str(out / "cache")
    cfg.checkpoint = cfg.checkpoint or str(out / "model.ckpt")


def _echo(cfg: RunConfig) -> None:
    print(f"CONFIG hash={config_hash(cfg)}")
    for line in config_lines(cfg):
        print(f"  {line}")


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    users: int
    items: int
    strength: float  # probability the next item follows the planted transition table
    min_len: int
    max_len: int
    seed: int


def generate_synthetic(spec: SyntheticSpec, path) -> dict:
    """Markov-planted interactions: with probability `strength` the next item is
    table[current], otherwise uniform. strength 1.0 is fully predictable."""
    if spec.items < 11:
        raise ConfigError(f"need at least 11 items for a meaningful HR@10, got {spec.items}")
    if not (0.0 <= spec.strength <= 1.0):
        raise ConfigError("strength must lie in [0, 1]")
    if not (3 <= spec.min_len <= spec.max_len):
        raise ConfigError("sequence lengths must satisfy 3 <= min_len <= max_len")
    rng = np.random.default_rng(spec.seed)
    table = rng.permutation(spec.items)
    users = {}
    for user in range(1, spec.users + 1):
        length = int(rng.integers(spec.min_len, spec.max_len + 1))
        seq = [int(rng.integers(spec.items))]
        for _ in range(length - 1):
            if rng.uniform() < spec.strength:
                seq.append(int(table[seq[-1]]))
            else:
                seq.append(int(rng.integers(spec.items)))
        users[user] = seq
    recsys.save_interactions(path, users)
    return {"users": spec.users, "items": spec.items, "path": str(path),
            "transitions": table.tolist()}


# ---------------------------------------------------------------------------
# shared wiring
# ---------------------------------------------------------------------------

def encoder_configs(cfg: RunConfig) -> tuple[EncoderConfig, EncoderConfig]:
    """The (text, image) encoder configs, each validated."""
    text = EncoderConfig("text", cfg.text_layers, cfg.text_hidden,
                         cfg.text_vocab, cfg.text_max_positions, cfg.text_seed)
    image = EncoderConfig("image", cfg.image_layers, cfg.image_hidden,
                          cfg.image_vocab, cfg.image_max_positions, cfg.image_seed)
    text.validate()
    image.validate()
    return text, image


def san_spec(cfg: RunConfig) -> recsys.SanSpec:
    return recsys.SanSpec(variant=cfg.variant, bottleneck=cfg.san_bottleneck, dseq=cfg.seq_dim,
                          seq_blocks=cfg.seq_blocks, seq_heads=cfg.seq_heads, seq_len=cfg.seq_max_len,
                          text_mode=cfg.text_mode)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(cfg: RunConfig, args: argparse.Namespace) -> int:
    _echo(cfg)
    spec = SyntheticSpec(cfg.gen_users, cfg.gen_items, cfg.gen_strength,
                         cfg.gen_min_len, cfg.gen_max_len, cfg.seed)
    summary = generate_synthetic(spec, cfg.data)
    print(f"GEN users={summary['users']} items={summary['items']} path={summary['path']}")
    return EXIT_OK


def cmd_cache(cfg: RunConfig, args: argparse.Namespace) -> int:
    _echo(cfg)
    dataset = recsys.load_interactions(cfg.data)
    text_cfg, image_cfg = encoder_configs(cfg)
    text_plan, image_plan = plans_for(cfg.variant, cfg.text_layers, cfg.image_layers, cfg.text_mode)
    Path(cfg.cache_dir).mkdir(parents=True, exist_ok=True)
    for enc_cfg, plan in ((text_cfg, text_plan), (image_cfg, image_plan)):
        path = recsys.cache_path(cfg.cache_dir, enc_cfg.modality)
        encoder = FrozenEncoder(enc_cfg)
        summary = build_cache(encoder, list(dataset.catalog), plan.cache_layers(), path)
        report = verify_cache(path)
        if not report.ok:
            print(str(report))
            return EXIT_INPUT
        print(f"CACHE modality={enc_cfg.modality} path={summary.path} "
              f"fingerprint={summary.encoder_fingerprint:#018x} items={summary.item_count} "
              f"bytes={summary.byte_size}")
    return EXIT_OK


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    _echo(cfg)
    split = recsys.split_leave_one_out(recsys.load_interactions(cfg.data))
    popularity = recsys.compute_popularity(split)
    text_cfg, image_cfg = encoder_configs(cfg)
    rec = recsys.regime_model(cfg.regime, text_cfg, image_cfg, san_spec(cfg), cfg.seed)
    provider = recsys.state_provider(cfg.regime, text_cfg, image_cfg, rec.items, cfg.cache_dir)
    tc = recsys.TrainConfig(lr=cfg.train_lr, batch_size=cfg.train_batch,
                            epochs=cfg.train_epochs, dropout=cfg.train_dropout, seed=cfg.seed)
    result = recsys.train(rec, split, popularity, provider, tc)

    curve_path = Path(cfg.out) / "loss_curve.tsv"
    with atomic_write(curve_path) as f:
        f.write(f"# config_hash={config_hash(cfg)}\n".encode())
        for epoch, loss in enumerate(result.epoch_losses, 1):
            f.write(f"{epoch}\t{loss:.9f}\n".encode())
    recsys.save_rec_checkpoint(cfg.checkpoint, rec, (fingerprint(text_cfg), fingerprint(image_cfg)))

    for epoch, loss in enumerate(result.epoch_losses, 1):
        print(f"LOSS epoch={epoch} value={loss:.9f}")
    print(f"TRAIN steps={result.steps} checkpoint={cfg.checkpoint} curve={curve_path}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    _echo(cfg)
    if not Path(cfg.checkpoint).exists():
        raise InputError(f"checkpoint {cfg.checkpoint} not found; run `iisan train` first")
    text_cfg, image_cfg = encoder_configs(cfg)
    rec = recsys.load_rec_checkpoint(cfg.checkpoint, (fingerprint(text_cfg), fingerprint(image_cfg)))
    split = recsys.split_leave_one_out(recsys.load_interactions(cfg.data))
    # plans and window come from the checkpoint; the provider checks them against the encoders
    provider = recsys.state_provider(cfg.regime, text_cfg, image_cfg, rec.items, cfg.cache_dir)
    report = recsys.evaluate(rec, split, provider)
    print(f"EVAL users={report.evaluated_user_count} dropped={split.dropped_users}")
    print(report.machine_line())
    if args.baseline:
        popularity = recsys.compute_popularity(split)
        base = recsys.popularity_baseline(split, popularity)
        print(f"BASELINE hr10={base.hr_at_10:.6f} ndcg10={base.ndcg_at_10:.6f} "
              f"users={base.evaluated_user_count}")
    return EXIT_OK


def cmd_profile(cfg: RunConfig, args: argparse.Namespace) -> int:
    _echo(cfg)
    text_cfg, image_cfg = encoder_configs(cfg)
    reports = [costmodel.estimate(text_cfg, image_cfg, san_spec(cfg), regime,
                                  batch=cfg.profile_batch, catalog_items=cfg.gen_items)
               for regime in recsys.REGIMES]
    comparison = costmodel.compare(reports)
    for line in comparison.lines:
        print(line)
    for report in reports:
        print(report.machine_line())
    print(f"ORDERING {comparison.verdict}")
    return EXIT_OK if comparison.verdict == "PASS" else EXIT_VERDICT


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# every command runs on the resolved config and the parsed flags
_COMMANDS = {
    "gen": (cmd_gen, "generate a synthetic interaction file"),
    "cache": (cmd_cache, "encode the catalog and write hidden-state caches"),
    "train": (cmd_train, "train the towers and sequential encoder"),
    "eval": (cmd_eval, "rank held-out items over the full catalog"),
    "profile": (cmd_profile, "print per-regime cost estimates and the ordering verdict"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="iisan", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", help="output directory (default: runs)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key")
        if name == "eval":
            p.add_argument("--baseline", action="store_true",
                           help="also print the popularity baseline metrics")
    return parser


# glibc `mallopt` parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Keep freed heap memory in the process (Linux C libraries with `mallopt`).

    By default glibc returns the heap top to the kernel once more than a
    dynamic threshold of it lies free. Whether a training step's temporaries
    leave the top free depends only on where earlier allocations happened to
    land, so a change to unrelated code can make every step fault its pages
    back in. A 40 s perfbench catalog-1k run (vs 12x64, 2-vCPU x86 host, one
    BLAS thread) took 0.76-0.98 million minor faults with one build of the
    package and 36 thousand with another, and read 24% apart on
    `step_ms_tail`; with these thresholds both took ~24 thousand. Arrays up
    to 32 MiB come from the heap, and up to 256 MiB of free top stays mapped.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = _parser().parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        overrides: dict[str, str] = {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            overrides[key.strip()] = value.strip()
        if args.seed is not None:
            overrides["seed"] = str(args.seed)
        if args.out is not None:
            overrides["out"] = args.out
        cfg = build_config(file_values, overrides)
        _resolve_paths(cfg)
        return _COMMANDS[args.command][0](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StalenessError as exc:
        print(f"stale artifact: {exc}", file=sys.stderr)
        return EXIT_STALE
    except (IisanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
