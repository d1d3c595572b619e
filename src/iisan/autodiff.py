"""Dense tensors with reverse-mode differentiation on an explicit tape.

Everything trainable in this package is expressed through this engine.
Values are row-major numpy arrays, float32 by default; float64 appears only
where a caller casts to it (`finite_difference_check` and acceptance check
c6). While a Tape is active on the calling thread, every operation whose
inputs require gradients records itself together with a backward closure;
`backward` replays the records in exact reverse execution order and
accumulates gradients additively for shared inputs.

There is no broadcasting: binary elementwise operations take equal shapes
only. Richer patterns (linear layers, row gathers, scalar gates, multi-head
attention) are separate operations with their own exact backward rules,
which keeps the correctness surface small.

Tape entries reference the live input arrays, so `backward` must run before
any parameter update mutates them; optimizers step from the returned map.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

DEFAULT_DTYPE = np.float32

# tanh-form gelu; differentiable everywhere, constants fixed
_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715

LAYERNORM_EPS = 1e-5


class Tensor:
    """A dense array plus a flag telling the tape whether to track it."""

    __slots__ = ("_data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else None)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value) -> None:
        # normalize numpy scalars to 0-d arrays so in-place writes always stick;
        # ascontiguousarray would promote 0-d to 1-d, so guard it
        arr = np.asarray(value)
        self._data = arr if arr.ndim == 0 else np.ascontiguousarray(arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


@dataclass
class Parameter:
    """A named leaf tensor. Non-trainable parameters never receive gradients."""

    tensor: Tensor
    name: str
    trainable: bool = True

    def __post_init__(self):
        self.tensor.requires_grad = self.trainable

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data


@dataclass
class TapeEntry:
    out: Tensor
    inputs: tuple[Tensor, ...]
    back: Callable[[np.ndarray], Sequence[np.ndarray | None]]
    scope: str


class Tape:
    """Ordered record of executed operations with what backward needs."""

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self.scope = ""  # dotted names of the open `scope` blocks

    def __enter__(self) -> "Tape":
        if _ACTIVE.get() is not None:
            raise ContractError("a tape is already active; tapes do not nest")
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.reset(self._token)
        return False


# the tape of the running thread (or asyncio task); other threads never see it
_ACTIVE: contextvars.ContextVar[Tape | None] = contextvars.ContextVar("active_tape", default=None)


@contextlib.contextmanager
def scope(name: str):
    """Label operations recorded inside the block; no-op without a tape."""
    tape = _ACTIVE.get()
    if tape is None:
        yield
        return
    outer = tape.scope
    tape.scope = f"{outer}.{name}" if outer else name
    try:
        yield
    finally:
        tape.scope = outer


def _emit(out: Tensor, inputs: tuple[Tensor, ...], back) -> Tensor:
    tape = _ACTIVE.get()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.entries.append(TapeEntry(out, inputs, back, tape.scope))
    return out


def _check_pair(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} are not equal")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-d tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul: expected 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree for {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)

    def back(og):
        return og @ b.data.T, a.data.T @ og

    return _emit(out, (a, b), back)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x w + b for a 2-d x, an (n_in, n_out) w and a length-n_out b."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise DimensionError(f"linear: x {x.shape}, w {w.shape} and b {b.shape} do not fit")
    out = Tensor(x.data @ w.data + b.data)

    def back(og):
        return og @ w.data.T, x.data.T @ og, og.sum(axis=0)

    return _emit(out, (x, w, b), back)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_pair(a, b, "add")
    out = Tensor(a.data + b.data)

    def back(og):
        return og, og

    return _emit(out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_pair(a, b, "mul")
    out = Tensor(a.data * b.data)

    def back(og):
        return og * b.data, og * a.data

    return _emit(out, (a, b), back)


def gate(raw: Tensor, x: Tensor, y: Tensor) -> Tensor:
    """g x + (1 - g) y with the scalar gate g = sigmoid(raw) and equal-shape x, y."""
    if raw.shape != ():
        raise DimensionError(f"gate: raw {raw.shape} is not a scalar")
    _check_pair(x, y, "gate")
    g = (1.0 / (1.0 + np.exp(-raw.data))).astype(raw.dtype)
    h = raw.dtype.type(1.0) - g
    out = Tensor(x.data * g + y.data * h)

    def back(og):
        dg = -np.asarray((og * y.data).sum()) + np.asarray((og * x.data).sum())
        return dg * g * (1.0 - g), og * g, og * h

    return _emit(out, (raw, x, y), back)


def gelu(a: Tensor) -> Tensor:
    """gelu(x) = 0.5 x (1 + tanh(c (x + a x^3))) with c = sqrt(2/pi), a = 0.044715."""
    x = a.data
    inner = _GELU_C * (x + _GELU_A * x * x * x)
    t = np.tanh(inner)
    out = Tensor((0.5 * x * (1.0 + t)).astype(a.dtype))

    def back(og):
        sech2 = 1.0 - t * t
        d = 0.5 * (1.0 + t) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
        return (og * d.astype(a.dtype),)

    return _emit(out, (a,), back)


def layernorm(x: Tensor, gain: Tensor, offset: Tensor, eps: float = LAYERNORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply gain and offset."""
    h = x.shape[-1] if x.data.ndim else 0
    if gain.shape != (h,) or offset.shape != (h,):
        raise DimensionError(
            f"layernorm: gain {gain.shape} / offset {offset.shape} do not match last axis of {x.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = (x.data - mu) * inv
    out = Tensor((xhat * gain.data + offset.data).astype(x.dtype))

    def back(og):
        dgamma = (og * xhat).reshape(-1, h).sum(axis=0)
        dbeta = og.reshape(-1, h).sum(axis=0)
        dxhat = og * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx.astype(x.dtype), dgamma.astype(x.dtype), dbeta.astype(x.dtype)

    return _emit(out, (x, gain, offset), back)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise DimensionError(f"transpose: expected 2-d, got {x.shape}")
    out = Tensor(np.ascontiguousarray(x.data.T))

    def back(og):
        return (np.ascontiguousarray(og.T),)

    return _emit(out, (x,), back)


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows by index; backward scatter-adds (rows may repeat)."""
    idx = np.asarray(indices, dtype=np.int64)
    if x.data.ndim != 2 or idx.ndim != 1:
        raise DimensionError(f"take_rows: expected 2-d source and 1-d index, got {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise DimensionError(f"take_rows: index out of range for {x.shape}")
    out = Tensor(np.ascontiguousarray(x.data[idx]))

    def back(og):
        g = np.zeros_like(x.data)
        np.add.at(g, idx, og)
        return (g,)

    return _emit(out, (x,), back)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Join 2-d tensors along `axis`: 0 stacks rows, 1 places columns side by side."""
    parts = list(parts)
    if not parts:
        raise ContractError("concat: empty part list")
    if any(p.data.ndim != 2 for p in parts):
        raise DimensionError(f"concat: expected 2-d parts, got {[p.shape for p in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]
    bounds = np.cumsum([0] + sizes)

    def back(og):
        if axis == 0:
            return tuple(og[bounds[i]:bounds[i + 1], :] for i in range(len(parts)))
        return tuple(np.ascontiguousarray(og[:, bounds[i]:bounds[i + 1]]) for i in range(len(parts)))

    return _emit(out, tuple(parts), back)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask: np.ndarray | None) -> Tensor:
    """Multi-head scaled dot-product attention over (s, h) queries, keys and values.

    Head i owns columns [i h/heads, (i+1) h/heads) and computes the row softmax
    of q_i k_i^T / sqrt(h/heads) + mask, times v_i; `mask` is an additive (s, s)
    array or None. The heads' outputs sit side by side.
    """
    if (q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape or heads < 1 or q.shape[1] % heads
            or (mask is not None and np.shape(mask) != (q.shape[0],) * 2)):
        raise DimensionError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}, mask {np.shape(mask)} "
                             f"and {heads} heads do not fit")
    if mask is not None:
        mask = np.asarray(mask, dtype=q.dtype)
    d = q.shape[1] // heads
    c = q.dtype.type(1.0 / math.sqrt(d))
    cols = [slice(i * d, (i + 1) * d) for i in range(heads)]
    saved, outs = [], []
    for col in cols:  # contiguous q_i, k_i^T and v_i per head
        qh, kt, vh = (np.ascontiguousarray(x) for x in (q.data[:, col], k.data[:, col].T, v.data[:, col]))
        z = (qh @ kt) * c
        if mask is not None:
            z = z + mask
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        p = (e / e.sum(axis=-1, keepdims=True)).astype(q.dtype)
        saved.append((qh, kt, vh, p))
        outs.append(p @ vh)
    out = Tensor(np.concatenate(outs, axis=1))

    def back(og):
        dq, dk, dv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        for col, (qh, kt, vh, p) in zip(cols, saved):
            oh = np.ascontiguousarray(og[:, col])
            dp = oh @ vh.T
            dv[:, col] = p.T @ oh
            dz = ((dp - (dp * p).sum(axis=-1, keepdims=True)) * p) * c
            dq[:, col] = dz @ kt.T
            dk[:, col] = (qh.T @ dz).T
        return dq, dk, dv

    return _emit(out, (q, k, v), back)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum(), dtype=x.dtype))

    def back(og):
        return (np.full_like(x.data, og),)

    return _emit(out, (x,), back)


def masked_softmax_ce(logits: Tensor, allowed: np.ndarray, positives: np.ndarray) -> Tensor:
    """Mean of -log softmax(logits restricted to allowed columns) at the positive column.

    `allowed` is a boolean (T, C) array, `positives` an int (T,) array of column
    indices; the positive column must be allowed in its row. Row terms use
    max-subtraction so the value is stable for any finite logits.
    """
    z = logits.data
    t, c = z.shape
    allowed = np.asarray(allowed, dtype=bool)
    positives = np.asarray(positives, dtype=np.int64)
    if allowed.shape != (t, c) or positives.shape != (t,):
        raise DimensionError(f"masked_softmax_ce: mask {allowed.shape} / positives {positives.shape} vs logits {z.shape}")
    rows = np.arange(t)
    if not allowed[rows, positives].all():
        raise ContractError("masked_softmax_ce: a positive column is masked out")
    zm = np.where(allowed, z, -np.inf)
    m = zm.max(axis=1)
    e = np.exp(zm - m[:, None])
    s = e.sum(axis=1)
    losses = (m + np.log(s)) - z[rows, positives]
    out = Tensor(np.asarray(losses.mean(), dtype=z.dtype))

    def back(og):
        g = (e / s[:, None]) / t
        g[rows, positives] -= 1.0 / t
        return ((og * g).astype(z.dtype),)

    return _emit(out, (logits,), back)


# ---------------------------------------------------------------------------
# backward and verification
# ---------------------------------------------------------------------------

def backward(tape: Tape, loss: Tensor, parameters: Iterable[Parameter]) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss for every trainable parameter.

    Trainable parameters unreachable from the loss map to zeros; non-trainable
    parameters are absent from the result.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    params = list(parameters)
    seen: set[str] = set()
    for p in params:
        if p.name in seen:
            raise ContractError(f"backward: duplicate parameter name {p.name!r}")
        seen.add(p.name)

    grads: dict[int, np.ndarray] = {}
    if loss.requires_grad:
        if not any(e.out is loss for e in tape.entries):
            raise ContractError("backward: loss was not produced on this tape")
        grads[id(loss)] = np.ones((), dtype=loss.dtype)
        for entry in reversed(tape.entries):
            og = grads.get(id(entry.out))
            if og is None:
                continue
            for tin, g in zip(entry.inputs, entry.back(og)):
                if g is None or not tin.requires_grad:
                    continue
                key = id(tin)
                if key in grads:
                    grads[key] = grads[key] + g
                else:
                    grads[key] = g

    return {
        p.name: grads.get(id(p.tensor), np.zeros_like(p.data))
        for p in params
        if p.trainable
    }


@dataclass
class FdReport:
    """Per-parameter max relative error between tape and central differences."""

    per_param: dict[str, float] = field(default_factory=dict)
    tolerance: float = 1e-3

    @property
    def max_rel_err(self) -> float:
        return max(self.per_param.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def finite_difference_check(parameters: Sequence[Parameter], loss_fn, step: float = 1e-3,
                            tolerance: float = 1e-3) -> FdReport:
    """Compare tape gradients with central finite differences, per parameter.

    `loss_fn` must evaluate the scalar loss from the current parameter values;
    it is re-invoked for each perturbed evaluation (no tape active there).
    Tape gradients are taken in the parameters' own dtype; the difference
    evaluations run with every parameter upcast to float64 so the oracle is
    limited by the step, not by evaluation roundoff. Relative error is
    |g - fd| / max(|g|, |fd|, floor); the floor (1e-3 for float32, 1e-8 for
    float64) absorbs representational noise where both values are near zero.
    """
    if step <= 0:
        raise ContractError("finite_difference_check: step must be positive")
    all_params = list(parameters)
    params = [p for p in all_params if p.trainable]
    report = FdReport(tolerance=tolerance)
    if not params:
        return report

    denom_floor = 1e-3 if params[0].data.dtype == np.float32 else 1e-8

    with Tape() as tape:
        loss = loss_fn()
    grads = backward(tape, loss, params)

    saved = [(p, p.tensor.data) for p in all_params]
    try:
        for p in all_params:
            p.tensor.data = p.tensor.data.astype(np.float64)
        for p in params:
            flat = p.tensor.data.reshape(-1)
            gflat = grads[p.name].reshape(-1)
            worst = 0.0
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                lp = float(loss_fn().data)
                flat[i] = orig - step
                lm = float(loss_fn().data)
                flat[i] = orig
                fd = (lp - lm) / (2.0 * step)
                g = float(gflat[i])
                rel = abs(g - fd) / max(abs(g), abs(fd), denom_floor)
                if rel > worst:
                    worst = rel
            report.per_param[p.name] = worst
    finally:
        for p, data in saved:
            p.tensor.data = data
    return report


class Adam:
    """Adam without weight decay; state kept per parameter name."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-4):
        self.params = {p.name: p for p in parameters if p.trainable}
        self.lr = lr
        self.t = 0
        self._m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self._v = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, g in grads.items():
            p = self.params.get(name)
            if p is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.tensor.data -= np.asarray(self.lr * update, dtype=p.data.dtype)
