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
which keeps the correctness surface small. Linear layers, attention, layer
norm and the elementwise operations treat every axis before the last (for
attention, before the last two) as a batch axis, so one call serves a
batch of sequences.

Until `backward` runs, tape entries reference the live input arrays, so it
must run before any parameter update mutates them; optimizers step from the
returned map. Each op's closure keeps only what the gradients of its inputs
with `requires_grad` read, and forms no gradient for the others. `backward`
consumes the tape as it walks it: an entry's closure and inputs, and its
output's gradient, are released once the entry has run, so a step's memory
peak is what the forward retained plus the gradients still in flight. The
consumed tape keeps each entry's output and scope, which profilers read
after `backward` returns; a second `backward` over it is a ContractError.

A softmax-loss probability below the dtype's smallest normal number
(`np.finfo(dtype).tiny`, 1.18e-38 for float32) is 0, in the loss and in its
gradient. Saturated logits make `exp(z - max)` underflow into the subnormal
range, and x86 handles each subnormal operand in a microcode assist: with
10-14% of the loss gradient subnormal, the backward of the logit matmul
ran 55x slower (18 ms against 0.33 ms per 256 x 239 logit batch, one
OpenBLAS thread on a 2-vCPU x86 host). A row sum that holds the maximum's
1.0 cannot see such terms, so the loss keeps its value. The threshold
follows the dtype: float64 flushes only below 2.2e-308.
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


class Parameter:
    """A named leaf tensor. Non-trainable parameters never receive gradients;
    the tensor's `requires_grad` is the one flag that says which."""

    def __init__(self, tensor: Tensor, name: str, trainable: bool = True):
        self.tensor = tensor
        self.name = name
        tensor.requires_grad = trainable

    @property
    def trainable(self) -> bool:
        return self.tensor.requires_grad

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data


class Module:
    """A model part. `parameters` lists every Parameter its attributes hold, in
    assignment order: directly, through nested Modules, and through list,
    tuple and dict values. Any other object, a config or a plan, is not entered."""

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        _collect(vars(self).values(), out)
        return out


def _collect(values: Iterable, out: list[Parameter]) -> None:
    for v in values:
        if isinstance(v, Parameter):
            out.append(v)
        elif isinstance(v, Module):
            _collect(vars(v).values(), out)
        elif isinstance(v, (list, tuple)):
            _collect(v, out)
        elif isinstance(v, dict):
            _collect(v.values(), out)


@dataclass
class TapeEntry:
    """One recorded operation. `backward` empties `inputs` and sets `back` to
    None once it has passed the entry; `out` and `scope` stay until the tape is
    dropped, for readers of the consumed tape (tape profiles, the probe's
    backbone check), and `out` staying alive keeps every `id(out)` unique."""

    out: Tensor
    inputs: tuple[Tensor, ...]
    back: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None
    scope: str


class Tape:
    """Ordered record of executed operations with what backward needs."""

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self.scope = ""  # dotted names of the open `scope` blocks
        self.consumed = False  # set by `backward`, which releases the closures

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


def _fused(op, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """op(a, b), written over a temporary `a` when the result keeps a's dtype."""
    return op(a, b, out=a if np.can_cast(b.dtype, a.dtype) else None)


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
    ad = a.data if b.requires_grad else None  # each gradient reads the other operand
    bd = b.data if a.requires_grad else None

    def back(og):
        return None if bd is None else og @ bd.T, None if ad is None else ad.T @ og

    return _emit(out, (a, b), back)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x w + b for an (…, n_in) x, an (n_in, n_out) w and a length-n_out b."""
    if x.data.ndim < 2 or w.data.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise DimensionError(f"linear: x {x.shape}, w {w.shape} and b {b.shape} do not fit")
    out = Tensor(_fused(np.add, x.data @ w.data, b.data))
    n_in, n_out = w.shape
    wd = w.data if x.requires_grad else None  # dx reads w, dw reads x, db neither
    xs = x.data.reshape(-1, n_in) if w.requires_grad else None  # every leading axis is a batch axis
    need_b = b.requires_grad

    def back(og):
        rows = og.reshape(-1, n_out)
        return (None if wd is None else og @ wd.T, None if xs is None else xs.T @ rows,
                rows.sum(axis=0) if need_b else None)

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
    ad = a.data if b.requires_grad else None  # each gradient reads the other factor
    bd = b.data if a.requires_grad else None

    def back(og):
        return None if bd is None else og * bd, None if ad is None else og * ad

    return _emit(out, (a, b), back)


def gate(raw: Tensor, x: Tensor, y: Tensor) -> Tensor:
    """g x + (1 - g) y with the scalar gate g = sigmoid(raw) and equal-shape x, y."""
    if raw.shape != ():
        raise DimensionError(f"gate: raw {raw.shape} is not a scalar")
    _check_pair(x, y, "gate")
    g = (1.0 / (1.0 + np.exp(-raw.data))).astype(raw.dtype)
    h = raw.dtype.type(1.0) - g
    out = Tensor(x.data * g + y.data * h)
    xy = (x.data, y.data) if raw.requires_grad else None  # only the gate's gradient reads x and y
    need_x, need_y = x.requires_grad, y.requires_grad

    def back(og):
        dg = None
        if xy is not None:
            dg = -np.asarray((og * xy[1]).sum()) + np.asarray((og * xy[0]).sum())
            dg = dg * g * (1.0 - g)
        return dg, og * g if need_x else None, og * h if need_y else None

    return _emit(out, (raw, x, y), back)


def gelu(a: Tensor) -> Tensor:
    """gelu(x) = 0.5 x (1 + tanh(c (x + a x^3))) with c = sqrt(2/pi), a = 0.044715."""
    x = a.data
    t = _GELU_A * x  # c (x + a x x x), then its tanh, in one buffer, in that order
    t *= x
    t *= x
    np.add(x, t, out=t)
    t *= _GELU_C
    np.tanh(t, out=t)
    y = 0.5 * x
    y *= 1.0 + t
    out = Tensor(y)

    def back(og):
        sech2 = 1.0 - t * t
        d = 0.5 * (1.0 + t) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
        return (og * d.astype(a.dtype),)

    return _emit(out, (a,), back)


def layernorm(x: Tensor, gain: Tensor, offset: Tensor, eps: float = LAYERNORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply gain and offset.

    The centered input is formed once and serves both the variance and the
    normalized value. `np.var` centers with the same mean and averages the
    squares the same way, so mean and variance keep numpy's bits.
    """
    h = x.shape[-1] if x.data.ndim else 0
    if gain.shape != (h,) or offset.shape != (h,):
        raise DimensionError(
            f"layernorm: gain {gain.shape} / offset {offset.shape} do not match last axis of {x.shape}"
        )
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = np.square(xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat *= inv
    out = Tensor(_fused(np.add, xhat * gain.data, offset.data).astype(x.dtype, copy=False))
    dtype, need_gain, need_offset = x.dtype, gain.requires_grad, offset.requires_grad
    xh = xhat if x.requires_grad or gain.requires_grad else None  # dx and dgamma read xhat
    gd, iv = (gain.data, inv) if x.requires_grad else (None, None)

    def back(og):
        dx = dgamma = dbeta = None
        if need_gain:
            dgamma = (og * xh).reshape(-1, h).sum(axis=0).astype(dtype)
        if need_offset:
            dbeta = og.reshape(-1, h).sum(axis=0).astype(dtype)
        if gd is not None:
            dxhat = og * gd
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xh).mean(axis=-1, keepdims=True)
            dx = (iv * (dxhat - m1 - xh * m2)).astype(dtype)
        return dx, dgamma, dbeta

    return _emit(out, (x, gain, offset), back)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise DimensionError(f"transpose: expected 2-d, got {x.shape}")
    out = Tensor(np.ascontiguousarray(x.data.T))

    def back(og):
        return (np.ascontiguousarray(og.T),)

    return _emit(out, (x,), back)


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows of a 2-d x by an index of any shape; backward scatter-adds (rows may repeat)."""
    idx = np.asarray(indices, dtype=np.int64)
    if x.data.ndim != 2:
        raise DimensionError(f"take_rows: expected a 2-d source, got {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise DimensionError(f"take_rows: index out of range for {x.shape}")
    out = Tensor(np.ascontiguousarray(x.data[idx]))

    def back(og):
        g = np.zeros_like(x.data)
        np.add.at(g, idx, og)
        return (g,)

    return _emit(out, (x,), back)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same values in another shape."""
    out = Tensor(x.data.reshape(shape))

    def back(og):
        return (og.reshape(x.shape),)

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
    """Multi-head scaled dot-product attention over (…, s, h) queries, keys and values.

    Head i owns columns [i h/heads, (i+1) h/heads) and computes the row softmax
    of q_i k_i^T / sqrt(h/heads) + mask, times v_i; `mask` is an additive (s, s)
    array or None, shared by every leading (batch) index. The heads' outputs
    sit side by side.
    """
    if (q.data.ndim < 2 or k.shape != q.shape or v.shape != q.shape or heads < 1 or q.shape[-1] % heads
            or (mask is not None and np.shape(mask) != (q.shape[-2],) * 2)):
        raise DimensionError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}, mask {np.shape(mask)} "
                             f"and {heads} heads do not fit")
    if mask is not None:
        mask = np.asarray(mask, dtype=q.dtype)
    d = q.shape[-1] // heads
    c = q.dtype.type(1.0 / math.sqrt(d))
    cols = [np.s_[..., i * d:(i + 1) * d] for i in range(heads)]

    def head(col):
        """Contiguous q_i, k_i^T and v_i; backward slices them again rather than keep copies."""
        return (np.ascontiguousarray(x) for x in (q.data[col], _mT(k.data[col]), v.data[col]))

    probs, outs = [], []
    for col in cols:
        qh, kt, vh = head(col)
        z = (qh @ kt) * c
        if mask is not None:
            z = z + mask
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        p = (e / e.sum(axis=-1, keepdims=True)).astype(q.dtype)
        probs.append(p)
        outs.append(p @ vh)
    out = Tensor(np.concatenate(outs, axis=-1))

    def back(og):
        dq, dk, dv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        for col, p in zip(cols, probs):
            qh, kt, vh = head(col)
            oh = np.ascontiguousarray(og[col])
            dp = oh @ _mT(vh)
            dv[col] = _mT(p) @ oh
            dz = ((dp - (dp * p).sum(axis=-1, keepdims=True)) * p) * c
            dq[col] = dz @ _mT(kt)
            dk[col] = _mT(_mT(qh) @ dz)
        return dq, dk, dv

    return _emit(out, (q, k, v), back)


def _mT(a: np.ndarray) -> np.ndarray:
    """The last two axes swapped, as a view; `a.T` for a 2-d a."""
    return np.swapaxes(a, -1, -2)


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
    tiny = np.finfo(z.dtype).tiny
    zm = np.where(allowed, z, -np.inf)
    m = zm.max(axis=1)
    e = np.exp(zm - m[:, None])
    e[e < tiny] = 0  # the row sum holds the maximum's 1.0, so it never sees these
    s = e.sum(axis=1)
    losses = (m + np.log(s)) - z[rows, positives]
    out = Tensor(np.asarray(losses.mean(), dtype=z.dtype))

    def back(og):
        g = (e / s[:, None]) / t
        g[rows, positives] -= 1.0 / t
        g = (og * g).astype(z.dtype, copy=False)
        g[np.abs(g) < tiny] = 0  # no subnormal reaches the next matmul
        return (g,)

    return _emit(out, (logits,), back)


# ---------------------------------------------------------------------------
# backward and verification
# ---------------------------------------------------------------------------

def backward(tape: Tape, loss: Tensor, parameters: Iterable[Parameter]) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss for every trainable parameter.

    Trainable parameters unreachable from the loss map to zeros; non-trainable
    parameters are absent from the result.

    The walk consumes the tape. An entry's output gradient is complete when the
    entry is reached, since every consumer of the output was recorded later, so
    it is dropped once the entry has run, unless a parameter holds that tensor.
    Each entry passed loses its closure and inputs and keeps `out` and `scope`:
    `len(tape.entries)`, the scopes and the output bytes read the same after
    the walk as before it. A consumed tape cannot be walked again.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if tape.consumed:
        raise ContractError("backward: the tape was consumed by an earlier backward; record the step again")
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
        keep = {id(p.tensor) for p in params}
        grads[id(loss)] = np.ones((), dtype=loss.dtype)
        tape.consumed = True
        for entry in reversed(tape.entries):
            key = id(entry.out)
            og = grads.get(key) if key in keep else grads.pop(key, None)
            back, inputs = entry.back, entry.inputs
            entry.back, entry.inputs = None, ()
            if og is None:
                continue
            for tin, g in zip(inputs, back(og)):
                if g is None or not tin.requires_grad:
                    continue
                key = id(tin)
                if key in grads:
                    grads[key] = grads[key] + g
                else:
                    grads[key] = g

    out = {}
    for p in params:
        if p.trainable:
            g = grads.get(id(p.tensor))
            out[p.name] = np.zeros_like(p.data) if g is None else g
    return out


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
    """Adam without weight decay, over one flat buffer per moment.

    The trainable parameters, one per name and all of one dtype, lie end to
    end in the flat moments `m` and `v`. A step gathers their gradients, by
    name, into a preallocated flat buffer; names the optimizer does not own
    are ignored, and a missing one is a ContractError. The update then runs
    in place through that buffer and one scratch buffer, with the
    elementwise expressions of per-parameter Adam in their order, so it
    keeps their bits. Each parameter is last updated once, in place, from
    its view of the update.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-4):
        self._params = list({p.name: p for p in parameters if p.trainable}.values())
        dtypes = {p.data.dtype for p in self._params}
        if len(dtypes) > 1:
            raise ContractError(f"Adam: parameters mix dtypes {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else DEFAULT_DTYPE
        self.lr = lr
        self.t = 0
        sizes = [p.data.size for p in self._params]
        self._m, self._v, self._g, self._s = (np.zeros(sum(sizes), dtype) for _ in range(4))
        ends = np.cumsum(sizes)
        self._updates = [self._g[e - n:e].reshape(p.data.shape) for p, n, e in zip(self._params, sizes, ends)]

    def step(self, grads: dict[str, np.ndarray]) -> None:
        parts = []
        for p in self._params:
            g = grads.get(p.name)
            if g is None:
                raise ContractError(f"Adam.step: no gradient for parameter {p.name!r}")
            if g.shape != p.data.shape:
                raise DimensionError(f"Adam.step: gradient {g.shape} of {p.name!r} does not match {p.data.shape}")
            parts.append(g)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        m, v, g, s = self._m, self._v, self._g, self._s
        if parts:
            np.concatenate(parts, axis=None, out=g)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=s)
        v *= b2
        v += np.multiply(np.multiply(g, g, out=s), 1.0 - b2, out=s)
        # the update (m / bc1) / (sqrt(v / bc2) + eps), times lr, into g
        np.add(np.sqrt(np.divide(v, bc2, out=s), out=s), self.eps, out=s)
        np.divide(np.divide(m, bc1, out=g), s, out=g)
        g *= self.lr
        for p, u in zip(self._params, self._updates):
            np.subtract(p.data, u, out=p.data)
