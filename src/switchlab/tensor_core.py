"""Deterministic small-tensor numerics.

Everything downstream builds on this module: the package's typed errors,
the heap setting that lets each step reuse freed array memory,
counter-based random streams, truncated-normal initialization, softmax and
relu with their backward passes, inverted dropout, bfloat16 emulation, and a
central-finite-difference gradient checker.

Arrays are plain ``np.ndarray`` in float32: every activation, cache array,
gradient and optimizer moment. Scalars that meet them are Python floats, so
NumPy's promotion keeps the arrays' dtype. A few reductions run in float64
on purpose: the router's balance statistics (``LoadBalanceStats.f``/``P``
and the penalty they form), and the embedding gradient's scatter-add, which
is cast to float32 once it is summed. Every op is dtype-preserving, so the
gradient checker runs the same code in float64. There is no autodiff tape:
each layer writes its backward pass by hand, so the numerics stay
auditable.

Random draws that feed the model are float32 as well, each one draw at that
precision: the weight init, the dropout keep-masks, the router's input
jitter and the training mask's uniforms. ``RngStream.normal`` and
``uniform`` default to float64, and the draws that build data keep it, so
their streams do not move: the synthetic corpus, ``RngStream.categorical``
and the gradient checker's seeded inputs.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "InvalidArgumentError",
    "NumericError",
    "RngStream",
    "trunc_normal_init",
    "init_weight",
    "softmax",
    "softmax_backward",
    "quantize_bf16",
    "relu",
    "relu_backward",
    "inverted_dropout",
    "GradReport",
    "grad_check",
    "keep_freed_heap",
]


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition (bad shape, bad range)."""


class NumericError(ArithmeticError):
    """A computation produced or received non-finite values."""


# ---------------------------------------------------------------------------
# Array memory
# ---------------------------------------------------------------------------

# mallopt parameters from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_freed_heap() -> bool:
    """Keep freed array memory in glibc's heap for the next step to reuse.

    By default glibc maps each array above its adaptive threshold fresh from
    the kernel and hands the heap's free top back once it passes twice that
    threshold, so every step page-faults much of its working set in again:
    about 5000 faults and a third of the time of one 2048-token eval at
    d_model 64. Fault cost also swings with the host's load. With this setting arrays up to
    32 MiB come from the heap, and up to 256 MiB of free heap is kept.
    Called once on import; returns False where the C library is not glibc.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # glibc only; other libcs tune differently
    except (OSError, AttributeError):
        return False
    mmap_ok = libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    trim_ok = libc.mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    return bool(mmap_ok and trim_ok)


keep_freed_heap()


# ---------------------------------------------------------------------------
# Counter-based random streams
# ---------------------------------------------------------------------------


# One Philox per thread, re-keyed for every draw: building a fresh bit
# generator costs about four times as much as setting this one's state.
_philox = threading.local()
_ZERO_WORDS = np.zeros(4, np.uint64)


@dataclass
class RngStream:
    """Reproducible random stream with labeled substreams.

    Each draw comes from a Philox generator keyed by the SHA-256 digest of
    ``(seed, label, counter)``, starting at counter 0, and then bumps
    ``counter``. Identical (seed, label, counter) triples therefore produce
    identical output regardless of how much any earlier draw consumed, and
    regardless of the order in which sibling substreams are used.

    Every draw re-keys one generator per thread rather than building a new
    one, so a generator returned by ``_generator`` is valid only until the
    next draw from any stream.
    """

    seed: int
    label: str = ""
    counter: int = 0

    def substream(self, label: str) -> "RngStream":
        """Derive an independent stream; nested labels join with '/'."""
        child = f"{self.label}/{label}" if self.label else label
        return RngStream(self.seed, child, 0)

    def _generator(self) -> np.random.Generator:
        digest = hashlib.sha256(
            f"{self.seed}|{self.label}|{self.counter}".encode()
        ).digest()
        self.counter += 1
        generator = getattr(_philox, "generator", None)
        if generator is None:
            generator = _philox.generator = np.random.Generator(np.random.Philox())
        # The state Philox(key=int.from_bytes(digest[:16], "little")) starts in.
        generator.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO_WORDS, "key": np.frombuffer(digest, "<u8", 2)},
            "buffer": _ZERO_WORDS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return generator

    def normal(self, shape: Sequence[int] | int = (), dtype=np.float64) -> np.ndarray:
        return self._generator().standard_normal(shape, dtype=dtype)

    def uniform(
        self,
        shape: Sequence[int] | int = (),
        low: float = 0.0,
        high: float = 1.0,
        dtype=np.float64,
    ) -> np.ndarray:
        """Uniform on [low, high): one ``Generator.random`` draw, scaled in
        place. In float64 these are ``Generator.uniform``'s bits."""
        u = self._generator().random(shape, dtype=dtype)
        if (low, high) != (0.0, 1.0):
            u *= high - low
            u += low
        return u

    def integers(self, low: int, high: int, shape: Sequence[int] | int = ()) -> np.ndarray:
        return self._generator().integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._generator().permutation(n)

    def categorical(self, probs: np.ndarray) -> np.ndarray:
        """Sample one index per row of a [rows, k] probability matrix."""
        u = self.uniform(probs.shape[0])
        cdf = np.cumsum(probs.astype(np.float64), axis=1)
        cdf[:, -1] = 1.0  # guard against round-off shortfall
        return (u[:, None] > cdf).sum(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def trunc_normal_init(
    shape: Sequence[int], scale: float, fan_in: int, rng: RngStream
) -> np.ndarray:
    """Draw from normal(0, sigma = sqrt(scale / fan_in)) truncated to [-2sigma, 2sigma].

    Out-of-range draws are resampled (not clipped), so the result is an exact
    sample from the truncated density. One float32 draw fills the tensor;
    each later draw replaces only the entries still out of range, in flat
    index order, until none is left. The default scale for all model
    weights in this package is 0.1, a tenth of the usual transformer scale.
    """
    if scale <= 0:
        raise InvalidArgumentError(f"scale must be positive, got {scale}")
    if fan_in < 1:
        raise InvalidArgumentError(f"fan_in must be >= 1, got {fan_in}")
    sigma = math.sqrt(scale / fan_in)
    z = rng.normal(shape, dtype=np.float32)
    flat = z.reshape(-1)
    redraw = np.flatnonzero(np.abs(flat) > 2.0)
    while redraw.size:
        flat[redraw] = rng.normal(redraw.size, dtype=np.float32)
        redraw = redraw[np.abs(flat[redraw]) > 2.0]
    z *= sigma
    return z


def init_weight(
    shape: Sequence[int], scale: float, fan_in: int, rng: RngStream | None, label: str
) -> np.ndarray:
    """``trunc_normal_init`` from ``rng``'s ``label`` substream; with ``rng``
    None, float32 zeros and no draw (a skeleton that a checkpoint fills)."""
    if rng is None:
        return np.zeros(shape, np.float32)
    return trunc_normal_init(shape, scale, fan_in, rng.substream(label))


# ---------------------------------------------------------------------------
# Softmax
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax along ``axis``; raises on non-finite input.

    Along a short trailing axis of many rows (router logits ``[T, E]``,
    attention scores ``[B, H, L, L]``), the row max is a running
    ``np.maximum`` over the columns: one ufunc call per column instead of
    NumPy's row-by-row reduction. Max is exact, so the result is bit for bit
    the one ``np.max`` gives. Small arrays and wide axes keep ``np.max``,
    which is faster there.
    """
    logits = np.asarray(logits)
    if logits.shape[axis] < 1:
        raise InvalidArgumentError(f"softmax axis {axis} has extent 0")
    if not np.isfinite(logits).all():
        raise NumericError("softmax received non-finite logits")
    if axis in (-1, logits.ndim - 1):
        row_max = _row_max(logits)
    else:
        row_max = np.max(logits, axis=axis, keepdims=True)
    e = np.exp(logits - row_max)
    return e / np.sum(e, axis=axis, keepdims=True)


def _row_max(a: np.ndarray) -> np.ndarray:
    """``np.max(a, axis=-1, keepdims=True)``, by columns where that is faster.

    The column loop wins once there are about 16 rows per column, and only
    on axes up to 64 wide. With NumPy 2.4 on a 2-vCPU x86 host it took 15
    against 90 us at [1024, 8], 140 against 261 us at [32, 2, 32, 32], and
    34 against 6.5 us at [31, 31].
    """
    width = a.shape[-1]
    if width > 64 or a.size < 16 * width * width:
        return np.max(a, axis=-1, keepdims=True)
    m = a[..., 0].copy()
    for j in range(1, width):
        np.maximum(m, a[..., j], out=m)
    return m[..., None]


def softmax_backward(
    grad_out: np.ndarray, softmax_out: np.ndarray, axis: int = -1
) -> np.ndarray:
    """Gradient of loss w.r.t. logits given grad w.r.t. softmax output."""
    inner = np.sum(grad_out * softmax_out, axis=axis, keepdims=True)
    # In place on the difference, which has the product's dtype: the bits
    # of softmax_out * (grad_out - inner) without a second temporary.
    out = grad_out - inner
    out *= softmax_out
    return out


# ---------------------------------------------------------------------------
# bfloat16 emulation
# ---------------------------------------------------------------------------


def quantize_bf16(x):
    """Round every element to the nearest bfloat16, ties to even.

    Storage stays float32; only the value set shrinks. Infinities pass
    through, NaN stays NaN, and finite values beyond the bfloat16 range round
    to infinity.
    """
    a = np.ascontiguousarray(np.asarray(x, dtype=np.float32))
    bits = a.view(np.uint32).astype(np.uint64)
    # Round-to-nearest-even on the top 16 bits: add 0x7FFF plus the lowest
    # kept bit, then truncate the mantissa tail.
    rounded = ((bits + 0x7FFF + ((bits >> 16) & 1)) & 0xFFFF0000).astype(np.uint32)
    out = rounded.view(np.float32).reshape(a.shape).copy()
    finite = np.isfinite(a)
    if not finite.all():
        out = np.where(finite, out, a)
    return out


# ---------------------------------------------------------------------------
# Relu and dropout
# ---------------------------------------------------------------------------


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x), 0)


def relu_backward(
    grad_out: np.ndarray, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """grad_out where x > 0, else +-0; ``out=grad_out`` overwrites it in place
    with the same bits, since the mask is boolean."""
    return np.multiply(grad_out, np.asarray(x) > 0, out=out)


def inverted_dropout(
    x: np.ndarray, rate: float, rng: RngStream | None, mode: str
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout; returns (output, keep-scale), the scale 0 or
    1 / (1 - rate) per element, or None when inert."""
    if mode != "train" or rate == 0.0:
        return x, None
    if not 0.0 <= rate < 1.0:
        raise InvalidArgumentError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None:
        raise InvalidArgumentError("dropout in train mode requires an rng")
    keep = (rng.uniform(x.shape, dtype=np.float32) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * keep, keep


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradReport:
    """Outcome of one finite-difference check.

    ``param_errors`` holds the max relative error per parameter in the order
    they were supplied; ``max_rel_err`` is the overall worst coordinate.
    Relative error uses max(|analytic|, |numeric|, 1e-8) in the denominator.
    """

    param_errors: list[float]
    max_rel_err: float
    tol: float
    passed: bool
    step: float = 1e-3
    details: list[str] = field(default_factory=list)


def grad_check(
    f: Callable[[list[np.ndarray]], tuple[float, list[np.ndarray]]],
    params: Sequence[np.ndarray],
    h: float = 1e-3,
    tol: float = 1e-4,
) -> GradReport:
    """Compare analytic gradients against central finite differences.

    ``f`` maps a list of parameter arrays to ``(loss, grads)`` where
    ``grads[i]`` has the shape of ``params[i]``. The check runs entirely in
    float64: parameters are upcast, and since every op in this package is
    dtype-preserving the composite evaluates at float64 too. The caller is
    responsible for keeping inputs away from relu kinks and routing-decision
    boundaries so that f is differentiable where probed.
    """
    base = [np.asarray(p, dtype=np.float64).copy() for p in params]
    loss0, analytic = f(base)
    if not np.isfinite(loss0):
        raise NumericError("grad_check: f returned a non-finite loss")
    analytic = [np.asarray(g, dtype=np.float64) for g in analytic]

    eps_abs = 1e-8
    errors: list[float] = []
    details: list[str] = []
    for i, p in enumerate(base):
        if analytic[i].shape != p.shape:
            raise InvalidArgumentError(
                f"grad_check: gradient {i} shape {analytic[i].shape} "
                f"does not match parameter shape {p.shape}"
            )
        worst = 0.0
        flat = p.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            plus, _ = f(base)
            flat[j] = orig - h
            minus, _ = f(base)
            flat[j] = orig
            if not (np.isfinite(plus) and np.isfinite(minus)):
                raise NumericError("grad_check: non-finite loss during probing")
            numeric = (plus - minus) / (2.0 * h)
            a = analytic[i].reshape(-1)[j]
            err = abs(a - numeric) / max(abs(a), abs(numeric), eps_abs)
            if err > worst:
                worst = err
                if err > tol:
                    details.append(
                        f"param {i} coord {j}: analytic {a:.6g} vs fd {numeric:.6g}"
                    )
        errors.append(worst)
    max_err = max(errors) if errors else 0.0
    return GradReport(errors, max_err, tol, max_err <= tol, h, details)
