"""Numerics foundation: heap setting, rng streams, init, softmax, bf16, relu and one-hot,
grad checker."""

import hashlib
import math
import resource
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlab.tensor_core import (
    GradReport,
    InvalidArgumentError,
    NumericError,
    RngStream,
    _row_max,
    grad_check,
    keep_freed_heap,
    quantize_bf16,
    relu_backward,
    softmax,
    softmax_backward,
    trunc_normal_init,
)


# ---------------------------------------------------------------------------
# Array memory
# ---------------------------------------------------------------------------


def test_repeated_working_set_reuses_freed_pages():
    """A step's arrays, freed and allocated again, land on pages already mapped."""
    if not keep_freed_heap():
        pytest.skip("the heap setting applies to glibc only")

    def step():
        arrays = [np.ones(1 << 17) for _ in range(16)]  # 16 MiB in 1 MiB arrays
        del arrays

    step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100  # each step touches 4096 pages


# ---------------------------------------------------------------------------
# RngStream
# ---------------------------------------------------------------------------


class TestRngStream:
    def test_same_state_same_output(self):
        a = RngStream(7, "init").normal((5,))
        b = RngStream(7, "init").normal((5,))
        assert np.array_equal(a, b)

    def test_counter_advances(self):
        s = RngStream(7)
        first = s.normal((4,))
        second = s.normal((4,))
        assert not np.array_equal(first, second)
        assert s.counter == 2

    def test_substreams_independent_of_order(self):
        s1 = RngStream(3)
        a1 = s1.substream("a").normal((3,))
        b1 = s1.substream("b").normal((3,))
        s2 = RngStream(3)
        b2 = s2.substream("b").normal((3,))
        a2 = s2.substream("a").normal((3,))
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)

    def test_categorical_matches_cdf_inversion(self):
        probs = np.array([[0.5, 0.25, 0.25], [0.1, 0.1, 0.8]])
        draws = RngStream(5).categorical(np.tile(probs, (5000, 1))[:10000])
        frac_last = (draws[1::2] == 2).mean()
        assert abs(frac_last - 0.8) < 0.02

    def test_every_draw_equals_a_freshly_keyed_philox(self):
        """Re-keying one generator per draw gives the stream a fresh Philox would."""
        probs = softmax(RngStream(2).normal((6, 4)))
        cdf = np.cumsum(probs, axis=1)
        cdf[:, -1] = 1.0
        draws = [
            (lambda s: s.normal((3, 5)), lambda g: g.standard_normal((3, 5))),
            (lambda s: s.uniform(7, -2.0, 3.0), lambda g: g.uniform(-2.0, 3.0, 7)),
            (
                lambda s: s.normal((3, 5), dtype=np.float32),
                lambda g: g.standard_normal((3, 5), dtype=np.float32),
            ),
            (lambda s: s.uniform(7, dtype=np.float32), lambda g: g.random(7, dtype=np.float32)),
            (
                lambda s: s.uniform(7, -2.0, 3.0, dtype=np.float32),
                lambda g: g.random(7, dtype=np.float32) * np.float32(5.0) - np.float32(2.0),
            ),
            (lambda s: s.integers(0, 50, 9), lambda g: g.integers(0, 50, size=9)),
            (lambda s: s.permutation(20), lambda g: g.permutation(20)),
            (lambda s: s.categorical(probs), lambda g: (g.uniform(0.0, 1.0, 6)[:, None] > cdf).sum(axis=1)),
        ]
        streams = [RngStream(11, "a"), RngStream(11).substream("b").substream("c")]
        for i, (draw, reference) in enumerate(draws * 2):
            stream = streams[i % 2]
            digest = hashlib.sha256(f"{stream.seed}|{stream.label}|{stream.counter}".encode()).digest()
            fresh = np.random.Generator(np.random.Philox(key=int.from_bytes(digest[:16], "little")))
            got, want = draw(stream), reference(fresh)
            assert got.dtype == want.dtype and np.array_equal(got, want), i
        assert [s.counter for s in streams] == [8, 8]


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def truncated_normal_std_oracle(lo: float = -2.0, hi: float = 2.0) -> float:
    """Std of a unit normal truncated to [lo, hi], by numerical quadrature."""
    grid = np.linspace(lo, hi, 200001)
    density = np.exp(-grid * grid / 2.0) / math.sqrt(2 * math.pi)
    z = np.trapezoid(density, grid)
    mean = np.trapezoid(grid * density, grid) / z
    var = np.trapezoid((grid - mean) ** 2 * density, grid) / z
    return math.sqrt(var)


class TestTruncNormalInit:
    def test_bounds_never_exceeded(self):
        w = trunc_normal_init((200, 50), 0.1, 1000, RngStream(0))
        sigma = math.sqrt(0.1 / 1000)
        assert sigma == pytest.approx(0.01)
        assert np.abs(w).max() <= 2 * sigma

    def test_symmetry(self):
        w = trunc_normal_init((100_000,), 1.0, 1, RngStream(1))
        assert abs(w.mean()) < 0.02

    def test_std_matches_quadrature_oracle(self):
        # sigma = sqrt(0.1/10) = 0.1; truncation at 2 sigma shrinks the std by
        # the truncated-normal factor computed independently above.
        w = trunc_normal_init((100_000,), 0.1, 10, RngStream(2))
        expected = truncated_normal_std_oracle() * math.sqrt(0.1 / 10)
        assert w.std() == pytest.approx(expected, rel=0.02)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArgumentError):
            trunc_normal_init((3,), 0.0, 4, RngStream(0))
        with pytest.raises(InvalidArgumentError):
            trunc_normal_init((3,), 0.1, 0, RngStream(0))

    def test_deterministic(self):
        a = trunc_normal_init((7, 3), 0.5, 9, RngStream(42, "w"))
        b = trunc_normal_init((7, 3), 0.5, 9, RngStream(42, "w"))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "shape, seed, draws", [((40, 30), 57, 5), ((2, 3, 64), 0, 3), ((5,), 0, 1)]
    )
    def test_redraws_only_out_of_range_entries(self, shape, seed, draws):
        """One float32 draw for the tensor, then one per round for the entries
        still beyond 2 sigma, in flat order: checked against fresh Philox keys."""
        stream = RngStream(seed, "w")

        def fresh(counter, size):
            key = hashlib.sha256(f"{seed}|w|{counter}".encode()).digest()
            g = np.random.Generator(np.random.Philox(key=int.from_bytes(key[:16], "little")))
            return g.standard_normal(size, dtype=np.float32)

        z = fresh(0, math.prod(shape))
        rounds = 0
        while (bad := np.flatnonzero(np.abs(z) > 2.0)).size:
            rounds += 1
            z[bad] = fresh(rounds, bad.size)
        sigma = math.sqrt(0.1 / 16)
        got = trunc_normal_init(shape, 0.1, 16, stream)
        assert stream.counter == 1 + rounds == draws
        assert got.dtype == np.float32
        assert got.tobytes() == (z.reshape(shape) * np.float32(sigma)).tobytes()


# ---------------------------------------------------------------------------
# Softmax
# ---------------------------------------------------------------------------


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax(np.zeros(3)), [1 / 3] * 3)

    def test_known_values(self):
        # direct evaluation of exp(h_i)/sum exp(h_j) at extended precision
        out = softmax(np.array([2.0, 1.0, 0.0]))
        assert np.allclose(out, [0.66524, 0.24473, 0.09003], atol=1e-5)

    def test_large_logits_no_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert np.allclose(out, [1.0, 0.0])

    def test_sums_to_one(self):
        rng = RngStream(3)
        x = rng.normal((50, 7)) * 30
        out = softmax(x, axis=-1)
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-6
        assert (out > 0).all()

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            softmax(np.array([np.inf, 0.0]))

    @pytest.mark.parametrize("shape", [(1024, 8), (32, 2, 32, 32), (31, 31), (128, 256)])
    def test_row_max_is_np_max_bitwise(self, shape):
        # Router logits, attention scores, a corpus table and the loss.
        x = (RngStream(5).normal(shape) * 4).astype(np.float32)
        row_max = np.max(x, axis=-1, keepdims=True)
        assert np.array_equal(_row_max(x), row_max)
        e = np.exp(x - row_max)
        assert np.array_equal(softmax(x), e / np.sum(e, axis=-1, keepdims=True))

    def test_backward_matches_fd(self):
        x = RngStream(4).normal((6,))

        def f(params):
            s = softmax(params[0])
            loss = float((s**3).sum())
            return loss, [softmax_backward(3 * s**2, s)]

        assert grad_check(f, [x]).passed


# ---------------------------------------------------------------------------
# bfloat16 emulation
# ---------------------------------------------------------------------------


def bf16_oracle(value: np.float32) -> np.float32:
    """Scalar bit-level reference: round-to-nearest-even on the top 16 bits."""
    (bits,) = struct.unpack("<I", struct.pack("<f", value))
    if not math.isfinite(value):
        return value
    low = bits & 0xFFFF
    hi = bits >> 16
    if low > 0x8000 or (low == 0x8000 and hi & 1):
        hi += 1
    (out,) = struct.unpack("<f", struct.pack("<I", (hi << 16) & 0xFFFFFFFF))
    return np.float32(out)


class TestQuantizeBf16:
    def test_exact_values_pass_through(self):
        assert quantize_bf16(np.float32(1.0)) == 1.0
        assert quantize_bf16(np.float32(-0.5)) == -0.5

    def test_tie_rounds_to_even(self):
        # 1 + 2^-8 sits exactly between 1.0 and the next bfloat16 (1.0078125)
        assert quantize_bf16(np.float32(1.00390625)) == np.float32(1.0)
        # 1 + 3 * 2^-8 ties between 1.0078125 and 1.015625; even mantissa wins
        assert quantize_bf16(np.float32(1.01171875)) == np.float32(1.015625)

    def test_matches_bit_oracle_on_random_values(self):
        rng = RngStream(9)
        vals = np.concatenate(
            [
                (rng.normal((40_000,)) * np.exp(rng.normal((40_000,)) * 8)).astype(np.float32),
                rng.normal((10_000,)).astype(np.float32),
            ]
        )
        ours = quantize_bf16(vals)
        oracle = np.array([bf16_oracle(v) for v in vals], dtype=np.float32)
        assert np.array_equal(ours, oracle)

    def test_idempotent(self):
        vals = (RngStream(10).normal((10_000,)) * 100).astype(np.float32)
        once = quantize_bf16(vals)
        assert np.array_equal(quantize_bf16(once), once)

    def test_infinities_and_nan(self):
        out = quantize_bf16(np.array([np.inf, -np.inf, np.nan], dtype=np.float32))
        assert out[0] == np.inf and out[1] == -np.inf and np.isnan(out[2])

    def test_overflow_to_infinity(self):
        # finite float32 values beyond the bfloat16 maximum round up to inf
        assert quantize_bf16(np.float32(3.4e38)) == np.inf

    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    @settings(max_examples=300, deadline=None)
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        qlo, qhi = quantize_bf16(np.float32(lo)), quantize_bf16(np.float32(hi))
        assert qlo <= qhi


# ---------------------------------------------------------------------------
# Relu and one-hot
# ---------------------------------------------------------------------------


class TestPrimitives:
    def test_relu_backward_definition(self):
        x = np.array([-1.0, 2.0])
        g = np.array([5.0, 7.0])
        assert np.array_equal(relu_backward(g, x), [0.0, 7.0])

    def test_relu_backward_in_place_keeps_the_bits(self):
        x = np.array([-1.0, 2.0, 0.0, 3.0], dtype=np.float32)
        g = np.array([5.0, -7.0, -2.0, -0.0], dtype=np.float32)
        want = relu_backward(g, x)
        out = g.copy()
        assert relu_backward(out, x, out=out) is out
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Gradient checker
# ---------------------------------------------------------------------------


class TestGradCheck:
    def test_quadratic_is_exact(self):
        def f(params):
            x = params[0]
            return float((x**2).sum()), [2 * x]

        report = grad_check(f, [np.array([1.0, 2.0])])
        assert report.passed
        assert report.max_rel_err < 1e-6

    def test_softmax_cross_entropy_composite(self):
        logits = RngStream(17).normal((4, 5))
        target = np.array([0, 2, 1, 4])

        def f(params):
            p = softmax(params[0], axis=-1)
            loss = float(-np.log(p[np.arange(4), target]).mean())
            g = p.copy()
            g[np.arange(4), target] -= 1.0
            return loss, [g / 4]

        assert grad_check(f, [logits]).max_rel_err < 1e-4

    def test_corrupted_gradient_fails(self):
        def f(params):
            x = params[0]
            g = 2 * x
            g[0] += 0.1  # deliberate corruption
            return float((x**2).sum()), [g]

        report = grad_check(f, [np.array([1.0, 2.0])])
        assert not report.passed
        assert report.details

    def test_non_finite_loss_raises(self):
        def f(params):
            return float("nan"), [np.zeros_like(params[0])]

        with pytest.raises(NumericError):
            grad_check(f, [np.zeros(2)])

    def test_report_fields(self):
        def f(params):
            return float(params[0].sum()), [np.ones_like(params[0])]

        report = grad_check(f, [np.zeros(3)], h=1e-3, tol=1e-4)
        assert isinstance(report, GradReport)
        assert report.tol == 1e-4
        assert len(report.param_errors) == 1
