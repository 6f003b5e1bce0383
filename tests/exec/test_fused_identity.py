"""Bitwise identity of the fused backend against the generic reference.

The whole point of :mod:`repro.exec.fused` is that it reorganizes
*execution* (scratch buffers, ``out=`` chains, stacked limb EFTs,
cached index grids, L2 tiling) without touching a single float
*operation* — same EFT formulas, same reduction trees, same
renormalization order.  IEEE arithmetic is deterministic, so every
result must match the generic backend bit for bit, at every precision,
on every shape, zeros and broadcasts included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import FusedBackend, GenericBackend, use_backend
from repro.vec.complexmd import MDComplexArray
from repro.vec.mdarray import MDArray, pairwise_reduce

SHAPES = [(), (5,), (32, 8), (7, 1), (3, 4, 2)]


@pytest.fixture(scope="module")
def generic():
    return GenericBackend()


@pytest.fixture(scope="module")
def fused():
    return FusedBackend()


def sample(rng, limbs, shape):
    """A valid limb-major stack with exact zeros sprinkled into the
    lower limbs (they exercise the renormalization swap passes)."""
    data = rng.standard_normal((limbs, *shape))
    for k in range(1, limbs):
        data[k] = data[k - 1] * 2.0**-53 * rng.standard_normal(shape)
    if limbs > 1 and shape:
        flat = data.reshape(limbs, -1)
        cols = rng.integers(0, flat.shape[1], size=max(1, flat.shape[1] // 5))
        flat[rng.integers(1, limbs, size=cols.size), cols] = 0.0
    return data


def assert_identical(result, reference):
    __tracebackhide__ = True
    assert result.shape == reference.shape
    assert np.array_equal(result, reference, equal_nan=True)


class TestBackendOps:
    """Raw backend surface at d/dd/qd/od across shapes."""

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_binary_ops(self, generic, fused, rng, limbs, shape, op):
        x = sample(rng, limbs, shape)
        y = sample(rng, limbs, shape)
        assert_identical(getattr(fused, op)(x, y), getattr(generic, op)(x, y))

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_sqr_fma_sqrt(self, generic, fused, rng, limbs, shape):
        x = sample(rng, limbs, shape)
        y = sample(rng, limbs, shape)
        z = sample(rng, limbs, shape)
        assert_identical(fused.sqr(x), generic.sqr(x))
        assert_identical(fused.fma(x, y, z), generic.fma(x, y, z))
        positive = np.abs(x)
        assert_identical(fused.sqrt(positive), generic.sqrt(positive))

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_broadcast(self, generic, fused, rng, limbs, op):
        x = sample(rng, limbs, (7, 1))
        y = sample(rng, limbs, (1, 6))
        assert_identical(getattr(fused, op)(x, y), getattr(generic, op)(x, y))

    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_scalar_mixed(self, generic, fused, rng, limbs, op):
        x = sample(rng, limbs, ())
        y = sample(rng, limbs, (5,))
        assert_identical(getattr(fused, op)(x, y), getattr(generic, op)(x, y))

    def test_renormalize(self, generic, fused, rng, limbs):
        for terms in (max(1, limbs - 1), limbs, limbs + 2, 2 * limbs):
            planes = []
            scale = 1.0
            for _ in range(terms):
                planes.append(rng.standard_normal((6, 3)) * scale)
                scale *= 2.0**-50
            assert_identical(
                fused.renormalize(planes, limbs), generic.renormalize(planes, limbs)
            )

    def test_tiled_large_launch(self, generic, fused, rng, limbs):
        """Shapes past the L2-tiling threshold chunk internally — the
        chunks must reproduce the one-shot floats exactly."""
        x = sample(rng, limbs, (70000,))
        y = sample(rng, limbs, (70000,))
        assert_identical(fused.add(x, y), generic.add(x, y))
        assert_identical(fused.mul(x, y), generic.mul(x, y))


class TestLaunchHooks:
    """The value-neutral data-movement hooks."""

    @pytest.mark.parametrize("terms", [1, 3, 5, 33])
    def test_gather_antidiagonals(self, generic, fused, rng, terms):
        data = rng.standard_normal((2, 4, terms, terms))
        assert_identical(
            fused.gather_antidiagonals(data, terms),
            generic.gather_antidiagonals(data, terms),
        )

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 33])
    def test_pairwise_reduce(self, generic, fused, rng, n):
        data = rng.standard_normal((2, n, 6))

        def combine(a, b):
            return GenericBackend().add(a, b, 2)

        def pad(shape):
            return np.zeros(shape)

        with use_backend(generic):
            reference = pairwise_reduce(data, 1, combine, pad)
        with use_backend(fused):
            result = pairwise_reduce(data, 1, combine, pad)
        assert_identical(result, reference)


class TestArrayLayer:
    """MDArray / MDComplexArray arithmetic under a swapped backend."""

    def _pair(self, rng, limbs, shape=(4, 5)):
        return (
            MDArray(sample(rng, limbs, shape)),
            MDArray(sample(rng, limbs, shape)),
        )

    def test_mdarray_arithmetic(self, rng, limbs):
        a, b = self._pair(rng, limbs)
        with use_backend("generic"):
            reference = ((a + b) * a - b / a).data.copy()
            summed = (a * b).sum(axis=0).data.copy()
        with use_backend("fused"):
            result = ((a + b) * a - b / a).data
            fused_sum = (a * b).sum(axis=0).data
        assert_identical(result, reference)
        assert_identical(fused_sum, summed)

    def test_mdarray_astype(self, rng, limbs):
        a, _ = self._pair(rng, limbs)
        for target in (1, 2, 4, 8):
            with use_backend("generic"):
                reference = a.astype(target).data.copy()
            with use_backend("fused"):
                result = a.astype(target).data
            assert_identical(result, reference)

    def test_complex_arithmetic(self, rng, md_limbs):
        re1, im1 = self._pair(rng, md_limbs)
        re2, im2 = self._pair(rng, md_limbs)
        x = MDComplexArray(re1, im1)
        y = MDComplexArray(re2, im2)
        with use_backend("generic"):
            ref = ((x + y) * x - y / x) * x.conj()
            ref_real, ref_imag = ref.real.data.copy(), ref.imag.data.copy()
            ref_abs = x.abs().data.copy()
        with use_backend("fused"):
            out = ((x + y) * x - y / x) * x.conj()
            out_abs = x.abs().data
        assert_identical(out.real.data, ref_real)
        assert_identical(out.imag.data, ref_imag)
        assert_identical(out_abs, ref_abs)


# ---------------------------------------------------------------------------
# the head chain as one running sum, on hostile inputs
# ---------------------------------------------------------------------------
# On narrow planes the fused vecsum runs the head chain
# s_k = fl(a_k + s_{k+1}) as one np.add.accumulate over the reversed
# window (wide planes keep one add per term), so it adds s + a where the
# reference adds a + s.  IEEE addition is commutative bit for bit, signed
# zeros and infinities included, so every non-NaN limb must match,
# sign of zero too.  Only when both operands are NaN may the result
# differ, and then only in the NaN payload and sign (the hardware
# propagates one of its operands); that is why NaN lanes are compared as
# "NaN in both" and excluded from the signbit check.

def hostile_planes(rng, n, width=24):
    """``n`` overlapping term planes whose lanes hit the edge cases of
    the distillation: signed zeros, infinities, NaN, subnormals and
    exactly cancelling pairs (which make a head round to exact zero and
    send the renormalization through its zero-bubbling passes)."""
    planes = rng.standard_normal((n, width))
    for k in range(1, n):
        planes[k] *= 2.0 ** (-30 * k)
    planes[:, 0] = 0.0
    planes[:, 1] = -0.0
    planes[::2, 2] = -0.0
    planes[1::2, 2] = 0.0
    planes[0, 3] = np.inf
    planes[n // 2, 4] = -np.inf
    planes[-1, 5] = np.nan
    planes[:, 6] = 5e-324 * rng.integers(-9, 10, size=n)
    planes[0, 7] = np.inf
    planes[-1, 7] = -np.inf
    # exactly cancelling pairs: leading pair, trailing pair, and a lane
    # that cancels down to a subnormal remainder
    planes[1, 8] = -planes[0, 8]
    planes[-1, 9] = -planes[-2, 9]
    planes[:, 10] = 0.0
    planes[0, 10], planes[1, 10] = 1.0, -1.0
    planes[-1, 10] = 1e-310
    planes[1, 11:] = -planes[0, 11:]
    return planes


def assert_limbwise_identical(result, reference):
    """Bitwise equality on non-NaN limbs (sign of zero included) and NaN
    in exactly the same places."""
    __tracebackhide__ = True
    assert result.shape == reference.shape
    nan = np.isnan(result)
    assert np.array_equal(nan, np.isnan(reference))
    assert np.array_equal(result[~nan], reference[~nan])
    assert np.array_equal(np.signbit(result[~nan]), np.signbit(reference[~nan]))


class TestAccumulateChain:
    """Fused renormalize / mul against :mod:`repro.md` limb for limb,
    over every vecsum window length from 2 to 73 (an od product)."""

    @pytest.mark.parametrize("width", [24, 300], ids=["narrow", "wide"])
    @pytest.mark.parametrize("n", range(2, 74))
    def test_renormalize_window_lengths(self, rng, n, width):
        from repro.md.renorm import renormalize

        fused = FusedBackend()
        planes = hostile_planes(rng, n, width)
        with np.errstate(invalid="ignore", over="ignore"):
            for m in (2, 4, 8):
                result = fused.renormalize(list(planes), m)
                reference = np.stack(renormalize(list(planes), m))
                assert_limbwise_identical(result, reference)

    def test_cancelling_pairs_reach_zero_bubbling(self, rng):
        fused = FusedBackend()
        with np.errstate(invalid="ignore", over="ignore"):
            fused.renormalize(list(hostile_planes(rng, 12)), 4)
        bundles = fused.arena._state()["bundles"]
        assert any(key[0] == "renorm_mask" for key in bundles)

    @pytest.mark.parametrize("width", [24, 300], ids=["narrow", "wide"])
    @pytest.mark.parametrize("limbs", [2, 3, 4, 8])
    def test_mul(self, rng, limbs, width):
        from repro.md import generic as mdgeneric

        fused = FusedBackend()
        x = hostile_planes(rng, limbs, width)
        y = hostile_planes(rng, limbs, width)[:, ::-1].copy()
        with np.errstate(invalid="ignore", over="ignore"):
            result = fused.mul(x, y)
            reference = np.stack(mdgeneric.mul(tuple(x), tuple(y), limbs))
        assert_limbwise_identical(result, reference)


# ---------------------------------------------------------------------------
# one-element launches on host floats
# ---------------------------------------------------------------------------
# When every operand has a 0-d element shape, the fused backend runs the
# repro.md.generic kernel on the limbs as Python floats, falling back to
# the array kernel where a Python float op raises or a limb is not
# finite.  Compared by tobytes(), so the sign of zero counts.

#: leading-limb values: regular, signed zeros, infinities, NaN,
#: subnormals, and a magnitude whose Veltkamp split overflows
SPECIALS = [None, 0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e308]

#: (name, generic-backend method arity)
ONE_ELEMENT_OPS = [
    ("add", 2), ("sub", 2), ("mul", 2), ("div", 2),
    ("sqr", 1), ("fma", 3), ("sqrt", 1),
]


def one_element(rng, limbs, lead=None, whole=False):
    """A 0-d limb stack; ``lead`` replaces the leading limb (or, with
    ``whole``, every limb) by a special value."""
    data = sample(rng, limbs, ())
    if lead is not None:
        if whole:
            data[:] = lead
        else:
            data[0] = lead
    return data


def assert_same_bytes(result, reference):
    """Byte equality; a NaN limb need only be NaN in both (IEEE leaves
    the sign and payload of a NaN result unspecified, and the array
    kernel's NaN signs already differ from the generic kernel's)."""
    __tracebackhide__ = True
    assert result.shape == reference.shape
    assert result.dtype == reference.dtype
    nan = np.isnan(reference)
    if nan.any():
        assert np.array_equal(np.isnan(result), nan)
        result, reference = result[~nan], reference[~nan]
    assert result.tobytes() == reference.tobytes()


class TestOneElementLaunch:
    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    @pytest.mark.parametrize("op,arity", ONE_ELEMENT_OPS, ids=[o for o, _ in ONE_ELEMENT_OPS])
    def test_special_values(self, generic, fused, rng, op, arity, m):
        with np.errstate(all="ignore"):
            for lead in SPECIALS:
                for whole in (False, True):
                    for slot in range(arity):
                        operands = [one_element(rng, m) for _ in range(arity)]
                        operands[slot] = one_element(rng, m, lead, whole)
                        if op == "sqrt" and lead is None:
                            operands[0] = np.abs(operands[0])
                        assert_same_bytes(
                            getattr(fused, op)(*operands),
                            getattr(generic, op)(*operands),
                        )

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    @pytest.mark.parametrize("op,arity", ONE_ELEMENT_OPS, ids=[o for o, _ in ONE_ELEMENT_OPS])
    def test_mixed_limb_counts(self, generic, fused, rng, op, arity, m):
        """Operand limb counts other than ``m`` (truncation, padding and,
        for ``fma``, the ``m + 1`` product when ``len(x) >= m``)."""
        for counts in ((m + 1,) * arity, (max(1, m - 1),) * arity, (m, m + 2, m)[:arity]):
            operands = [np.abs(one_element(rng, n)) for n in counts]
            assert_same_bytes(
                getattr(fused, op)(*operands, m=m),
                getattr(generic, op)(*operands, m=m),
            )

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_runs_on_host_floats(self, rng, m):
        """A finite one-element launch never touches the scratch arena."""
        fused = FusedBackend()
        x, y = one_element(rng, m), one_element(rng, m)
        fused.div(x, y)
        fused.sqrt(np.abs(x))
        fused.fma(x, y, x)
        assert fused.arena.stats["bundles"] == 0

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_zero_divisor_and_negative_sqrt(self, generic, rng, m):
        """Python floats raise here; the launch must not, and must return
        the array kernel's IEEE inf / NaN."""
        fused = FusedBackend()
        x = one_element(rng, m)
        for divisor in (0.0, -0.0):
            zero = one_element(rng, m, divisor, whole=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                result = fused.div(x, zero)
                assert_same_bytes(result, generic.div(x, zero))
            assert not np.isfinite(result[0])
        negative = -np.abs(x)
        with np.errstate(invalid="ignore"):
            result = fused.sqrt(negative)
            assert_same_bytes(result, generic.sqrt(negative))
        assert np.isnan(result).all()
        assert fused.arena.stats["bundles"] > 0  # the array kernel ran

    def test_fallback_keeps_numpy_error_handling(self, rng):
        fused = FusedBackend()
        x = one_element(rng, 2)
        zero = one_element(rng, 2, 0.0, whole=True)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            fused.div(x, zero)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            fused.mul(one_element(rng, 2, 1e308), x)
        # a zero leading limb makes the host-float sqrt return zeros at
        # once, but the array kernel meets the infinite tail limb
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            fused.sqrt(np.array([0.0, np.inf]))
