"""Tests for the multiple double dense linear algebra kernels."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.exec import get_backend
from repro.exec.arena import BUNDLE_BUDGET_BYTES
from repro.md import MultiDouble
from repro.vec import MDArray, MDComplexArray, linalg
from repro.vec import random as mdrandom


class TestMatvec:
    def test_matches_numpy_double(self, rng):
        a = rng.standard_normal((7, 5))
        x = rng.standard_normal(5)
        y = linalg.matvec(MDArray.from_double(a, 2), MDArray.from_double(x, 2))
        assert np.allclose(y.to_double(), a @ x, rtol=1e-14)

    def test_full_precision_against_scalar_reference(self, md_limbs, rng):
        a = mdrandom.random_matrix(6, 4, md_limbs, rng)
        x = mdrandom.random_vector(4, md_limbs, rng)
        y = linalg.matvec(a, x)
        for i in range(6):
            acc = MultiDouble(0, md_limbs)
            # pairwise order (as used by the reduction) for an exact match
            terms = [a.to_multidouble((i, j)) * x.to_multidouble(j) for j in range(4)]
            while len(terms) > 1:
                half = (len(terms) + 1) // 2
                merged = []
                for k in range(half):
                    if k + half < len(terms):
                        merged.append(terms[k] + terms[k + half])
                    else:
                        merged.append(terms[k])
                terms = merged
            acc = terms[0]
            diff = abs((y.to_multidouble(i) - acc).to_fraction())
            assert diff <= abs(acc.to_fraction()) * Fraction(1, 2 ** (50 * md_limbs))

    def test_complex(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = linalg.matvec(MDComplexArray.from_complex(a, 2), MDComplexArray.from_complex(x, 2))
        assert np.allclose(y.to_complex(), a @ x, rtol=1e-13)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            linalg.matvec(MDArray.zeros((3, 3), 2), MDArray.zeros((4,), 2))
        with pytest.raises(ValueError):
            linalg.matvec(MDArray.zeros((3,), 2), MDArray.zeros((3,), 2))


class TestMatmul:
    def test_matches_numpy_double(self, rng):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 5))
        c = linalg.matmul(MDArray.from_double(a, 2), MDArray.from_double(b, 2))
        assert np.allclose(c.to_double(), a @ b, rtol=1e-14)

    def test_complex_matches_numpy(self, rng):
        a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        c = linalg.matmul(MDComplexArray.from_complex(a, 2), MDComplexArray.from_complex(b, 2))
        assert np.allclose(c.to_complex(), a @ b, rtol=1e-13)

    def test_identity_is_neutral(self, md_limbs, rng):
        a = mdrandom.random_matrix(5, 5, md_limbs, rng)
        eye = linalg.identity(5, md_limbs)
        assert linalg.matmul(a, eye).allclose(a, tol=0.0) or linalg.matmul(a, eye).equals(a)

    def test_associativity_within_precision(self, rng):
        m = 4
        a = mdrandom.random_matrix(4, 4, m, rng)
        b = mdrandom.random_matrix(4, 4, m, rng)
        c = mdrandom.random_matrix(4, 4, m, rng)
        left = linalg.matmul(linalg.matmul(a, b), c)
        right = linalg.matmul(a, linalg.matmul(b, c))
        assert left.allclose(right, tol=1e-60)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            linalg.matmul(MDArray.zeros((2, 3), 2), MDArray.zeros((2, 3), 2))
        with pytest.raises(ValueError):
            linalg.matmul(MDArray.zeros((3,), 2), MDArray.zeros((3, 3), 2))


# ---------------------------------------------------------------------------
# accumulation-order pin: matmul is the explicit per-inner rank-1 loop
# ---------------------------------------------------------------------------
# The products of a chunk of inner indices come from one launch; the
# sum must still start from an explicit zero array and add the products
# in inner order.  The chunk is bounded by the scratch arena's bundle
# budget, so the operands below are sized from that budget to make a
# short inner dimension span several chunks.

ORDER_PIN_INNER = 7


def order_pin_operands(rng, m, complex_data, batch=None):
    """``a`` (``[batch,] n, k``) and ``b`` (``[batch,] k, n``) with ``n``
    chosen so a chunk of the product grid holds only a few inner indices.

    Row 0 of ``a`` is ``-0.0``.  In real data, entry ``(1, 1)`` of the
    product has an overlapping (non-renormalized) first double double
    product whose tail is a half-ulp tie, followed by subnormal products
    ``-1 * 5e-324``: ``0 + p_0`` renormalizes the tie, so at dd a sum
    that skipped the zero start ends in another last limb.
    """
    lead = () if batch is None else (batch,)
    planes = 4 if complex_data else 1
    per_entry = 8 * m * m * planes * math.prod(lead)
    n = math.isqrt(BUNDLE_BUDGET_BYTES // (per_entry * 3)) + 1
    k = ORDER_PIN_INNER
    scale = (2.0 ** (-53 * np.arange(m))).reshape((m,) + (1,) * (len(lead) + 2))
    pair = (2,) + (1,) * len(lead)

    def real_pair():
        a = rng.standard_normal((m, *lead, n, k)) * scale
        b = rng.standard_normal((m, *lead, k, n)) * scale
        a[:, ..., 0, :] = -0.0
        a[:, ..., 1, :] = 0.0
        a[0, ..., 1, :] = -1.0
        b[:, ..., :, 1] = 0.0
        b[0, ..., :, 1] = 5e-324
        if m >= 2:
            a[:2, ..., 1, 0] = np.array([-2.0, -1.0]).reshape(pair)
            b[:2, ..., 0, 1] = np.array([1e-17, 1e-17]).reshape(pair)
        return MDArray(a), MDArray(b)

    a, b = real_pair()
    if complex_data:
        a_im, b_im = real_pair()
        return MDComplexArray(a, a_im), MDComplexArray(b, b_im)
    return a, b


def rank1_loop(a, b, zero_start=True, order=None):
    """The reference: one ``col * row`` product and one add per inner
    index, from an explicit zero array (or from the first product)."""
    k = a.shape[-1]
    lead = a.shape[:-1]
    kind = MDComplexArray if isinstance(a, MDComplexArray) else MDArray
    result = kind.zeros((*lead, b.shape[-1]), a.limbs) if zero_start else None
    for t in order or range(k):
        term = a[..., t : t + 1] * b[..., t : t + 1, :]
        result = term if result is None else result + term
    return result


def limb_bytes(array):
    if isinstance(array, MDComplexArray):
        return array.real.data.tobytes() + array.imag.data.tobytes()
    return array.data.tobytes()


def count_mul_launches(monkeypatch, product):
    """Run ``product()`` and return its result and its number of limb
    multiplication launches."""
    backend = get_backend()
    calls = []
    original = backend.mul

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(backend, "mul", counting)
    result = product()
    monkeypatch.undo()
    return result, len(calls)


def assert_order_pinned(result, a, b, launches, m):
    __tracebackhide__ = True
    # the inner dimension spans several chunks, some of them multi-index
    assert 3 <= launches < ORDER_PIN_INNER
    assert limb_bytes(result) == limb_bytes(rank1_loop(a, b))
    # the pin has teeth: another order differs, and so does skipping
    # the zero start on real dd data, where entry (1, 1) is built to
    # show it (a zero product's leading limb is +0.0 at every precision,
    # so the -0.0 row alone cannot)
    reversed_order = range(ORDER_PIN_INNER - 1, -1, -1)
    assert limb_bytes(result) != limb_bytes(rank1_loop(a, b, order=reversed_order))
    if m == 2 and isinstance(a, MDArray):
        assert limb_bytes(result) != limb_bytes(rank1_loop(a, b, zero_start=False))


class TestMatmulOrder:
    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    def test_matches_rank1_loop(self, rng, limbs, complex_data, monkeypatch):
        a, b = order_pin_operands(rng, limbs, complex_data)
        result, launches = count_mul_launches(monkeypatch, lambda: linalg.matmul(a, b))
        assert_order_pinned(result, a, b, launches, limbs)


class TestVectorOps:
    def test_dot_and_outer(self, rng):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        xd, yd = MDArray.from_double(x, 2), MDArray.from_double(y, 2)
        assert float(linalg.dot(xd, yd).to_double()) == pytest.approx(x @ y)
        assert np.allclose(linalg.outer(xd, yd).to_double(), np.outer(x, y))

    def test_conjugated_dot(self):
        x = MDComplexArray.from_complex(np.array([1 + 1j, 2j]), 2)
        y = MDComplexArray.from_complex(np.array([1 - 1j, 3.0]), 2)
        plain = linalg.dot(x, y).to_complex()
        conj = linalg.dot(x, y, conjugate=True).to_complex()
        xv, yv = np.array([1 + 1j, 2j]), np.array([1 - 1j, 3.0])
        assert plain == pytest.approx(np.sum(xv * yv))
        assert conj == pytest.approx(np.sum(xv.conj() * yv))

    def test_dot_requires_vectors(self):
        with pytest.raises(ValueError):
            linalg.dot(MDArray.zeros((2, 2), 2), MDArray.zeros((2,), 2))
        with pytest.raises(ValueError):
            linalg.outer(MDArray.zeros((2, 2), 2), MDArray.zeros((2,), 2))

    def test_norm_real_and_complex(self):
        x = MDArray.from_double(np.array([3.0, 4.0]), 4)
        assert float(linalg.norm(x).to_double()) == pytest.approx(5.0)
        z = MDComplexArray.from_complex(np.array([3 + 4j]), 4)
        assert float(linalg.norm(z).to_double()) == pytest.approx(5.0)

    def test_frobenius_norm(self, rng):
        a = rng.standard_normal((4, 3))
        amd = MDArray.from_double(a, 2)
        assert float(linalg.frobenius_norm(amd).to_double()) == pytest.approx(
            np.linalg.norm(a)
        )
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        zmd = MDComplexArray.from_complex(z, 2)
        assert float(linalg.frobenius_norm(zmd).to_double()) == pytest.approx(
            np.linalg.norm(z)
        )

    def test_residual_norm(self, rng):
        a = rng.standard_normal((5, 5))
        x = rng.standard_normal(5)
        b = a @ x
        res = linalg.residual_norm(
            MDArray.from_double(a, 2), MDArray.from_double(x, 2), MDArray.from_double(b, 2)
        )
        assert res < 1e-14

    def test_max_abs_entry(self):
        assert linalg.max_abs_entry(MDArray.from_double(np.array([-3.0, 2.0]), 2)) == 3.0
        z = MDComplexArray.from_complex(np.array([3 + 4j]), 2)
        assert linalg.max_abs_entry(z) == pytest.approx(5.0)


class TestStructuredHelpers:
    def test_identity(self):
        eye = linalg.identity(4, 2)
        assert np.array_equal(eye.to_double(), np.eye(4))
        eye_c = linalg.identity(3, 2, complex_data=True)
        assert np.array_equal(eye_c.to_complex(), np.eye(3).astype(complex))

    def test_triu_tril(self, rng):
        a = rng.standard_normal((4, 4))
        amd = MDArray.from_double(a, 2)
        assert np.array_equal(linalg.triu(amd).to_double(), np.triu(a))
        assert np.array_equal(linalg.tril(amd, -1).to_double(), np.tril(a, -1))
        z = MDComplexArray.from_complex(a + 1j * a, 2)
        assert np.array_equal(linalg.triu(z, 1).to_complex(), np.triu(a + 1j * a, 1))

    def test_conjugate_transpose_dispatch(self, rng):
        a = rng.standard_normal((3, 4))
        amd = MDArray.from_double(a, 2)
        assert np.array_equal(linalg.conjugate_transpose(amd).to_double(), a.T)
        assert np.array_equal(linalg.transpose(amd).to_double(), a.T)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        zmd = MDComplexArray.from_complex(z, 2)
        assert np.array_equal(linalg.conjugate_transpose(zmd).to_complex(), z.conj().T)


class TestRandomGenerators:
    def test_random_matrix_properties(self, md_limbs):
        a = mdrandom.random_matrix(5, 3, md_limbs, rng=1)
        assert a.shape == (5, 3) and a.limbs == md_limbs
        assert np.max(np.abs(a.to_double())) <= 1.0
        if md_limbs > 1:
            assert np.any(a.data[1] != 0.0)

    def test_random_vector_deterministic_with_seed(self):
        a = mdrandom.random_vector(4, 2, rng=42)
        b = mdrandom.random_vector(4, 2, rng=42)
        assert a.equals(b)

    def test_random_complex(self):
        z = mdrandom.random_complex_matrix(3, 3, 2, rng=0)
        assert isinstance(z, MDComplexArray)
        w = mdrandom.random_complex_vector(3, 2, rng=0)
        assert w.shape == (3,)

    def test_lu_factor_double(self, rng):
        a = rng.standard_normal((8, 8)) + 4 * np.eye(8)
        perm, l, u = mdrandom.lu_factor_double(a)
        assert np.allclose(l @ u, a[perm], atol=1e-12)
        assert np.allclose(np.tril(u, -1), 0)
        assert np.allclose(np.triu(l, 1), 0)

    def test_lu_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            mdrandom.lu_factor_double(np.zeros((2, 3)))

    def test_lu_rejects_singular(self):
        with pytest.raises(ZeroDivisionError):
            mdrandom.lu_factor_double(np.zeros((3, 3)))

    def test_well_conditioned_triangular(self):
        u = mdrandom.random_well_conditioned_upper_triangular(24, 2, rng=3)
        head = u.to_double()
        assert np.allclose(np.tril(head, -1), 0)
        assert np.all(np.abs(np.diag(head)) > 1e-8)
        # the whole point: condition number far below exponential growth
        assert np.linalg.cond(head) < 1e6

    def test_well_conditioned_triangular_complex(self):
        u = mdrandom.random_well_conditioned_upper_triangular(8, 2, rng=3, complex_data=True)
        assert isinstance(u, MDComplexArray)
        assert np.allclose(np.tril(u.to_complex(), -1), 0)

    def test_lstsq_problem_shapes(self):
        a, b = mdrandom.random_lstsq_problem(10, 6, 2, rng=0)
        assert a.shape == (10, 6) and b.shape == (10,)
        a, b = mdrandom.random_lstsq_problem(5, 5, 2, rng=0, complex_data=True)
        assert isinstance(a, MDComplexArray)

    def test_lstsq_problem_rejects_wide(self):
        with pytest.raises(ValueError):
            mdrandom.random_lstsq_problem(3, 5, 2)
