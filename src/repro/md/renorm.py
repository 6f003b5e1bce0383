"""Renormalization of floating-point expansions.

A multiple double number with ``m`` limbs is an unevaluated sum of ``m``
doubles ordered by decreasing magnitude and *nonoverlapping* (each limb
is no larger than half a unit in the last place of its predecessor).
Arithmetic on expansions first produces a longer, possibly overlapping
expansion; *renormalization* compresses it back to ``m`` nonoverlapping
limbs.

The implementation uses **iterated leading-limb extraction** (classical
"distillation", Priest 1991): one pass of :func:`vecsum` — a bottom-up
chain of error-free :func:`~repro.md.eft.two_sum` — concentrates the
correctly rounded value of the whole expansion in the leading slot and
leaves the exact rounding errors behind; the leading slot becomes the
next output limb and the extraction recurses on the error terms.  After
``m`` extractions the discarded remainder is below half an ulp of the
last limb, so the result is the best possible ``m``-double
approximation of the exact sum.  This is slightly more expensive than
CAMPARY's branchy ``renorm2L`` (the cost difference is visible in the
measured operation counts of ``repro.md.opcounts``) but it is
branch-free, which is what allows the very same code to run vectorized
over NumPy arrays — the Python stand-in for the CUDA kernels.
"""

from __future__ import annotations

from .dispatch import array_module, is_array_limb
from .eft import quick_two_sum, two_sum

__all__ = ["vecsum", "renormalize", "renorm_ordered", "extract_leading"]


def vecsum(limbs):
    """Bottom-up distillation pass.

    Applies a chain of :func:`two_sum` from the least significant limb
    towards the most significant one.  Returns a list of the same length
    whose first entry is ``fl(sum(limbs))`` and whose remaining entries
    are the exact rounding errors of the chain, so the total value is
    preserved exactly.
    """
    n = len(limbs)
    if n == 1:
        return list(limbs)
    out = [None] * n
    s = limbs[n - 1]
    for i in range(n - 2, -1, -1):
        s, err = two_sum(limbs[i], s)
        out[i + 1] = err
    out[0] = s
    return out


def extract_leading(limbs):
    """One distillation step.

    Returns ``(head, errors)`` where ``head`` approximates
    ``sum(limbs)`` to within one ulp of the sum itself and ``errors`` is
    a list (one element shorter) whose exact sum is
    ``sum(limbs) - head``.

    Two :func:`vecsum` passes are applied.  A single pass accumulates
    bottom-up, so when large terms near the top of the list cancel, the
    running sum transits through a large magnitude and its rounding
    error — of the order of one ulp of the *large* terms — leaks into
    the error slots, leaving a head that can overlap the next limb.  The
    second pass re-accumulates at the (now small) result level, which
    brings the head to within one ulp of the true remaining sum.  Both
    passes are error free, so no information is lost either way.
    """
    if len(limbs) == 1:
        return limbs[0], []
    distilled = vecsum(vecsum(limbs))
    return distilled[0], distilled[1:]


#: Number of guard limbs extracted beyond the target precision.  When a
#: subtraction cancels almost exactly, the forward accumulation inside
#: :func:`vecsum` can round back to exactly zero while the true value of
#: the remainder survives in lower-order error terms; the head extracted
#: for that position is then an exact zero and one limb of precision
#: would be wasted.  Extracting a couple of extra heads and bubbling the
#: exact zeros to the tail before truncation restores the full accuracy
#: without any data-dependent control flow (only element-wise selects),
#: so the same code remains valid for the vectorized array limbs.
GUARD_LIMBS = 2


def renormalize(limbs, m):
    """Compress an arbitrary expansion to ``m`` nonoverlapping limbs.

    The input limbs may overlap and may be in any order.  The exact sum
    is preserved to within half an ulp of the ``m``-th output limb
    (i.e. a relative error of roughly ``2**(-53*m)``).
    """
    work = list(limbs)
    zero_template = work[0] * 0.0
    n_extract = min(len(work), m + GUARD_LIMBS)
    heads = []
    for _ in range(n_extract):
        head, work = extract_leading(work)
        heads.append(head)
    while len(heads) < m:
        heads.append(zero_template + 0.0)
    if len(heads) > m:
        # push exact zeros towards the tail so the guard truncation drops
        # them instead of significant limbs.  The swaps are exact, so the
        # expansion's value is preserved.  The first head sums every
        # term, so it is an array plane whenever any head is one: the
        # limb kind is decided once for the whole sweep
        if is_array_limb(heads[0]):
            xp = array_module()
            for _ in range(GUARD_LIMBS):
                for i in range(len(heads) - 1):
                    a, b = heads[i], heads[i + 1]
                    is_zero = a == 0.0
                    heads[i] = xp.where(is_zero, b, a)
                    heads[i + 1] = xp.where(is_zero, a * 0.0, b)
        else:
            # scalar limbs (floats or CountingFloat)
            for _ in range(GUARD_LIMBS):
                for i in range(len(heads) - 1):
                    if heads[i] == 0.0:
                        heads[i], heads[i + 1] = heads[i + 1], heads[i]
        heads = heads[:m]
    return heads


def renorm_ordered(limbs, m):
    """Renormalize an expansion already ordered by decreasing magnitude.

    The ordering allows the cheaper :func:`quick_two_sum` to be used for
    the first (largest) pair of every distillation pass; the remaining
    structure is identical to :func:`renormalize`.  Kept as a separate
    entry point so callers that construct ordered term lists (and the
    operation-count instrumentation) can exercise it.
    """
    return renormalize(limbs, m)


def compact(limbs):
    """Re-establish nonoverlap between adjacent limbs of an expansion
    that is already ordered by decreasing magnitude, preserving the sum
    exactly (a single downward sweep of :func:`quick_two_sum`).
    """
    out = list(limbs)
    for i in range(len(out) - 1):
        out[i], out[i + 1] = quick_two_sum(out[i], out[i + 1])
    return out
