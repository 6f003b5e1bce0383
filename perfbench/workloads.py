"""The benchmark's workloads: seeded inputs, one timed pass, the oracle.

Each workload is built from a seed (set-up), runs a full pass of
program calls (timed by the caller), and checks the pass's outputs
against an oracle kept in this file.  Every operation of a pass has a
digest of its output limbs, so repeated and traced passes can be held
bitwise identical to the first.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from repro.core import least_squares
from repro.md import get_precision
from repro.perf.model import PerformanceModel
from repro.poly import Homotopy, cyclic
from repro.vec.random import random_matrix, random_vector

#: Simulated device the cost model prices the returned traces on.
DEVICE = "V100"


@dataclass
class PassResult:
    """What one pass returned, reduced to what the benchmark reports."""

    #: one digest per operation, in a fixed order
    digests: list
    #: cost-model kernel milliseconds and launches of the returned traces
    model_ms: float
    model_launches: int
    #: accepted path steps (fleets only)
    steps: int = 0
    #: mean sub-batch fill of the fleet (fleets only)
    occupancy: float = 0.0
    #: per-precision solve seconds and cost-model ms of one solve
    #: (``lstsq_ladder`` only)
    solve_s: dict = field(default_factory=dict)
    solve_model_ms: dict = field(default_factory=dict)
    #: kept for the oracle, which runs on the first pass only
    outputs: list = field(default_factory=list)


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def md_point_limbs(point) -> tuple:
    """Limbs of a list of real or complex multiple doubles."""
    limbs = []
    for value in point:
        if hasattr(value, "imag"):
            limbs.append((value.real.limbs, value.imag.limbs))
        else:
            limbs.append(value.limbs)
    return tuple(limbs)


def exact(values: np.ndarray) -> list:
    """Exact rationals of a limb-major ``(m, k)`` array, one per column."""
    return [sum(Fraction(limb) for limb in column) for column in values.T]


def norm2(values) -> float:
    """Euclidean norm of exact rationals, rounded once."""
    return math.sqrt(float(sum(c * c for c in values)))


# ----------------------------------------------------------------------
# lstsq_ladder
# ----------------------------------------------------------------------
class LstsqLadder:
    """Seeded square real systems solved by ``repro.lstsq`` at dd, qd, od.

    A pass solves ``counts[m]`` distinct systems at each precision.  The
    counts give every precision roughly the same share of the pass on the
    generic backend, so a change to any one rung moves ``wall_s``.
    """

    name = "lstsq_ladder"
    #: backward error bound, in units of ``n`` times the unit roundoff
    BACKWARD_BOUND = 1.0

    def __init__(self, seed: int, tiny: bool = False):
        self.n = 8 if tiny else 16
        self.counts = {2: 1, 4: 1, 8: 1} if tiny else {2: 48, 4: 4, 8: 1}
        rng = np.random.default_rng(seed)
        self.systems = [
            (m, random_matrix(self.n, self.n, m, rng), random_vector(self.n, m, rng))
            for m, count in self.counts.items()
            for _ in range(count)
        ]
        self.worst_error_u = 0.0

    def run(self) -> PassResult:
        model = PerformanceModel(DEVICE)
        result = PassResult(digests=[], model_ms=0.0, model_launches=0)
        clock = time.perf_counter
        for m, matrix, rhs in self.systems:
            start = clock()
            solved = least_squares.lstsq(matrix, rhs, device=DEVICE)
            result.solve_s.setdefault(m, []).append(clock() - start)
            result.digests.append(digest(solved.x.data.tobytes()))
            result.outputs.append(solved.x)
            traces = (solved.qr_trace, solved.bs_trace)
            model_ms = sum(model.attribute(trace).kernel_ms for trace in traces)
            result.solve_model_ms[m] = model_ms
            result.model_ms += model_ms
            result.model_launches += sum(len(trace) for trace in traces)
        return result

    def check(self, result: PassResult) -> list:
        """Normwise backward error ``|b - A x| / (|A| |x| + |b|)`` in exact
        arithmetic, bounded by ``BACKWARD_BOUND * n`` unit roundoffs."""
        failures = []
        for (m, matrix, rhs), x in zip(self.systems, result.outputs):
            a = [exact(matrix.data[:, i, :]) for i in range(self.n)]
            xs = exact(x.data.reshape(m, -1))
            bs = exact(rhs.data.reshape(m, -1))
            r = [bi - sum(aij * xj for aij, xj in zip(row, xs)) for row, bi in zip(a, bs)]
            frob = norm2([c for row in a for c in row])
            eta = norm2(r) / (frob * norm2(xs) + norm2(bs))
            units = eta / get_precision(m).eps
            self.worst_error_u = max(self.worst_error_u, units)
            if not units <= self.BACKWARD_BOUND * self.n:
                failures.append(f"{m}-limb solve: backward error {units:.3g} u")
        return failures


# ----------------------------------------------------------------------
# fleets
# ----------------------------------------------------------------------
def fleet_result(fleet) -> PassResult:
    return PassResult(
        digests=[
            digest(p.final_t, p.step_count, p.precisions_used, md_point_limbs(p.final_point))
            for p in fleet.paths
        ],
        model_ms=fleet.fleet_model_ms,
        model_launches=sum(len(trace) for trace in fleet.round_traces),
        steps=sum(p.step_count for p in fleet.paths),
        occupancy=fleet.occupancy,
        outputs=list(fleet.paths),
    )


class Cyclic3Fleet:
    """The cyclic-3 complex total-degree fleet, tracked in dd.

    The homotopy's random gamma is fixed (seed 7, which reaches t = 1 on
    all six paths); the benchmark seed permutes the start order.  The
    path results do not depend on the order, so every seed does the same
    work and the same checks apply.
    """

    name = "cyclic3_fleet"
    GAMMA_SEED = 7
    TRACK = dict(tol=1e-6, order=8, max_steps=192, precision_ladder=(2,))
    #: bound on ``max_i |F_i(x)|`` at an endpoint, evaluated exactly
    RESIDUAL_BOUND = 1e-24

    def __init__(self, seed: int, tiny: bool = False):
        self.homotopy = Homotopy.total_degree(
            cyclic(3), seed=self.GAMMA_SEED, backend="complex"
        )
        starts = self.homotopy.start_solutions()
        order = np.random.default_rng(seed).permutation(len(starts))
        self.starts = [starts[i] for i in order][: 2 if tiny else None]
        self.terms = self.homotopy.target_system.terms
        self.worst_residual = 0.0

    def run(self) -> PassResult:
        return fleet_result(self.homotopy.track_fleet(starts=self.starts, **self.TRACK))

    def residual(self, point) -> float:
        """Exact ``max_i |F_i(x)|`` at a complex multiple double point."""
        xs = [
            (sum(map(Fraction, v.real.limbs)), sum(map(Fraction, v.imag.limbs)))
            for v in point
        ]
        worst = 0.0
        for equation in self.terms:
            re = im = Fraction(0)
            for coefficient, exponents in equation:
                tre, tim = Fraction(coefficient), Fraction(0)
                for (xre, xim), power in zip(xs, exponents):
                    for _ in range(power):
                        tre, tim = tre * xre - tim * xim, tre * xim + tim * xre
                re += tre
                im += tim
            worst = max(worst, math.hypot(float(re), float(im)))
        return worst

    def check(self, result: PassResult) -> list:
        failures = []
        for index, path in enumerate(result.outputs):
            if path.failed or not path.reached:
                failures.append(f"path {index}: {path.summary()}")
                continue
            residual = self.residual(path.final_point)
            self.worst_residual = max(self.worst_residual, residual)
            if not residual <= self.RESIDUAL_BOUND:
                failures.append(f"path {index}: endpoint residual {residual:.3g}")
        return failures


WORKLOADS = {cls.name: cls for cls in (LstsqLadder, Cyclic3Fleet)}
