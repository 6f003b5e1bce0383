"""Per-layer self time, measured from outside the program.

The tracer wraps public functions and methods of each ``repro`` layer
while a ``with tracer.installed():`` block runs, and restores the
originals on exit.  Nothing inside ``repro`` is edited: functions are
replaced at every module attribute that binds them (so
``from .blocked_qr import blocked_qr`` call sites are covered too),
methods on their class, and backend ops on the active backend instance.

Each wrapped call is a span.  A span's self time is its duration minus
the durations of the wrapped calls made inside it, so the self times of
all layers plus the root's uncovered time add up to the wall time of the
traced block exactly (up to float rounding).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

#: Limb-arithmetic methods of :class:`repro.exec.ExecutionBackend`; each
#: outermost call is one host limb launch.  The two launch-configuration
#: hooks (operand splitting, anti-diagonal gather) are value-neutral data
#: movement and stay in their caller's self time.
EXEC_OPS = ("add", "sub", "mul", "div", "sqr", "fma", "sqrt", "renormalize")

#: Scalar multiple double operators, real and complex.
MD_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pos__", "__abs__",
    "__pow__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__",
    "sqrt", "conjugate", "abs2",
)

#: Step-control methods of the series layer.
STEP_CONTROL = ("error_estimate", "evaluate", "pole_radius", "coefficient_condition")

#: System and homotopy evaluation methods of the poly layer.
POLY_EVAL = (
    "__call__", "evaluate", "evaluate_with_jacobian", "jacobian",
    "jacobian_matrix", "evaluate_series", "jacobian_series", "residual_fleet",
)


class Tracer:
    """Accumulates calls and self seconds per ``(layer, target)``."""

    def __init__(self):
        #: ``(layer, target) -> [calls, self seconds]``
        self.totals = {}
        #: outermost exec launches and the elements they carried
        self.launches = 0
        self.launch_elements = 0
        # one frame per open span: [seconds covered by child spans, layer]
        self._stack = [[0.0, None]]
        self._undo = []

    # -- accounting -----------------------------------------------------
    @property
    def covered_s(self) -> float:
        """Seconds of the root covered by top-level spans."""
        return self._stack[0][0]

    def layer(self, layer: str) -> tuple:
        """``(calls, self seconds)`` summed over a layer's targets."""
        calls = seconds = 0
        for (name, _), (n, s) in self.totals.items():
            if name == layer:
                calls += n
                seconds += s
        return calls, seconds

    def calls(self, layer: str, target: str) -> int:
        return self.totals.get((layer, target), [0, 0.0])[0]

    def self_seconds(self) -> float:
        return sum(s for _, s in self.totals.values())

    def _wrap(self, layer, target, fn, launch=False):
        totals = self.totals.setdefault((layer, target), [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[0] += elapsed
                totals[0] += 1
                totals[1] += elapsed - frame[0]
            if launch and parent[1] != layer:
                self.launches += 1
                self.launch_elements += result.size // result.shape[0]
            return result

        return span

    # -- installation ---------------------------------------------------
    def wrap_function(self, layer, module, name):
        """Wrap ``module.name`` wherever a ``repro`` module binds it."""
        original = getattr(module, name)
        wrapped = self._wrap(layer, name, original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append(functools.partial(setattr, mod, attr, original))

    def wrap_module(self, layer, module):
        """Wrap every public function defined in ``module``."""
        for name, value in list(vars(module).items()):
            if (
                callable(value)
                and not isinstance(value, type)
                and not name.startswith("_")
                and getattr(value, "__module__", None) == module.__name__
            ):
                self.wrap_function(layer, module, name)

    def wrap_methods(self, layer, cls, names):
        """Wrap the methods in ``names`` that ``cls`` itself defines."""
        for name in names:
            original = cls.__dict__.get(name)
            if original is None or not callable(original):
                continue
            setattr(cls, name, self._wrap(layer, name, original))
            self._undo.append(functools.partial(setattr, cls, name, original))

    def wrap_backend(self, backend):
        """Wrap the limb ops of one backend instance."""
        for name in EXEC_OPS:
            setattr(backend, name, self._wrap("exec", name, getattr(backend, name), launch=True))
            self._undo.append(functools.partial(delattr, backend, name))

    def install(self):
        from repro.exec import get_backend
        from repro.md import ComplexMultiDouble, MultiDouble
        from repro.poly import Homotopy, PolynomialSystem
        from repro.series.complexvec import ComplexVectorSeries
        from repro.series.pade import PadeApproximant
        from repro.series.vector import VectorSeries

        # packages re-export functions under their submodules' names
        # (repro.core.blocked_qr is a function), so look modules up by name
        module = importlib.import_module
        self.wrap_methods("md", MultiDouble, MD_OPERATORS)
        self.wrap_methods("md", ComplexMultiDouble, MD_OPERATORS)
        self.wrap_backend(get_backend())
        self.wrap_module("vec", module("repro.vec.linalg"))
        self.wrap_module("vec", module("repro.vec.batched"))
        self.wrap_function("core.qr", module("repro.core.blocked_qr"), "blocked_qr")
        self.wrap_function(
            "core.bs", module("repro.core.back_substitution"), "tiled_back_substitution"
        )
        self.wrap_function("core.lstsq", module("repro.core.least_squares"), "lstsq")
        self.wrap_function("batch.lstsq", module("repro.batch.qr"), "batched_blocked_qr")
        self.wrap_function(
            "batch.lstsq", module("repro.batch.back_substitution"), "batched_back_substitution"
        )
        self.wrap_function(
            "batch.lstsq", module("repro.batch.least_squares"), "batched_least_squares"
        )
        self.wrap_function("batch.pade", module("repro.batch.pade"), "batched_pade")
        self.wrap_function("batch.fleet", module("repro.batch.fleet"), "track_paths")
        for cls in (PadeApproximant, VectorSeries, ComplexVectorSeries):
            self.wrap_methods("series", cls, STEP_CONTROL)
        self.wrap_methods("poly", PolynomialSystem, POLY_EVAL)
        self.wrap_methods("poly", Homotopy, POLY_EVAL)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layers for the duration of a ``with`` block."""
        try:
            self.install()
            yield self
        finally:
            self.uninstall()
