"""Selection contract of the execution-backend registry.

``get_backend``/``set_backend``/``use_backend`` plus the
``REPRO_EXEC_BACKEND`` environment switch — the surface a CuPy/JAX
module drop-in plugs into via ``register_backend``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.exec.arena as arena_module
import repro.exec.backend as backend_module
from repro.exec import (
    ENV_VAR,
    ExecutionBackend,
    FusedBackend,
    GenericBackend,
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from repro.exec.arena import BUNDLE_BUDGET_BYTES


@pytest.fixture
def restore_backend():
    """Snapshot and restore the process-wide active backend."""
    previous = backend_module._active
    yield
    backend_module._active = previous


def test_builtin_backends_registered():
    names = available_backends()
    assert "generic" in names
    assert "fused" in names


def test_default_backend_is_fused(restore_backend, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    backend_module._active = None
    assert get_backend().name == "fused"
    assert isinstance(get_backend(), FusedBackend)


def test_env_var_selects_backend(restore_backend, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "fused")
    backend_module._active = None
    backend = get_backend()
    assert backend.name == "fused"
    assert isinstance(backend, FusedBackend)


def test_env_var_selects_generic_oracle(restore_backend, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "generic")
    backend_module._active = None
    backend = get_backend()
    assert backend.name == "generic"
    assert type(backend) is GenericBackend


def test_env_var_unknown_name_raises(restore_backend, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "cuda-someday")
    backend_module._active = None
    with pytest.raises(ValueError, match="cuda-someday"):
        get_backend()


def test_set_backend_by_name_and_instance(restore_backend):
    assert set_backend("fused").name == "fused"
    assert get_backend().name == "fused"
    instance = GenericBackend()
    assert set_backend(instance) is instance
    assert get_backend() is instance


def test_set_backend_rejects_non_backend(restore_backend):
    with pytest.raises(TypeError):
        set_backend(42)


def test_use_backend_scopes_and_restores(restore_backend):
    set_backend("generic")
    with use_backend("fused") as fused:
        assert get_backend() is fused
        assert fused.name == "fused"
    assert get_backend().name == "generic"


def test_use_backend_restores_on_error(restore_backend):
    set_backend("generic")
    with pytest.raises(RuntimeError):
        with use_backend("fused"):
            raise RuntimeError("boom")
    assert get_backend().name == "generic"


def test_register_backend_round_trip(restore_backend):
    class ProbeBackend(GenericBackend):
        name = "probe"

    register_backend("probe", ProbeBackend)
    try:
        assert "probe" in available_backends()
        with use_backend("probe") as probe:
            assert isinstance(probe, ProbeBackend)
    finally:
        backend_module._FACTORIES.pop("probe", None)


def test_backend_owns_array_module_and_arena():
    backend = FusedBackend()
    assert backend.xp is np
    assert backend.arena.xp is np
    assert isinstance(backend, ExecutionBackend)


def test_arena_stats_report_bundle_reuse():
    backend = FusedBackend()
    x = np.array([[1.5, 2.5], [1e-20, 2e-20]])
    backend.mul(x, x)
    allocated = backend.arena.stats["allocated"]
    assert allocated > 0
    backend.mul(x, x)
    stats = backend.arena.stats
    assert stats["allocated"] == allocated  # second launch reuses
    assert stats["reused"] > 0
    assert stats["bundles"] > 0


def test_arena_bundle_bytes_stay_within_budget(rng):
    backend = FusedBackend()
    for width in range(1, 241):  # one dd launch shape per width
        x = rng.standard_normal((2, width))
        x[1] *= 2.0**-53
        backend.mul(x, x)
    stats = backend.arena.stats
    assert 0 < stats["bundle_bytes"] <= BUNDLE_BUDGET_BYTES
    assert stats["bundles"] < 240  # older shapes were evicted

    # the most recent shape is still cached: relaunching it allocates nothing
    x = rng.standard_normal((2, 240))
    allocated = stats["allocated"]
    backend.mul(x, x)
    assert backend.arena.stats["allocated"] == allocated


def test_arena_oversize_bundle_is_not_cached():
    backend = FusedBackend()
    arena = backend.arena
    width = BUNDLE_BUDGET_BYTES // 8 + 1
    first = arena.bundle(("probe", width), ((width,),))
    second = arena.bundle(("probe", width), ((width,),))
    assert first[0] is not second[0]
    assert arena.stats["bundle_bytes"] == 0


def test_arena_bundle_views_are_not_counted():
    arena = FusedBackend().arena

    def build(xp):
        stack = xp.empty((2, 16))
        return stack, stack[0], stack[1]

    arena.bundle(("views",), build=build)
    assert arena.stats["bundle_bytes"] == 2 * 16 * 8


def test_arena_eviction_mid_kernel_keeps_results_exact(rng, monkeypatch):
    """A budget that holds only a few bundles: the nested launches of a
    division or square root evict the outer kernel's bundle while it is
    still in use, and the kernel must keep computing on it and match
    the reference bit for bit."""
    budget = 2048
    monkeypatch.setattr(arena_module, "BUNDLE_BUDGET_BYTES", budget)
    fused, generic = FusedBackend(), GenericBackend()
    for limbs in (2, 4, 8):
        x = rng.standard_normal((limbs, 3))
        y = rng.standard_normal((limbs, 3))
        for k in range(1, limbs):
            x[k] = x[k - 1] * 2.0**-53
            y[k] = y[k - 1] * 2.0**-53
        positive = np.abs(x)
        for _ in range(2):  # the second round re-allocates evicted bundles
            allocated = fused.arena.stats["allocated"]
            assert np.array_equal(fused.div(x, y), generic.div(x, y))
            assert np.array_equal(fused.sqrt(positive), generic.sqrt(positive))
            assert np.array_equal(fused.fma(x, y, x), generic.fma(x, y, x))
            assert fused.arena.stats["allocated"] > allocated
            assert fused.arena.stats["bundle_bytes"] <= budget
