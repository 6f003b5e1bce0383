"""Per-shape scratch-buffer arena for the fused execution backend.

A fused kernel (:mod:`repro.exec.fused`) writes every intermediate of an
EFT chain into a preallocated buffer via ``out=`` instead of letting the
array library allocate a fresh temporary per micro-op.  The arena owns
those buffers: it keeps one pool per ``(dtype, shape)`` key and hands
buffers out in stack (frame) discipline — a kernel marks the arena on
entry, takes what it needs, and releases back to the mark on exit, so
the same few cache-resident buffers serve every operation of a given
shape.  Per-launch-shape *bundles* live in a bounded LRU: once their
owned bytes pass :data:`BUNDLE_BUDGET_BYTES` the least recently used
shapes are dropped, so a workload that sweeps thousands of launch
shapes keeps only its hot working set resident.

Buffers come from ``xp.empty`` (contents are garbage until written);
kernels must fully define every element they read.  The arena is the
host-side analogue of a CUDA workspace allocation reused across kernel
launches — on a CuPy-backed module the same code holds device buffers.

Pools are thread-local, so two threads running fused kernels through one
backend instance never hand each other in-use scratch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

__all__ = ["BUNDLE_BUDGET_BYTES", "ScratchArena"]

#: Per-thread byte budget of the bundle cache, counting only arrays
#: that own their memory.  Small enough to stay cache-sized; the hot
#: launch shapes of a kernel sequence fit, a long sweep of one-off
#: shapes cycles through it instead of growing the resident set.
BUNDLE_BUDGET_BYTES = 256 * 1024


class ScratchArena:
    """Reusable ``xp`` buffers pooled by dtype and shape.

    ``xp`` is the array module (NumPy by default; a CuPy module makes
    the buffers device allocations).  Not a general allocator: buffers
    must be released in LIFO frame order via :meth:`mark` /
    :meth:`release` (or the :meth:`frame` context manager).
    """

    def __init__(self, xp=np):
        self.xp = xp
        self._local = threading.local()

    # ------------------------------------------------------------------
    # thread-local state
    # ------------------------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = {
                "pools": {},
                "log": [],
                "allocated": 0,
                "reused": 0,
                "bundles": OrderedDict(),
                "bundle_bytes": 0,
            }
            self._local.state = state
        return state

    # ------------------------------------------------------------------
    # frame discipline
    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Checkpoint the in-use log (cheap: a length)."""
        return len(self._state()["log"])

    def release(self, mark: int) -> None:
        """Return every buffer taken since ``mark`` to its pool."""
        state = self._state()
        log = state["log"]
        pools = state["pools"]
        while len(log) > mark:
            key, buf = log.pop()
            pools[key].append(buf)

    def frame(self):
        """Context manager form of :meth:`mark`/:meth:`release`."""
        return _Frame(self)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def take(self, shape, dtype=np.float64):
        """A scratch buffer of the given shape, pooled per (dtype, shape).

        The contents are undefined — the caller must write before
        reading.  The buffer belongs to the current frame and is
        recycled on :meth:`release`.
        """
        shape = tuple(shape)
        key = (np.dtype(dtype).str, shape)
        state = self._state()
        pool = state["pools"].setdefault(key, [])
        if pool:
            buf = pool.pop()
            state["reused"] += 1
        else:
            buf = self.xp.empty(shape, dtype=dtype)
            state["allocated"] += 1
        state["log"].append((key, buf))
        return buf

    def take_stack(self, k: int, shape, dtype=np.float64):
        """A ``(k,) + shape`` workspace stack (limb/term-major)."""
        return self.take((k, *shape), dtype=dtype)

    def bundle(self, key, shapes=None, dtype=np.float64, build=None):
        """The persistent scratch set of one fused kernel launch shape.

        ``key`` identifies a (kernel, launch configuration) pair and
        ``shapes`` the buffers that kernel needs; the first call
        allocates them, later calls return the same tuple — one dict
        probe instead of one :meth:`take` per buffer, which is what
        keeps small fused launches cheaper than allocator churn.
        Alternatively ``build`` is a callable ``build(xp) -> tuple``
        producing the cached value — used by kernels that also want
        derived structures (pre-sliced row views) amortized into the
        same probe.  The caller owns the exclusivity contract: a kernel
        must not re-enter itself (directly or mutually) with the same
        key while its bundle is live.  Bundles are thread-local like
        the pools.

        The cache is an LRU bounded by :data:`BUNDLE_BUDGET_BYTES` of
        owned memory (views into a bundle's own arrays are free).  A
        bundle larger than the whole budget is handed out uncached.  An
        evicted bundle stays valid for a caller still holding it; the
        next call with its key allocates afresh.
        """
        state = self._state()
        bundles = state["bundles"]
        entry = bundles.get(key)
        if entry is not None:
            bundles.move_to_end(key)
            bufs = entry[0]
            state["reused"] += len(bufs)
            return bufs
        if build is not None:
            bufs = build(self.xp)
        else:
            dt = np.dtype(dtype)
            bufs = tuple(self.xp.empty(s, dtype=dt) for s in shapes)
        state["allocated"] += len(bufs)
        nbytes = sum(buf.nbytes for buf in bufs if buf.base is None)
        if nbytes <= BUNDLE_BUDGET_BYTES:
            total = state["bundle_bytes"] + nbytes
            while total > BUNDLE_BUDGET_BYTES:
                total -= bundles.popitem(last=False)[1][1]
            bundles[key] = (bufs, nbytes)
            state["bundle_bytes"] = total
        return bufs

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Allocation counters for this thread: fresh vs pool hits, and
        the bundle cache's entry count and owned bytes."""
        state = self._state()
        return {
            "allocated": state["allocated"],
            "reused": state["reused"],
            "pooled_buffers": sum(len(p) for p in state["pools"].values()),
            "in_use": len(state["log"]),
            "bundles": len(state["bundles"]),
            "bundle_bytes": state["bundle_bytes"],
        }


class _Frame:
    __slots__ = ("_arena", "_mark")

    def __init__(self, arena):
        self._arena = arena
        self._mark = None

    def __enter__(self):
        self._mark = self._arena.mark()
        return self._arena

    def __exit__(self, exc_type, exc, tb):
        self._arena.release(self._mark)
        return False
