"""Opt-in phase profiling: attribute wall time to engine phases.

A :class:`PhaseTimer` accumulates wall-clock seconds per named phase —
the run loop uses ``execute`` (the instrumented run, including hooks and
machine set-up), ``compile`` (lazy IR lowering, carved out of
``execute``), ``solve`` (the whole planning call minus the ``cache``
time recorded inside it: constraint slicing, candidate building, dedup
fingerprints *and* the solver proper — on cache-friendly sessions the
solver is a small part of it), ``cache`` (result-cache lookups/stores)
and ``checkpoint`` (session persistence) — so the benchmark suite can
answer "where did the session's time go" without a sampling profiler.

Disabled timers cost one attribute check per section: ``section(name)``
returns a shared no-op context manager and never reads the clock.
Enable with ``DartOptions(profile_phases=True)``; parallel workers run
their own timer and the parent merges the snapshots (plain addition, so
the merge is deterministic).
"""

import time

#: Canonical phase names used by the DART run loop.
EXECUTE = "execute"
#: Planning (``_Session._plan``) minus its cache sections — not only
#: solver calls; the name stays because reports key on ``phase_solve``.
SOLVE = "solve"
CACHE = "cache"
CHECKPOINT = "checkpoint"
#: IR lowering by the compiled execution engine (repro.interp.compile);
#: carved out of the run window so ``execute`` stays honest.
COMPILE = "compile"

PHASES = (EXECUTE, SOLVE, CACHE, CHECKPOINT, COMPILE)


class _NullSection:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SECTION = _NullSection()


class _Section:
    __slots__ = ("_timer", "_name", "_start")

    def __init__(self, timer, name):
        self._timer = timer
        self._name = name

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._timer.add(self._name, time.perf_counter() - self._start)
        return False


class PhaseTimer:
    """Accumulates (seconds, entry count) per phase name."""

    __slots__ = ("enabled", "seconds", "counts")

    def __init__(self, enabled=False):
        self.enabled = enabled
        self.seconds = {}
        self.counts = {}

    def section(self, name):
        """Context manager timing one phase entry (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SECTION
        return _Section(self, name)

    def add(self, name, seconds, count=1):
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + count

    def snapshot(self):
        return {
            name: {"seconds": round(self.seconds[name], 6),
                   "count": self.counts.get(name, 0)}
            for name in sorted(self.seconds)
        }

    def merge(self, payload):
        """Fold another timer's ``snapshot()`` in (plain addition)."""
        for name, entry in payload.items():
            self.add(name, entry["seconds"], entry["count"])
