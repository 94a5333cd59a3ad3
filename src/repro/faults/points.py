"""The fault injector and its instrumented seams.

One :class:`FaultInjector` is *installed* process-globally (module
attribute :data:`ACTIVE`); every seam across the stack follows the trace
bus idiom::

    inj = points.ACTIVE
    if inj is not None:
        inj.some_seam()

so a session without an injector pays one module-attribute read per
*seam site* and never constructs anything — pinned by
``tests/test_fault_injection.py``.  Seams probe their site on every
pass; the 1-based probe count is matched against the installed
:class:`repro.faults.plan.FaultPlan`, which makes every injected fault
deterministic and replayable from the plan spec.

The injector deliberately lives in a process global rather than being
threaded through every constructor: fault injection cuts across layers
that share no object (solver, cache, machine, persistence), and chaos
testing is the only client.  Parallel workers do not inherit it — the
only worker-side fault is the kill switch, which the parent decides and
ships in the work payload (see `repro.dart.parallel`).
"""

import contextlib
import os
import signal
import threading
import time

from repro.faults.plan import FaultPlan
from repro.obs import trace as tr


class InjectedSolverError(Exception):
    """Raised by the ``solver.raise`` fault: an internal solver failure."""


class InjectedCacheCorruption(Exception):
    """Raised by the ``cache.corrupt`` fault: cache state went bad."""


#: The installed injector, or None.  Seams read this exactly once.
ACTIVE = None


def install(injector):
    """Install ``injector`` process-globally; returns it."""
    global ACTIVE
    ACTIVE = injector
    return injector


def uninstall():
    """Remove the installed injector (idempotent)."""
    global ACTIVE
    ACTIVE = None


@contextlib.contextmanager
def active(plan, **kwargs):
    """Context manager: install a fresh injector for ``plan``, then
    uninstall.  Yields the injector (e.g. to inspect ``fired``)."""
    injector = FaultInjector(plan, **kwargs)
    install(injector)
    try:
        yield injector
    finally:
        uninstall()


class FaultInjector:
    """Counts seam probes and fires the plan's scheduled faults."""

    def __init__(self, plan, slow_solve_s=0.01):
        self.plan = FaultPlan.parse(plan)
        #: site -> probes so far (1-based after the first probe).
        self.hits = {}
        #: Log of every fault actually injected: (site, occurrence).
        self.fired = []
        #: Bound by the runner at session start (see `_Session`); a
        #: fault then bumps ``stats.faults_injected`` and emits a
        #: ``fault_injected`` trace event.
        self.trace = None
        self.stats = None
        #: Sleep of the ``solver.slow`` fault, in seconds.
        self.slow_solve_s = slow_solve_s

    def bind(self, trace, stats):
        """Attach a session's trace bus and statistics."""
        self.trace = trace
        self.stats = stats

    # -- core ---------------------------------------------------------------

    def _probe(self, site):
        occurrence = self.hits.get(site, 0) + 1
        self.hits[site] = occurrence
        if not self.plan.fires(site, occurrence):
            return False
        self._record(site, occurrence)
        return True

    def _record(self, site, occurrence):
        self.fired.append((site, occurrence))
        if self.stats is not None:
            self.stats.faults_injected += 1
        if self.trace is not None and self.trace.enabled:
            self.trace.emit(tr.FAULT_INJECTED, site=site,
                            occurrence=occurrence)

    # -- seams --------------------------------------------------------------

    def solver_call(self):
        """Probed by ``Solver.solve``; may raise, or direct the caller.

        Returns None (no fault), ``"unknown"`` (force an UNKNOWN
        verdict), or sleeps in place for the slow-solve fault.  The
        ``solver.raise`` fault raises :class:`InjectedSolverError`.
        """
        if self._probe("solver.raise"):
            raise InjectedSolverError("injected solver failure")
        if self._probe("solver.unknown"):
            return "unknown"
        if self._probe("solver.slow"):
            time.sleep(self.slow_solve_s)
        return None

    def cache_access(self):
        """Probed by cache lookups/stores; raises on corruption."""
        if self._probe("cache.corrupt"):
            raise InjectedCacheCorruption("injected cache corruption")

    def machine_probe(self):
        """Probed at machine run entry and watchdog ticks; may raise."""
        if self._probe("machine.memory"):
            raise MemoryError("injected machine memory exhaustion")
        if self._probe("machine.recursion"):
            raise RecursionError("injected machine recursion overflow")

    #: The sites :meth:`machine_probe` counts, in probe order.
    _MACHINE_SITES = ("machine.memory", "machine.recursion")

    def machine_probes_fire(self, count):
        """Would any of the next ``count`` machine probes fire a fault?"""
        return any(
            self.plan.fires(site, self.hits.get(site, 0) + ahead)
            for site in self._MACHINE_SITES
            for ahead in range(1, count + 1)
        )

    def skip_machine_probes(self, count):
        """Count ``count`` machine probes as made, without making them.

        A run resumed from a prefix snapshot passes the watchdog probes
        that prefix made; the caller has ruled out (with
        :meth:`machine_probes_fire`) that any of them fires, so the
        counters end exactly where full execution leaves them.
        """
        if count:
            for site in self._MACHINE_SITES:
                self.hits[site] = self.hits.get(site, 0) + count

    def checkpoint_write(self):
        """Probed inside ``_atomic_write``; returns a failure mode.

        None (no fault), ``"enospc"`` (fail before writing anything) or
        ``"partial"`` (fail after a truncated write — the temp file must
        be cleaned up either way).
        """
        if self._probe("persist.enospc"):
            return "enospc"
        if self._probe("persist.partial"):
            return "partial"
        return None

    def saved_checkpoint(self, path):
        """Probed after a successful checkpoint save; corrupts the file.

        ``persist.truncate`` tears the file in half; ``persist.bitflip``
        flips one byte.  Both must be caught by the loader's checksum
        and downgrade the next resume to a clean reseed.
        """
        if self._probe("persist.truncate"):
            with open(path, "r+b") as handle:
                handle.truncate(max(os.fstat(handle.fileno()).st_size // 2,
                                    1))
        if self._probe("persist.bitflip"):
            with open(path, "r+b") as handle:
                data = handle.read()
                if data:
                    middle = len(data) // 2
                    handle.seek(middle)
                    handle.write(bytes([data[middle] ^ 0x40]))

    def suite_read(self, path):
        """Probed before a suite artifact file is read; may corrupt it.

        The ``suite.bitflip`` fault flips one byte of the file —
        simulated bit rot in a stored regression suite.  The loader's
        checksum must catch the damage and quarantine the artifact
        instead of crashing the suite load.
        """
        if self._probe("suite.bitflip"):
            with open(path, "r+b") as handle:
                data = handle.read()
                if data:
                    middle = len(data) // 2
                    handle.seek(middle)
                    handle.write(bytes([data[middle] ^ 0x40]))

    def between_runs(self):
        """Probed at the between-runs boundary; may deliver SIGINT."""
        if self._probe("signal.interrupt"):
            self._deliver_signal()

    def mid_checkpoint(self):
        """Probed mid-atomic-write; may deliver SIGINT at the worst
        moment (the deferral machinery must keep the write atomic)."""
        if self._probe("signal.checkpoint"):
            self._deliver_signal()

    @staticmethod
    def _deliver_signal():
        # Real delivery through the OS so the whole handler path is
        # exercised; only meaningful (and only safe) on the main thread,
        # where the session's signal guard can observe it.
        if threading.current_thread() is threading.main_thread():
            os.kill(os.getpid(), signal.SIGINT)

    def worker_kill(self, iteration):
        """Parent-side decision: kill the worker running ``iteration``?

        Unlike the other sites this one is keyed on the global iteration
        number (worker processes cannot share a probe counter), and the
        parent ships the verdict in the work payload.  Re-dispatched
        payloads never carry the kill again — the injected crash is
        transient, which is exactly what the retry path recovers from.
        """
        if self.plan.fires("worker.kill", iteration):
            self._record("worker.kill", iteration)
            return True
        return False
