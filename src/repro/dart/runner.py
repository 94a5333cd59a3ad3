"""``run_DART`` (Fig. 2): directed search wrapped in random restarts.

The outer loop restarts with a fresh random input vector; the inner loop
runs the instrumented program and asks ``solve_path_constraint`` for the
next input vector.  Any :class:`ExecutionFault` raised by the program is a
bug, reported with the concrete input vector that triggers it — Theorem
1(a)'s soundness comes for free because the fault occurred in a real
execution.  If a directed search finishes with both completeness flags
still set, all feasible program paths have been explored (Theorem 1(b)) and
the session reports ``complete``.  A forcing mismatch (the solver's
prediction diverged at runtime) aborts the directed search and falls back
to a random restart, as described at the end of Section 2.3.

Fault containment (see DESIGN.md, "Robustness & resumability"): the
paper's architecture re-executes the instrumented *process* per run, so a
crash loses at most one execution.  This in-process reproduction gets the
same containment from a fault boundary around each run — an internal
failure (``RecursionError``, ``MemoryError``, a watchdog ``RunTimeout``,
or any harness bug escaping the machine) quarantines the triggering input
vector, degrades the completeness claim, and the search continues.  With
``DartOptions(state_file=...)`` the session additionally checkpoints its
full state (worklist, RNG, statistics, errors) so a killed session
resumes instead of restarting.
"""

import contextlib
import hashlib
import random
import signal
import time
import traceback

from repro.dart import persist
from repro.dart.config import DartOptions
from repro.dart.coverage import BranchCoverage, is_program_branch
from repro.dart.driver import DRIVER_ENTRY, build_test_program
from repro.dart.independence import coupling_classes
from repro.dart.inputs import InputVector
from repro.dart.instrument import DirectedHooks, ForcingMismatch
from repro.dart.report import (
    BUG_FOUND,
    CHECKPOINT_CORRUPT,
    COMPLETE,
    EXHAUSTED,
    INTERNAL_ERROR,
    INTERRUPTED,
    RESOURCE_EXHAUSTED,
    RUN_TIMEOUT,
    DartResult,
    ErrorReport,
    PathWitness,
    QuarantineRecord,
    RunStats,
)
from repro.dart.solve import (
    expand_worklist_children,
    solve_path_constraint,
)
from repro.faults import points as fault_points
from repro.faults.points import FaultInjector
from repro.interp.faults import ExecutionFault, RestoredFault, RunTimeout
from repro.interp.compile import CompiledProgram
from repro.interp.machine import Machine, MachineOptions
from repro.obs import trace as tr
from repro.obs.profile import CACHE as CACHE_PHASE
from repro.obs.profile import CHECKPOINT, COMPILE, EXECUTE, SOLVE
from repro.obs.trace import JsonlTraceSink, RingBufferSink, TraceBus
from repro.solver import Solver, SolverResultCache
from repro.solver.cache import ENCODING_VERSION
from repro.symbolic.flags import CompletenessFlags


class Dart:
    """A DART session for one program and one toplevel function."""

    def __init__(self, source, toplevel, options=None, filename="<program>"):
        self.options = options or DartOptions()
        self.toplevel = toplevel
        #: Kept so the parallel engine can rebuild the module per worker.
        self.source = source
        self.filename = filename
        self.module = build_test_program(
            source, toplevel, depth=self.options.depth, filename=filename,
            max_init_depth=self.options.max_init_depth,
        )
        self.solver = Solver(
            seed=self.options.seed,
            node_budget=self.options.solver_node_budget,
        )
        #: Session-lifetime solver result cache (None when disabled).
        self.solver_cache = SolverResultCache() \
            if self.options.solver_cache else None
        #: The compiled execution engine (repro.interp.compile), shared by
        #: every machine this session creates — functions are lowered once
        #: and the closures are reused across runs.  None selects the
        #: tree-walking interpreter (``--no-compile`` ablation).
        self.compiled = CompiledProgram(self.module) \
            if self.options.compiled_execution else None
        #: Input coupling classes for the worklist-dedup eligibility
        #: gate (None — analysis latched or subsumption off — means no
        #: entry is ever deduped; the UNSAT-core tier is independent).
        self.independence = coupling_classes(
            source, toplevel, self.options.depth, filename=filename,
        ) if self.options.subsumption else None
        #: The structured trace bus (repro.obs.trace).  Disabled — and
        #: free — until run() attaches a sink (``trace_file``), or a
        #: caller attaches one programmatically before run().
        self.trace = TraceBus()
        if self.solver_cache is not None:
            self.solver_cache.trace = self.trace
        #: Identifies (program, toplevel, search configuration, constraint
        #: encoding) so a checkpoint written by a different session — or
        #: by the same session under an older constraint encoding, whose
        #: recorded ``done`` verdicts and models may be stale — is
        #: rejected and its branches re-solved.
        self.fingerprint = {
            "source": hashlib.sha256(source.encode()).hexdigest(),
            "toplevel": toplevel,
            "options": self.options.digest(),
            "encoding": ENCODING_VERSION,
        }

    # -- the paper's Fig. 2 -------------------------------------------------

    def run(self):
        """Execute the run_DART loop; returns a :class:`DartResult`.

        The default "dfs" strategy is the paper's Fig. 5 single-stack
        depth-first search.  The "bfs" and "random" strategies (footnote 4)
        use a *generational worklist* instead: after each run, every newly
        discovered flippable branch spawns a pending input vector, and the
        frontier is drained in FIFO or random order.  (A plain reordering
        of Fig. 5's single stack would silently discard unexplored deep
        branches whenever a shallow one is flipped; the worklist keeps the
        alternative orders sound and complete.)
        """
        jsonl = None
        if self.options.trace_file is not None:
            jsonl = self.trace.attach(JsonlTraceSink(self.options.trace_file))
        # Fault injection: install the options' plan unless a harness
        # (the chaos driver) already installed an injector — its probe
        # counters must survive across resumed sessions so each
        # scheduled fault fires exactly once per schedule.
        owned_injector = None
        if self.options.fault_plan and fault_points.ACTIVE is None:
            owned_injector = fault_points.install(
                FaultInjector(self.options.fault_plan))
        session = _Session(self)
        if self.trace.enabled:
            self.trace.emit(
                tr.SESSION_STARTED, toplevel=self.toplevel,
                strategy=self.options.strategy, seed=self.options.seed,
                depth=self.options.depth, jobs=self.options.jobs,
            )
        result = None
        try:
            with session.signal_guard():
                if self.options.strategy != "dfs" and self.options.jobs > 1:
                    # Imported lazily: multiprocessing machinery is only
                    # paid for by sessions that ask for it.  (dfs is
                    # inherently sequential — each plan depends on the
                    # previous run's path — so it ignores jobs.)
                    from repro.dart.parallel import (
                        run_parallel_generational,
                    )
                    result = run_parallel_generational(session)
                else:
                    result = session.search(session.drain_inline)
            if self.options.export_suite is not None:
                # Export before the sinks detach, so the suite_exported
                # and artifact_deduped events reach the live trace and
                # the counters land in this session's stats.  An
                # interrupted or exhausted campaign exports what it
                # found — that is the point of doing it here.
                from repro.suite import export_suite
                export_suite(self, result, self.options.export_suite)
            return result
        finally:
            session.stats.finish()
            if self.trace.enabled:
                coverage = result.coverage if result is not None else None
                # Which engine ran the search: "dfs" (Fig. 5), "pool"
                # (the persistent worker pool) or "serial" (the
                # single-process worklist drain).  jobs stays out of the
                # checkpoint digest, so the trace is the only place a
                # run's parallelism is attributable after the fact.
                if self.options.strategy == "dfs":
                    engine = "dfs"
                elif self.options.jobs > 1:
                    engine = "pool"
                else:
                    engine = "serial"
                self.trace.emit(
                    tr.SESSION_FINISHED,
                    status=result.status if result is not None else "error",
                    engine=engine,
                    iterations=session.stats.iterations,
                    wall_s=round(session.stats.elapsed, 6),
                    **({"coverage": {
                        "covered_directions": coverage.covered_directions,
                        "total_directions": coverage.total_directions,
                        "percent": round(coverage.percent, 2),
                        "total_branches": coverage.total_branches,
                        "branches_both_arms": coverage.branches_both_arms,
                        "c1_percent": round(coverage.c1_percent, 2),
                    }} if coverage is not None else {}),
                )
                self.trace.flush()
            session.detach_sinks()
            if owned_injector is not None:
                fault_points.uninstall()
            elif fault_points.ACTIVE is not None:
                # A harness-owned injector outlives the session; drop the
                # references to this session's bus and stats.
                fault_points.ACTIVE.bind(None, None)
            if jsonl is not None:
                self.trace.detach(jsonl)
                jsonl.close()

    def _machine(self, hooks, flags, deadline=None, interrupt_check=None):
        machine_options = MachineOptions(
            max_steps=self.options.max_steps,
            transparent_memory=self.options.transparent_memory,
            memory=self.options.memory_options(),
            deadline=deadline,
            watchdog_interval=self.options.watchdog_interval,
            interrupt_check=interrupt_check,
            trace=self.trace,
        )
        return Machine(self.module, machine_options, hooks, flags,
                       compiled=self.compiled)

    # -- replay -----------------------------------------------------------

    def replay(self, inputs, kinds=None):
        """Re-execute the program on a recorded input vector.

        Useful for confirming a reported error independently of the
        search.  ``inputs`` is either an :class:`ErrorReport` (preferred —
        it carries the input kinds, so pointer-choice slots are rebuilt
        with the right domains) or a raw value list, optionally with an
        aligned ``kinds`` list.  Returns the fault raised, or None if the
        run completes.
        """
        if isinstance(inputs, ErrorReport):
            kinds = inputs.kinds
            inputs = inputs.inputs
        im = InputVector()
        for ordinal, value in enumerate(inputs):
            kind = kinds[ordinal] if kinds is not None \
                and ordinal < len(kinds) else "int"
            im.record(ordinal, kind, value)

        class _ReplayHooks(DirectedHooks):
            def acquire_input(self, kind):
                ordinal = self._next_ordinal
                self._next_ordinal += 1
                if ordinal < len(self.im):
                    return self.im[ordinal].value, None
                return 0, None

            def on_branch(self, taken, constraint, location):
                pass

        hooks = _ReplayHooks(
            im, [], CompletenessFlags(), random.Random(0), self.options
        )
        machine = self._machine(hooks, CompletenessFlags())
        try:
            machine.run(DRIVER_ENTRY)
        except ExecutionFault as fault:
            return fault
        return None




class _BudgetReached(Exception):
    """Internal control flow: iteration or time budget exhausted."""


class _RunInterrupted(Exception):
    """Internal control flow: a signal arrived mid-run; abandon the run."""


class _Pending:
    """A worklist item of the generational search."""

    __slots__ = ("stack", "im", "bound")

    def __init__(self, stack, im, bound):
        self.stack = stack
        self.im = im
        #: First branch index this item is allowed to expand (its parent
        #: already enumerated everything shallower).
        self.bound = bound


#: Outcomes of one step (the ``run_finished`` event's ``status`` values).
_OK, _FAULT, _MISMATCH, _QUARANTINED = \
    "ok", "fault", "mismatch", "quarantined"


class _StepRecord:
    """What one execute-and-plan step produced: the commit's only input.

    ``path`` is set exactly when the run completed (``ok`` or
    ``fault``); ``children`` holds the planner's ``(stack, im, bound,
    fingerprint)`` successors.  The inline executor leaves the last four
    fields None — its counters, flags and events went to the live
    session as they happened.  A pool worker fills them with its own
    per-item flags, metrics and phase snapshots and buffered events,
    which the commit folds in.
    """

    __slots__ = ("iteration", "planned", "im", "status", "fault",
                 "quarantine", "path", "covered", "children", "flags",
                 "metrics", "phases", "events")

    def __init__(self, iteration, planned, im):
        self.iteration = iteration
        self.planned = planned
        self.im = im
        self.status = _OK
        self.fault = None
        self.quarantine = None
        self.path = None
        self.covered = ()
        self.children = ()
        self.flags = None
        self.metrics = None
        self.phases = None
        self.events = None


def _failure_detail(exc):
    """Exception type, message and innermost frame, for a quarantine."""
    detail = "{}: {}".format(type(exc).__name__, exc)
    tb = traceback.extract_tb(exc.__traceback__)
    if tb:
        frame = tb[-1]
        detail += " [{}:{} in {}]".format(
            frame.filename.rsplit("/", 1)[-1], frame.lineno, frame.name
        )
    return detail


class _Session:
    """One run() invocation's mutable state, shared by both engines."""

    def __init__(self, dart):
        self.dart = dart
        self.options = dart.options
        self.cache = dart.solver_cache
        self.trace = dart.trace
        #: Flight recorder: with tracing active, the last ``trace_ring``
        #: events, snapshotted into quarantine records.  Attached only
        #: when another sink already enabled the bus, so the ring alone
        #: never turns tracing on.
        self.ring = None
        if self.trace.enabled and self.options.trace_ring:
            self.ring = self.trace.attach(
                RingBufferSink(self.options.trace_ring))
        self.flags = CompletenessFlags()
        self.flags.trace = self.trace
        self.stats = RunStats()
        self.stats.phases.enabled = self.options.profile_phases
        #: compile_seconds high-water mark already attributed to the
        #: compile phase (the compiled program outlives the session).
        self._compile_seconds_seen = (
            dart.compiled.compile_seconds if dart.compiled is not None
            else 0.0
        )
        if fault_points.ACTIVE is not None:
            # Injected faults count into this session's statistics and
            # trace stream (a harness-owned injector is re-bound per
            # resumed session).
            fault_points.ACTIVE.bind(self.trace, self.stats)
        self.errors = []
        self._seen_error_keys = set()
        #: PathWitness list: distinct (path, error-class) executions,
        #: retained when witness collection is on (collect_witnesses or
        #: an export_suite destination) — the exporter's raw material.
        self.witnesses = []
        self._witnessed = set()
        self._collect_witnesses = (
            self.options.collect_witnesses
            or self.options.export_suite is not None
        )
        self.rng = random.Random(self.options.seed)
        self.status = EXHAUSTED
        self.resumed = False
        self._deadline = None
        if self.options.time_limit is not None:
            self._deadline = time.perf_counter() + self.options.time_limit
        self._interrupted = False
        #: True when the session exited through the truncation path
        #: (budget / deadline / signal): the search is unfinished and a
        #: checkpoint was saved.
        self._truncated = False
        self._engine = "dfs" if self.options.strategy == "dfs" \
            else "generational"
        #: The live frontier (mutated in place).  Under dfs it holds at
        #: most one item: the plan the next run will execute.
        self._worklist = []
        self._clean_drain = True
        #: generational: (fingerprint, error salt) keys of every child
        #: enqueued this drain — the worklist-dedup seen set (reset on
        #: random restart, checkpointed so a resume keeps deduping).
        self._dedup_seen = set()

    # -- graceful interruption ----------------------------------------------

    @contextlib.contextmanager
    def signal_guard(self):
        """Install SIGINT/SIGTERM handlers for the session's duration.

        A caught signal sets a flag that the budget check (between runs)
        and the machine watchdog (mid-run, amortized) both observe: the
        session checkpoints and returns a partial ``interrupted`` result
        instead of dying with a traceback.  Only active when the options
        ask for it, and silently skipped off the main thread (where
        ``signal.signal`` is unavailable).
        """
        if not self.options.handle_signals:
            yield
            return
        previous = {}

        def _handler(signum, frame):
            self._interrupted = True

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, _handler)
            except ValueError:  # not the main thread
                break
        try:
            yield
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def _interrupt_probe(self):
        """Called by the machine watchdog; aborts the run on a signal."""
        if self._interrupted:
            raise _RunInterrupted()

    def detach_sinks(self):
        """Drop the session's ring sink from the shared bus (run() end)."""
        if self.ring is not None:
            self.trace.detach(self.ring)
            self.ring = None

    # -- shared plumbing ----------------------------------------------------

    def _check_budget(self):
        if self._interrupted:
            raise _BudgetReached()
        if self.stats.iterations >= self.options.max_iterations:
            raise _BudgetReached()
        if self._deadline is not None \
                and time.perf_counter() > self._deadline:
            raise _BudgetReached()

    def _run_deadline(self):
        """The wall-clock deadline for the next run, or None.

        The tighter of the per-run limit and the session deadline — so a
        single pathological run can no longer blow past ``time_limit``;
        the watchdog trips at most one check interval late.
        """
        deadline = None
        if self.options.run_time_limit is not None:
            deadline = time.perf_counter() + self.options.run_time_limit
        if self._deadline is not None \
                and (deadline is None or self._deadline < deadline):
            deadline = self._deadline
        return deadline

    # -- the step kernel: execute and plan, then commit ----------------------

    def _step(self, item, iteration):
        """Execute one item inside the fault boundary, then plan from it.

        Program faults (:class:`ExecutionFault`) are *results* — real
        bugs found by a real execution.  Everything else escaping the
        machine is an internal failure: it is classified, the input
        vector is quarantined, the completeness claim is degraded, and
        the search continues — one bad run costs one iteration, not the
        session.  Signals (KeyboardInterrupt, SystemExit) still
        propagate.

        A completed run is then planned: ``solve_path_constraint``
        yields at most one successor under dfs (Fig. 5),
        ``expand_worklist_children`` one per newly flippable branch
        otherwise.  A fault that stops the session is not planned.
        Returns the :class:`_StepRecord` for :meth:`_commit`.
        """
        options = self.options
        stats = self.stats
        trace = self.trace
        im = item.im
        record = _StepRecord(iteration, bool(item.stack), im)
        # The execute window covers per-run setup (hooks, machine) as
        # well as the run itself: both are per-execution costs.
        started = time.perf_counter()
        hooks = DirectedHooks(im, item.stack, self.flags, self.rng, options)
        machine = self.dart._machine(
            hooks, self.flags, deadline=self._run_deadline(),
            interrupt_check=self._interrupt_probe
            if options.handle_signals else None,
        )
        if trace.enabled:
            trace.emit(tr.RUN_STARTED, iteration=iteration,
                       planned=record.planned)
        try:
            machine.run(DRIVER_ENTRY)
        except ForcingMismatch:
            record.status = _MISMATCH
            stats.forcing_failures += 1
            if trace.enabled:
                trace.emit(tr.FORCING_MISMATCH, iteration=iteration)
        except ExecutionFault as caught:
            record.status = _FAULT
            record.fault = caught
        except _RunInterrupted:
            # A signal arrived mid-run: abandon the partial run quietly;
            # the budget check right after will checkpoint and return.
            record.status = _QUARANTINED
        except RunTimeout as caught:
            self._quarantine(record, RUN_TIMEOUT, _failure_detail(caught))
        except (RecursionError, MemoryError) as caught:
            self._quarantine(record, RESOURCE_EXHAUSTED,
                             _failure_detail(caught))
        except Exception as caught:  # noqa: BLE001 — the fault boundary
            self._quarantine(record, INTERNAL_ERROR, _failure_detail(caught))
        stats.branches_executed += machine.branches_executed
        stats.instructions_executed += machine.steps
        stats.instructions_symbolic += machine.symbolic_steps
        stats.conjuncts_widened += machine.widener.widened
        stats.conjuncts_dropped_unfaithful += machine.widener.dropped
        record.covered = machine.covered_branches
        completed = record.status in (_OK, _FAULT)
        new_path = False
        if completed:
            record.path = hooks.record.path_key()
            # Only a peek: the commit notes the path.  (A pool worker's
            # answer is patched there, against the session's paths.)
            new_path = record.path not in stats.distinct_paths
            stats.path_length.observe(machine.branches_executed)
            if record.planned:
                # The predicted prefix was reached and the run finished:
                # the flip was successfully forced (funnel stage 3).
                stats.runs_forced += 1
        wall = time.perf_counter() - started
        # IR lowering happens lazily inside the run window (first call of
        # each function); carve it out of execute so both the phase
        # profile and the trace attribute compilation honestly.
        compiled = self.dart.compiled
        compile_delta = 0.0
        if compiled is not None:
            compile_delta = \
                compiled.compile_seconds - self._compile_seconds_seen
            self._compile_seconds_seen = compiled.compile_seconds
            if compile_delta > 0.0:
                wall = max(wall - compile_delta, 0.0)
                if trace.enabled:
                    trace.emit(tr.COMPILE, wall_s=round(compile_delta, 6),
                               functions=compiled.functions_compiled)
        if stats.phases.enabled:
            if compile_delta > 0.0:
                stats.phases.add(COMPILE, compile_delta)
            stats.phases.add(EXECUTE, wall)
        if trace.enabled:
            trace.emit(
                tr.RUN_FINISHED, iteration=iteration, status=record.status,
                planned=record.planned, new_path=new_path,
                wall_s=round(wall, 6), steps=machine.steps,
                branches=machine.branches_executed,
            )
        if completed and not (record.fault is not None
                              and options.stop_on_first_error):
            record.children = self._plan(hooks, item, iteration)
        return record

    def _quarantine(self, record, classification, detail):
        """Contain an internal failure: record it and degrade honestly.

        Mirroring the paper's ``forcing_ok`` degradation, the ``all
        linear`` completeness flag is cleared — a path this session could
        not finish executing is a path it cannot claim to have covered,
        so Theorem 1(b) verdicts stay sound.
        """
        self.flags.clear_linear()
        im = record.im
        record.status = _QUARANTINED
        record.quarantine = QuarantineRecord(
            classification, im.values(), [slot.kind for slot in im],
            record.iteration, detail,
            trace_tail=self.ring.tail() if self.ring is not None else None,
        )
        if self.trace.enabled:
            self.trace.emit(tr.QUARANTINE, classification=classification,
                            iteration=record.iteration, detail=detail)

    def _plan(self, hooks, item, iteration):
        """Run the strategy's planner with phase attribution.

        The whole call — slicing, query building, cache, solver — is one
        ``plan`` trace event; for the phase timer its wall minus the
        cache sections recorded inside goes to ``solve``, keeping the
        phases disjoint.  Returns ``(stack, im, bound, fingerprint)``
        successors.
        """
        options = self.options
        phases = self.stats.phases
        trace = self.trace
        timed = phases.enabled or trace.enabled
        if timed:
            cache_before = phases.seconds.get(CACHE_PHASE, 0.0)
            started = time.perf_counter()
        if options.strategy == "dfs":
            plan = solve_path_constraint(
                hooks.record, hooks.finished_stack(), item.im,
                self.dart.solver, "dfs", self.rng, self.flags, self.stats,
                escalation=options.solver_escalation, cache=self.cache,
                slicing=options.constraint_slicing, trace=trace,
                subsume=options.subsumption,
            )
            children = [(plan.stack, plan.im, 0, None)] \
                if plan is not None else ()
        else:
            children = expand_worklist_children(
                hooks.finished_stack(), hooks.record.constraints, item.im,
                item.bound, self.dart.solver, self.flags, self.stats,
                options.solver_escalation, cache=self.cache,
                slicing=options.constraint_slicing, trace=trace,
                subsume=options.subsumption,
                independence=self.dart.independence,
            )
        if timed:
            wall = time.perf_counter() - started
            if phases.enabled:
                cache_delta = \
                    phases.seconds.get(CACHE_PHASE, 0.0) - cache_before
                phases.add(SOLVE, max(wall - cache_delta, 0.0))
            if trace.enabled:
                trace.emit(tr.PLAN, iteration=iteration,
                           wall_s=round(wall, 6))
        return children

    def _commit(self, record, pending):
        """Fold one step record into the session; True = stop the search.

        Both executors commit in iteration order: completeness flags,
        counters and coverage, the path note, the worker's events, the
        witness, the successors (through the worklist dedup) and the
        error report.  A mismatched or quarantined run only taints this
        drain's completeness; its item is dropped.
        """
        stats = self.stats
        flags = self.flags
        if record.flags is not None:
            all_linear, all_locs, _forcing, all_faithful = record.flags
            if not all_linear:
                flags.clear_linear()
            if not all_locs:
                flags.clear_locs()
            if not all_faithful:
                flags.clear_faithful()
        if record.metrics is not None:
            # Deterministic instrument merge: counters add, gauges max,
            # histograms add elementwise; commit order makes it stable,
            # commutativity makes it independent of worker scheduling.
            stats.registry.merge(record.metrics)
            if record.phases:
                stats.phases.merge(record.phases)
        stats.covered_branches.update(record.covered)
        if record.path is None:
            if record.status == _MISMATCH:
                # The hooks cleared forcing_ok to abort the run; the
                # invariant guarantees a completeness flag was already
                # cleared, so restore it and drop the stale item.
                flags.forcing_ok = True
            if record.quarantine is not None:
                stats.quarantined.append(record.quarantine)
            self._clean_drain = False
            self._forward(record.events, False)
            return False
        self._forward(record.events, stats.note_path(record.path))
        fault = record.fault
        # The recorded-error salt: children of error-differing runs
        # never collapse in the worklist dedup.
        error_key = (fault.kind, str(fault.location)) \
            if fault is not None else None
        if self._collect_witnesses:
            self._witness(record, error_key)
        pending.extend(
            _Pending(stack, im, bound) for stack, im, bound
            in self._admit_children(record.children, error_key)
        )
        if fault is None:
            return False
        self.status = BUG_FOUND
        if error_key not in self._seen_error_keys:
            self._seen_error_keys.add(error_key)
            im = record.im
            self.errors.append(ErrorReport(
                fault, im.values(), record.iteration, record.path,
                kinds=[slot.kind for slot in im],
            ))
        return self.options.stop_on_first_error

    def _forward(self, events, new_path):
        """Re-emit a pool worker's buffered events on the session bus,
        patching in what only the commit knows: whether the run's path
        was new to the session."""
        if not events or not self.trace.enabled:
            return
        for event in events:
            if event["type"] == tr.RUN_FINISHED:
                event = dict(event, new_path=new_path)
            self.trace.forward(event)

    def _witness(self, record, error_key):
        """Retain this run for suite export if it is worth keeping.

        Keyed by (path signature, error class): the first run of every
        distinct path is kept, and an *error* run is kept even when its
        branch path was already seen ok (a division fault and the clean
        run share the same branch bits — the error class tells them
        apart).  Only program-function coverage is stored; driver
        scaffolding is not part of the replay contract.
        """
        witness_key = (record.path, error_key)
        if witness_key in self._witnessed:
            return
        self._witnessed.add(witness_key)
        fault = record.fault
        error = None
        if fault is not None:
            error = {
                "kind": fault.kind,
                "message": getattr(fault, "message", str(fault)),
                "location": str(fault.location)
                if fault.location is not None else None,
            }
        im = record.im
        self.witnesses.append(PathWitness(
            im.values(), [slot.kind for slot in im], record.path,
            {entry for entry in record.covered if is_program_branch(entry)},
            error=error, iteration=record.iteration,
        ))
        self.stats.witnesses_recorded += 1

    def _result(self):
        # A signal that truncated the search wins over a sticky
        # BUG_FOUND from an earlier error: the session is unfinished and
        # resumable, and callers (the CLI's exit 130, the chaos
        # harness's resume loop) must be able to tell.  A signal that
        # arrived but did *not* cut the search short (the stop-on-first
        # early return, a clean drain) changes nothing.
        if self._interrupted and (self._truncated
                                  or self.status == EXHAUSTED):
            self.status = INTERRUPTED
        coverage = BranchCoverage(self.dart.module,
                                  self.stats.covered_branches)
        # Surface the rollup through the stats summary too, so JSON
        # reports built from RunStats alone carry the C1 numbers.
        self.stats.coverage = coverage.to_dict()
        return DartResult(
            self.status, self.errors, self.stats, self.flags.snapshot(),
            coverage=coverage,
            resumed=self.resumed,
            witnesses=self.witnesses,
        )

    def _finished_complete(self):
        if self.flags.complete:
            if not self.errors:
                self.status = COMPLETE
            return True
        return False

    # -- checkpointing -------------------------------------------------------

    def _make_checkpoint(self):
        checkpoint = persist.SessionCheckpoint(
            fingerprint=self.dart.fingerprint,
            engine=self._engine,
            rng_state=self.rng.getstate(),
            flags=self.flags.snapshot(),
            counters={name: getattr(self.stats, name)
                      for name in RunStats.COUNTERS},
            distinct_paths=sorted(self.stats.distinct_paths),
            covered_branches=sorted(self.stats.covered_branches),
            errors=[error.to_dict() for error in self.errors],
            quarantined=[record.to_dict()
                         for record in self.stats.quarantined],
            clean_drain=self._clean_drain,
            witnesses=[witness.to_dict() for witness in self.witnesses],
        )
        if self._engine == "dfs":
            head = self._worklist[0]
            checkpoint.dfs_pending = (head.stack, head.im)
        else:
            checkpoint.worklist = [
                (item.stack, item.im, item.bound) for item in self._worklist
            ]
            checkpoint.dedup_seen = sorted(self._dedup_seen, key=repr)
        return checkpoint

    def _save_checkpoint(self):
        if self.options.state_file is None:
            return
        started = time.perf_counter()
        try:
            persist.save_checkpoint(self.options.state_file,
                                    self._make_checkpoint())
        except OSError as exc:
            # A failed write (ENOSPC, permissions, torn disk) costs
            # durability, never the session: the previous checkpoint —
            # if any — is still intact on disk (the write is atomic),
            # the search continues, and the failure is counted and
            # traced so it cannot pass silently.
            self.stats.checkpoint_failures += 1
            if self.trace.enabled:
                self.trace.emit(tr.CHECKPOINT_FAILED,
                                iteration=self.stats.iterations,
                                error=type(exc).__name__,
                                detail=str(exc)[:200])
            return
        wall = time.perf_counter() - started
        if self.stats.phases.enabled:
            self.stats.phases.add(CHECKPOINT, wall)
        if self.trace.enabled:
            self.trace.emit(tr.CHECKPOINT,
                            iteration=self.stats.iterations,
                            wall_s=round(wall, 6))

    def _autosave(self):
        """Periodic checkpoint at the between-runs boundary.

        Called at the top of each engine's run loop, where the session
        state (worklist, RNG, counters) is consistent: the checkpoint
        describes exactly "N runs done, these remain".
        """
        injector = fault_points.ACTIVE
        if injector is not None:
            # Fault seam: deliver a real SIGINT at the between-runs
            # boundary — the signal guard must turn it into a clean
            # checkpoint-and-return, never a traceback.
            injector.between_runs()
        every = self.options.checkpoint_every
        if self.options.state_file is None or not every:
            return
        if self.stats.iterations and self.stats.iterations % every == 0:
            self._save_checkpoint()

    def _restore(self, checkpoint):
        """Adopt a validated checkpoint's state; returns the work to do."""
        self.rng.setstate(checkpoint.rng_state)
        (self.flags.all_linear, self.flags.all_locs_definite,
         self.flags.forcing_ok) = checkpoint.flags[:3]
        # Checkpoints written before the widening layer carry the flag
        # triple; all_faithful then stays at its True reset value (their
        # fingerprint predates the "encoding" field, so in practice they
        # are rejected upstream anyway).
        if len(checkpoint.flags) > 3:
            self.flags.all_faithful = checkpoint.flags[3]
        for name in RunStats.COUNTERS:
            setattr(self.stats, name, checkpoint.counters.get(name, 0))
        self.stats.distinct_paths = {
            tuple(path) for path in checkpoint.distinct_paths
        }
        self.stats.covered_branches = set(checkpoint.covered_branches)
        self.stats.quarantined = [
            QuarantineRecord.from_dict(payload)
            for payload in checkpoint.quarantined
        ]
        for payload in checkpoint.errors:
            fault = RestoredFault(payload["kind"], payload["message"],
                                  payload["location"])
            self._seen_error_keys.add((fault.kind, str(fault.location)))
            self.errors.append(ErrorReport(
                fault, payload["inputs"], payload["iteration"],
                tuple(payload["path"]) if payload["path"] is not None
                else None,
                kinds=payload["kinds"],
            ))
        if self.errors:
            self.status = BUG_FOUND
        for payload in checkpoint.witnesses:
            witness = PathWitness.from_dict(payload)
            self._witnessed.add((witness.path, witness.error_key))
            self.witnesses.append(witness)
        self.resumed = True
        self._clean_drain = checkpoint.clean_drain
        self._dedup_seen = set(checkpoint.dedup_seen)

    def _resume(self):
        """Load this session's checkpoint, if a valid one exists.

        A missing, version-mismatched or — most importantly —
        *fingerprint*-mismatched checkpoint (different program, toplevel
        or search configuration) yields None and the search starts
        cleanly from scratch, never silently replaying stale state.

        A **corrupt** checkpoint (the file exists but is torn, bit-rotted
        or structurally broken) also reseeds cleanly, but not silently:
        prior search state was *lost*, so the session records a
        quarantine-style ``checkpoint-corrupt`` entry and degrades its
        completeness claim — a reseeded session cannot know what the
        lost state had already covered, so it must never report
        ``complete``.
        """
        path = self.options.state_file
        if path is None:
            return None
        checkpoint, reason = persist.load_checkpoint_ex(
            path, self.dart.fingerprint)
        if checkpoint is not None and checkpoint.engine == self._engine:
            self._restore(checkpoint)
            return checkpoint
        if reason == "corrupt":
            self._reject_checkpoint(path)
            return None
        if checkpoint is not None:
            # Valid checkpoint for the other engine: legitimate mismatch,
            # restart cleanly without touching it further.
            return None
        if self._engine == "dfs":
            # Compatibility: a v1 (stack, im) file — the paper's literal
            # "stack kept in a file" — still seeds the directed search.
            legacy = persist.load_state(path)
            if legacy is not None:
                checkpoint = persist.SessionCheckpoint(
                    fingerprint=self.dart.fingerprint, engine="dfs",
                    rng_state=self.rng.getstate(),
                    flags=self.flags.snapshot(), counters={},
                    distinct_paths=[], covered_branches=[], errors=[],
                    quarantined=[], dfs_pending=legacy,
                )
                self.resumed = True
                return checkpoint
        return None

    def _reject_checkpoint(self, path):
        """Contain a corrupt checkpoint: count, record, degrade, reseed.

        Mirrors :meth:`_quarantine` for state loss instead of run loss:
        the session continues from scratch, but the lost coverage makes
        any completeness claim unsound, so ``all_linear`` is cleared and
        a ``checkpoint-corrupt`` record preserves the evidence.
        """
        self.stats.checkpoints_rejected += 1
        self.flags.clear_linear()
        detail = ("checkpoint {} failed validation (torn, bit-rotted or "
                  "structurally broken); reseeding from scratch".format(path))
        trace_tail = self.ring.tail() if self.ring is not None else None
        self.stats.quarantined.append(QuarantineRecord(
            CHECKPOINT_CORRUPT, [], [], self.stats.iterations, detail,
            trace_tail=trace_tail,
        ))
        if self.trace.enabled:
            self.trace.emit(tr.CHECKPOINT_REJECTED, detail=detail)

    def _clear_checkpoint(self):
        if self.options.state_file is not None:
            persist.clear_state(self.options.state_file)

    # -- the paper's Fig. 2: one restart loop for every strategy -----------

    def search(self, drain):
        """Random restarts around frontier drains; returns the result.

        ``drain(pending)`` is an executor: it runs the frontier to empty
        through :meth:`_step` and :meth:`_commit` and returns True when a
        found error stops the session.  Each restart seeds a fresh
        random input vector.  Under dfs the frontier holds at most one
        item, so a mismatch or quarantine empties it and forces a
        restart (Section 2.3); the bfs and random strategies (footnote
        4) drain a *generational worklist* instead — every newly
        discovered flippable branch spawns a pending input vector — so
        they stay sound and complete where a plain reordering of Fig.
        5's single stack would silently discard deep branches.  A clean
        drain with every completeness flag intact ends the search
        ``complete`` (Theorem 1(b)).
        """
        checkpoint = self._resume()
        pending = None
        if checkpoint is not None:
            if checkpoint.dfs_pending is not None:
                stack, im = checkpoint.dfs_pending
                pending = [_Pending(stack, im, 0)]
            elif checkpoint.worklist is not None:
                pending = [_Pending(stack, im, bound)
                           for stack, im, bound in checkpoint.worklist]
        try:
            while True:
                if pending is None:
                    pending = [_Pending([], InputVector(), 0)]
                    self._clean_drain = True
                    self._dedup_seen = set()
                if drain(pending) or (self._clean_drain
                                      and self._finished_complete()):
                    self._clear_checkpoint()
                    return self._result()
                self.stats.random_restarts += 1
                pending = None
        except _BudgetReached:
            # §2.3: the stack is "kept in a file between executions" —
            # checkpoint the pending work so the search resumes later.
            self._truncated = True
            self._save_checkpoint()
            return self._result()

    def drain_inline(self, pending):
        """The inline executor: run a frontier to empty in-process.

        Steps run against the live statistics, flags and trace bus and
        draw from the session RNG; each item is popped only after the
        budget check, so a checkpoint taken there still holds it.
        """
        stats = self.stats
        self._worklist = pending
        stats.worklist_depth.set(len(pending))
        while pending:
            self._autosave()
            self._check_budget()
            item = self._pop(pending)
            stats.worklist_depth.set(len(pending))
            stats.iterations += 1
            if self._commit(self._step(item, stats.iterations), pending):
                return True
            stats.worklist_depth.set(len(pending))
        return False

    def _pop(self, pending):
        if self.options.strategy == "random":
            return pending.pop(self.rng.randrange(len(pending)))
        return pending.pop(0)

    def _admit_children(self, children, salt):
        """Insert-time worklist dedup (the subsumption layer's half two).

        Yields the ``(stack, im, bound)`` of every child to enqueue and
        drops the rest: a child is dropped when an entry with the same
        future fingerprint *and* the same recorded-error salt was
        already enqueued this drain — entries differing in recorded
        errors are never deduped (``salt`` is the parent run's error
        key, or None).  Dedup only fires while the session is fully
        modeled (every completeness flag intact): after any degradation
        a fingerprint can no longer claim two futures equivalent, so
        everything is admitted.  Dropped children are counted
        (``worklist_deduped``) and traced (``worklist_dedup``).
        """
        flags = self.flags
        dedup_ok = (flags.all_linear and flags.all_faithful
                    and flags.all_locs_definite)
        seen = self._dedup_seen
        for stack, im, bound, fp in children:
            if fp is not None and dedup_ok:
                key = (fp, salt)
                if key in seen:
                    self.stats.worklist_deduped += 1
                    if self.trace.enabled:
                        self.trace.emit(tr.WORKLIST_DEDUP, bound=bound)
                    continue
                seen.add(key)
            yield stack, im, bound


def dart_check(source, toplevel, options=None, **option_kwargs):
    """One-call DART: build the driver, run the search, return the result.

    Either pass a :class:`DartOptions` or keyword overrides, e.g.::

        result = dart_check(source, "h", depth=2, max_iterations=500)
    """
    if options is None:
        options = DartOptions(**option_kwargs)
    elif option_kwargs:
        raise ValueError("pass either options or keyword overrides, not both")
    return Dart(source, toplevel, options).run()
