"""Parallel generational search: a persistent, pipelined worker pool.

The worklist-based strategies ("bfs" and "random") drain a frontier of
*independent* pending input vectors — each item re-executes the program
from scratch and expands its own children.  That independence makes the
frontier embarrassingly parallel: with ``DartOptions(jobs=N)``, N
long-lived worker processes consume a shared work queue of flip
candidates, solver calls overlap interpretation (one worker can be
solving while another executes), and an idle worker steals whatever
item is next in the queue — there are no generation barriers and no
per-generation pool respawn.  (The "dfs" strategy is inherently
sequential — each plan is derived from the previous run's path — and
always stays single-process.)

The pool is an executor of the session kernel in
:mod:`repro.dart.runner`: each worker runs the same execute-and-plan
step (``_Session._step``) on its own ``Dart`` of the same program, and
the parent folds every record in through the same commit
(``_Session._commit``) and the same restart loop
(``_Session.search``) as the inline executor.  What stays here is the
pool's own machinery: the dispatch window, claims, the reorder buffer,
death recovery and the wire form of a record.  Design constraints (the
full argument lives in ``docs/PARALLELISM.md``):

* **Determinism.** The dispatcher tops the pipeline up to a fixed
  window (``2*jobs``) only at drain start and after each commit, and
  results are committed strictly in dispatch order through a reorder
  buffer — so the dispatch *and* commit sequences are independent of
  worker timing.  For "bfs" the dispatch order provably equals the
  serial FIFO order (children enter the frontier at their parent's
  commit, and commits happen in dispatch order), and every item's
  undefined-slot randomization is seeded from ``(session seed, global
  iteration index)`` — a given ``(program, options)`` pair explores the
  same tree on every invocation, regardless of worker scheduling.
* **Shared solver cache.** Workers share decided solver results
  through a parent-side cache server (:mod:`repro.solver.shared`):
  identical queries are solved once pool-wide, concurrent duplicates
  wait on the first solver instead of re-solving, and a per-item local
  cache keeps the serial cache's UNSAT-superset/model-reuse tiers —
  partitioned exactly so that every worker result stays a pure
  function of its payload.
* **Per-worker fault boundary.** A worker's step runs inside the
  kernel's fault boundary (run-timeout / resource-exhausted /
  internal-error) and *returns* the failure as data.  A worker process
  dying outright (the in-process boundary
  cannot catch a segfault of the interpreter itself) is detected by
  the parent: the items the dead worker had claimed are re-dispatched
  once (``pool_retries``), a replacement worker is spawned, and only a
  *second* death on the same item quarantines it — one item is the
  blast radius, never the session.
* **Checkpoint integration.** Commits are the between-runs boundary:
  the uncommitted tail of the pipeline plus the pending frontier *is*
  the worklist, so the v2 ``SessionCheckpoint`` machinery applies
  unchanged and serial and pool sessions resume each other's
  checkpoints (``jobs`` is excluded from the options digest exactly so
  a resumed search may change its parallelism).

**Soundness.** Pipelining changes *when* independent items run, never
what each computes: a worker executes the same instrumented run and the
same child expansion the serial engine would, under the same per-item
seed, and the dispatch-order commit leaves the parent's worklist,
statistics and error set identical to a serial drain of the same
frontier (pinned differentially by ``tests/test_parallel.py`` and the
fuzzer's config-invariance oracle).  A lost run degrades honestly: it
is quarantined and ``all_linear`` cleared, so a session that lost runs
never claims Theorem 1(b) completeness.

Workers rebuild the compiled module from source once per process, keep
their own solver, and report per-item metrics-registry snapshots that
the commit folds into the session's ``RunStats`` (a deterministic merge
— see `repro.obs.metrics`).
"""

import multiprocessing
import os
import random
import signal
import time
from queue import Empty

from repro.dart import persist
from repro.dart.report import INTERNAL_ERROR, RunStats
from repro.dart.runner import Dart, _Pending, _Session, _StepRecord
from repro.faults import points as fault_points
from repro.interp.faults import RestoredFault
from repro.obs import trace as tr
from repro.obs.trace import ListSink, RingBufferSink, TraceBus
from repro.solver.shared import CacheServer, SharedCacheClient
from repro.symbolic.flags import CompletenessFlags

#: Worker processes are forked: the pool respawns workers mid-session
#: (death recovery), and fork keeps that cheap and keeps the module
#: import state consistent with the parent.
try:
    _MP = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover — non-POSIX fallback
    _MP = multiprocessing.get_context()


def _item_seed(base_seed, iteration):
    """Deterministic RNG seed for one work item (stable across jobs)."""
    return base_seed * 1_000_003 + iteration


# -- worker side --------------------------------------------------------------


def _run_item(session, client, index, payload):
    """One work item through the session kernel's execute-and-plan step.

    Each item gets fresh statistics, flags and an RNG seeded from the
    global iteration index, so the record is a pure function of the
    payload.  With tracing requested the worker runs a private bus with
    an in-memory sink and ships the raw events back; the parent
    re-emits them in commit order, so the merged stream is ordered
    run-for-run like a serial session's.  Metrics and phase timings are
    shipped as registry/timer snapshots and folded in with the
    deterministic (commutative, associative) merges.
    """
    options = session.options
    stats = session.stats = RunStats()
    stats.phases.enabled = payload["profile"]
    flags = session.flags = CompletenessFlags()
    bus = session.trace = session.dart.trace = TraceBus()
    flags.trace = bus
    sink = session.ring = None
    if payload["trace"]:
        sink = bus.attach(ListSink())
        if options.trace_ring:
            session.ring = bus.attach(RingBufferSink(options.trace_ring))
    if client is not None:
        client.begin_item()
        client.trace = bus
    session.rng = random.Random(payload["seed"])
    item = _Pending(persist._decode_stack(payload["stack"]),
                    persist._decode_im(payload["im"]), payload["bound"])
    record = session._step(item, index)
    # The wire form: stacks and input vectors as plain lists, the fault
    # as its (kind, message, location) triple.
    record.im = persist._encode_im(record.im)
    record.children = [
        (persist._encode_stack(stack), persist._encode_im(im), bound, fp)
        for stack, im, bound, fp in record.children
    ]
    fault = record.fault
    if fault is not None:
        record.fault = (fault.kind, getattr(fault, "message", str(fault)),
                        str(fault.location)
                        if fault.location is not None else None)
    record.flags = flags.snapshot()
    record.metrics = stats.registry.to_dict()
    record.phases = stats.phases.snapshot()
    record.events = sink.events if sink is not None else ()
    return record


def _from_wire(record):
    """Inverse of the wire form built by :func:`_run_item`."""
    record.im = persist._decode_im(record.im)
    record.children = [
        (persist._decode_stack(stack), persist._decode_im(im), bound, fp)
        for stack, im, bound, fp in record.children
    ]
    if record.fault is not None:
        record.fault = RestoredFault(*record.fault)
    return record


def _pool_worker(wid, spec, work_q, result_q, cache_conn):
    """One long-lived worker: claim, execute, expand, report, repeat.

    The claim message is sent *before* the item runs, over the same
    queue as the result, so the parent always learns who owns an item
    before (or together with) its outcome — the invariant the
    death-recovery sweep relies on.  ``None`` on the work queue is the
    shutdown sentinel.  A failure escaping the kernel is reported as its
    detail string, which the parent quarantines.
    """
    # Workers never inject faults themselves: under a fork start method
    # the parent's installed injector would be inherited with a *copy*
    # of its probe counters, making fault placement depend on worker
    # scheduling.  The only worker-side fault is the kill switch, which
    # the parent decides and ships in the payload.
    fault_points.uninstall()
    # Forked workers inherit the parent's signal_guard handlers, which
    # only set a flag the worker never reads — that would make SIGTERM
    # (process.terminate()) a no-op and a terminal Ctrl-C (delivered to
    # the whole foreground group) kill workers mid-item.  Reset both:
    # the parent alone handles interrupts and winds the pool down.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover — exotic platform
        pass
    source, toplevel, options, filename = spec
    try:
        # Closures are not picklable, so each worker compiles its own
        # module copy once.
        session = _Session(Dart(source, toplevel, options, filename))
    except Exception:  # pragma: no cover — broken program spec
        os._exit(4)
    # The parent owns the session deadline; a run is bounded by
    # run_time_limit alone.
    session._deadline = None
    client = SharedCacheClient(cache_conn) \
        if (cache_conn is not None and options.solver_cache) else None
    if client is not None:
        session.cache = client
    while True:
        job = work_q.get()
        if job is None:
            break
        index, payload = job
        result_q.put(("claim", wid, index))
        if payload.get("kill"):
            # Fault injection (``worker.kill``): die the way a
            # segfaulting interpreter would — no result, no exception.
            # The claim is flushed first (close + join_thread drains the
            # feeder and releases the queue's write lock) so the parent
            # can attribute the loss and other workers never deadlock.
            result_q.close()
            result_q.join_thread()
            os._exit(3)
        started = time.perf_counter()
        try:
            out = _run_item(session, client, index, payload)
        except Exception as exc:  # pragma: no cover — second layer
            out = "worker: {}: {}".format(type(exc).__name__, exc)
        busy = time.perf_counter() - started
        result_q.put(("result", wid, index, out, round(busy, 6)))


# -- parent side --------------------------------------------------------------


class _PoolEngine:
    """Drives a _Session through the persistent pipelined worker pool.

    The parent is the only scheduler: it pops items from the frontier at
    deterministic fill points, assigns each a global dispatch index (its
    eventual iteration number), and commits buffered results strictly in
    index order.  Workers race only over *which* of the already-chosen
    items each executes — never over what the search explores.
    """

    def __init__(self, session):
        self.session = session
        self.options = session.options
        self.dart = session.dart
        #: Pipeline window: enough in-flight items to keep every worker
        #: busy while the head-of-line result is awaited, small enough
        #: that a budget stop wastes little speculative work.
        self.window = max(2 * self.options.jobs, 2)
        self._work_q = None
        self._result_q = None
        self._server = None
        self._workers = {}  # wid -> Process
        self._slots = []  # wid per round-robin slot (steal nominees)
        self._next_wid = 0  # allocator when no cache server exists
        self._items = {}  # index -> _Pending, until commit
        self._payloads = {}  # index -> dispatched payload (re-dispatch)
        self._nominees = {}  # index -> nominated wid (steal accounting)
        self._claims = {}  # index -> wid of the latest claim
        self._buffer = {}  # index -> result, until its commit turn
        self._retried = set()  # indices already re-dispatched once
        self._next_dispatch = 1
        self._next_commit = 1
        self._busy_s = 0.0
        self._started_at = None

    # -- pool lifecycle -----------------------------------------------------

    def _spawn_worker(self):
        cache_conn = None
        if self._server is not None:
            wid, cache_conn = self._server.register_worker()
        else:
            wid = self._next_wid
            self._next_wid += 1
        spec = (self.dart.source, self.dart.toplevel, self.options,
                self.dart.filename)
        process = _MP.Process(
            target=_pool_worker,
            args=(wid, spec, self._work_q, self._result_q, cache_conn),
            daemon=True,
        )
        process.start()
        if cache_conn is not None:
            # The child inherited its end over the fork; drop the
            # parent's duplicate so EOF detection works.
            cache_conn.close()
        self._workers[wid] = process
        return wid

    def _start_pool(self):
        self._work_q = _MP.Queue()
        self._result_q = _MP.Queue()
        if self.options.solver_cache:
            self._server = CacheServer()
            self._server.start()
        self._started_at = time.perf_counter()
        for _ in range(self.options.jobs):
            self._slots.append(self._spawn_worker())
        if self.session.trace.enabled:
            self.session.trace.emit(tr.POOL_STARTED,
                                    jobs=self.options.jobs,
                                    window=self.window)

    def _stop_pool(self):
        if self._work_q is None:
            return  # never started: the search ended before any drain
        session = self.session
        for _ in range(len(self._workers)):
            try:
                self._work_q.put(None)
            except (OSError, ValueError):  # pragma: no cover
                break
        for process in self._workers.values():
            process.join(timeout=1.0)
        for process in self._workers.values():
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._workers.clear()
        for q in (self._work_q, self._result_q):
            q.close()
            q.cancel_join_thread()
        elapsed = time.perf_counter() - self._started_at \
            if self._started_at is not None else 0.0
        if self._server is not None:
            self._server.stop()
        if session.trace.enabled:
            budget = elapsed * max(self.options.jobs, 1)
            session.trace.emit(
                tr.POOL_STOPPED,
                dispatched=self._next_dispatch - 1,
                committed=self._next_commit - 1,
                steals=session.stats.pool_steals,
                workers_lost=session.stats.pool_workers_lost,
                utilization=round(self._busy_s / budget, 4)
                if budget > 0 else 0.0,
            )

    # -- the drain loop -----------------------------------------------------

    def run(self):
        try:
            return self.session.search(self._drain)
        finally:
            self._stop_pool()

    def _drain(self, pending):
        """The pool executor: pipeline one frontier to empty; True =
        stop-on-first-error.

        The worklist note, the autosave and the budget check happen once
        per commit, at the same session state the inline executor sees
        them (N runs committed, these remain) — so checkpoint cadence,
        the between-runs fault seam and budget truncation are
        executor-agnostic.  The pool starts on the first drain, after
        the session has resumed any checkpoint.
        """
        session = self.session
        if self._work_q is None:
            self._start_pool()
        # The pipeline is empty between drains: dispatch indices resume
        # at the next global iteration.
        self._next_dispatch = self._next_commit = \
            session.stats.iterations + 1
        while True:
            self._fill(pending)
            if self._next_commit == self._next_dispatch and not pending:
                return False  # pipeline and frontier drained
            self._note_worklist(pending)
            session._autosave()
            session._check_budget()
            index = self._next_commit
            result = self._await(index)
            self._next_commit += 1
            item = self._items.pop(index)
            self._payloads.pop(index, None)
            self._nominees.pop(index, None)
            self._claims.pop(index, None)
            self._retried.discard(index)
            session.stats.iterations += 1  # == index, by construction
            if isinstance(result, str):
                # The item was lost (its worker died twice, or the kernel
                # itself raised): quarantine it like any failed run.
                record = _StepRecord(index, bool(item.stack), item.im)
                session._quarantine(record, INTERNAL_ERROR, result)
            else:
                record = _from_wire(result)
            if session._commit(record, pending):
                return True

    def _fill(self, pending):
        """Top the pipeline up to the window (deterministic schedule).

        Called only at drain start and after each commit, and pops are
        FIFO ("bfs") or session-RNG draws ("random") — so the dispatch
        sequence is a function of the committed prefix alone, never of
        worker timing.  The kill seam is consulted here, exactly once
        per dispatch index (re-dispatches never re-probe it).
        """
        session = self.session
        options = self.options
        injector = fault_points.ACTIVE
        while pending \
                and (self._next_dispatch - self._next_commit) < self.window \
                and self._next_dispatch <= options.max_iterations:
            item = session._pop(pending)
            index = self._next_dispatch
            self._next_dispatch += 1
            payload = {
                "stack": persist._encode_stack(item.stack),
                "im": persist._encode_im(item.im),
                "bound": item.bound,
                "seed": _item_seed(options.seed, index),
                "trace": session.trace.enabled,
                "profile": session.stats.phases.enabled,
            }
            if injector is not None and injector.worker_kill(index):
                # Parent-side kill decision, keyed on the dispatch index
                # (worker processes share no probe counter); the worker
                # dies right after claiming the item.
                payload["kill"] = True
            self._items[index] = item
            self._payloads[index] = payload
            if self._slots:
                self._nominees[index] = \
                    self._slots[(index - 1) % len(self._slots)]
            self._work_q.put((index, payload))
        session.stats.pool_inflight.set(
            self._next_dispatch - self._next_commit)

    def _note_worklist(self, pending):
        """Expose the uncommitted tail + frontier to the checkpointer."""
        session = self.session
        worklist = [
            self._items[index]
            for index in range(self._next_commit, self._next_dispatch)
        ]
        worklist.extend(pending)
        session._worklist = worklist
        session.stats.worklist_depth.set(len(worklist))

    def _await(self, index):
        """Block until the head-of-line result is buffered."""
        while index not in self._buffer:
            self._pump(block=True)
            self._reap_deaths()
        return self._buffer.pop(index)

    def _pump(self, block=False):
        """Drain every available worker message into the parent state."""
        try:
            message = self._result_q.get(timeout=0.05) if block \
                else self._result_q.get_nowait()
        except Empty:
            return
        while True:
            self._on_message(message)
            try:
                message = self._result_q.get_nowait()
            except Empty:
                return

    def _on_message(self, message):
        session = self.session
        kind = message[0]
        if kind == "claim":
            _, wid, index = message
            if index < self._next_commit:
                return  # stale: a duplicate of an already-committed item
            first_claim = index not in self._claims
            self._claims[index] = wid
            nominee = self._nominees.get(index)
            if first_claim and nominee is not None and wid != nominee:
                session.stats.pool_steals += 1
                if session.trace.enabled:
                    session.trace.emit(tr.POOL_STEAL, index=index,
                                       worker=wid, nominee=nominee)
        elif kind == "result":
            _, wid, index, out, busy = message
            if index < self._next_commit or index in self._buffer:
                return  # duplicate (conservative re-dispatch): results
                # are pure functions of the payload, so dropping one of
                # two identical copies is lossless.
            self._busy_s += busy
            self._buffer[index] = out

    def _reap_deaths(self):
        """Detect dead workers; re-dispatch their claims, respawn.

        A worker flushes its claim before any injected kill, so once
        ``is_alive()`` turns False the claim is readable — messages are
        drained first, then every uncommitted, unbuffered item claimed
        by a dead worker is re-dispatched (kill flag stripped: the
        modeled crash is transient).  Unclaimed in-flight items are
        conservatively re-dispatched too — a real crash between taking
        a job and flushing the claim would otherwise strand its item —
        and the reorder buffer dedupes any resulting double execution.
        An item whose retry *also* dies is quarantined as data
        (deterministic crashes must not retry forever).
        """
        dead = [(wid, process) for wid, process in self._workers.items()
                if not process.is_alive()]
        if not dead:
            return
        session = self.session
        self._pump()
        lost = set()
        for wid, process in dead:
            process.join()
            del self._workers[wid]
            session.stats.pool_workers_lost += 1
            if self._server is not None:
                self._server.release_worker(wid)
            if session.trace.enabled:
                session.trace.emit(tr.WORKER_LOST, worker=wid,
                                   exitcode=process.exitcode)
            replacement = self._spawn_worker()
            for slot, occupant in enumerate(self._slots):
                if occupant == wid:
                    self._slots[slot] = replacement
            for index, claimant in self._claims.items():
                if claimant == wid and index >= self._next_commit \
                        and index not in self._buffer:
                    lost.add(index)
        for index in range(self._next_commit, self._next_dispatch):
            if index not in self._claims and index not in self._buffer:
                lost.add(index)
        if not lost:
            return
        session.stats.pool_retries += 1
        if session.trace.enabled:
            session.trace.emit(tr.POOL_RETRY, size=len(lost),
                               iteration=session.stats.iterations)
        for index in sorted(lost):
            if index in self._retried:
                # Second death on the same item: give it up as a
                # quarantined run at its commit turn.
                self._buffer[index] = "worker process died twice"
                continue
            self._retried.add(index)
            self._claims.pop(index, None)
            payload = dict(self._payloads[index])
            payload.pop("kill", None)
            self._payloads[index] = payload
            self._work_q.put((index, payload))

def run_parallel_generational(session):
    """Entry point used by :meth:`repro.dart.runner.Dart.run`."""
    return _PoolEngine(session).run()
