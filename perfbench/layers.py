"""The traced run: spans around the public calls into each layer.

Spans are recorded from outside the program.  :func:`install` replaces
each boundary in the table below with a timing wrapper, rebinding a
module-level function at every ``repro`` module that imported it (for
example ``tokenize`` is bound in ``repro.minic.lexer``,
``repro.minic.parser`` and ``repro.minic``) and a method on its class.
A span is ``(id, name, start, end, parent id, session)``; spans stay in
memory and are written out once the run ends.  A span's self time is
its duration minus the time its child spans cover.

Only the main thread of the benchmark process records.  Pool workers
are forked with the wrappers in place, so a fork hook switches the
recorder off in the child, and worker-side time comes from the engine's
merged ``profile_phases`` snapshot instead.
"""

import importlib
import json
import os
import sys
import threading
import time

#: (span name, module, attribute): the layer boundaries.  Several
#: boundaries may share a span name; their spans add up.
BOUNDARIES = (
    ("minic.lexer", "repro.minic.lexer", "tokenize"),
    ("minic.parser", "repro.minic.parser", "Parser.parse_program"),
    ("minic.semantic", "repro.minic.semantic", "SemanticAnalyzer.analyze"),
    ("minic.lower", "repro.minic.lower", "lower_program"),
    ("dart.interface", "repro.dart.interface", "extract_interface"),
    ("dart.driver", "repro.dart.driver", "DriverGenerator.generate"),
    ("dart.independence", "repro.dart.independence", "coupling_classes"),
    ("interp.compile", "repro.interp.compile", "CompiledProgram.__init__"),
    ("interp.compile", "repro.interp.compile", "CompiledProgram.function"),
    ("interp.machine.load", "repro.interp.machine", "Machine.__init__"),
    ("interp.machine.run", "repro.interp.machine", "Machine.run"),
    ("dart.solve", "repro.dart.solve", "solve_path_constraint"),
    ("dart.solve", "repro.dart.solve", "expand_worklist_children"),
    ("dart.slicing", "repro.dart.slicing", "ConstraintSlicer.__init__"),
    ("dart.slicing", "repro.dart.slicing", "ConstraintSlicer.slice"),
    ("solver.cache", "repro.solver.cache", "SolverResultCache.lookup"),
    ("solver.cache", "repro.solver.cache", "SolverResultCache.store"),
    ("solver.cache", "repro.solver.cache", "SolverResultCache.store_core"),
    ("solver.core", "repro.solver.core", "Solver.solve"),
    ("dart.runner", "repro.dart.runner", "Dart.__init__"),
    ("dart.runner", "repro.dart.runner", "Dart.run"),
    ("dart.parallel", "repro.dart.parallel", "run_parallel_generational"),
)

class Recorder:
    """In-memory spans plus per-name self time, calls and bytes."""

    def __init__(self):
        self.active = False
        #: Index of the session whose spans are being recorded.
        self.session = -1
        self.spans = []
        self.self_s = {}
        self.calls = {}
        self.bytes = {}
        self._stack = []  # [span id, child seconds] of open spans
        self._next_id = 0
        self._thread = threading.get_ident()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        self.active = False

    def wrap(self, name, func):
        recorder = self
        # The lexer's first argument is the source text: its length
        # gives the lexer's throughput.
        counts_bytes = name == "minic.lexer"
        clock = time.perf_counter
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if not recorder.active or get_ident() != recorder._thread:
                return func(*args, **kwargs)
            stack = recorder._stack
            parent = stack[-1] if stack else None
            frame = [recorder._next_id, 0.0]
            recorder._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                recorder.self_s[name] = \
                    recorder.self_s.get(name, 0.0) + duration - frame[1]
                recorder.calls[name] = recorder.calls.get(name, 0) + 1
                if counts_bytes:
                    recorder.bytes[name] = \
                        recorder.bytes.get(name, 0) + len(args[0])
                if parent is not None:
                    parent[1] += duration
                recorder.spans.append((
                    frame[0], name, start, end,
                    parent[0] if parent is not None else None,
                    recorder.session,
                ))

        return traced

    def write(self, path):
        """Write the spans as JSON lines, in start order."""
        with open(path, "w") as out:
            for span in sorted(self.spans, key=lambda span: span[2]):
                out.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "session"),
                    span))) + "\n")


def install(recorder):
    """Wrap every boundary; returns a function that restores them."""
    restore = []
    for name, module_name, attribute in BOUNDARIES:
        module = importlib.import_module(module_name)
        if "." in attribute:
            owner = getattr(module, attribute.split(".")[0])
            method = attribute.split(".")[1]
            original = owner.__dict__[method]
            setattr(owner, method, recorder.wrap(name, original))
            restore.append((owner, method, original))
            continue
        original = getattr(module, attribute)
        wrapped = recorder.wrap(name, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    restore.append((loaded, key, original))

    def uninstall():
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)

    return uninstall


# -- per-layer metrics --------------------------------------------------------

#: The RunStats counters the per-layer metrics read.
STATS_COUNTERS = (
    "iterations", "instructions_executed", "instructions_symbolic",
    "flips_attempted", "flips_sat", "worklist_deduped",
    "sliced_conjuncts_dropped", "cache_hits", "flips_subsumed_core",
    "cache_unsat_shortcuts", "cache_model_reuses", "cache_misses",
    "cache_failures", "solver_calls", "solver_unknown", "solver_retries",
    "solver_constraints", "runs_new_path", "runs_forced",
    "forcing_failures", "pool_steals", "pool_workers_lost", "pool_retries",
)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder, totals, sessions, traced_wall, overhead_s):
    """The per-layer metric dict (name -> (value, unit)).

    ``totals`` sums the traced sessions' counters (plus
    ``functions_compiled``, ``quarantined``, ``inflight_peak`` and the
    merged phase seconds), ``sessions`` counts the traced sessions,
    ``traced_wall`` is their total source-to-verdict time and
    ``overhead_s`` is the traced minus the untraced pass wall.
    """
    self_s = recorder.self_s
    calls = recorder.calls
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    lexer_s = self_s.get("minic.lexer", 0.0)
    put("minic.lexer.self_s", lexer_s, "s")
    put("minic.lexer.calls", calls.get("minic.lexer", 0), "count")
    put("minic.lexer.mb_per_s",
        _ratio(recorder.bytes.get("minic.lexer", 0) / 1e6, lexer_s), "MB/s")
    for layer in ("minic.parser", "minic.semantic", "minic.lower",
                  "dart.interface", "dart.driver", "dart.independence"):
        put(layer + ".self_s", self_s.get(layer, 0.0), "s")
        put(layer + ".calls", calls.get(layer, 0), "count")
    put("minic.passes_per_session",
        _ratio(calls.get("minic.lexer", 0), sessions), "count")
    put("interp.compile.self_s", self_s.get("interp.compile", 0.0), "s")
    put("interp.compile.functions", totals["functions_compiled"], "count")
    run_s = self_s.get("interp.machine.run", 0.0)
    put("interp.machine.load_s", self_s.get("interp.machine.load", 0.0), "s")
    put("interp.machine.loads", calls.get("interp.machine.load", 0), "count")
    put("interp.machine.run_s", run_s, "s")
    put("interp.machine.runs", calls.get("interp.machine.run", 0), "count")
    put("interp.machine.instructions", totals["instructions_executed"],
        "count")
    put("interp.machine.instructions_symbolic",
        totals["instructions_symbolic"], "count")
    put("interp.machine.instructions_per_s",
        _ratio(totals["instructions_executed"], run_s), "1/s")
    put("dart.solve.self_s", self_s.get("dart.solve", 0.0), "s")
    put("dart.solve.calls", calls.get("dart.solve", 0), "count")
    put("dart.solve.flips_attempted", totals["flips_attempted"], "count")
    put("dart.solve.flip_sat_ratio",
        _ratio(totals["flips_sat"], totals["flips_attempted"]), "ratio")
    put("dart.solve.worklist_deduped", totals["worklist_deduped"], "count")
    put("dart.slicing.self_s", self_s.get("dart.slicing", 0.0), "s")
    put("dart.slicing.calls", calls.get("dart.slicing", 0), "count")
    put("dart.slicing.conjuncts_dropped",
        totals["sliced_conjuncts_dropped"], "count")
    answered = (totals["cache_hits"] + totals["flips_subsumed_core"]
                + totals["cache_unsat_shortcuts"]
                + totals["cache_model_reuses"])
    put("solver.cache.self_s", self_s.get("solver.cache", 0.0), "s")
    put("solver.cache.calls", calls.get("solver.cache", 0), "count")
    put("solver.cache.hit_rate",
        _ratio(answered, answered + totals["cache_misses"]), "ratio")
    put("solver.cache.core_subsumed", totals["flips_subsumed_core"],
        "count")
    put("solver.cache.failures", totals["cache_failures"], "count")
    put("solver.core.self_s", self_s.get("solver.core", 0.0), "s")
    put("solver.core.calls", calls.get("solver.core", 0), "count")
    put("solver.core.unknown", totals["solver_unknown"], "count")
    put("solver.core.retries", totals["solver_retries"], "count")
    put("solver.core.constraints_per_call",
        _ratio(totals["solver_constraints"], totals["solver_calls"]),
        "count")
    put("dart.runner.self_s", self_s.get("dart.runner", 0.0), "s")
    put("dart.runner.new_path_ratio",
        _ratio(totals["runs_new_path"], totals["iterations"]), "ratio")
    put("dart.runner.forced_ratio",
        _ratio(totals["runs_forced"],
               totals["runs_forced"] + totals["forcing_failures"]), "ratio")
    put("dart.runner.quarantined", totals["quarantined"], "count")
    put("dart.parallel.parent_s", self_s.get("dart.parallel", 0.0), "s")
    put("dart.parallel.worker_execute_s",
        totals["phase_execute"] + totals["phase_compile"], "s")
    put("dart.parallel.worker_plan_s",
        totals["phase_solve"] + totals["phase_cache"], "s")
    put("dart.parallel.steals", totals["pool_steals"], "count")
    put("dart.parallel.inflight_peak", totals["inflight_peak"], "count")
    put("dart.parallel.workers_lost", totals["pool_workers_lost"], "count")
    put("dart.parallel.retries", totals["pool_retries"], "count")
    put("run.layer_coverage", _ratio(sum(self_s.values()), traced_wall),
        "ratio")
    put("run.trace_overhead_s", overhead_s, "s")
    return metrics
