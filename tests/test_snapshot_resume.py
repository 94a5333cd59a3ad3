"""Prefix snapshots (repro.dart.resume): resumed runs equal full replay.

Each run that resumes from the previous run's driver-iteration snapshot
is checked against an isolated from-scratch execution of the same item
(``resume_differential``, the fuzz battery's resume oracle), and whole
sessions are compared with sessions that never resume (the store's
lookup patched to miss) — errors, witnesses, statistics and, for a
traced session, the event stream.
"""

import pytest

from repro import DartOptions
from repro.dart import runner
from repro.dart.runner import Dart
from repro.faults import points as fault_points
from repro.interp.memory import Memory
from repro.obs.trace import ListSink
from repro.programs.ac_controller import (
    AC_CONTROLLER_SOURCE,
    AC_CONTROLLER_TOPLEVEL,
)
from repro.programs.needham_schroeder import ns_source
from repro.testgen.oracles import resume_differential

NS_SOURCE = ns_source("dolev_yao")
NS_TOPLEVEL = "ns_dy_step"

#: oSIP-style list code: an external variable, an external function and
#: heap cells built by the driver's pointer coins on every iteration.
OSIP_SOURCE = """
struct osip_node { int value; struct osip_node *next; };
struct osip_list { int nb_elt; struct osip_node *head; };
extern int osip_trace_level;
int osip_get_hook(int idx);

int osip_list_touch(struct osip_list *li, int v) {
  struct osip_node *n;
  if (li == NULL) return -1;
  if (osip_trace_level > 3) li->nb_elt = li->nb_elt + 1;
  n = li->head;
  if (n != NULL && n->value == v) {
    n->value = osip_get_hook(v);
    return 1;
  }
  if (li->nb_elt == 7 && v == 3) abort();
  return 0;
}
"""

#: The first call arms ``state``; only the second call can fault.
SECOND_CALL_FAULT_SOURCE = """
int state;
int step(int x) {
  int d;
  if (state == 1) {
    d = 1;
    if (x == 42) d = 0;
    return 100 / d;
  }
  if (x > 10) state = 1;
  return 0;
}
"""


def options(**overrides):
    base = dict(seed=0, handle_signals=False, max_iterations=50_000)
    base.update(overrides)
    return DartOptions(**base)


def differential(source, toplevel, **overrides):
    result, compared, mismatches = resume_differential(
        source, toplevel, options(**overrides))
    assert mismatches == []
    assert compared > 0
    assert compared == result.stats.snapshot_hits
    return result


def session(source, toplevel, resume=True, trace=False, **overrides):
    """One ordinary session; ``resume=False`` never resumes a run."""
    saved = runner._Session._resume_point
    if not resume:
        runner._Session._resume_point = lambda self, item: None
    try:
        dart = Dart(source, toplevel, options(**overrides))
        sink = dart.trace.attach(ListSink()) if trace else None
        result = dart.run()
    finally:
        runner._Session._resume_point = saved
    return result, sink


def outcome(result):
    """Everything but timing and the resume counters."""
    summary = result.stats.summary()
    for key in ("elapsed_s", "snapshot_hits", "instructions_resumed",
                "histograms"):
        summary.pop(key)
    return (
        result.status, result.flags, summary,
        [(error.kind, str(error.location), error.inputs, error.kinds,
          error.iteration) for error in result.errors],
        [witness.to_dict() for witness in result.witnesses],
        [record.to_dict() for record in result.stats.quarantined],
    )


class TestCounters:
    def test_ns_dy_depth3_dfs_pins_the_resume_counters(self):
        result, _ = session(NS_SOURCE, NS_TOPLEVEL, depth=3)
        stats = result.stats
        assert result.status == "complete"
        assert stats.iterations == 5168
        assert stats.instructions_executed == 603_780
        assert stats.snapshot_hits == 5151
        assert stats.instructions_resumed == 378_714
        summary = stats.summary()
        assert summary["snapshot_hits"] == 5151
        assert summary["instructions_resumed"] == 378_714

    def test_depth1_never_resumes(self):
        result, _ = session(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                            depth=1, stop_on_first_error=False)
        assert result.stats.snapshot_hits == 0
        assert result.stats.instructions_resumed == 0


class TestResumeEqualsFullReplay:
    def test_ns_dy_depth3_dfs(self):
        result = differential(NS_SOURCE, NS_TOPLEVEL, depth=3)
        assert result.status == "complete"
        assert result.stats.iterations == 5168

    def test_ns_dy_depth3_serial_bfs(self):
        differential(NS_SOURCE, NS_TOPLEVEL, depth=3, strategy="bfs",
                     max_iterations=2000)

    @pytest.mark.parametrize("strategy", ["dfs", "bfs", "random"])
    def test_ac_controller_depth2(self, strategy):
        result = differential(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                              depth=2, strategy=strategy,
                              stop_on_first_error=False)
        assert result.errors

    @pytest.mark.parametrize("strategy", ["dfs", "bfs"])
    def test_osip_external_variable_and_heap_cells(self, strategy):
        result = differential(OSIP_SOURCE, "osip_list_touch", depth=3,
                              strategy=strategy, max_init_depth=2,
                              stop_on_first_error=False,
                              max_iterations=600)
        assert result.errors

    def test_fault_inside_the_second_call(self):
        result = differential(SECOND_CALL_FAULT_SOURCE, "step", depth=2,
                              stop_on_first_error=False)
        assert {error.kind for error in result.errors} \
            == {"division by zero"}
        full, _ = session(SECOND_CALL_FAULT_SOURCE, "step", resume=False,
                          depth=2, stop_on_first_error=False)
        assert outcome(result) == outcome(full)

    @pytest.mark.parametrize("strategy", ["dfs", "bfs", "random"])
    def test_sessions_equal_full_replay(self, strategy):
        kwargs = dict(depth=2, strategy=strategy, stop_on_first_error=False,
                      collect_witnesses=True)
        resumed, _ = session(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                             **kwargs)
        full, _ = session(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                          resume=False, **kwargs)
        assert resumed.stats.snapshot_hits > 0
        assert full.stats.snapshot_hits == 0
        assert outcome(resumed) == outcome(full)

    def test_interpreter_engine(self):
        differential(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL, depth=2,
                     compiled_execution=False, stop_on_first_error=False)


class TestTrace:
    def test_traced_event_sequence_equals_full_replay(self):
        kwargs = dict(depth=3, max_iterations=400)
        resumed, sink = session(NS_SOURCE, NS_TOPLEVEL, trace=True,
                                **kwargs)
        full, full_sink = session(NS_SOURCE, NS_TOPLEVEL, resume=False,
                                  trace=True, **kwargs)
        assert resumed.stats.snapshot_hits > 0

        def stable(events):
            return [{key: value for key, value in event.items()
                     if key not in ("wall_s", "ts")} for event in events]

        assert stable(sink.events) == stable(full_sink.events)

    def test_flag_degradations_replay_in_order(self):
        # Paper-mode pointer coins clear all_linear inside the prefix:
        # the clear must reach the flags (and the trace) of resumed runs.
        kwargs = dict(depth=2, strategy="bfs", directed_pointer_choices=False,
                      max_init_depth=2, stop_on_first_error=False,
                      max_iterations=200)
        resumed, sink = session(OSIP_SOURCE, "osip_list_touch", trace=True,
                                **kwargs)
        full, full_sink = session(OSIP_SOURCE, "osip_list_touch",
                                  resume=False, trace=True, **kwargs)
        assert resumed.stats.snapshot_hits > 0
        assert resumed.flags[0] is False
        assert [event["type"] for event in sink.events] \
            == [event["type"] for event in full_sink.events]
        assert outcome(resumed) == outcome(full)


class TestFaultInjection:
    def test_injector_sees_the_full_execution_probe_sequence(self):
        # A tight watchdog makes the prefixes probe the injector; the
        # scheduled faults must land on the same runs either way.
        plan = "machine.memory@40,machine.recursion@90"
        kwargs = dict(depth=3, watchdog_interval=8, max_iterations=300)
        observed = []
        for resume in (True, False):
            with fault_points.active(plan) as injector:
                result, _ = session(NS_SOURCE, NS_TOPLEVEL, resume=resume,
                                    **kwargs)
            observed.append((outcome(result), dict(injector.hits),
                             list(injector.fired)))
            if resume:
                assert result.stats.snapshot_hits > 0
        assert observed[0] == observed[1]
        assert len(observed[0][2]) == 2


class TestPool:
    def test_jobs2_bfs_equals_serial(self):
        # Pool items draw undefined slots from per-item RNGs, so random
        # input values — and with them the run at which each path first
        # shows up — differ from serial by design; the witnessed paths,
        # their coverage, the error classes and the deterministic
        # counters may not.
        kwargs = dict(depth=2, strategy="bfs", collect_witnesses=True)
        serial, _ = session(NS_SOURCE, NS_TOPLEVEL, **kwargs)
        pooled, _ = session(NS_SOURCE, NS_TOPLEVEL, jobs=2, **kwargs)
        assert serial.stats.snapshot_hits > 0
        keys = ("iterations", "paths", "distinct_paths", "branches",
                "steps", "instructions_executed", "instructions_symbolic",
                "flips_attempted", "flips_sat", "runs_forced",
                "runs_new_path")
        assert [serial.stats.summary()[key] for key in keys] \
            == [pooled.stats.summary()[key] for key in keys]
        assert serial.status == pooled.status
        assert [(e.kind, str(e.location)) for e in serial.errors] \
            == [(e.kind, str(e.location)) for e in pooled.errors]

        def witnesses(result):
            return sorted((w.path, w.error_key, tuple(sorted(w.covered)))
                          for w in result.witnesses)

        assert witnesses(serial) == witnesses(pooled)
        assert len(serial.witnesses) == len(serial.stats.distinct_paths)


class TestMemoryImage:
    def test_live_regions_copied_dead_and_string_regions_shared(self):
        memory = Memory()
        text = memory.alloc_string(b"hi")
        cell = memory.alloc_global(4, "g")
        frame = memory.push_frame(8, "f", 1)
        memory.pop_frame(frame, [])
        memory.write_int(cell.start, 7, 4, True)
        image = memory.capture()
        memory.write_int(cell.start, 9, 4, True)
        restored = Memory()
        restored.restore(image)
        assert restored.read_int(cell.start, 4, True) == 7
        assert restored.region_at(text.start) is text
        assert restored.region_at(frame.start) is frame
        assert restored.region_at(cell.start) is not cell
        restored.write_int(cell.start, 5, 4, True)
        again = Memory()
        again.restore(image)
        assert again.read_int(cell.start, 4, True) == 7
