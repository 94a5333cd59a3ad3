"""One workload process: set up, print READY, then time whole passes.

Run by ``perfbench/run.py``, which times this process from its start to
the READY line (set-up: interpreter start, ``import repro`` and input
generation).  Afterwards the process runs passes over the workload's
session list until ``--seconds`` would be exceeded, always at least one
pass (with ``--trace 1``: untraced and traced passes alternate, at least
one of each).  Only ``Dart(...)`` construction plus ``.run()`` is inside
a pass's clock; each session's verdict oracle runs after its clock
stops.  The last line of stdout is one JSON object for run.py.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where runs leave spans and ledgers (listed in the root .gitignore).
OUT = os.path.join(ROOT, ".perfbench")


def _import_repro():
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("perfbench: no src/repro under {}; run from a checkout"
                 .format(ROOT))
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported repro from {}, not {}"
                 .format(repro.__file__, SRC))


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _code_digest():
    """Hash of the engine and benchmark sources the counts depend on."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), HERE):
        for folder, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


class Pass:
    """What one pass over the session list measured and counted."""

    def __init__(self, traced):
        self.traced = traced
        self.wall = 0.0
        self.cpu = 0.0
        self.elapsed = 0.0
        self.session_times = []
        self.failures = []
        self.runs = 0
        self.solver_calls = 0
        self.instructions = 0
        self.errors = 0
        self._error_digest = hashlib.sha256()

    def count(self, label, result):
        stats = result.stats
        self.runs += stats.iterations
        self.solver_calls += stats.solver_calls
        self.instructions += stats.instructions_executed
        self.errors += len(result.errors)
        self._error_digest.update(json.dumps([label, result.status, [
            [error.kind, str(error.location), error.inputs]
            for error in result.errors
        ]]).encode())

    def ledger(self):
        """Counts that must repeat exactly for the same code and seed."""
        return {
            "sessions": len(self.session_times),
            "runs": self.runs,
            "solver_calls": self.solver_calls,
            "instructions": self.instructions,
            "errors": self.errors,
            "error_digest": self._error_digest.hexdigest()[:16],
        }


def run_pass(sessions, traced, recorder, totals):
    """Run every session once; returns the :class:`Pass`."""
    from repro import Dart
    from workloads import verdict_failure

    measured = Pass(traced)
    started = time.perf_counter()
    for index, session in enumerate(sessions):
        # Worker-side time of the pool comes from the phase profile.
        options = session.options(
            profile_phases=traced and "jobs" in session.option_kwargs)
        if traced:
            recorder.session = index
            recorder.active = True
        cpu_before = _cpu_seconds()
        clock = time.perf_counter()
        try:
            dart = Dart(session.source, session.toplevel, options)
            result = dart.run()
        except Exception as exc:  # noqa: BLE001 — a failed session counts
            dart = result = None
            failure = "{}: {}".format(type(exc).__name__, exc)
        elapsed = time.perf_counter() - clock
        measured.cpu += _cpu_seconds() - cpu_before
        if traced:
            recorder.active = False
        measured.wall += elapsed
        measured.session_times.append(elapsed)
        if result is not None:
            failure = verdict_failure(session, dart, result)
            measured.count(session.label, result)
            if traced:
                _add_totals(totals, result, dart)
        if failure is not None:
            measured.failures.append("{}: {}".format(session.label, failure))
    measured.elapsed = time.perf_counter() - started
    return measured


def _add_totals(totals, result, dart):
    stats = result.stats
    for name in layers.STATS_COUNTERS:
        totals[name] = totals.get(name, 0) + getattr(stats, name)
    totals["quarantined"] = totals.get("quarantined", 0) \
        + len(result.quarantined)
    totals["functions_compiled"] = totals.get("functions_compiled", 0) + (
        dart.compiled.functions_compiled if dart.compiled is not None else 0)
    totals["inflight_peak"] = max(totals.get("inflight_peak", 0),
                                  stats.pool_inflight.peak)
    for phase in ("execute", "compile", "solve", "cache"):
        key = "phase_" + phase
        totals[key] = totals.get(key, 0.0) \
            + stats.phases.seconds.get(phase, 0.0)


def _percentile(values, quarter):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[quarter - 1]


def _check_ledger(workload, seed, ledger):
    """Compare with an earlier run of the same code and seed, if any."""
    folder = os.path.join(OUT, "ledger")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, "{}-seed{}-{}.json".format(
        workload, seed, _code_digest()))
    if os.path.exists(path):
        with open(path) as handle:
            earlier = json.load(handle)
        return earlier == ledger
    scratch = path + ".tmp{}".format(os.getpid())
    with open(scratch, "w") as handle:
        json.dump(ledger, handle, sort_keys=True)
    os.replace(scratch, path)
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_repro()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload {!r}; choose from {}".format(
            args.workload, ", ".join(workloads.WORKLOADS)))
    sessions = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    recorder = layers.Recorder() if args.trace else None
    totals = {}
    passes = []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        uninstall = layers.install(recorder) if traced else None
        try:
            passes.append(run_pass(sessions, traced, recorder, totals))
        finally:
            if uninstall is not None:
                uninstall()
        if len(passes) == 1:
            # Read after one pass, so the peak does not depend on how
            # many passes fit into the budget.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace and len(passes) < 2:
            continue
        # Start the next pass only if a pass of its kind would still end
        # within the budget.
        next_traced = bool(args.trace) and len(passes) % 2 == 1
        estimate = [measured.elapsed for measured in passes
                    if measured.traced == next_traced][-1]
        if time.perf_counter() - started + estimate > args.seconds:
            break

    untraced = [measured for measured in passes if not measured.traced]
    traced = [measured for measured in passes if measured.traced]
    ledgers = [measured.ledger() for measured in passes]
    repeat_ok = all(ledger == ledgers[0] for ledger in ledgers)
    ledger_ok = repeat_ok and _check_ledger(args.workload, args.seed,
                                            ledgers[0])
    failures = [failure for measured in passes
                for failure in measured.failures]
    times = [t for measured in untraced for t in measured.session_times]
    wall = statistics.median(measured.wall for measured in untraced)
    out = {
        "passes": len(untraced),
        "traced_passes": len(traced),
        "sessions": len(times),
        "attempted": sum(len(measured.session_times) for measured in passes),
        "failed": len(failures),
        "failures": failures[:5],
        "ledger": ledgers[0],
        "ledger_repeats": repeat_ok,
        "ledger_ok": ledger_ok,
        "metrics": {
            "wall_s": (wall, "s"),
            "verdict_s.p50": (_percentile(times, 2), "s"),
            "verdict_s.p75": (_percentile(times, 3), "s"),
            "runs_per_s": (ledgers[0]["runs"] / wall, "1/s"),
            "cpu_s": (statistics.median(
                measured.cpu for measured in untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }
    if traced:
        traced_wall = sum(measured.wall for measured in traced)
        overhead = statistics.median(measured.wall for measured in traced) \
            - wall
        out["traced_wall"] = traced_wall
        out["layers"] = layers.layer_metrics(
            recorder, totals,
            sum(len(measured.session_times) for measured in traced),
            traced_wall, overhead)
        os.makedirs(OUT, exist_ok=True)
        recorder.write(os.path.join(
            OUT, "spans-{}.jsonl".format(args.workload)))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
