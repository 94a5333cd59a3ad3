"""The repo's benchmark: source-to-verdict time of DART sessions.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ns-dy-3 --seed 0 --seconds 30 --trace 0

Workloads: ``osip-sample``, ``ns-dy-3``, ``gen-corpus``,
``ns-dy-3-pool`` (see ``perfbench/README.md`` for why each exists).
The script times set-up several times in fresh processes (interpreter
start, ``import repro`` and input generation, up to the READY line of
``perfbench/measure.py``), then runs one measuring process and prints
every metric by name and unit.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MEASURE = os.path.join(HERE, "measure.py")

#: Fresh processes that only set up, half before and half after the
#: measuring process, so the samples span the run; with the measuring
#: process's own set-up they give the median ``setup_s``.  One more,
#: untimed, runs first so that the bytecode caches exist (users do not
#: recompile).
SETUP_PROBES = 6
#: Seconds a measuring process may run beyond ``--seconds``.
GRACE_S = 140
#: Layer groups of the traced run's share table (self-time metrics).
GROUPS = (
    ("front end", ("minic.", "dart.interface.", "dart.driver.",
                   "dart.independence.")),
    ("execute", ("interp.",)),
    ("plan", ("dart.solve.", "dart.slicing.", "solver.")),
    ("runner", ("dart.runner.",)),
    ("pool parent", ("dart.parallel.parent_s",)),
)
#: Per-layer metrics that are self time of a span.
SELF_TIMES = ("self_s", "load_s", "run_s", "parent_s")


def _spawn(command):
    return subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)


def _setup_probe(command):
    """Seconds from process start to READY; the probe then exits."""
    started = time.perf_counter()
    process = _spawn(command + ["--setup-only"])
    try:
        ready = process.stdout.readline().strip() == "READY"
        elapsed = time.perf_counter() - started
        process.stdout.read()
    finally:
        process.wait()
    if not ready or process.returncode != 0:
        raise RuntimeError("set-up probe failed (exit {})".format(
            process.returncode))
    return elapsed


def _measure(command, timeout):
    """Run the measuring process: (set-up seconds, its JSON result)."""
    started = time.perf_counter()
    process = _spawn(command)
    try:
        ready = process.stdout.readline().strip() == "READY"
        setup = time.perf_counter() - started
        output, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise RuntimeError("measuring process ran past {} s".format(timeout))
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    lines = output.strip().splitlines()
    if not ready or process.returncode != 0 or not lines:
        raise RuntimeError("measuring process failed (exit {})".format(
            process.returncode))
    return setup, json.loads(lines[-1])


def _print_shares(metrics, traced_wall):
    """Each layer group's self time as a share of the traced wall."""
    shares = []
    for group, prefixes in GROUPS:
        seconds = sum(
            value for name, (value, _) in metrics.items()
            if name.startswith(prefixes) and name.endswith(SELF_TIMES))
        shares.append("{} {:.1%}".format(group, seconds / traced_wall))
    print("share of traced wall ({:.3f} s): {}".format(
        traced_wall, ", ".join(shares)))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: {} holds no src/repro to benchmark".format(ROOT),
              file=sys.stderr)
        return 2

    command = [sys.executable, MEASURE, "--workload", args.workload,
               "--seed", str(args.seed)]
    try:
        _setup_probe(command)
        setups = [_setup_probe(command) for _ in range(SETUP_PROBES // 2)]
        setup, result = _measure(
            command + ["--seconds", str(args.seconds),
                       "--trace", str(args.trace)],
            timeout=args.seconds + GRACE_S)
        setups.append(setup)
        setups += [_setup_probe(command)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except RuntimeError as exc:
        print("perfbench: {}".format(exc), file=sys.stderr)
        return 1

    if args.trace:
        metrics = result["layers"]
    else:
        metrics = dict(result["metrics"])
        metrics["setup_s"] = (statistics.median(setups), "s")
    ledger = result["ledger"]
    print("workload {} seed {}: {} untraced + {} traced pass(es), "
          "{} session(s) timed".format(
              args.workload, args.seed, result["passes"],
              result["traced_passes"], result["sessions"]))
    print("ledger (per pass): " + ", ".join(
        "{}={}".format(key, ledger[key]) for key in sorted(ledger)))
    print("ledger repeats within run: {}; matches earlier runs: {}".format(
        result["ledger_repeats"], result["ledger_ok"]))
    print("failed_share {:.4f} ({} of {} sessions)".format(
        result["failed"] / result["attempted"], result["failed"],
        result["attempted"]))
    for failure in result["failures"]:
        print("  failed: " + failure)
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("{:40s} {:>16.6f} {}".format(name, value, unit))
    if args.trace:
        _print_shares(metrics, result["traced_wall"])
    print(json.dumps({
        "correct": result["failed"] == 0 and result["ledger_ok"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
