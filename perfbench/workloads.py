"""The benchmark's four workloads: seeded inputs and per-session oracles.

A workload is a list of :class:`Session` specs built before the timed
window (that is set-up).  Inside the window each spec becomes one
``Dart(source, toplevel, options)`` plus ``.run()``, from source text to
verdict; its oracle runs after the session's clock stops.  Why each
workload exists, and which layers it stresses, is in
``perfbench/README.md``.

``--seed`` becomes ``DartOptions.seed`` of every session on ``ns-dy-3``,
``ns-dy-3-pool`` and ``gen-corpus``: it picks the random input
vectors, restarts and pointer coins of each search.  The programs
themselves are fixed draws (the oSIP sample and the generated corpus at
draw seed 0), because drawing them per seed made the workload's cost
vary by more than the benchmark's bounds: on 5 seeds, wall time spread
0.26-0.39 of its median.  On ``osip-sample`` the seed orders the
sessions and the search seed stays at the oSIP sweep's 1: runs-to-crash
of the message functions is bimodal in the search seed (262 or about
975 runs per pass on seeds 0-7), which would make ``runs_per_s`` on a
front-end-bound workload measure luck.
"""

import random

from repro import DartOptions
from repro.programs.needham_schroeder import ns_source
from repro.programs.osip import OsipLibrary
from repro.testgen.generator import generate_program

#: oSIP functions drawn per pass (the ``bench_sec43_osip.py`` sample size).
OSIP_SAMPLE = 48
#: Seed of the oSIP sample and of the generated corpus.
DRAW_SEED = 0
#: Search seed of every oSIP session (``bench_sec43_osip.py``'s).
OSIP_SEARCH_SEED = 1
#: Generated programs per ``gen-corpus`` pass.
GEN_PROGRAMS = 40
#: Run budget per generated program (the search usually exhausts it).
GEN_BUDGET = 300
#: Worker processes on ``ns-dy-3-pool``.
POOL_JOBS = 2


class Session:
    """One DART session: inputs, options and the verdict oracle."""

    __slots__ = ("label", "source", "toplevel", "option_kwargs", "check")

    def __init__(self, label, source, toplevel, option_kwargs, check):
        self.label = label
        self.source = source
        self.toplevel = toplevel
        self.option_kwargs = option_kwargs
        #: ``check(dart, result)`` -> None when the verdict is right, else
        #: a one-line reason.
        self.check = check

    def options(self, profile_phases=False):
        return DartOptions(profile_phases=profile_phases,
                           **self.option_kwargs)


def verdict_failure(session, dart, result):
    """Why ``result`` is wrong for ``session``, or None.

    A quarantined run (internal error, resource exhaustion, run timeout)
    fails the session whatever the verdict, because the engine lost a
    run it should have finished.
    """
    if result.quarantined:
        return "{} quarantined run(s), first: {}".format(
            len(result.quarantined),
            result.quarantined[0].classification)
    return session.check(dart, result)


def _osip_check(crashable):
    def check(dart, result):
        if result.found_error != crashable:
            return "found_error={} but ground truth crashable={}".format(
                result.found_error, crashable)
        return None
    return check


def _ns_check(dart, result):
    if result.errors:
        return "reported {} error(s) on a protocol with none at depth 3" \
            .format(len(result.errors))
    if not result.complete:
        return "search ended {!r}, not complete".format(result.status)
    return None


def _replay_check(dart, result):
    for error in result.errors:
        fault = dart.replay(error)
        if fault is None:
            return "error {} at run {} does not replay".format(
                error.kind, error.iteration)
        if fault.kind != error.kind:
            return "error {} at run {} replays as {}".format(
                error.kind, error.iteration, fault.kind)
    return None


def _osip_sample(seed):
    library = OsipLibrary()
    sample = random.Random(DRAW_SEED).sample(library.functions, OSIP_SAMPLE)
    random.Random(seed).shuffle(sample)
    options = dict(max_iterations=1000, seed=OSIP_SEARCH_SEED,
                   max_steps=200_000, max_init_depth=4)
    return [
        Session(entry.name, library.source_for_function(entry.name),
                entry.name, options, _osip_check(entry.crashable))
        for entry in sample
    ]


def _ns_dy_3(seed, **extra):
    options = dict(depth=3, max_iterations=50_000, seed=seed, **extra)
    return [Session("ns_dy_step", ns_source("dolev_yao"), "ns_dy_step",
                    options, _ns_check)]


def _gen_corpus(seed):
    # The fuzz campaign's seeding: one draw per program from the corpus
    # rng, each program generated from its own Random.
    rng = random.Random(DRAW_SEED)
    sessions = []
    for _ in range(GEN_PROGRAMS):
        program_seed = rng.randrange(1 << 30)
        program = generate_program(random.Random(program_seed),
                                   seed=program_seed)
        sessions.append(Session(
            "prog{}".format(program_seed), program.render(),
            program.toplevel,
            dict(stop_on_first_error=False, max_iterations=GEN_BUDGET,
                 seed=seed),
            _replay_check,
        ))
    return sessions


def _ns_dy_3_pool(seed):
    return _ns_dy_3(seed, strategy="bfs", jobs=POOL_JOBS)


#: Workload name -> function of the seed that returns its sessions.
WORKLOADS = {
    "osip-sample": _osip_sample,
    "ns-dy-3": _ns_dy_3,
    "gen-corpus": _gen_corpus,
    "ns-dy-3-pool": _ns_dy_3_pool,
}
