"""The completeness flags of the paper's run_DART driver (Fig. 2).

``all_linear`` is cleared whenever an expression falls outside linear
integer arithmetic and the evaluator substitutes its concrete value;
``all_locs_definite`` is cleared whenever a memory access goes through an
input-dependent address.  ``forcing_ok`` is cleared when a run diverges
from the branch outcomes predicted by the previous run's solved constraint
(Fig. 4).  The invariant proved by the paper —
``all_linear and all_locs_definite implies forcing_ok`` — is checked by the
test suite.

``all_faithful`` extends the triple (this reproduction's addition): it is
cleared when a recorded comparison disagreed with its own run's machine
verdict (32-bit wrap / unsigned compare) **and** the machine-integer
widening layer (:mod:`repro.symbolic.widen`) could not encode it
faithfully, so the conjunct was dropped as a last resort.  While it is
set, every conjunct in every path constraint is true of the run that
recorded it — the premise of the slicing argument and of Theorem 1(b).
"""


class CompletenessFlags:
    """Mutable flag triple shared by the evaluator, machine and runner.

    With a :class:`repro.obs.trace.TraceBus` attached (the ``trace``
    attribute), each True→False transition emits a ``flag_degraded``
    event — the moment the session lost a completeness guarantee, not
    just the end-of-session snapshot.
    """

    __slots__ = ("all_linear", "all_locs_definite", "forcing_ok",
                 "all_faithful", "trace", "journal")

    def __init__(self):
        self.trace = None
        #: While a run is being recorded for prefix snapshots, an object
        #: whose ``note(flag)`` sees every clear_* call, whether or not
        #: it is a transition (see repro.dart.resume).
        self.journal = None
        self.reset()

    def reset(self):
        self.all_linear = True
        self.all_locs_definite = True
        self.forcing_ok = True
        self.all_faithful = True

    @property
    def complete(self):
        """True while the directed search is provably exhaustive."""
        return (self.all_linear and self.all_locs_definite
                and self.all_faithful)

    def _degraded(self, flag):
        trace = self.trace
        if trace is not None and trace.enabled:
            trace.emit("flag_degraded", flag=flag)

    def clear_linear(self):
        if self.journal is not None:
            self.journal.note("all_linear")
        if self.all_linear:
            self._degraded("all_linear")
        self.all_linear = False

    def clear_locs(self):
        if self.journal is not None:
            self.journal.note("all_locs_definite")
        if self.all_locs_definite:
            self._degraded("all_locs_definite")
        self.all_locs_definite = False

    def clear_forcing(self):
        if self.journal is not None:
            self.journal.note("forcing_ok")
        if self.forcing_ok:
            self._degraded("forcing_ok")
        self.forcing_ok = False

    def clear_faithful(self):
        if self.journal is not None:
            self.journal.note("all_faithful")
        if self.all_faithful:
            self._degraded("all_faithful")
        self.all_faithful = False

    def snapshot(self):
        return (self.all_linear, self.all_locs_definite, self.forcing_ok,
                self.all_faithful)

    def __repr__(self):
        return (
            "CompletenessFlags(all_linear={}, all_locs_definite={}, "
            "forcing_ok={}, all_faithful={})"
        ).format(self.all_linear, self.all_locs_definite, self.forcing_ok,
                 self.all_faithful)
