"""Prefix snapshots: resume a run where the previous run's prefix ended.

The generated driver (Fig. 7) calls the toplevel function ``depth``
times, and each call reads fresh inputs.  A run is a deterministic
function of the inputs it has consumed so far — they are read lazily by
ordinal (:meth:`repro.dart.inputs.InputVector.value_or_none`), and the
session RNG is only drawn for slots the input vector leaves undefined.
So once a new input vector agrees with the previous run on every slot
that run had consumed when its *k*-th toplevel call returned, the new
run would redo exactly that prefix.  Under dfs this is the common case:
the flipped branch usually sits in the last call.

:class:`SnapshotStore` keeps, for the last completed run, one
:class:`PrefixSnapshot` per driver-iteration boundary — right after
toplevel call *k* returns, for *k* = 1..depth−1.  A snapshot holds the
machine (:class:`repro.interp.machine.Snapshot`), the hooks' path record
and input cursor, the consumed input slots, and a :class:`Journal` of
what the prefix did outside the machine: its completeness-flag clears
and, with tracing on, its trace events.  A new run whose input slots
match the deepest snapshot's is resumed from it — the journal is
replayed against the live flags and trace bus, and the machine re-enters
the driver's step loop — so every count, event and verdict equals full
execution (docs/ALGORITHM.md, "Prefix snapshots").
"""

from repro.dart.driver import toplevel_call_pc
from repro.faults import points as fault_points
from repro.obs import trace as tr

#: Flag name -> the CompletenessFlags method that clears it.
_CLEARS = {
    "all_linear": "clear_linear",
    "all_locs_definite": "clear_locs",
    "forcing_ok": "clear_forcing",
    "all_faithful": "clear_faithful",
}


class Journal:
    """A run's flag clears and trace events, in order.

    Installed as the flags' ``journal`` and, with tracing on, attached
    to the trace bus as a sink.  Only the first clear of each flag is
    kept: within one run a flag, once cleared, stays cleared, so later
    clears change nothing.  ``flag_degraded`` events are not kept —
    replaying the clears re-derives them against the flags as they are
    at replay time.
    """

    __slots__ = ("entries", "cleared")

    def __init__(self, entries=()):
        #: Flag names (str) and ``(type, fields)`` event pairs.
        self.entries = list(entries)
        self.cleared = {entry for entry in self.entries
                        if isinstance(entry, str)}

    def note(self, flag):
        if flag not in self.cleared:
            self.cleared.add(flag)
            self.entries.append(flag)

    def write(self, event):
        kind = event["type"]
        if kind != tr.FLAG_DEGRADED:
            self.entries.append((kind, {
                key: value for key, value in event.items()
                if key not in ("seq", "type", "ts")
            }))

    def replay(self, flags, trace):
        """Apply the entries to ``flags`` and re-emit them on ``trace``
        (None when tracing is off), as the prefix itself did."""
        for entry in self.entries:
            if isinstance(entry, str):
                getattr(flags, _CLEARS[entry])()
            elif trace is not None:
                trace.emit(entry[0], **entry[1])


class PrefixSnapshot:
    """One driver-iteration boundary of a completed run."""

    __slots__ = ("machine", "inputs", "branches", "constraints",
                 "consumed", "journal", "traced")


def _agrees(stack, branches):
    """Would a run taking ``branches`` first pass Fig. 4's stack check
    against the predicted ``stack``?"""
    return all(entry.branch == branch
               for entry, branch in zip(stack, branches))


class SnapshotStore:
    """The boundary snapshots of the last completed run of a session."""

    def __init__(self, dart):
        self.depth = dart.options.depth
        #: The driver instruction that calls the toplevel function.
        self.at = toplevel_call_pc(dart.module, dart.toplevel)
        self.snapshots = ()

    def find(self, item, traced):
        """The deepest snapshot ``item`` can resume from, or None.

        Its consumed input slots must equal the item's, value and kind.
        If the item's predicted stack disagrees with the snapshot's
        prefix branches the run must fail Fig. 4's check, so it executes
        from scratch and reports the mismatch exactly as before.  With a
        fault injector installed, a prefix whose machine probes would
        fire a fault also executes from scratch.
        """
        im = item.im
        for snapshot in reversed(self.snapshots):
            if im.prefix(snapshot.consumed) != snapshot.inputs:
                continue
            if snapshot.traced != traced \
                    or not _agrees(item.stack, snapshot.branches):
                return None
            injector = fault_points.ACTIVE
            if injector is not None and injector.machine_probes_fire(
                    snapshot.machine.probes + 1):
                return None
            return snapshot
        return None

    def keep(self, recording):
        """Adopt a completed run's snapshots."""
        self.snapshots = tuple(recording.snapshots)


class Recording:
    """One run's side of a :class:`SnapshotStore`: resume its prefix
    from ``snapshot`` (unless None), capture its boundaries."""

    def __init__(self, store, snapshot, hooks, flags, trace):
        self.store = store
        self.hooks = hooks
        self.flags = flags
        self.trace = trace if trace.enabled else None
        self.snapshot = snapshot
        self.machine = None
        if snapshot is None:
            self.snapshots = []
            self.journal = Journal()
        else:
            kept = store.snapshots
            self.snapshots = list(kept[:kept.index(snapshot) + 1])
            self.journal = Journal(snapshot.journal)
            hooks.resume(snapshot.branches, snapshot.constraints,
                         snapshot.consumed)
            injector = fault_points.ACTIVE
            if injector is not None:
                injector.skip_machine_probes(snapshot.machine.probes)
        #: Toplevel calls returned so far.
        self.returns = len(self.snapshots)

    def start(self, machine):
        """Replay the resumed prefix's journal, start journaling this
        run, and return the ``boundary`` for ``machine.run``."""
        self.machine = machine
        if self.snapshot is not None:
            self.journal.replay(self.flags, self.trace)
        self.flags.journal = self.journal
        if self.trace is not None:
            self.trace.attach(self.journal)
        store = self.store
        if store.at is None or self.returns >= store.depth - 1:
            return None
        return store.at, self._reached

    def stop(self):
        self.flags.journal = None
        if self.trace is not None:
            self.trace.detach(self.journal)

    def _reached(self, pc):
        self.returns += 1
        if self.returns >= self.store.depth:
            return
        hooks = self.hooks
        snapshot = PrefixSnapshot()
        snapshot.machine = self.machine.capture(pc)
        snapshot.branches, snapshot.constraints, snapshot.consumed = \
            hooks.capture()
        snapshot.inputs = hooks.im.prefix(snapshot.consumed)
        snapshot.journal = tuple(self.journal.entries)
        snapshot.traced = self.trace is not None
        self.snapshots.append(snapshot)
