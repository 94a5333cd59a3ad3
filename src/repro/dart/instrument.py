"""One instrumented execution (Fig. 3) and the stack check (Fig. 4).

:class:`DirectedHooks` plugs into the machine: it feeds the input vector
``IM`` to the ``__dart_*`` intrinsics (randomizing undefined slots) and, at
every conditional, appends the symbolic conjunct to the path constraint and
runs ``compare_and_update_stack`` against the branch outcomes predicted by
the previous run.  A prediction mismatch clears ``forcing_ok`` and raises
:class:`ForcingMismatch`, which the runner converts into a random restart —
the paper's graceful degradation when a solved input does not have the
expected effect.
"""

from repro.dart.inputs import domain_for_kind, random_value
from repro.dart.pathcond import PathRecord, StackEntry
from repro.symbolic.expr import InputVar


class ForcingMismatch(Exception):
    """The execution diverged from the predicted branch history."""

    def __init__(self, index, expected, actual):
        super().__init__(
            "conditional {} took branch {} but {} was predicted".format(
                index, actual, expected
            )
        )
        self.index = index
        self.expected = expected
        self.actual = actual


class DirectedHooks:
    """Machine hooks implementing the instrumented program's bookkeeping."""

    def __init__(self, im, predicted_stack, flags, rng, options):
        #: IM — mutated in place as undefined slots get randomized.
        self.im = im
        #: The (branch, done) records inherited from the previous run.
        self.stack = [entry.copy() for entry in predicted_stack]
        #: This run's aligned (stack, path constraint) record.
        self.record = PathRecord()
        self.flags = flags
        self._rng = rng
        self._options = options
        self._next_ordinal = 0

    # -- inputs ------------------------------------------------------------

    def acquire_input(self, kind):
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        value = self.im.value_or_none(ordinal, kind)
        if value is None:
            value = random_value(kind, self._rng)
            self.im.record(ordinal, kind, value)
        if kind == "ptr_choice" and not self._options.directed_pointer_choices:
            # Paper mode: the coin toss is plain randomness, invisible to
            # the symbolic execution (and hence never directable).  An
            # untracked input costs the completeness guarantee, so the
            # session can never falsely claim full path coverage.
            self.flags.clear_linear()
            return value, None
        lo, hi = domain_for_kind(kind)
        return value, InputVar(ordinal, kind, lo, hi)

    @property
    def inputs_consumed(self):
        return self._next_ordinal

    # -- conditionals ---------------------------------------------------------

    def on_branch(self, taken, constraint, location):
        branch = 1 if taken else 0
        k = len(self.record)
        self.record.append(branch, constraint)
        self._compare_and_update_stack(branch, k)

    def _compare_and_update_stack(self, branch, k):
        """Fig. 4, verbatim."""
        stack = self.stack
        if k < len(stack):
            if stack[k].branch != branch:
                self.flags.clear_forcing()
                raise ForcingMismatch(k, stack[k].branch, branch)
            if k == len(stack) - 1:
                stack[k].branch = branch
                stack[k].done = True
        else:
            stack.append(StackEntry(branch, done=False))

    # -- prefix snapshots (repro.dart.resume) -------------------------------

    def capture(self):
        """``(branches, constraints, inputs consumed)`` so far."""
        record = self.record
        return (tuple(entry.branch for entry in record.stack),
                tuple(record.constraints), self._next_ordinal)

    def resume(self, branches, constraints, consumed):
        """Adopt a captured prefix as if this run had just executed it:
        the record, the input cursor and Fig. 4's stack updates.  The
        caller has checked that the predicted stack agrees with
        ``branches`` wherever both are defined."""
        stack = self.stack
        known = len(stack)
        if 0 < known <= len(branches):
            stack[known - 1].done = True
        stack.extend(StackEntry(branch) for branch in branches[known:])
        record = self.record
        record.stack = [StackEntry(branch) for branch in branches]
        record.constraints = list(constraints)
        self._next_ordinal = consumed

    def finished_stack(self):
        """The stack after a completed run.

        The run's own record and the inherited stack agree on every index
        by construction (mismatches raise); the inherited stack carries the
        ``done`` bits, extended by the new conditionals appended above.
        """
        return self.stack
