"""The input vector ``IM`` (Section 2.2/3.4).

Inputs are identified by *acquisition ordinal*: the i-th call to a
``__dart_*`` intrinsic during an execution reads slot i.  Slots that the
previous runs never defined are filled with fresh random values and
recorded ("for each input x with IM[x] undefined do IM[x] = random()",
Fig. 3); slots solved by the constraint solver overwrite previous values
while all other slots are preserved (the ``IM + IM'`` update of Fig. 5).

Identifying inputs by ordinal rather than by address uniformly supports
repeated toplevel calls (``depth`` > 1), inputs living in malloc'ed memory
(recursive data structures built by ``random_init``) and external-function
returns.
"""

#: Machine domains per input kind.
_DOMAINS = {
    "int": (-(1 << 31), (1 << 31) - 1),
    "uint": (0, (1 << 32) - 1),
    "char": (-128, 127),
    "uchar": (0, 255),
    "short": (-(1 << 15), (1 << 15) - 1),
    "ushort": (0, (1 << 16) - 1),
    "ptr_choice": (0, 1),
}


def domain_for_kind(kind):
    """The (lo, hi) machine domain for an input kind."""
    return _DOMAINS[kind]


class InputSlot:
    """One entry of ``IM``: its kind tag and current concrete value."""

    __slots__ = ("kind", "value")

    def __init__(self, kind, value):
        self.kind = kind
        self.value = value

    def __repr__(self):
        return "InputSlot({}, {})".format(self.kind, self.value)


class InputVector:
    """``IM``: an extensible, ordinal-indexed vector of typed inputs."""

    def __init__(self, slots=None):
        self._slots = list(slots or [])

    def __len__(self):
        return len(self._slots)

    def __iter__(self):
        return iter(self._slots)

    def __getitem__(self, ordinal):
        return self._slots[ordinal]

    def value_or_none(self, ordinal, kind):
        """The recorded value for slot ``ordinal`` if compatible.

        A kind mismatch (the program consumed its inputs differently than
        in the run that recorded this slot) invalidates the recorded value.
        """
        if ordinal >= len(self._slots):
            return None
        slot = self._slots[ordinal]
        if slot.kind != kind:
            return None
        return slot.value

    def record(self, ordinal, kind, value):
        """Define slot ``ordinal`` (extending the vector as needed)."""
        while len(self._slots) <= ordinal:
            self._slots.append(InputSlot(kind, 0))
        self._slots[ordinal] = InputSlot(kind, value)

    def updated(self, model):
        """``IM + IM'``: a copy with solver ``model`` values merged in."""
        merged = InputVector(
            InputSlot(slot.kind, slot.value) for slot in self._slots
        )
        for ordinal, value in model.items():
            # Negative ordinals are solver-internal auxiliaries (Omega
            # elimination); they never correspond to an input slot.
            if 0 <= ordinal < len(merged._slots):
                merged._slots[ordinal] = InputSlot(
                    merged._slots[ordinal].kind, value
                )
        return merged

    def domains(self):
        """Solver domains for every slot, keyed by ordinal."""
        return {
            ordinal: domain_for_kind(slot.kind)
            for ordinal, slot in enumerate(self._slots)
        }

    def prefix(self, count):
        """The first ``count`` slots as ``(kind, value)`` pairs."""
        return tuple((slot.kind, slot.value) for slot in self._slots[:count])

    def values(self):
        """The raw value list (for reports and replay)."""
        return [slot.value for slot in self._slots]

    def clone(self):
        return InputVector(
            InputSlot(slot.kind, slot.value) for slot in self._slots
        )

    def __repr__(self):
        return "InputVector({})".format(
            ", ".join(
                "x{}={}:{}".format(i, s.value, s.kind)
                for i, s in enumerate(self._slots)
            )
        )


def random_value(kind, rng):
    """A uniformly random value of the given input kind."""
    lo, hi = _DOMAINS[kind]
    return rng.randint(lo, hi)
