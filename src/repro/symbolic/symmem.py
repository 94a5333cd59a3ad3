"""The symbolic memory ``S`` of Section 2.2.

``S`` maps concrete byte addresses to symbolic expressions, together with
the byte width of the stored scalar.  Writes with no symbolic payload (the
common case) *invalidate* any overlapping entries, which is how symbolic
information soundly disappears when the program overwrites an
input-dependent location with a computed value — including through aliases,
as in the ``char*``/struct cast example of Section 2.5: the byte-range
overlap check catches partial overwrites that a variable-keyed map would
miss.
"""


class SymbolicMemory:
    """Maps byte addresses to ``(size, expr)`` entries."""

    def __init__(self):
        self._entries = {}
        # Conservative bounds over all entries ever written: lets the hot
        # has_overlap path skip the scan for unrelated addresses.
        self._lo = None
        self._hi = None

    def __len__(self):
        return len(self._entries)

    def clear(self):
        self._entries.clear()

    def capture(self):
        """The entries and bounds, as a value :meth:`restore` accepts."""
        return dict(self._entries), self._lo, self._hi

    def restore(self, state):
        entries, self._lo, self._hi = state
        self._entries = dict(entries)

    def read(self, addr, size):
        """The expression stored exactly at ``addr`` with width ``size``.

        Partially overlapping entries yield None: reading half of a symbolic
        int is outside the theory and falls back to the concrete value.
        """
        entry = self._entries.get(addr)
        if entry is not None and entry[0] == size:
            return entry[1]
        return None

    def write(self, addr, size, expr):
        """Store ``expr`` at ``addr``; ``expr`` may be None to invalidate."""
        self._invalidate_overlaps(addr, size)
        if expr is not None:
            self._entries[addr] = (size, expr)
            if self._lo is None or addr < self._lo:
                self._lo = addr
            if self._hi is None or addr + size > self._hi:
                self._hi = addr + size

    def invalidate(self, addr, size):
        self._invalidate_overlaps(addr, size)

    def has_overlap(self, addr, size):
        """True when any entry intersects [addr, addr + size).

        Used by the library-function black boxes: *reading* symbolic data
        through an opaque function loses completeness (the result depends
        on inputs yet carries no symbolic value), so the caller must clear
        ``all_linear``.
        """
        if not self._entries:
            return False
        if self._lo is not None and (
            addr + size <= self._lo or addr >= self._hi
        ):
            return False  # outside the bounds of everything ever stored
        if addr in self._entries:
            return True
        end = addr + size
        return any(
            a < end and addr < a + width
            for a, (width, _) in self._entries.items()
        )

    def _invalidate_overlaps(self, addr, size):
        # Fast path: outside the bounds of everything ever stored, nothing
        # can overlap (concrete stores vastly outnumber symbolic entries,
        # so this guard carries the interpreter's store hot path).
        if self._lo is None or addr + size <= self._lo or addr >= self._hi:
            return
        # Fast path: an exact-width entry at the same address.
        existing = self._entries.pop(addr, None)
        if existing is not None and existing[0] == size:
            return
        if existing is not None:
            pass  # it overlapped by definition; fall through to full scan
        end = addr + size
        stale = [
            a
            for a, (width, _) in self._entries.items()
            if a < end and addr < a + width
        ]
        for a in stale:
            del self._entries[a]

    def copy_range(self, src, dst, size):
        """Copy symbolic entries wholly inside [src, src+size) to dst.

        Used for struct assignment and transparent memcpy: entries that are
        only partially covered are dropped (concrete fallback), entries in
        the destination range are invalidated first.
        """
        self._invalidate_overlaps(dst, size)
        src_end = src + size
        moved = []
        for addr, (width, expr) in self._entries.items():
            if addr >= src and addr + width <= src_end:
                moved.append((dst + (addr - src), width, expr))
        for addr, width, expr in moved:
            self._entries[addr] = (width, expr)
            if self._lo is None or addr < self._lo:
                self._lo = addr
            if self._hi is None or addr + width > self._hi:
                self._hi = addr + width

    def entries(self):
        """All live entries as (addr, size, expr) tuples (for inspection)."""
        return [
            (addr, width, expr)
            for addr, (width, expr) in sorted(self._entries.items())
        ]

    def variables(self):
        """The set of input ordinals currently referenced by ``S``."""
        referenced = set()
        for _, expr in self._entries.values():
            referenced |= expr.variables()
        return referenced
