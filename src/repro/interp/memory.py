"""Byte-addressable memory for the RAM machine.

Memory is organized as non-overlapping *regions* (globals, interned
strings, stack frames, heap blocks, ``alloca`` blocks), each backed by a
``bytearray``.  Every access is checked against the owning region: touching
NULL, unmapped addresses, freed heap blocks or popped stack frames raises
:class:`repro.interp.faults.SegFault` — this is what lets DART report the
oSIP-style NULL-dereference crashes of Section 4.3 precisely.

``alloca`` follows the paper's description of the oSIP security bug: it
"returns a pointer to size bytes of uninitialized local stack space, or
NULL if the allocation failed", with failure governed by the configurable
``stack_limit`` (the 2.5 MB cygwin stack of the paper, scaled down by the
benchmarks so that the attack stays laptop-sized).
"""

import bisect

from repro.interp.faults import (
    InvalidFree,
    SegFault,
    StackOverflow,
    UninitializedRead,
)

GLOBALS_BASE = 0x0001_0000
STRINGS_BASE = 0x0800_0000
HEAP_BASE = 0x2000_0000
STACK_BASE = 0x4000_0000
ADDRESS_LIMIT = 0x7FFF_FFFF


class MemoryOptions:
    """Configurable memory-system limits."""

    def __init__(self, stack_limit=1 << 20, heap_limit=1 << 26,
                 max_call_depth=512, track_uninitialized=False):
        #: Total bytes available to stack frames plus ``alloca``.
        self.stack_limit = stack_limit
        #: Total bytes available to ``malloc``.
        self.heap_limit = heap_limit
        #: Maximum call-stack depth before a StackOverflow fault.
        self.max_call_depth = max_call_depth
        #: Report reads of never-written stack/heap bytes as faults (the
        #: check the paper delegates to Purify/CCured).
        self.track_uninitialized = track_uninitialized


class Region:
    """One contiguous allocation."""

    __slots__ = ("start", "size", "data", "live", "kind", "label",
                 "written")

    def __init__(self, start, size, kind, label, track_writes=False):
        self.start = start
        self.size = size
        self.data = bytearray(size)
        self.live = True
        self.kind = kind  # "globals", "string", "stack", "heap", "alloca"
        self.label = label
        #: Per-byte written bitmap (only when uninitialized-read tracking
        #: is on and the region starts out uninitialized).
        self.written = bytearray(size) if track_writes else None

    @property
    def end(self):
        return self.start + self.size

    def clone(self):
        """An independent copy (bytes and written bitmap included)."""
        region = Region.__new__(Region)
        region.start = self.start
        region.size = self.size
        region.data = bytearray(self.data)
        region.live = self.live
        region.kind = self.kind
        region.label = self.label
        region.written = bytearray(self.written) \
            if self.written is not None else None
        return region

    def __repr__(self):
        return "Region({:#x}+{}, {}, {!r}{})".format(
            self.start, self.size, self.kind, self.label,
            "" if self.live else ", dead",
        )


class MemoryImage:
    """A frozen copy of a :class:`Memory`, restorable any number of times.

    Only *live, writable* regions need bytes of their own: a dead region
    (popped frame, freed block) can never be read, written or revived,
    and a string region is read-only, so both are shared by reference
    between the memory that was captured, the image and every memory
    restored from it.
    """

    __slots__ = ("regions", "writable", "starts", "bumps", "stack_used",
                 "heap_used")

    def __init__(self, regions, writable, starts, bumps, stack_used,
                 heap_used):
        self.regions = regions
        #: Starts of the regions copied per capture and per restore.
        self.writable = writable
        self.starts = starts
        self.bumps = bumps
        self.stack_used = stack_used
        self.heap_used = heap_used


class Memory:
    """The RAM machine's memory ``M``."""

    def __init__(self, options=None):
        self.options = options or MemoryOptions()
        self._regions = {}
        self._starts = []
        self._last_region = None  # one-entry lookup cache (hot path)
        self._bumps = {
            "globals": GLOBALS_BASE,
            "string": STRINGS_BASE,
            "heap": HEAP_BASE,
            "stack": STACK_BASE,
        }
        self._stack_used = 0
        self._heap_used = 0

    # -- images -----------------------------------------------------------

    def capture(self):
        """A :class:`MemoryImage` of the current state."""
        regions = dict(self._regions)
        writable = []
        for start, region in regions.items():
            if region.live and region.kind != "string":
                regions[start] = region.clone()
                writable.append(start)
        return MemoryImage(regions, writable, list(self._starts),
                           dict(self._bumps), self._stack_used,
                           self._heap_used)

    def restore(self, image):
        """Adopt a copy of ``image``, leaving the image itself untouched."""
        regions = dict(image.regions)
        for start in image.writable:
            regions[start] = regions[start].clone()
        self._regions = regions
        self._starts = list(image.starts)
        self._last_region = None
        self._bumps = dict(image.bumps)
        self._stack_used = image.stack_used
        self._heap_used = image.heap_used

    def region_at(self, start):
        """The region allocated at exactly ``start``."""
        return self._regions[start]

    # -- allocation -------------------------------------------------------

    def _place(self, segment, size, kind, label):
        size = max(size, 1)
        aligned = (size + 7) & ~7
        start = self._bumps[segment]
        if start + aligned > ADDRESS_LIMIT:
            raise SegFault("address space exhausted", start)
        self._bumps[segment] = start + aligned
        track = (
            self.options.track_uninitialized
            and kind in ("stack", "heap", "alloca")
        )
        region = Region(start, size, kind, label, track_writes=track)
        self._regions[start] = region
        bisect.insort(self._starts, start)
        return region

    def alloc_global(self, size, label):
        return self._place("globals", size, "globals", label)

    def alloc_string(self, data, label="<string>"):
        region = self._place("string", len(data) + 1, "string", label)
        region.data[: len(data)] = data
        return region

    def push_frame(self, size, label, depth):
        if depth > self.options.max_call_depth:
            raise StackOverflow(
                "call depth exceeded {}".format(self.options.max_call_depth)
            )
        if self._stack_used + size > self.options.stack_limit:
            raise StackOverflow(
                "stack limit of {} bytes exceeded".format(
                    self.options.stack_limit
                )
            )
        region = self._place("stack", size, "stack", label)
        self._stack_used += region.size
        return region

    def pop_frame(self, region, alloca_regions):
        region.live = False
        self._stack_used -= region.size
        for block in alloca_regions:
            block.live = False
            self._stack_used -= block.size

    def malloc(self, size):
        """Allocate a heap block; returns 0 (NULL) on failure, like malloc."""
        if size < 0 or self._heap_used + size > self.options.heap_limit:
            return 0
        region = self._place("heap", size, "heap", "malloc({})".format(size))
        self._heap_used += region.size
        return region.start

    def alloca(self, size):
        """Allocate stack space; returns 0 (NULL) when the stack is full.

        The returned region must be registered with the current frame by the
        caller so it is released on function return.
        """
        if size < 0 or self._stack_used + size > self.options.stack_limit:
            return None
        region = self._place("stack", size, "alloca",
                             "alloca({})".format(size))
        self._stack_used += region.size
        return region

    def free(self, addr):
        if addr == 0:
            return
        region = self._regions.get(addr)
        if region is None or region.kind != "heap":
            raise InvalidFree(
                "free() of a pointer not returned by malloc: {:#x}"
                .format(addr)
            )
        if not region.live:
            raise InvalidFree("double free of {:#x}".format(addr))
        region.live = False
        self._heap_used -= region.size

    # -- access ----------------------------------------------------------

    def find_region(self, addr):
        """The region containing ``addr``, or None."""
        cached = self._last_region
        if cached is not None and cached.start <= addr < cached.end:
            return cached
        index = bisect.bisect_right(self._starts, addr) - 1
        if index < 0:
            return None
        region = self._regions[self._starts[index]]
        if addr < region.end:
            self._last_region = region
            return region
        return None

    #: Accesses below this address are NULL-page dereferences (e.g. a field
    #: access through a NULL struct pointer lands at the field's offset).
    NULL_PAGE = 0x1000

    def _checked_region(self, addr, size, writing):
        if 0 <= addr < self.NULL_PAGE:
            raise SegFault(
                "NULL pointer dereference"
                + ("" if addr == 0 else " (offset {})".format(addr)),
                addr,
            )
        region = self.find_region(addr)
        if region is None:
            raise SegFault(
                "access to unmapped address {:#x}".format(addr), addr
            )
        if not region.live:
            what = "freed heap block" if region.kind == "heap" \
                else "dead stack frame"
            raise SegFault(
                "access to {} at {:#x}".format(what, addr), addr
            )
        if addr + size > region.end:
            raise SegFault(
                "out-of-bounds access at {:#x} (+{} past {})".format(
                    addr, addr + size - region.end, region.label
                ),
                addr,
            )
        if writing and region.kind == "string":
            raise SegFault(
                "write to read-only string literal at {:#x}".format(addr),
                addr,
            )
        return region

    def read_bytes(self, addr, size, check_init=True):
        """Read ``size`` bytes.

        ``check_init=False`` skips the uninitialized-read check; aggregate
        copies (struct assignment, memcpy) use it so that never-written
        *padding* bytes propagate silently, exactly like real C — only
        scalar reads of never-written memory are reported.
        """
        region = self._checked_region(addr, size, writing=False)
        offset = addr - region.start
        if check_init and region.written is not None:
            window = region.written[offset : offset + size]
            if not all(window):
                raise UninitializedRead(
                    "read of never-written memory at {:#x} ({})".format(
                        addr, region.label
                    ),
                    addr,
                )
        return bytes(region.data[offset : offset + size])

    def write_bytes(self, addr, data):
        region = self._checked_region(addr, len(data), writing=True)
        offset = addr - region.start
        region.data[offset : offset + len(data)] = data
        if region.written is not None:
            region.written[offset : offset + len(data)] = b"\x01" * len(
                data
            )

    def read_int(self, addr, size, signed):
        return int.from_bytes(self.read_bytes(addr, size), "little",
                              signed=signed)

    def write_int(self, addr, value, size, signed):
        bits = 8 * size
        value &= (1 << bits) - 1
        if signed and value >= 1 << (bits - 1):
            value -= 1 << bits
        self.write_bytes(addr, value.to_bytes(size, "little", signed=signed))

    def fill(self, addr, value, size):
        """memset: bulk fill, checked once."""
        if size == 0:
            return
        region = self._checked_region(addr, size, writing=True)
        offset = addr - region.start
        region.data[offset : offset + size] = bytes([value & 0xFF]) * size
        if region.written is not None:
            region.written[offset : offset + size] = b"\x01" * size

    def copy(self, dst, src, size):
        """memcpy: bulk copy, checked once per side."""
        if size == 0:
            return
        data = self.read_bytes(src, size, check_init=False)
        self.write_bytes(dst, data)

    def string_at(self, addr, limit=1 << 20):
        """Read a NUL-terminated C string (for strlen/strcmp/diagnostics)."""
        region = self._checked_region(addr, 1, writing=False)
        offset = addr - region.start
        end = region.data.find(b"\x00", offset)
        if end == -1:
            # Running off the end of the region is an out-of-bounds read.
            raise SegFault(
                "unterminated string at {:#x}".format(addr), addr
            )
        if end - offset > limit:
            raise SegFault("string too long at {:#x}".format(addr), addr)
        return bytes(region.data[offset:end])

    @property
    def stack_used(self):
        return self._stack_used

    @property
    def heap_used(self):
        return self._heap_used
