"""The instrumented RAM machine (Fig. 3 of the paper).

One :class:`Machine` performs one execution of the program: it runs the
concrete semantics over the byte-addressable memory ``M`` while maintaining
the symbolic memory ``S`` side by side.  Every expression evaluates to a
pair ``(concrete value, symbolic expression or None)``.

Two extension points connect the machine to the testing layers:

* ``hooks.acquire_input(kind)`` is called by the ``__dart_*`` intrinsics the
  generated test driver uses; it returns the concrete value (from the input
  vector ``IM``, or freshly randomized) and the :class:`InputVar` naming it
  (or None, which makes the value invisible to the symbolic execution).
* ``hooks.on_branch(taken, constraint, location)`` is called at every
  conditional statement with the branch outcome and the path-constraint
  conjunct, implementing the ``path_constraint``/``stack`` bookkeeping of
  Figs. 3 and 4.

A machine can also start part-way: :meth:`Machine.load_image` builds the
memory that loading the module produces once, for every later machine to
copy, and :meth:`Machine.capture` snapshots a running machine between
two steps of its entry frame, which a machine constructed with
``resume=`` continues (repro.dart.resume does this at the driver's
iteration boundaries).
"""

import sys
import time

from repro.faults import points as fault_points
from repro.interp.builtins import (
    BUILTINS,
    INPUT_INTRINSICS,
    ProgramHalt,
)
from repro.interp.faults import (
    AssertionViolation,
    DivisionByZero,
    ExecutionFault,
    InterpreterError,
    NonTermination,
    ProgramAbort,
    RunTimeout,
)
from repro.interp.memory import Memory, MemoryOptions
from repro.interp.values import c_div, c_mod, to_unsigned, wrap
from repro.minic import ast_nodes as ast
from repro.minic import ir
from repro.minic import typesys as ts
from repro.minic.symbols import BUILTIN, ENUM_CONST, GLOBAL
from repro.symbolic.evaluate import SymbolicEvaluator, constraint_from_branch
from repro.symbolic.expr import EQ, LinExpr
from repro.symbolic.flags import CompletenessFlags
from repro.symbolic.symmem import SymbolicMemory
from repro.symbolic.widen import Widener

_COMPARISONS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}

_INPUT_KIND_TYPES = {
    "int": ts.INT,
    "uint": ts.UINT,
    "char": ts.CHAR,
    "uchar": ts.UCHAR,
    "short": ts.SHORT,
    "ushort": ts.USHORT,
    "ptr_choice": ts.INT,
}


class MachineOptions:
    """Tunables for one execution."""

    def __init__(self, max_steps=1_000_000, transparent_memory=False,
                 memory=None, deadline=None, watchdog_interval=1024,
                 interrupt_check=None, trace=None):
        #: RAM-machine step budget; exceeding it reports NonTermination,
        #: the paper's timer-based non-termination detection (§4.3).
        self.max_steps = max_steps
        #: Extension: let memcpy/strcpy move symbolic values instead of
        #: erasing them (the paper treats them as opaque; see DESIGN.md).
        self.transparent_memory = transparent_memory
        self.memory = memory or MemoryOptions()
        #: Absolute ``time.perf_counter()`` deadline for this execution, or
        #: None.  Enforced amortized (every ``watchdog_interval`` steps) in
        #: the step loop; tripping it raises :class:`RunTimeout`, which the
        #: DART run loop contains instead of aborting the session.
        self.deadline = deadline
        #: Steps between wall-clock checks; bounds how far past the
        #: deadline a run can drift (one interval's worth of steps).
        self.watchdog_interval = watchdog_interval
        #: Optional callable probed at the watchdog cadence; it may raise
        #: to abort the run (the DART session uses it to observe SIGINT/
        #: SIGTERM mid-run instead of only between runs).
        self.interrupt_check = interrupt_check
        #: Optional repro.obs.trace.TraceBus; when attached and enabled,
        #: every executed conditional emits a ``branch`` event.  The
        #: guard is a plain attribute check, so a machine without a bus
        #: pays nothing.
        self.trace = trace


class ExecutionHooks:
    """Default hooks: inputs are rejected, branches are ignored.

    Suitable for running closed programs (no driver); the DART engine and
    the random tester provide real implementations.
    """

    def acquire_input(self, kind):
        raise InterpreterError(
            "the program read a {} input but no test driver is attached"
            .format(kind)
        )

    def on_branch(self, taken, constraint, location):
        pass


class Frame:
    """One activation record."""

    __slots__ = ("function", "region", "alloca_regions")

    def __init__(self, function, region):
        self.function = function
        self.region = region
        self.alloca_regions = []

    def addr_of(self, symbol):
        return self.region.start + symbol.frame_offset


class _StructValue:
    """A struct rvalue: raw bytes, plus the source address when the value
    was loaded from memory (so struct assignment can move symbolic state)."""

    __slots__ = ("data", "source_addr")

    def __init__(self, data, source_addr=None):
        self.data = data
        self.source_addr = source_addr


class LoadImage:
    """The machine state ``_load_module`` builds: interned strings and
    initialized globals.  Built once per module by
    :meth:`Machine.load_image`; every machine given it starts from a
    copy instead of loading the module again."""

    __slots__ = ("memory", "global_addrs", "string_addrs")

    def __init__(self, memory, global_addrs, string_addrs):
        self.memory = memory
        #: Shared read-only by every machine built from the image.
        self.global_addrs = global_addrs
        self.string_addrs = string_addrs


class Snapshot:
    """One machine captured between two steps of its entry frame.

    Built by :meth:`Machine.capture`; a machine constructed with
    ``resume=snapshot`` re-enters the entry frame's step loop at ``pc``
    with every piece of machine state as it was.  The snapshot itself
    is never mutated, so it can be resumed any number of times.
    """

    __slots__ = ("function", "pc", "frame", "alloca", "image", "symbolic",
                 "widener", "steps", "symbolic_steps", "branches_executed",
                 "next_watchdog", "probes", "covered", "output")


class Machine:
    """Executes a lowered module; one instance per program execution.

    Two execution engines share every piece of machine state (memory,
    symbolic store, hooks, widener, flags, frames, counters): the
    tree-walking interpreter below (``_execute``/``_eval``) and the
    compiled engine (:mod:`repro.interp.compile`), selected by passing a
    ``CompiledProgram`` for the same module as ``compiled``.  The engines
    are observationally identical — same concrete state, branch events,
    faults, counters and completeness-flag transitions — which the
    engine-differential oracle pins (see ``repro.testgen.oracles``).
    """

    def __init__(self, module, options=None, hooks=None, flags=None,
                 compiled=None, image=None, resume=None):
        self.module = module
        self.options = options or MachineOptions()
        self.hooks = hooks or ExecutionHooks()
        self.flags = flags or CompletenessFlags()
        if compiled is not None and compiled.module is not module:
            raise InterpreterError(
                "compiled program was lowered from a different module"
            )
        #: repro.interp.compile.CompiledProgram or None (interpreter).
        self.compiled = compiled
        self.symbolic = SymbolicMemory()
        self.evaluator = SymbolicEvaluator(self.flags)
        #: Machine-integer widening: keeps recorded conjuncts faithful to
        #: this run under 32-bit wrap and unsigned compares (see
        #: repro.symbolic.widen); also the funnel counters
        #: conjuncts_widened / conjuncts_dropped_unfaithful.
        self.widener = Widener(self.flags, trace=self.options.trace)
        self.memory = Memory(self.options.memory)
        self.output = []
        self.steps = 0
        #: Instructions whose result carried a symbolic expression — the
        #: taint-gated slow path.  Counted identically by both engines.
        self.symbolic_steps = 0
        self.branches_executed = 0
        #: (function name, pc, taken) triples — branch-direction coverage.
        self.covered_branches = set()
        self._frames = []
        self._global_addrs = {}
        self._string_addrs = []
        #: Set by _step_ret just before _execute unwinds (re-entrant calls
        #: are safe: the value is read immediately after the setting step).
        self._return_value = (0, None)
        #: Step count at which the wall-clock watchdog next fires.
        self._next_watchdog = self.options.watchdog_interval
        #: Fault-injector probes made by the watchdog so far.
        self.probes = 0
        #: The snapshot run() re-enters, or None to start from scratch.
        self._resume = resume
        if resume is not None:
            image = resume.image
        if image is None:
            self._load_module()
        else:
            self.memory.restore(image.memory)
            self._global_addrs = image.global_addrs
            self._string_addrs = image.string_addrs
        if resume is not None:
            self._restore(resume)
        if sys.getrecursionlimit() < 20000:
            sys.setrecursionlimit(20000)

    # -- loading, capture and resume -------------------------------------

    @classmethod
    def load_image(cls, module):
        """The :class:`LoadImage` of ``module`` (strings and globals)."""
        machine = cls(module)
        return LoadImage(machine.memory.capture(), machine._global_addrs,
                         machine._string_addrs)

    def capture(self, pc):
        """A :class:`Snapshot` of this machine, taken between two steps
        of its entry frame; ``pc`` is the entry frame's next step."""
        if len(self._frames) != 1:
            raise InterpreterError("capture outside the entry frame")
        frame = self._frames[0]
        snapshot = Snapshot()
        snapshot.function = frame.function
        snapshot.pc = pc
        snapshot.frame = frame.region.start
        snapshot.alloca = tuple(block.start
                                for block in frame.alloca_regions)
        snapshot.image = LoadImage(self.memory.capture(), self._global_addrs,
                                   self._string_addrs)
        snapshot.symbolic = self.symbolic.capture()
        snapshot.widener = self.widener.capture()
        snapshot.steps = self.steps
        snapshot.symbolic_steps = self.symbolic_steps
        snapshot.branches_executed = self.branches_executed
        snapshot.next_watchdog = self._next_watchdog
        snapshot.probes = self.probes
        snapshot.covered = frozenset(self.covered_branches)
        snapshot.output = tuple(self.output)
        return snapshot

    def _restore(self, snapshot):
        """Everything but the memory image (__init__ restored that)."""
        self.symbolic.restore(snapshot.symbolic)
        self.widener.restore(snapshot.widener)
        self.steps = snapshot.steps
        self.symbolic_steps = snapshot.symbolic_steps
        self.branches_executed = snapshot.branches_executed
        self._next_watchdog = snapshot.next_watchdog
        self.probes = snapshot.probes
        self.covered_branches = set(snapshot.covered)
        self.output = list(snapshot.output)

    def _load_module(self):
        for data in self.module.strings:
            region = self.memory.alloc_string(data)
            self._string_addrs.append(region.start)
        for gvar in self.module.globals:
            region = self.memory.alloc_global(
                max(gvar.ctype.size, 1), gvar.name
            )
            self._global_addrs[gvar.name] = region.start
            self._init_global(gvar, region.start)

    def _init_global(self, gvar, addr):
        init = gvar.init
        if init is None:
            return  # zero-initialized by the allocator
        if isinstance(init, ir.StringRef):
            self.memory.write_int(
                addr, self._string_addrs[init.index], 4, signed=False
            )
        elif isinstance(init, int):
            ctype = gvar.ctype
            size = ctype.size if ctype.is_scalar() else 4
            signed = ctype.is_integer() and ctype.signed
            self.memory.write_int(addr, init, size, signed)
        else:
            raise InterpreterError(
                "unsupported global initializer for {!r}".format(gvar.name)
            )

    @property
    def current_frame(self):
        return self._frames[-1]

    def global_address(self, name):
        """The address of a global variable (for drivers and tests)."""
        return self._global_addrs[name]

    # -- public entry points -----------------------------------------------

    def run(self, function_name, args=(), boundary=None):
        """Execute ``function_name``; returns the concrete return value.

        ``args`` are concrete integers for scalar parameters.  Program
        faults propagate as :class:`ExecutionFault`; ``exit()`` is a normal
        halt and yields its status code.  A machine constructed with
        ``resume=snapshot`` continues the snapshot's entry frame instead
        (``args`` are then ignored: they are already in the frame).

        ``boundary`` is an optional ``(pc, reached)`` pair: each time the
        entry frame completes its instruction ``pc``, ``reached(next_pc)``
        is called — the moment :meth:`capture` may snapshot the machine.
        """
        function = self.module.function(function_name)
        if len(args) != len(function.param_slots):
            raise InterpreterError(
                "{!r} expects {} argument(s)".format(
                    function_name, len(function.param_slots)
                )
            )
        injector = fault_points.ACTIVE
        if injector is not None:
            # Fault seam: may raise MemoryError/RecursionError as if the
            # interpreter itself blew up; the runner's fault boundary
            # must quarantine the run, not crash the session.
            injector.machine_probe()
        snapshot = self._resume
        try:
            if snapshot is None:
                pairs = [(value, None) for value in args]
                value, _ = self._call(function, pairs, function.location,
                                      boundary)
            else:
                if snapshot.function is not function:
                    raise InterpreterError(
                        "snapshot was captured in {!r}".format(
                            snapshot.function.name))
                self._resume = None
                frame = Frame(function,
                              self.memory.region_at(snapshot.frame))
                frame.alloca_regions = [self.memory.region_at(start)
                                        for start in snapshot.alloca]
                value, _ = self._activate(function, frame, snapshot.pc,
                                          boundary)
        except ProgramHalt as halt:
            return halt.code
        return value

    # -- call machinery ----------------------------------------------------

    def _call(self, function, arg_pairs, location, boundary=None):
        region = self.memory.push_frame(
            max(function.frame_size, 1), function.name, len(self._frames) + 1
        )
        frame = Frame(function, region)
        for slot, (value, sym) in zip(function.param_slots, arg_pairs):
            addr = region.start + slot.offset
            self._store_scalar_or_struct(addr, slot.ctype, value, sym)
        return self._activate(function, frame, 0, boundary)

    def _activate(self, function, frame, pc, boundary):
        """Run ``frame`` from instruction ``pc`` until it returns."""
        self._frames.append(frame)
        try:
            compiled = self.compiled
            if compiled is not None:
                return self._execute_compiled(
                    compiled.function(function), frame, pc, boundary
                )
            return self._execute(function, frame, pc, boundary)
        finally:
            self._frames.pop()
            region = frame.region
            self.memory.pop_frame(region, frame.alloca_regions)
            self.symbolic.invalidate(region.start, region.size)

    def _store_scalar_or_struct(self, addr, ctype, value, sym):
        if ctype.is_struct():
            data = value.data if isinstance(value, _StructValue) else value
            self.memory.write_bytes(addr, data)
            if isinstance(value, _StructValue) \
                    and value.source_addr is not None:
                self.symbolic.copy_range(value.source_addr, addr, ctype.size)
            else:
                self.symbolic.invalidate(addr, ctype.size)
            return
        size = ctype.size
        signed = ctype.is_integer() and ctype.signed
        self.memory.write_int(addr, value, size, signed)
        self.symbolic.write(addr, size, sym)

    def _execute(self, function, frame, pc=0, boundary=None):
        instrs = function.instrs
        dispatch = self._STEP_DISPATCH
        at, reached = boundary if boundary is not None else (-1, None)
        limit = self.options.max_steps
        deadline = self.options.deadline
        interrupt_check = self.options.interrupt_check
        injector = fault_points.ACTIVE
        watchdog = deadline is not None or interrupt_check is not None \
            or injector is not None
        while True:
            self.steps += 1
            instr = instrs[pc]
            if self.steps > limit:
                raise NonTermination(self.steps, instr.location)
            if watchdog and self.steps >= self._next_watchdog:
                self._next_watchdog = \
                    self.steps + self.options.watchdog_interval
                if injector is not None:
                    # Fault seam: resource exhaustion mid-execution, at
                    # watchdog cadence so deep runs are also exposed.
                    self.probes += 1
                    injector.machine_probe()
                if interrupt_check is not None:
                    interrupt_check()
                if deadline is not None:
                    now = time.perf_counter()
                    if now > deadline:
                        raise RunTimeout(now - deadline, instr.location)
            step = dispatch.get(type(instr))
            if step is None:
                raise InterpreterError(
                    "unknown instruction {!r}".format(instr)
                )
            try:
                next_pc = step(self, instr, pc, function)
            except ExecutionFault as fault:
                # Attach the faulting statement's location so reports and
                # crash-site deduplication have a precise anchor.
                if fault.location is None:
                    fault.location = instr.location
                raise
            if pc == at:
                reached(next_pc)
            if next_pc < 0:
                return self._return_value
            pc = next_pc

    def _execute_compiled(self, cfunc, frame, pc=0, boundary=None):
        """Step loop for the compiled engine (repro.interp.compile).

        Mirrors ``_execute`` exactly — same step accounting, watchdog
        cadence, fault-location attachment — but each pc indexes a
        pre-lowered closure ``step(machine, frame_base) -> next pc``
        instead of re-dispatching on the instruction type.  A boundary
        wraps its one step in a private copy of the step list, so the
        loop itself pays nothing for it.
        """
        steps = cfunc.steps
        if boundary is not None:
            steps = _with_boundary(steps, boundary)
        locations = cfunc.locations
        fbase = frame.region.start
        limit = self.options.max_steps
        deadline = self.options.deadline
        interrupt_check = self.options.interrupt_check
        injector = fault_points.ACTIVE
        watchdog = deadline is not None or interrupt_check is not None \
            or injector is not None
        while True:
            self.steps += 1
            if self.steps > limit:
                raise NonTermination(self.steps, locations[pc])
            if watchdog and self.steps >= self._next_watchdog:
                self._next_watchdog = \
                    self.steps + self.options.watchdog_interval
                if injector is not None:
                    # Fault seam: same cadence as the interpreter so fault
                    # plans replay identically under either engine.
                    self.probes += 1
                    injector.machine_probe()
                if interrupt_check is not None:
                    interrupt_check()
                if deadline is not None:
                    now = time.perf_counter()
                    if now > deadline:
                        raise RunTimeout(now - deadline, locations[pc])
            try:
                pc = steps[pc](self, fbase)
            except ExecutionFault as fault:
                if fault.location is None:
                    fault.location = locations[pc]
                raise
            if pc < 0:
                return self._return_value

    # -- step handlers (one per instruction type; see _STEP_DISPATCH) --------

    #: Sentinel pc returned by _step_ret: unwind with self._return_value.
    _PC_RETURN = -1

    def _step_eval(self, instr, pc, function):
        if self._eval(instr.expr)[1] is not None:
            self.symbolic_steps += 1
        return pc + 1

    def _step_branch(self, instr, pc, function):
        value, sym = self._eval(instr.cond)
        taken = value != 0
        if sym is None:
            constraint = None
        else:
            self.symbolic_steps += 1
            constraint = constraint_from_branch(
                sym, taken, widener=self.widener, value=value,
                unsigned=self._unsigned_ctype(instr.cond.ctype),
            )
        self.branches_executed += 1
        self.covered_branches.add((function.name, pc, taken))
        trace = self.options.trace
        if trace is not None and trace.enabled:
            trace.emit("branch", function=function.name, pc=pc,
                       taken=taken, symbolic=constraint is not None)
        self.hooks.on_branch(taken, constraint, instr.location)
        return instr.target if taken else pc + 1

    def _step_jump(self, instr, pc, function):
        return instr.target

    def _step_ret(self, instr, pc, function):
        if instr.value is None:
            self._return_value = (0, None)
        else:
            self._return_value = self._eval(instr.value)
            if self._return_value[1] is not None:
                self.symbolic_steps += 1
        return self._PC_RETURN

    def _step_abort(self, instr, pc, function):
        if instr.reason == "assertion violation":
            raise AssertionViolation("assertion violated", instr.location)
        raise ProgramAbort("abort() reached", instr.location)

    # -- expression evaluation ----------------------------------------------

    def _eval(self, expr):
        """Evaluate ``expr``; returns (concrete value, symbolic or None)."""
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise InterpreterError(
                "cannot evaluate {} node".format(type(expr).__name__)
            )
        return method(self, expr)

    def _eval_intlit(self, expr):
        return expr.value, None

    def _eval_stringlit(self, expr):
        return self._string_addrs[expr.intern_index], None

    def _eval_ident(self, expr):
        symbol = expr.symbol
        if symbol.kind == ENUM_CONST:
            return symbol.value, None
        addr = self._symbol_addr(symbol)
        return self._load(addr, expr.ctype)

    def _symbol_addr(self, symbol):
        if symbol.kind == GLOBAL:
            return self._global_addrs[symbol.name]
        return self.current_frame.addr_of(symbol)

    def _load(self, addr, ctype):
        if ctype.is_array():
            return addr, None  # decay
        if ctype.is_struct():
            # check_init=False: padding bytes are legitimately unwritten.
            data = self.memory.read_bytes(addr, ctype.size,
                                          check_init=False)
            return _StructValue(data, addr), None
        size = ctype.size
        signed = ctype.is_integer() and ctype.signed
        value = self.memory.read_int(addr, size, signed)
        sym = self.symbolic.read(addr, size)
        if sym is None and self.symbolic.has_overlap(addr, size):
            # A partial overlap (e.g. reading an int whose low byte holds
            # a symbolic char, union/char* aliasing): the loaded value
            # depends on inputs but carries no symbolic expression —
            # outside the theory, so completeness is lost (Fig. 1 spirit).
            self.flags.clear_linear()
        return value, sym

    # -- lvalues ----------------------------------------------------------

    def _eval_lvalue(self, expr):
        """The address of an lvalue; clears ``all_locs_definite`` when the
        address computation itself depends on inputs (Fig. 1's ``*e`` case)."""
        if isinstance(expr, ast.Ident):
            return self._symbol_addr(expr.symbol)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            value, sym = self._eval(expr.operand)
            if sym is not None:
                self.flags.clear_locs()
            return value
        if isinstance(expr, ast.Index):
            return self._index_addr(expr)
        if isinstance(expr, ast.Member):
            return self._member_addr(expr)
        raise InterpreterError(
            "not an lvalue: {}".format(type(expr).__name__)
        )

    def _index_addr(self, expr):
        base_value, base_sym = self._eval(expr.base)
        index_value, index_sym = self._eval(expr.index)
        base_type = expr.base.ctype.decay()
        if not base_type.is_pointer():
            # Semantic analysis allows ``i[p]``; normalize.
            base_value, index_value = index_value, base_value
            base_sym, index_sym = index_sym, base_sym
            base_type = expr.index.ctype.decay()
        if base_sym is not None or index_sym is not None:
            self.flags.clear_locs()
        return base_value + index_value * base_type.pointee.size

    def _member_addr(self, expr):
        if expr.arrow:
            base_value, base_sym = self._eval(expr.base)
            if base_sym is not None:
                self.flags.clear_locs()
            return base_value + expr.field.offset
        return self._eval_lvalue(expr.base) + expr.field.offset

    # -- operators ---------------------------------------------------------

    def _eval_unary(self, expr):
        op = expr.op
        if op == "&":
            return self._eval_lvalue(expr.operand), None
        if op == "*":
            addr = self._eval_lvalue(expr)
            return self._load(addr, expr.ctype)
        if op in ("++", "--"):
            return self._incdec(expr.operand, op, prefix=True)
        value, sym = self._eval(expr.operand)
        if op == "-":
            result = wrap(-value, expr.ctype)
            return result, self.evaluator.neg(value, sym)
        if op == "~":
            result = wrap(~value, expr.ctype)
            return result, self.evaluator.nonlinear(sym)
        if op == "!":
            result = 0 if value != 0 else 1
            if isinstance(sym, LinExpr):
                # ``!e`` of a linear term is a truth test: encode it
                # here, where the operand lane is still known — a later
                # branch on the stored CmpExpr could only drop it.
                # Domain-precise lanes come back as the plain ``e == 0``.
                notsym = self.widener.widen_truth_test(
                    EQ, value, sym,
                    self._unsigned_ctype(expr.operand.ctype), result,
                )
            else:
                notsym = self.evaluator.logical_not(value, sym)
                if notsym is not None and \
                        not self.widener.faithful(notsym, result):
                    notsym = self.widener.drop_unfaithful()
            return result, notsym
        raise InterpreterError("unknown unary operator {!r}".format(op))

    def _eval_postfix(self, expr):
        return self._incdec(expr.operand, expr.op, prefix=False)

    def _incdec(self, target, op, prefix):
        addr = self._eval_lvalue(target)
        ctype = target.ctype.decay()
        old_value, old_sym = self._load(addr, ctype)
        step = ctype.pointee.size if ctype.is_pointer() else 1
        delta = step if op == "++" else -step
        if ctype.is_pointer():
            new_value = old_value + delta
            new_sym = self.evaluator.nonlinear(old_sym)
        else:
            new_value = wrap(old_value + delta, ctype)
            new_sym = self.evaluator.add(old_value, old_sym, delta, None)
        self._store_scalar(addr, ctype, new_value, new_sym)
        if prefix:
            return new_value, new_sym
        return old_value, old_sym

    def _store_scalar(self, addr, ctype, value, sym):
        size = ctype.size
        signed = ctype.is_integer() and ctype.signed
        self.memory.write_int(addr, value, size, signed)
        self.symbolic.write(addr, size, sym)

    def _eval_binary(self, expr):
        op = expr.op
        left_value, left_sym = self._eval(expr.left)
        right_value, right_sym = self._eval(expr.right)
        return self._apply_binary(
            expr, op,
            expr.left.ctype.decay(), left_value, left_sym,
            expr.right.ctype.decay(), right_value, right_sym,
        )

    def _apply_binary(self, expr, op, left_type, left_value, left_sym,
                      right_type, right_value, right_sym):
        if op in ("==", "!=", "<", ">", "<=", ">="):
            return self._compare(op, left_type, left_value, left_sym,
                                 right_type, right_value, right_sym)
        if left_type.is_pointer() or right_type.is_pointer():
            return self._pointer_arith(op, left_type, left_value, left_sym,
                                       right_type, right_value, right_sym,
                                       expr)
        result_type = expr.ctype.decay()
        if not result_type.signed:
            left_value = to_unsigned(left_value, 4)
            right_value = to_unsigned(right_value, 4)
        if op == "+":
            raw = left_value + right_value
            sym = self.evaluator.add(left_value, left_sym,
                                     right_value, right_sym)
        elif op == "-":
            raw = left_value - right_value
            sym = self.evaluator.sub(left_value, left_sym,
                                     right_value, right_sym)
        elif op == "*":
            raw = left_value * right_value
            sym = self.evaluator.mul(left_value, left_sym,
                                     right_value, right_sym)
        elif op in ("/", "%"):
            if right_value == 0:
                raise DivisionByZero(
                    "{} by zero".format(
                        "division" if op == "/" else "modulo"
                    ),
                    expr.location,
                )
            raw = c_div(left_value, right_value) if op == "/" \
                else c_mod(left_value, right_value)
            sym = self.evaluator.nonlinear(left_sym, right_sym)
        elif op == "<<":
            raw = left_value << (right_value & 31)
            sym = self.evaluator.shift_left(left_value, left_sym,
                                            right_value & 31, right_sym)
        elif op == ">>":
            raw = left_value >> (right_value & 31)
            sym = self.evaluator.nonlinear(left_sym, right_sym)
        elif op == "&":
            raw = left_value & right_value
            sym = self.evaluator.nonlinear(left_sym, right_sym)
        elif op == "|":
            raw = left_value | right_value
            sym = self.evaluator.nonlinear(left_sym, right_sym)
        elif op == "^":
            raw = left_value ^ right_value
            sym = self.evaluator.nonlinear(left_sym, right_sym)
        else:
            raise InterpreterError("unknown binary operator {!r}".format(op))
        # The symbolic half stays in ideal integers even when the concrete
        # result wraps (the paper's lp_solve has no machine arithmetic
        # either).  A comparison recorded from a wrapped value would be
        # false of its own run; _compare detects that and rewrites the
        # conjunct through run-anchored wrap quotients so the recorded
        # fact stays bit-precise (see repro.symbolic.widen).
        return wrap(raw, result_type), sym

    @staticmethod
    def _unsigned_ctype(ctype):
        """Whether a truth test of ``ctype`` lives in the unsigned window."""
        if ctype is None:
            return False
        ctype = ctype.decay()
        if ctype.is_pointer():
            return True
        return ctype.is_integer() and not ctype.signed

    def _compare(self, op, left_type, left_value, left_sym,
                 right_type, right_value, right_sym):
        unsigned = (
            left_type.is_pointer() or right_type.is_pointer()
            or not left_type.signed or not right_type.signed
        )
        if unsigned:
            lv, rv = to_unsigned(left_value, 4), to_unsigned(right_value, 4)
        else:
            lv, rv = left_value, right_value
        result = _COMPARISONS[op](lv, rv)
        if left_sym is None and right_sym is None:
            return (1 if result else 0), None
        if self.widener.lanes_linear(left_sym, right_sym):
            # Every comparison in the linear fragment is encoded by the
            # widener against the *machine* operands (folded into the
            # signed/unsigned window) and the input domains: a
            # domain-precise compare comes back as a plain ideal-integer
            # conjunct, anything that can wrap as a bit-precise
            # WidenedCmp (repro.symbolic.widen).  The ideal-integer
            # reading is never recorded directly — faithful-by-luck
            # conjuncts are exactly the ones whose negations misreport
            # the flipped branch as infeasible.
            sym = self.widener.widen_compare(
                op, lv, left_sym, rv, right_sym, unsigned, result,
                left_value, right_value,
            )
        else:
            # Pointer lanes (the NULL test) and anything outside the
            # linear theory keep the Fig. 1 combinator; the faithfulness
            # screen stays as a last defense, with the drop (which
            # clears ``all_faithful``) as the only remedy.
            sym = self.evaluator.compare(op, left_value, left_sym,
                                         right_value, right_sym)
            if sym is not None and not self.widener.faithful(sym, result):
                sym = self.widener.drop_unfaithful()
        return (1 if result else 0), sym

    def _pointer_arith(self, op, left_type, left_value, left_sym,
                       right_type, right_value, right_sym, expr):
        if op == "-" and left_type.is_pointer() and right_type.is_pointer():
            size = max(left_type.pointee.size, 1)
            diff = (left_value - right_value) // size
            if size == 1:
                sym = self.evaluator.sub(left_value, left_sym,
                                         right_value, right_sym)
            else:
                sym = self.evaluator.nonlinear(left_sym, right_sym)
            return diff, sym
        if left_type.is_pointer():
            ptr_value, ptr_sym = left_value, left_sym
            int_value, int_sym = right_value, right_sym
            pointee = left_type.pointee
        else:
            ptr_value, ptr_sym = right_value, right_sym
            int_value, int_sym = left_value, left_sym
            pointee = right_type.pointee
        size = max(pointee.size, 1)
        offset = int_value * size
        offset_sym = self.evaluator.mul(size, None, int_value, int_sym)
        if op == "+":
            value = ptr_value + offset
            sym = self.evaluator.add(ptr_value, ptr_sym, offset, offset_sym)
        else:
            value = ptr_value - offset
            sym = self.evaluator.sub(ptr_value, ptr_sym, offset, offset_sym)
        return value, sym

    # -- assignment -----------------------------------------------------------

    def _eval_assign(self, expr):
        target_type = expr.target.ctype.decay()
        addr = self._eval_lvalue(expr.target)
        if expr.op == "=":
            value, sym = self._eval(expr.value)
            value, sym = self._convert(
                value, sym, expr.value.ctype.decay(), target_type
            )
        else:
            old_value, old_sym = self._load(addr, target_type)
            rhs_value, rhs_sym = self._eval(expr.value)
            value, sym = self._apply_binary(
                expr, expr.op[:-1],
                target_type, old_value, old_sym,
                expr.value.ctype.decay(), rhs_value, rhs_sym,
            )
            if target_type.is_integer():
                value = wrap(value, target_type)
        if target_type.is_struct():
            self._store_scalar_or_struct(addr, target_type, value, sym)
            return value, sym
        self._store_scalar(addr, target_type, value, sym)
        return value, sym

    def _convert(self, value, sym, from_type, to_type):
        """Implicit conversion on assignment / argument passing / return."""
        if to_type.is_struct():
            return value, sym
        if to_type.is_integer():
            new_value = wrap(value, to_type)
            return new_value, self.evaluator.cast_int(value, new_value, sym)
        if to_type.is_pointer():
            new_value = to_unsigned(value, 4)
            return new_value, self.evaluator.cast_int(value, new_value, sym)
        return value, sym

    def _eval_cast(self, expr):
        value, sym = self._eval(expr.operand)
        target = expr.ctype
        if target.is_void():
            return 0, None
        return self._convert(value, sym, expr.operand.ctype.decay(), target)

    # -- aggregate access -----------------------------------------------------

    def _eval_index(self, expr):
        addr = self._index_addr(expr)
        return self._load(addr, expr.ctype)

    def _eval_member(self, expr):
        if expr.arrow or expr.base.is_lvalue:
            addr = self._member_addr(expr)
            return self._load(addr, expr.ctype)
        # Field of a struct rvalue (e.g. the result of a function call).
        base_value, _ = self._eval(expr.base)
        field = expr.field
        data = base_value.data[field.offset : field.offset + field.ctype.size]
        if field.ctype.is_struct():
            return _StructValue(bytes(data)), None
        signed = field.ctype.is_integer() and field.ctype.signed
        return int.from_bytes(data, "little", signed=signed), None

    # -- calls ------------------------------------------------------------

    def _eval_call(self, expr):
        name = expr.name
        kind = INPUT_INTRINSICS.get(name)
        if kind is not None:
            return self._acquire_input(kind)
        arg_pairs = [self._eval(arg) for arg in expr.args]
        if name in self.module.functions:
            function = self.module.functions[name]
            converted = [
                self._convert(value, sym, arg.ctype.decay(), ptype)
                for (value, sym), arg, ptype in zip(
                    arg_pairs, expr.args, function.ftype.param_types
                )
            ]
            return self._call(function, converted, expr.location)
        handler = BUILTINS.get(name)
        if handler is not None:
            if not (self.options.transparent_memory
                    and name in ("memcpy", "strcpy")):
                if any(sym is not None for _, sym in arg_pairs):
                    # A black-box library call consumed symbolic values.
                    self.flags.clear_linear()
            return handler(self, arg_pairs, expr.location), None
        if expr.symbol is not None and expr.symbol.kind == BUILTIN:
            raise InterpreterError(
                "builtin {!r} has no implementation".format(name)
            )
        raise InterpreterError(
            "call to external function {!r}: generate a test driver first "
            "(repro.dart.driver)".format(name)
        )

    def _acquire_input(self, kind):
        value, var = self.hooks.acquire_input(kind)
        ctype = _INPUT_KIND_TYPES[kind]
        value = wrap(value, ctype)
        if var is None:
            return value, None
        # The widener anchors wrap quotients to this run's assignment; the
        # wrapped value recorded here is exactly what the ideal term
        # x_ordinal evaluates to, so every input lane starts faithful.
        # The kind's machine domain drives its domain-precision check.
        self.widener.note_input(var.ordinal, value, var.lo, var.hi)
        return value, LinExpr.variable(var.ordinal)

    # Dispatch tables, built once.
    _DISPATCH = {}
    _STEP_DISPATCH = {}


def _with_boundary(steps, boundary):
    """A copy of ``steps`` whose step ``at`` also calls ``reached``."""
    at, reached = boundary
    inner = steps[at]

    def step(machine, fbase):
        pc = inner(machine, fbase)
        reached(pc)
        return pc

    steps = list(steps)
    steps[at] = step
    return steps


Machine._DISPATCH = {
    ast.IntLit: Machine._eval_intlit,
    ast.StringLit: Machine._eval_stringlit,
    ast.Ident: Machine._eval_ident,
    ast.Unary: Machine._eval_unary,
    ast.Postfix: Machine._eval_postfix,
    ast.Binary: Machine._eval_binary,
    ast.Assign: Machine._eval_assign,
    ast.Cast: Machine._eval_cast,
    ast.Index: Machine._eval_index,
    ast.Member: Machine._eval_member,
    ast.Call: Machine._eval_call,
}

Machine._STEP_DISPATCH = {
    ir.Eval: Machine._step_eval,
    ir.Branch: Machine._step_branch,
    ir.Jump: Machine._step_jump,
    ir.Ret: Machine._step_ret,
    ir.AbortInstr: Machine._step_abort,
}
