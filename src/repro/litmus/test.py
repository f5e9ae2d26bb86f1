"""The litmus test container tying programs, hierarchy and condition together."""

from dataclasses import dataclass, field

from ..errors import LitmusSyntaxError
from ..hierarchy import MemoryMap, ScopeTree
from ..ptx.operands import Addr, Imm, Loc
from ..ptx.program import ThreadProgram
from ..ptx.types import MemorySpace
from .condition import Condition

#: Base address for litmus locations; locations are spaced so that small
#: array offsets never collide.
_LOCATION_BASE = 0x1000
_LOCATION_STRIDE = 64


@dataclass(frozen=True)
class LitmusTest:
    """A GPU litmus test (Fig. 12 of the paper).

    * ``threads`` — one :class:`~repro.ptx.program.ThreadProgram` per
      thread, indexed by ``tid``.
    * ``scope_tree`` — placement of the threads in the hierarchy.
    * ``memory_map`` — memory region of each location (default global).
    * ``init_mem`` — initial value of each location (default 0).
    * ``reg_init`` — initial register bindings ``(tid, reg) -> Loc | Imm``;
      litmus registers typically bind ``.b64`` registers to location
      addresses (Fig. 12 lines 2–5).
    * ``condition`` — the final-state assertion.
    """

    name: str
    threads: tuple
    condition: Condition
    scope_tree: ScopeTree = None
    memory_map: MemoryMap = field(default_factory=MemoryMap)
    init_mem: dict = field(default_factory=dict)
    reg_init: dict = field(default_factory=dict)
    arch: str = "GPU_PTX"
    description: str = ""
    idiom: str = ""

    def __post_init__(self):
        threads = tuple(self.threads)
        object.__setattr__(self, "threads", threads)
        if not threads:
            raise LitmusSyntaxError("litmus test %r has no threads" % self.name)
        for index, program in enumerate(threads):
            if not isinstance(program, ThreadProgram):
                raise LitmusSyntaxError("thread %d is not a ThreadProgram" % index)
            if program.tid != index:
                raise LitmusSyntaxError(
                    "thread %r has tid %d but occupies slot %d"
                    % (program.name, program.tid, index))
        if self.scope_tree is None:
            object.__setattr__(
                self, "scope_tree", ScopeTree.intra_cta([t.name for t in threads]))
        tree_names = set(self.scope_tree.threads)
        program_names = {program.name for program in threads}
        if tree_names != program_names:
            raise LitmusSyntaxError(
                "scope tree threads %s do not match programs %s"
                % (sorted(tree_names), sorted(program_names)))
        for (tid, reg), value in self.reg_init.items():
            if not 0 <= tid < len(threads):
                raise LitmusSyntaxError("reg_init mentions unknown thread %d" % tid)
            if not isinstance(value, (Loc, Imm)):
                raise LitmusSyntaxError(
                    "reg_init[%d:%s] must be Loc or Imm, got %r" % (tid, reg, value))

    # -- locations ---------------------------------------------------------

    def locations(self):
        """All memory location names the test mentions, sorted."""
        names = set(self.init_mem) | set(self.memory_map.spaces)
        names |= self.condition.locations()
        for program in self.threads:
            for instruction in program:
                addr = getattr(instruction, "addr", None)
                if isinstance(addr, Addr) and isinstance(addr.base, Loc):
                    names.add(addr.base.name)
        for value in self.reg_init.values():
            if isinstance(value, Loc):
                names.add(value.name)
        return sorted(names)

    def address_map(self):
        """Assign each location a distinct word address."""
        return {name: _LOCATION_BASE + index * _LOCATION_STRIDE
                for index, name in enumerate(self.locations())}

    def initial_value(self, name):
        return self.init_mem.get(name, 0)

    def space_of(self, name):
        return self.memory_map.space_of(name)

    # -- queries -----------------------------------------------------------

    @property
    def n_threads(self):
        return len(self.threads)

    def thread(self, tid):
        return self.threads[tid]

    def observed_registers(self):
        """The ``(tid, reg)`` pairs the final condition inspects."""
        return sorted(self.condition.registers())

    def has_loops(self):
        return any(program.has_loops() for program in self.threads)

    def validate(self):
        """Return a list of consistency warnings (empty when clean).

        Checks the paper's constraints: shared-memory locations must only
        be accessed by threads of a single CTA (Sec. 2.2), and condition
        registers must be written somewhere.
        """
        issues = []
        shared = {name for name in self.locations()
                  if self.space_of(name) is MemorySpace.SHARED}
        for name in shared:
            accessors = self._accessing_threads(name)
            ctas = {self.scope_tree.placement(self.threads[tid].name).cta
                    for tid in accessors}
            if len(ctas) > 1:
                issues.append(
                    "shared location %r accessed from multiple CTAs" % name)
        for tid, reg in self.condition.registers():
            if tid >= self.n_threads:
                issues.append("condition mentions unknown thread %d" % tid)
            elif reg not in self.threads[tid].registers():
                issues.append("condition register %d:%s never used" % (tid, reg))
        return issues

    def _accessing_threads(self, location):
        accessors = set()
        for program in self.threads:
            for instruction in program:
                addr = getattr(instruction, "addr", None)
                if isinstance(addr, Addr):
                    if isinstance(addr.base, Loc) and addr.base.name == location:
                        accessors.add(program.tid)
                    else:
                        binding = self.reg_init.get((program.tid, getattr(addr.base, "name", None)))
                        if isinstance(binding, Loc) and binding.name == location:
                            accessors.add(program.tid)
        return accessors

    def uses_volatile(self):
        for program in self.threads:
            for instruction in program:
                if getattr(instruction, "volatile", False):
                    return True
        return False

    def __str__(self):
        from .writer import write_litmus  # local import to avoid a cycle
        return write_litmus(self)
