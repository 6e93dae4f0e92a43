"""The compiled program: per-core command streams with dependencies.

A :class:`Program` is the compiler's output and the simulator's input.
Each command runs on one *engine* of one core -- the load DMA, the
compute engine, the store DMA, or the control unit -- and engines process
their commands strictly in program order (they are hardware queues).
Cross-engine and cross-core ordering is expressed with explicit
dependency edges: a command starts only when it reaches the head of its
engine queue *and* all its dependencies have completed.

This dataflow form captures every execution model in the paper: the
load/compute/store software pipeline with double buffering, barriers
(commands on every core depending on all cores' frontiers), and
halo-exchange (a receive depending on remote sends).
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import operator
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


class Engine(enum.Enum):
    """Hardware queues within one core."""

    LOAD = "load"
    COMPUTE = "compute"
    STORE = "store"
    CTRL = "ctrl"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class CommandKind(enum.Enum):
    LOAD_INPUT = "load-input"
    LOAD_WEIGHT = "load-weight"
    COMPUTE = "compute"
    STORE_OUTPUT = "store-output"
    HALO_SEND = "halo-send"
    HALO_RECV = "halo-recv"
    BARRIER = "barrier"

    #: The engine queue that runs this kind, whether that queue is a DMA
    #: engine, and the kind's position in ``KINDS`` (its code in a
    #: :class:`ProgramIndex`); attached to every member once, below, so
    #: the per-command properties are plain attribute reads.
    engine: "Engine"
    is_dma: bool
    code: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_ENGINE_OF_KIND = {
    CommandKind.LOAD_INPUT: Engine.LOAD,
    CommandKind.LOAD_WEIGHT: Engine.LOAD,
    CommandKind.HALO_RECV: Engine.LOAD,
    CommandKind.COMPUTE: Engine.COMPUTE,
    CommandKind.STORE_OUTPUT: Engine.STORE,
    CommandKind.HALO_SEND: Engine.STORE,
    CommandKind.BARRIER: Engine.CTRL,
}
for _kind, _engine in _ENGINE_OF_KIND.items():
    _kind.engine = _engine
    _kind.is_dma = _engine in (Engine.LOAD, Engine.STORE)

#: kind and engine codes of a :class:`ProgramIndex`: positions in these.
KINDS: Tuple[CommandKind, ...] = tuple(CommandKind)
ENGINES: Tuple[Engine, ...] = tuple(Engine)
for _code, _kind in enumerate(KINDS):
    _kind.code = _code
#: per kind code: its engine code, and whether it runs on a DMA engine.
ENGINE_CODE_OF_KIND = np.array([ENGINES.index(k.engine) for k in KINDS], dtype=np.int8)
IS_DMA_KIND = np.array([k.is_dma for k in KINDS], dtype=bool)


@dataclasses.dataclass(frozen=True)
class Command:
    """One unit of work on one engine of one core.

    Exactly one of ``num_bytes`` (DMA commands), ``macs`` (compute) or
    ``cycles`` (fixed-latency control commands) is meaningful, selected by
    ``kind``.
    """

    cid: int
    core: int
    kind: CommandKind
    deps: Tuple[int, ...] = ()
    num_bytes: int = 0
    macs: int = 0
    cycles: float = 0.0
    layer: str = ""
    tag: str = ""

    @property
    def engine(self) -> Engine:
        return self.kind.engine

    @property
    def is_dma(self) -> bool:
        return self.kind.is_dma

    def __str__(self) -> str:
        payload = (
            f"{self.num_bytes}B"
            if self.is_dma
            else (f"{self.macs}MAC" if self.kind is CommandKind.COMPUTE else f"{self.cycles:.0f}cy")
        )
        return f"#{self.cid} c{self.core} {self.kind.value} {self.layer}{self.tag} {payload}"


@dataclasses.dataclass
class Program:
    """An executable command set for an ``num_cores``-core NPU."""

    num_cores: int
    commands: List[Command] = dataclasses.field(default_factory=list)

    def command(self, cid: int) -> Command:
        return self.commands[cid]

    def __len__(self) -> int:
        return len(self.commands)

    def per_engine_queues(self) -> Dict[Tuple[int, Engine], List[Command]]:
        """Commands grouped by (core, engine), preserving program order."""
        queues: Dict[Tuple[int, Engine], List[Command]] = {}
        for cmd in self.commands:
            queues.setdefault((cmd.core, cmd.engine), []).append(cmd)
        return queues

    def index(self) -> "ProgramIndex":
        """The program's :class:`ProgramIndex`, built (and so validated)
        once.

        Cached on the program and invalidated the way the simulator's
        plan cache and the fingerprint cache are: when the command list
        is a different object or a different length (in-place
        same-length mutation is not a supported way to build programs),
        or when ``num_cores`` changed.  Raises ``ValueError`` on the
        first ill-formed command, exactly as :meth:`validate` does.
        """
        commands = self.commands
        cached = getattr(self, _INDEX_ATTR, None)
        if (
            cached is not None
            and cached[0] is commands
            and cached[1] == len(commands)
            and cached[2] == self.num_cores
        ):
            return cached[3]
        index = ProgramIndex(commands, self.num_cores)
        setattr(self, _INDEX_ATTR, (commands, len(commands), self.num_cores, index))
        return index

    def validate(self) -> None:
        """Well-formedness: dense ids, forward-only deps, sane payloads.

        Raises ``ValueError`` on the first violation.  The static
        verifier (:mod:`repro.verify`) reports the same family of
        conditions as RPR2xx diagnostics without raising, plus the
        deeper semantic checks.  Validation is building the index:
        a valid program pays it once, however many consumers ask.
        Integer fields must fit in 64 bits.
        """
        self.index()

    def total_macs(self) -> int:
        return sum(c.macs for c in self.commands)

    def total_bytes(self, kinds: Optional[Iterable[CommandKind]] = None) -> int:
        wanted = set(kinds) if kinds is not None else None
        return sum(
            c.num_bytes
            for c in self.commands
            if c.is_dma and (wanted is None or c.kind in wanted)
        )

    def core_bytes(self, core: int) -> int:
        return sum(c.num_bytes for c in self.commands if c.core == core and c.is_dma)

    def count(self, kind: CommandKind) -> int:
        return sum(1 for c in self.commands if c.kind is kind)


#: attribute under which a Program caches its index (with the command
#: list, length and core count it was built from).
_INDEX_ATTR = "_program_index"


def _violation(cmd: Command, pos: int, n: int, num_cores: int) -> Optional[str]:
    """Why ``cmd`` at ``pos`` is ill-formed, or ``None``.

    The per-command rules in reporting order; :class:`ProgramIndex`
    finds the first ill-formed command with array checks and formats
    the error from this.
    """
    if cmd.cid != pos:
        return f"command id {cmd.cid} at position {pos} (ids must be dense and unique)"
    if not 0 <= cmd.core < num_cores:
        return f"{cmd}: bad core index"
    if len(set(cmd.deps)) != len(cmd.deps):
        return f"{cmd}: duplicate dependency entries"
    for dep in cmd.deps:
        if dep == cmd.cid:
            return f"{cmd}: depends on itself"
        if dep < 0:
            return f"{cmd}: negative dependency"
        if dep >= n:
            return f"{cmd}: dangling dependency {dep}"
        if dep > cmd.cid:
            return f"{cmd}: dependency {dep} is not earlier"
    if cmd.cycles < 0:
        return f"{cmd}: negative cycles"
    if cmd.is_dma:
        if cmd.num_bytes < 0:
            return f"{cmd}: negative bytes"
        if cmd.macs:
            return f"{cmd}: DMA command carries MACs"
    elif cmd.kind is CommandKind.COMPUTE:
        if cmd.macs < 0:
            return f"{cmd}: negative macs"
        if cmd.num_bytes:
            return f"{cmd}: compute command carries bytes"
    elif cmd.kind is CommandKind.BARRIER:
        if cmd.num_bytes or cmd.macs:
            return f"{cmd}: barrier carries a payload"
    return None


class ProgramIndex:
    """A valid program's machine-independent facts, as numpy columns.

    One row per command (row == command id): the kind code (position
    in :data:`KINDS`), core and engine code (position in
    :data:`ENGINES`), and the byte, MAC and cycle payloads; plus the
    dependencies in CSR layout -- ``dep_flat[dep_ptr[c]:dep_ptr[c + 1]]``
    are command ``c``'s deps in declaration order.  Building one
    validates the command list (``ValueError`` naming the first
    ill-formed command, see :meth:`Program.validate`); the simulator
    plan and the bounds analysis read their static structure from it
    rather than walking ``Command`` objects again.  It holds no
    reference to the program or its commands.
    """

    __slots__ = (
        "num_commands",
        "kind",
        "core",
        "engine",
        "num_bytes",
        "macs",
        "cycles",
        "dep_ptr",
        "dep_flat",
    )

    def __init__(self, commands: Sequence[Command], num_cores: int) -> None:
        n = len(commands)
        self.num_commands = n

        def column(attr: str, dtype: type) -> np.ndarray:
            try:
                return np.fromiter(map(operator.attrgetter(attr), commands), dtype, n)
            except OverflowError:
                raise ValueError(f"a command's {attr} does not fit in 64 bits") from None

        cid = column("cid", np.int64)
        self.kind = kind = column("kind.code", np.int8)
        self.core = core = column("core", np.int64)
        self.engine = ENGINE_CODE_OF_KIND[kind]
        self.num_bytes = nbytes = column("num_bytes", np.int64)
        self.macs = macs = column("macs", np.int64)
        self.cycles = column("cycles", np.float64)
        deps = list(map(operator.attrgetter("deps"), commands))
        counts = np.fromiter(map(len, deps), np.intp, n)
        self.dep_ptr = ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(counts, out=ptr[1:])
        try:
            flat = np.fromiter(itertools.chain.from_iterable(deps), np.intp, int(ptr[-1]))
        except OverflowError:
            raise ValueError("a command's deps do not fit in 64 bits") from None
        self.dep_flat = flat

        # Every per-command rule of ``_violation``, over all rows at once.
        pos = np.arange(n)
        bad = (cid != pos) | (core < 0) | (core >= num_cores) | (self.cycles < 0)
        dma = IS_DMA_KIND[kind]
        compute = kind == CommandKind.COMPUTE.code
        barrier = kind == CommandKind.BARRIER.code
        bad |= dma & ((nbytes < 0) | (macs != 0))
        bad |= compute & ((macs < 0) | (nbytes != 0))
        bad |= barrier & ((nbytes != 0) | (macs != 0))
        if len(flat):
            row = np.repeat(pos, counts)
            # with ids == positions, self, dangling and forward deps are
            # all ``dep >= row``
            bad[row[(flat < 0) | (flat >= row)]] = True
            same_row = row[1:] == row[:-1]
            if not np.all((flat[1:] > flat[:-1]) | ~same_row):
                # some row is not strictly increasing: look for repeats
                order = np.lexsort((flat, row))
                fs = flat[order]
                rs = row[order]
                bad[rs[1:][(fs[1:] == fs[:-1]) & (rs[1:] == rs[:-1])]] = True
        if bad.any():
            first = int(np.argmax(bad))
            message = _violation(commands[first], first, n, num_cores)
            if message is None:  # pragma: no cover - the two rule sets disagree
                raise RuntimeError(f"command {first} flagged but passes every rule")
            raise ValueError(message)


class ProgramBuilder:
    """Incrementally constructs a Program, tracking engine tails."""

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores
        self._commands: List[Command] = []
        #: last command id per (core, engine); -1 when none yet.
        self._tails: Dict[Tuple[int, Engine], int] = {}

    def _append(self, cmd: Command) -> int:
        self._commands.append(cmd)
        self._tails[(cmd.core, cmd.engine)] = cmd.cid
        return cmd.cid

    def _next_id(self) -> int:
        return len(self._commands)

    def tail(self, core: int, engine: Engine) -> Optional[int]:
        cid = self._tails.get((core, engine), -1)
        return None if cid < 0 else cid

    def frontier(self) -> List[int]:
        """Tails of every engine of every core (barrier dependencies)."""
        return sorted(cid for cid in self._tails.values())

    def add(
        self,
        core: int,
        kind: CommandKind,
        deps: Sequence[int] = (),
        num_bytes: int = 0,
        macs: int = 0,
        cycles: float = 0.0,
        layer: str = "",
        tag: str = "",
    ) -> int:
        cmd = Command(
            cid=self._next_id(),
            core=core,
            kind=kind,
            deps=tuple(sorted(set(int(d) for d in deps))),
            num_bytes=int(num_bytes),
            macs=int(macs),
            cycles=float(cycles),
            layer=layer,
            tag=tag,
        )
        return self._append(cmd)

    def barrier(self, cycles: float, layer: str = "", tag: str = "") -> List[int]:
        """Emit a global barrier: one CTRL command per core.

        Every barrier command depends on the current frontier of all
        cores, so each completes only after every core has arrived; the
        fixed ``cycles`` models the driver/firmware round trip.
        """
        frontier = self.frontier()
        cids = []
        for core in range(self.num_cores):
            cids.append(
                self.add(
                    core,
                    CommandKind.BARRIER,
                    deps=frontier,
                    cycles=cycles,
                    layer=layer,
                    tag=tag,
                )
            )
        return cids

    def build(self) -> Program:
        program = Program(num_cores=self.num_cores, commands=list(self._commands))
        program.validate()
        return program
