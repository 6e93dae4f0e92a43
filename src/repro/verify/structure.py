"""Structure pass: well-formedness and deadlock freedom (RPR2xx).

Re-checks, without raising, everything :meth:`Program.validate` would
reject -- and goes further: it runs a full topological sort over the
union of dependency edges and per-engine queue order, so a dependency
cycle that only materialises *through* a hardware queue (command A waits
on B, while B sits behind A in its engine queue) is detected as the
deadlock it would be on silicon.  The sort is skipped when every
command's id is its position and every dependency points backward --
position order is then already a topological order.

Codes:

* ``RPR201`` -- dangling dependency id (no such command)
* ``RPR202`` -- self-dependency
* ``RPR203`` -- dependency/queue cycle (deadlock)
* ``RPR204`` -- duplicate command id
* ``RPR205`` -- core index outside the machine
* ``RPR206`` -- payload on the wrong command kind (bytes on compute,
  MACs on DMA, negative values)
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.compiler.program import CommandKind, Engine, Program
from repro.verify.diagnostics import PassResult, Severity


def check_structure(program: Program) -> PassResult:
    """Run the structure pass over ``program``."""
    result = PassResult(name="structure")
    commands = program.commands
    n = len(commands)

    all_ids = {c.cid for c in commands}
    seen_ids: Dict[int, int] = {}
    for pos, cmd in enumerate(commands):
        if cmd.cid in seen_ids:
            result.emit(
                "RPR204",
                f"command id {cmd.cid} at position {pos} already used at "
                f"position {seen_ids[cmd.cid]}",
                layer=cmd.layer,
                core=cmd.core,
                cid=cmd.cid,
                hint="command ids must be dense and unique (builder assigns them)",
            )
        else:
            seen_ids[cmd.cid] = pos
        if not 0 <= cmd.core < program.num_cores:
            result.emit(
                "RPR205",
                f"core index {cmd.core} outside machine with "
                f"{program.num_cores} core(s)",
                layer=cmd.layer,
                cid=cmd.cid,
            )
        for dep in cmd.deps:
            if dep == cmd.cid:
                result.emit(
                    "RPR202",
                    "command depends on itself",
                    layer=cmd.layer,
                    core=cmd.core,
                    cid=cmd.cid,
                )
            elif dep not in all_ids:
                result.emit(
                    "RPR201",
                    f"dependency {dep} does not name any command",
                    layer=cmd.layer,
                    core=cmd.core,
                    cid=cmd.cid,
                    hint="a command was removed without patching its consumers",
                )
            elif dep > cmd.cid:
                result.emit(
                    "RPR201",
                    f"dependency {dep} points forward past command {cmd.cid}",
                    severity=Severity.WARNING,
                    layer=cmd.layer,
                    core=cmd.core,
                    cid=cmd.cid,
                    hint="the builder only emits backward edges; forward edges "
                    "deadlock when both commands share an engine queue",
                )
        _check_payload(result, cmd)

    if not _ordered_forward(program):
        _check_cycles(result, program)
    result.stats["commands"] = n
    result.stats["edges"] = sum(len(c.deps) for c in commands)
    return result


def _check_payload(result: PassResult, cmd) -> None:
    if cmd.is_dma:
        if cmd.num_bytes < 0:
            result.emit(
                "RPR206",
                f"negative byte count {cmd.num_bytes}",
                layer=cmd.layer,
                core=cmd.core,
                cid=cmd.cid,
            )
        if cmd.macs:
            result.emit(
                "RPR206",
                f"DMA command carries {cmd.macs} MACs",
                layer=cmd.layer,
                core=cmd.core,
                cid=cmd.cid,
            )
    elif cmd.kind is CommandKind.COMPUTE:
        if cmd.macs < 0:
            result.emit(
                "RPR206",
                f"negative MAC count {cmd.macs}",
                layer=cmd.layer,
                core=cmd.core,
                cid=cmd.cid,
            )
        if cmd.num_bytes:
            result.emit(
                "RPR206",
                f"compute command carries {cmd.num_bytes} bytes of DMA payload",
                layer=cmd.layer,
                core=cmd.core,
                cid=cmd.cid,
            )
    else:  # BARRIER
        if cmd.num_bytes or cmd.macs:
            result.emit(
                "RPR206",
                "barrier command carries a DMA/compute payload",
                layer=cmd.layer,
                core=cmd.core,
                cid=cmd.cid,
            )
    if cmd.cycles < 0:
        result.emit(
            "RPR206",
            f"negative fixed latency {cmd.cycles}",
            layer=cmd.layer,
            core=cmd.core,
            cid=cmd.cid,
        )


def _ordered_forward(program: Program) -> bool:
    """True when no dependency/queue cycle is possible, so RPR203 cannot
    fire and Kahn's sort can be skipped.

    Proof: if every command's id equals its position and every dep is
    smaller than its id, then every dependency edge runs from a smaller
    position to a larger one (negative deps name no command and add no
    edge), and so does every engine-queue edge (a queue's previous
    command sits earlier in the list).  Position order is then a
    topological order of the edge union, which therefore has no cycle.
    Reads the raw command list -- not :meth:`Program.index` -- because
    this pass must also handle programs that fail ``validate()``.
    """
    for pos, cmd in enumerate(program.commands):
        if cmd.cid != pos or (cmd.deps and max(cmd.deps) >= pos):
            return False
    return True


def _check_cycles(result: PassResult, program: Program) -> None:
    """Kahn's algorithm over dependency edges + engine queue order."""
    commands = program.commands
    n = len(commands)
    index = {c.cid: i for i, c in enumerate(commands)}

    succs: List[List[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    tails: Dict[Tuple[int, Engine], int] = {}
    for i, cmd in enumerate(commands):
        for dep in cmd.deps:
            j = index.get(dep)
            if j is None or j == i:
                continue  # dangling/self deps already reported
            succs[j].append(i)
            indeg[i] += 1
        queue = (cmd.core, cmd.engine)
        tail = tails.get(queue)
        if tail is not None:
            succs[tail].append(i)
            indeg[i] += 1
        tails[queue] = i

    ready = [i for i in range(n) if indeg[i] == 0]
    done = 0
    while ready:
        i = ready.pop()
        done += 1
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    if done < n:
        stuck = [commands[i] for i in range(n) if indeg[i] > 0]
        sample = ", ".join(f"#{c.cid}" for c in stuck[:6])
        result.emit(
            "RPR203",
            f"{len(stuck)} command(s) can never start "
            f"(dependency/queue cycle): {sample}",
            severity=Severity.ERROR,
            layer=stuck[0].layer,
            core=stuck[0].core,
            cid=stuck[0].cid,
            hint="a dependency points forward across an engine queue, "
            "forming a wait cycle with program order",
        )
