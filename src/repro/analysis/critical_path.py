"""Critical-path extraction: from a simulated trace or a static DAG.

Two consumers share the longest-path machinery here:

* **trace mode** (:func:`critical_path`) walks backward from the
  last-finishing command of a *simulated* trace, at each step following
  the constraint that bound the command's start time: a dependency that
  finished exactly then, or the same engine's previous command.  The
  resulting chain is the critical path -- shortening anything off it
  cannot improve the makespan.
* **static mode** (:func:`longest_path_times`) runs the same DAG
  forward with *analytic* durations and no simulation at all.  The
  bounds pass (:mod:`repro.verify.bounds`) runs that recurrence over
  the simulator plan and then derives bindings only along the one
  chain it reports (:func:`binding_chain`), by the same rule.

Both modes resolve ties identically: when several predecessors end
within ``_EPS`` of a command's start, a dependency edge wins over the
engine-order edge, the latest-ending dependency wins among
dependencies, and remaining ties go to the smallest command id -- a
deterministic rule, independent of the order deps were declared in.
Each segment is attributed to compute, DMA, halo, or synchronization,
giving a one-line answer to "what should I optimize next?".
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler.program import CommandKind, Engine, Program
from repro.hw.config import NPUConfig
from repro.sim.trace import Trace, TraceEvent

_EPS = 1e-6


def category_of(kind: CommandKind) -> str:
    """Optimization category of a command kind (compute/sync/halo/dma)."""
    if kind is CommandKind.COMPUTE:
        return "compute"
    if kind is CommandKind.BARRIER:
        return "sync"
    if kind in (CommandKind.HALO_SEND, CommandKind.HALO_RECV):
        return "halo"
    return "dma"


def engine_predecessors(program: Program) -> List[int]:
    """In-queue predecessor of every command (-1 for queue heads).

    Commands on one (core, engine) queue execute strictly in program
    order, so each command has an implicit edge from its predecessor on
    the same queue -- the edge set both the simulator and the static
    longest path run over, alongside the explicit dependency edges.
    """
    prev = [-1] * len(program.commands)
    last_on: Dict[Tuple[int, Engine], int] = {}
    for cmd in program.commands:
        key = (cmd.core, cmd.engine)
        p = last_on.get(key)
        if p is not None:
            prev[cmd.cid] = p
        last_on[key] = cmd.cid
    return prev


def _bind_dep(dep_ends: Sequence[Tuple[float, int]], start: float) -> Optional[int]:
    """The dependency that deterministically binds ``start``, if any.

    Among dependencies ending within ``_EPS`` of the start, pick the
    latest-ending; break exact ties by the smallest command id.
    """
    best: Optional[Tuple[float, int]] = None
    for end, cid in dep_ends:
        if abs(end - start) <= _EPS:
            key = (end, -cid)
            if best is None or key > best:
                best = key
    return -best[1] if best is not None else None


def longest_path_times(
    program: Program,
    durations: Sequence[float],
    engine_prev: Optional[Sequence[int]] = None,
) -> Tuple[List[float], List[float], List[Tuple[int, str]]]:
    """Forward longest-path over dependency and engine-order edges.

    Every command starts at the latest finish among its dependencies
    and its in-queue predecessor -- exactly the simulator's start
    recurrence, with ``durations`` standing in for simulated service
    times.  Returns ``(starts, finishes, bindings)`` where
    ``bindings[cid]`` is ``(predecessor cid or -1, bound_by)`` with
    ``bound_by`` one of ``'dep'``/``'engine'``/``'ready'``, resolved by
    the deterministic tie-break rule of this module.
    """
    commands = program.commands
    n = len(commands)
    if engine_prev is None:
        engine_prev = engine_predecessors(program)
    starts = [0.0] * n
    finishes = [0.0] * n
    bindings: List[Tuple[int, str]] = [(-1, "ready")] * n
    for cmd in commands:
        cid = cmd.cid
        start = 0.0
        for d in cmd.deps:
            f = finishes[d]
            if f > start:
                start = f
        p = engine_prev[cid]
        if p >= 0 and finishes[p] > start:
            start = finishes[p]
        starts[cid] = start
        finishes[cid] = start + durations[cid]
        bindings[cid] = _binding(cmd.deps, p, finishes, start)
    return starts, finishes, bindings


def _binding(
    deps: Sequence[int], engine_prev: int, finishes: Sequence[float], start: float
) -> Tuple[int, str]:
    """``(predecessor cid or -1, bound_by)`` of a command starting at
    ``start``, by the deterministic tie-break rule of this module."""
    if start > _EPS:
        dep = _bind_dep([(finishes[d], d) for d in deps], start)
        if dep is not None:
            return dep, "dep"
        if engine_prev >= 0 and abs(finishes[engine_prev] - start) <= _EPS:
            return engine_prev, "engine"
    return -1, "ready"


def binding_chain(
    deps_of: Sequence[Sequence[int]],
    engine_prev: Sequence[int],
    starts: Sequence[float],
    finishes: Sequence[float],
    last: int,
) -> List[Tuple[int, str]]:
    """The binding chain from ``last``, derived only along the chain.

    Equals ``walk_bindings(longest_path_times(...)[2], last)`` for the
    same longest-path ``starts`` / ``finishes``, without computing a
    binding for every command off the chain.
    """
    chain: List[Tuple[int, str]] = []
    cur = last
    while cur >= 0:
        pred, bound_by = _binding(deps_of[cur], engine_prev[cur], finishes, starts[cur])
        chain.append((cur, bound_by))
        cur = pred
    return chain


def walk_bindings(
    bindings: Sequence[Tuple[int, str]], last: int
) -> List[Tuple[int, str]]:
    """Binding chain from ``last`` back to a source, last command first.

    Each element is ``(cid, bound_by)``; predecessor ids strictly
    decrease (dependencies and queue predecessors are always earlier),
    so the walk terminates at a ``ready`` command.
    """
    chain: List[Tuple[int, str]] = []
    cur = last
    while cur >= 0:
        pred, bound_by = bindings[cur]
        chain.append((cur, bound_by))
        cur = pred
    return chain


@dataclasses.dataclass(frozen=True)
class PathSegment:
    """One command on the critical path."""

    event: TraceEvent
    #: how this command's start was bound: 'dep', 'engine', or 'ready'
    bound_by: str

    @property
    def category(self) -> str:
        return category_of(self.event.kind)


@dataclasses.dataclass
class CriticalPath:
    """The makespan-determining chain, last command first."""

    segments: List[PathSegment]
    makespan_cycles: float

    def breakdown(self) -> Dict[str, float]:
        """Cycles of the makespan attributed to each category.

        Each segment contributes the gap it covers on the path: from the
        previous segment's start (or its own ready time) to its own start
        plus its duration -- summing to the makespan.
        """
        totals: Dict[str, float] = {}
        for seg in self.segments:
            totals[seg.category] = totals.get(seg.category, 0.0) + seg.event.duration
        # time not covered by path segments (waits inside the chain).
        covered = sum(totals.values())
        if self.makespan_cycles > covered + _EPS:
            totals["wait"] = self.makespan_cycles - covered
        return totals

    def layers(self) -> List[str]:
        seen: List[str] = []
        for seg in self.segments:
            if seg.event.layer and (not seen or seen[-1] != seg.event.layer):
                seen.append(seg.event.layer)
        return seen


def critical_path(program: Program, trace: Trace) -> CriticalPath:
    """Extract the critical path of a simulated run."""
    if not trace.events:
        return CriticalPath(segments=[], makespan_cycles=0.0)
    events = {e.cid: e for e in trace.events}
    commands = {c.cid: c for c in program.commands}
    engine_prev = engine_predecessors(program)

    current: Optional[int] = max(trace.events, key=lambda e: e.end).cid
    segments: List[PathSegment] = []
    guard = 0
    while current is not None and guard <= len(events):
        guard += 1
        e = events[current]
        cmd = commands[current]
        binding: Optional[int] = None
        bound_by = "ready"
        # a dependency that completed exactly at our start binds us;
        # ties resolve deterministically (latest end, then lowest cid).
        binding = _bind_dep([(events[d].end, d) for d in cmd.deps], e.start)
        if binding is not None:
            bound_by = "dep"
        else:
            prev = engine_prev[current]
            if prev >= 0 and abs(events[prev].end - e.start) <= _EPS:
                binding = prev
                bound_by = "engine"
        if binding is None:
            # started when its own latency allowed: pick the latest-ending
            # dependency (if any) to keep walking toward t=0.
            dep_ends = [(events[d].end, d) for d in cmd.deps]
            if dep_ends and e.start > _EPS:
                binding = max(dep_ends)[1]
                bound_by = "dep"
        segments.append(PathSegment(event=e, bound_by=bound_by))
        current = binding

    return CriticalPath(segments=segments, makespan_cycles=trace.makespan)


def render_critical_path(
    program: Program, trace: Trace, npu: NPUConfig, max_rows: int = 14
) -> str:
    """Human-readable critical path summary."""
    from repro.analysis.tables import format_table

    path = critical_path(program, trace)
    breakdown = path.breakdown()
    total = sum(breakdown.values()) or 1.0
    header = "Critical path breakdown: " + ", ".join(
        f"{k} {npu.cycles_to_us(v):,.1f}us ({v / total:.0%})"
        for k, v in sorted(breakdown.items(), key=lambda kv: -kv[1])
    )
    rows = []
    for seg in path.segments[:max_rows]:
        e = seg.event
        rows.append(
            [
                f"{e.layer}{('.' + e.tag) if e.tag else ''}",
                e.kind.value,
                f"core{e.core}",
                f"{npu.cycles_to_us(e.start):,.1f}",
                f"{npu.cycles_to_us(e.duration):,.1f}us",
                seg.bound_by,
            ]
        )
    table = format_table(
        ["Command", "Kind", "Core", "Start (us)", "Duration", "Bound by"],
        rows,
        title=f"Last {min(max_rows, len(path.segments))} links of the critical path",
    )
    return header + "\n\n" + table
