"""Concurrent execution of multiple networks on disjoint core groups.

The paper motivates multicore NPUs in part by concurrent DNN execution
(Section 1: "multicore NPUs typically bring many benefits, when
concurrent execution of multiple DNNs ... is needed").  This module
implements that use case on top of the existing compiler and simulator:

* each *tenant* (network) is compiled against a sub-machine made of its
  assigned cores -- all partitioning, scheduling, halo and stratum
  machinery applies within the group, and barriers never cross groups;
* the per-tenant programs are merged onto the full machine by remapping
  core indices, and simulated together, so the tenants contend for the
  one thing they physically share: the bus to global memory.

The result quantifies interference: per-tenant latency inflation versus
running alone on the same cores.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler.compiler import CompiledModel, compile_model
from repro.compiler.options import CompileOptions
from repro.compiler.program import Command, Program
from repro.hw.config import NPUConfig
from repro.ir.graph import Graph
from repro.sim.simulator import SimResult, simulate
from repro.sim.trace import Trace


@dataclasses.dataclass(frozen=True)
class Tenant:
    """One network plus the cores it owns on the shared machine."""

    name: str
    graph: Graph
    cores: Tuple[int, ...]
    options: CompileOptions = CompileOptions.base()

    def __post_init__(self) -> None:
        if not self.cores:
            raise ValueError(f"tenant {self.name!r} needs at least one core")
        if len(set(self.cores)) != len(self.cores):
            raise ValueError(f"tenant {self.name!r} has duplicate cores")


@dataclasses.dataclass
class TenantResult:
    """Per-tenant outcome of a concurrent run.

    ``latency_us`` is the tenant's *span*: last event end minus first
    event start.  ``completion_us`` is the absolute end time on the
    shared clock.  The two coincide only for tenants that start at t=0;
    a tenant admitted later (as the serving scheduler does) has
    ``completion_us > latency_us``.
    """

    name: str
    latency_us: float
    completion_us: float
    start_us: float
    isolated_latency_us: float
    compiled: CompiledModel

    @property
    def interference(self) -> float:
        """Latency inflation caused by sharing the bus (>= ~1.0)."""
        if self.isolated_latency_us <= 0:
            return 1.0
        return self.latency_us / self.isolated_latency_us


@dataclasses.dataclass
class ConcurrentResult:
    """Outcome of running all tenants together."""

    tenants: List[TenantResult]
    makespan_us: float
    sim: SimResult

    def tenant(self, name: str) -> TenantResult:
        for t in self.tenants:
            if t.name == name:
                return t
        raise KeyError(name)


def sub_machine(npu: NPUConfig, cores: Sequence[int], name: str) -> NPUConfig:
    """The machine a tenant's compiler sees: its cores, the shared bus."""
    for c in cores:
        if not 0 <= c < npu.num_cores:
            raise ValueError(f"core index {c} out of range")
    return dataclasses.replace(
        npu,
        name=f"{npu.name}/{name}",
        cores=tuple(npu.cores[c] for c in cores),
    )


def merge_programs(
    parts: Sequence[Tuple[Program, Sequence[int], str]],
    num_cores: int,
) -> Program:
    """Merge per-tenant programs onto the full machine.

    ``parts`` is (program, core_map, tenant_name); command ids are
    offset, cores remapped through ``core_map``, and layer names prefixed
    with the tenant so traces stay attributable.
    """
    commands: List[Command] = []
    offset = 0
    for program, core_map, name in parts:
        if program.num_cores > len(core_map):
            raise ValueError(f"tenant {name!r}: core map too small")
        for cmd in program.commands:
            commands.append(
                Command(
                    cmd.cid + offset,
                    core_map[cmd.core],
                    cmd.kind,
                    tuple([d + offset for d in cmd.deps]),
                    cmd.num_bytes,
                    cmd.macs,
                    cmd.cycles,
                    f"{name}/{cmd.layer}" if cmd.layer else name,
                    cmd.tag,
                )
            )
        offset += len(program.commands)
    merged = Program(num_cores=num_cores, commands=commands)
    merged.validate()
    # Remapping ids and cores can silently manufacture a queue/dependency
    # deadlock that per-part validation cannot see; run the static
    # verifier's structure pass over the merged whole.
    from repro.verify import VerificationError, verify_program

    report = verify_program(
        merged, model="+".join(name for _, _, name in parts), config="merged"
    )
    if not report.ok:
        raise VerificationError(report)
    return merged


def tenant_spans(
    trace: Trace, names: Sequence[str]
) -> Dict[str, Tuple[float, float]]:
    """(first start, last end) in cycles of each tenant's trace events.

    Tenants are identified by the layer prefix :func:`merge_programs`
    applied.  Names without any events are absent from the result.
    """
    layer_col = trace.column("layer")
    start_col = trace.column("start")
    end_col = trace.column("end")
    spans: Dict[str, Tuple[float, float]] = {}
    for name in names:
        prefix = f"{name}/"
        positions = [
            p
            for p, layer in enumerate(layer_col)
            if layer.startswith(prefix) or layer == name
        ]
        if positions:
            spans[name] = (
                min(start_col[p] for p in positions),
                max(end_col[p] for p in positions),
            )
    return spans


def auto_assign(
    npu: NPUConfig,
    tenants: Sequence[Tenant],
    seed: int = 0,
) -> ConcurrentResult:
    """Search core assignments and return the best concurrent schedule.

    Enumerates every split of the machine's cores into non-empty
    contiguous-by-index groups, one per tenant (order preserved), runs
    each candidate, and keeps the one with the smallest makespan.
    Feasible for the small core counts mobile NPUs have.
    """
    if not tenants:
        raise ValueError("need at least one tenant")
    if len(tenants) > npu.num_cores:
        raise ValueError("more tenants than cores")

    def splits(cores: List[int], groups: int):
        if groups == 1:
            yield [cores]
            return
        for first in range(1, len(cores) - groups + 2):
            for rest in splits(cores[first:], groups - 1):
                yield [cores[:first]] + rest

    best: Optional[ConcurrentResult] = None
    all_cores = list(range(npu.num_cores))
    for assignment in splits(all_cores, len(tenants)):
        candidate = [
            dataclasses.replace(t, cores=tuple(group))
            for t, group in zip(tenants, assignment)
        ]
        result = run_concurrent(npu, candidate, seed=seed)
        if best is None or result.makespan_us < best.makespan_us:
            best = result
    assert best is not None
    return best


def run_concurrent(
    npu: NPUConfig,
    tenants: Sequence[Tenant],
    seed: int = 0,
) -> ConcurrentResult:
    """Compile every tenant on its core group and simulate them together."""
    if not tenants:
        raise ValueError("need at least one tenant")
    used: set = set()
    for t in tenants:
        overlap = used & set(t.cores)
        if overlap:
            raise ValueError(f"cores {sorted(overlap)} assigned to two tenants")
        used |= set(t.cores)

    compiled: Dict[str, CompiledModel] = {}
    isolated: Dict[str, float] = {}
    parts = []
    for t in tenants:
        machine = sub_machine(npu, t.cores, t.name)
        model = compile_model(t.graph, machine, t.options)
        compiled[t.name] = model
        isolated[t.name] = simulate(model.program, machine, seed=seed).latency_us
        parts.append((model.program, list(t.cores), t.name))

    merged = merge_programs(parts, npu.num_cores)
    sim = simulate(merged, npu, seed=seed)

    spans = tenant_spans(sim.trace, [t.name for t in tenants])
    results = []
    for t in tenants:
        start, end = spans.get(t.name, (0.0, 0.0))
        results.append(
            TenantResult(
                name=t.name,
                latency_us=npu.cycles_to_us(end - start),
                completion_us=npu.cycles_to_us(end),
                start_us=npu.cycles_to_us(start),
                isolated_latency_us=isolated[t.name],
                compiled=compiled[t.name],
            )
        )
    return ConcurrentResult(
        tenants=results,
        makespan_us=npu.cycles_to_us(sim.trace.makespan),
        sim=sim,
    )
