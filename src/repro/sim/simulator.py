"""Discrete-event simulation of a Program on an NPU machine description.

Engines (load DMA, compute, store DMA, control) process their command
queues strictly in order; a command starts when it is the queue head,
its engine is free, and all dependencies have completed.  Compute and
barrier commands have deterministic durations from the cost model; DMA
commands pay a fixed first-byte latency and then stream through the
shared-bus fluid model, so concurrent transfers slow each other down
exactly as on the real memory system.

The scheduler here is *event-driven* over flat struct-of-arrays state:
a precomputed reverse-dependency index (consumers per command), flat
outstanding-dependency counters, and the bus kept as parallel arrays of
(cid, residual bytes, link cap, rate).  The bus kernels are *batched
per decision epoch*: one pass advances every in-flight transfer by the
epoch's ``dt`` and, in the same pass, computes the next bus eta -- the
clock does not move between those two reads, so fusing them is float-
for-float identical to the query-then-advance split it replaces.  The
water-filling refill is likewise fused with its following eta query and
fully unrolled for the 1-3 concurrent transfers that dominate real
programs; wider in-flight sets (``_VECTOR_MIN`` and up) switch to the
numpy twins in :mod:`repro.sim.bus`, which vectorize the sort, the
advance and the eta reduction while keeping the sequentially-rounded
budget walk scalar (see ``bus.refill_rates_wide`` for why).

Trace assembly is *columnar and lazy*.  The loop records completion
times only; the trace-only readiness fields (``start``, ``own_ready``,
``dep_ready``) are selections among completion times -- outputs, never
scheduling inputs -- and are derived post-run by batched numpy
reductions (``maximum.reduceat``) over the plan's flattened dependency
index.  Even that derivation is deferred into the returned
:class:`~repro.sim.trace.Trace`: a cold simulation returns after the
event loop plus one ``max`` for the makespan, and readiness columns or
:class:`~repro.sim.trace.TraceEvent` views materialize only when a
consumer first reads the trace.

The seed-independent part of the precomputation (queues, dependency
index, durations) is built once per (program, machine) and cached on
the program; per-seed jitter tables are cached on the plan, so sweeping
repeated seeds -- the shape of every serving experiment -- pays only for
the event loop.  Above all of that sits :mod:`repro.sim.memo`: repeated
(program, machine, seed, fault signature) requests return the cached
result without entering the loop at all.

Three generations of this scheduler coexist, each pinning the next:
the queue-scanning original (:mod:`repro.sim.reference_scheduler`), the
object-based event-driven core (:mod:`repro.sim.event_core`), and the
flat core below.  All three produce bit-identical traces for equal
seeds (``tests/sim/test_scheduler_equivalence.py`` and
``tests/sim/test_flat_core.py``).
"""

from __future__ import annotations

import dataclasses
import heapq
import operator
import random
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.program import (
    ENGINES,
    IS_DMA_KIND,
    KINDS,
    Command,
    CommandKind,
    Program,
    ProgramIndex,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan, FaultStats
from repro.cost.compute import OP_LAUNCH_CYCLES
from repro.hw.config import NPUConfig
from repro.sim import bus as bus_mod
from repro.sim import memo as memo_mod
from repro.sim.memo import USE_DEFAULT_MEMO, SimMemo
from repro.sim.trace import STATIC_FIELDS, Trace, TraceColumns

_EPS = 1e-9

#: byte residue below which a bus transfer counts as finished (must
#: match :data:`repro.sim.bus._EPS`; the flat core inlines the bus).
_BUS_EPS = 1e-6

#: in-flight transfer count at which the inlined bus switches from the
#: unrolled scalar kernels to the numpy twins in :mod:`repro.sim.bus`.
#: Real CNN programs keep 1-6 transfers in flight, where per-call numpy
#: overhead loses to straight-line Python; wide buses (many-tenant
#: sessions) cross over.  Read once per run, so tests can monkeypatch.
_VECTOR_MIN = 16

#: event kinds in the time heap
_END = 0
_JOIN_BUS = 1

#: attribute under which per-machine scheduling plans are cached on a Program
_PLAN_ATTR = "_sim_plans"

#: per-plan jitter tables kept per seed (serving sweeps reuse few seeds)
_DELAY_CACHE_LIMIT = 64

#: kind codes of the commands that draw halo-rendezvous jitter
_HALO_CODES = (CommandKind.HALO_SEND.code, CommandKind.HALO_RECV.code)


@dataclasses.dataclass
class SimResult:
    """Outcome of one simulated inference.

    ``faults`` is populated only by fault-injected runs
    (:mod:`repro.faults`); clean simulation leaves it ``None``.

    Results returned through :mod:`repro.sim.memo` are shared objects:
    treat the trace as immutable.
    """

    trace: Trace
    makespan_cycles: float
    npu: NPUConfig
    faults: "Optional[FaultStats]" = None

    @property
    def latency_us(self) -> float:
        return self.npu.cycles_to_us(self.makespan_cycles)


class _SimPlan:
    """Seed-independent scheduling state for one (program, machine) pair.

    Everything here is derived from the program's
    :class:`~repro.compiler.program.ProgramIndex` and the machine
    description only, with array operations: engine queues numbered by
    first appearance, the reverse-dependency index, outstanding-
    dependency counts, fixed durations and DMA link caps, plus the
    flattened (CSR-style) dependency index the columnar trace
    derivation reduces over.  The bounds analysis
    (:mod:`repro.verify.bounds`) reads the same queues, edges and base
    delays, so both price a command from one definition.  Per-seed
    jitter tables are layered on top by :meth:`delays_for` and cached,
    since serving and sweep workloads revisit a handful of seeds.  A
    plan holds no reference to its program (programs cache their plans,
    and a cycle would outlive its last user until a full collection).
    """

    __slots__ = (
        "total",
        "nq",
        "qcids",
        "qlen",
        "qid_of",
        "deps_of",
        "consumers",
        "indeg0",
        "base_delay",
        "evkind",
        "dma_cap",
        "num_bytes",
        "num_bytes_f",
        "uniform_dma_cap",
        "jittered",
        "prev_q",
        "prev_np",
        "dep_flat",
        "dep_starts",
        "dep_cids",
        "own_flat",
        "own_starts",
        "own_cids",
        "kind_codes",
        "static_cols",
        "_own_deps_of",
        "_protos",
        "_delay_cache",
    )

    def __init__(self, index: ProgramIndex, commands: Sequence[Command], npu: NPUConfig) -> None:
        total = index.num_commands
        self.total = total
        kind = index.kind
        core = index.core
        self.kind_codes = kind

        # Engine queues, numbered by first appearance of (core, engine);
        # a stable sort on queue id lists each queue in program order.
        key = core * len(ENGINES) + index.engine
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.intp)
        rank[np.argsort(first)] = np.arange(len(first))
        qid = rank[inverse.reshape(-1)]
        self.nq = nq = len(first)
        order = np.argsort(qid, kind="stable")
        qlen = np.bincount(qid, minlength=nq)
        qptr = np.concatenate(([0], np.cumsum(qlen))).tolist()
        order_l = order.tolist()
        self.qcids = [order_l[a:b] for a, b in zip(qptr, qptr[1:])]
        self.qlen = qlen.tolist()
        self.qid_of = qid.tolist()

        #: in-queue predecessor of each command (-1 for queue heads);
        #: lets the trace pass reconstruct engine-free times post-run.
        prev = np.full(total, -1, dtype=np.intp)
        if total > 1:
            same = qid[order[1:]] == qid[order[:-1]]
            prev[order[1:][same]] = order[:-1][same]
        self.prev_np = prev
        self.prev_q = prev.tolist()

        # Dependencies: the index's CSR rows; consumers are the same
        # edges grouped by dependency (stable, so ascending consumer id).
        ptr = index.dep_ptr
        flat = index.dep_flat
        counts = np.diff(ptr)
        self.deps_of = list(map(operator.attrgetter("deps"), commands))
        self.indeg0 = counts.tolist()
        row = np.repeat(np.arange(total), counts)
        by_dep = row[np.argsort(flat, kind="stable")].tolist()
        cptr = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=total)))).tolist()
        self.consumers = [by_dep[a:b] for a, b in zip(cptr, cptr[1:])]

        # Flattened dependency index (CSR layout, non-empty rows only):
        # the post-run readiness derivation reduces completion times over
        # these segments with ``np.maximum.reduceat`` instead of a
        # per-command Python scan.  Same-core deps get their own index.
        nonempty = counts > 0
        self.dep_flat = flat
        self.dep_starts = ptr[:-1][nonempty]
        self.dep_cids = np.flatnonzero(nonempty)
        own = core[flat] == core[row]
        own_counts = np.bincount(row[own], minlength=total)
        nonempty = own_counts > 0
        self.own_flat = flat[own]
        self.own_starts = (np.cumsum(own_counts) - own_counts)[nonempty]
        self.own_cids = np.flatnonzero(nonempty)
        self._own_deps_of: Optional[List[Tuple[int, ...]]] = None

        # Durations: compute from the cost model, barriers their fixed
        # cycles, DMA a fixed first-byte latency (plus command-specific
        # setup like the halo-exchange rendezvous) before the bus --
        # the float operations of ``compute_cycles`` and ``latency +
        # cycles``, elementwise.
        cores = npu.cores
        macs = index.macs
        cycles = index.cycles
        compute = kind == CommandKind.COMPUTE.code
        barrier = kind == CommandKind.BARRIER.code
        dma = IS_DMA_KIND[kind]
        compute_d = macs / np.array([c.effective_macs_per_cycle for c in cores])[core]
        compute_d = np.where(macs > 0, compute_d + OP_LAUNCH_CYCLES, compute_d)
        base = np.where(
            compute, compute_d, np.where(barrier, cycles, npu.dram_latency_cycles + cycles)
        )
        self.base_delay = base.tolist()
        joins = dma & (index.num_bytes > 0)
        self.evkind = np.where(joins, _JOIN_BUS, _END).tolist()
        cap = np.where(dma, np.array([c.dma_bytes_per_cycle for c in cores])[core], 0.0)
        self.dma_cap = cap.tolist()
        # Non-DMA commands carry no bytes (validated), so the per-command
        # byte list doubles as the trace's static column.
        self.num_bytes = index.num_bytes.tolist()
        self.num_bytes_f = index.num_bytes.astype(np.float64).tolist()
        #: True when every bus-joining transfer has the same DMA link cap
        #: (homogeneous machines): the water-filling sort is then the
        #: identity permutation and the hot loop skips it outright.
        join_caps = cap[joins]
        self.uniform_dma_cap = bool((join_caps == join_caps[:1]).all())

        #: (cid, jitter bound) for commands that draw service-time jitter
        sync_bound = npu.sync_jitter_cycles
        halo_bound = npu.halo_jitter_cycles
        jittery = np.zeros(total, dtype=bool)
        if sync_bound > 0:
            jittery |= barrier
        if halo_bound > 0:
            jittery |= np.isin(kind, _HALO_CODES)
        barrier_code = CommandKind.BARRIER.code
        self.jittered: List[Tuple[int, float]] = [
            (cid, sync_bound if k == barrier_code else halo_bound)
            for cid, k in zip(np.flatnonzero(jittery).tolist(), kind[jittery].tolist())
        ]
        self._delay_cache: Dict[int, List[float]] = {}

        #: per-cid static TraceEvent fields, for columnar gathers
        kinds = [KINDS[k] for k in kind.tolist()]
        self.static_cols = {
            "cid": list(range(total)),
            "core": core.tolist(),
            "engine": [k.engine for k in kinds],
            "kind": kinds,
            "layer": list(map(operator.attrgetter("layer"), commands)),
            "tag": list(map(operator.attrgetter("tag"), commands)),
            "num_bytes": self.num_bytes,
            "macs": macs.tolist(),
        }
        self._protos: Optional[List[Dict[str, object]]] = None

    @property
    def own_deps_of(self) -> List[Tuple[int, ...]]:
        """Same-core dependencies of each command (built on first use)."""
        own = self._own_deps_of
        if own is None:
            own = [()] * self.total
            flat = self.own_flat.tolist()
            ends = self.own_starts.tolist()[1:] + [len(flat)]
            for cid, a, b in zip(self.own_cids.tolist(), self.own_starts.tolist(), ends):
                own[cid] = tuple(flat[a:b])
            self._own_deps_of = own
        return own

    @property
    def trace_fields(self) -> List[Tuple]:
        """Per-command static TraceEvent fields, as positional tuples."""
        cols = self.static_cols
        return list(zip(*(cols[name] for name in STATIC_FIELDS)))

    def protos(self) -> List[Dict[str, object]]:
        """Per-command static TraceEvent fields as prototype dicts (built
        on first use); trace materialization copies one and fills the
        four timing fields."""
        protos = self._protos
        if protos is None:
            protos = [dict(zip(STATIC_FIELDS, tf)) for tf in self.trace_fields]
            self._protos = protos
        return protos

    def delays_for(self, seed: int) -> List[float]:
        """Per-command durations with this seed's jitter applied.

        The returned list is shared and cached: callers must treat it
        as read-only (copy before mutating, as the fault engine does).
        Cross-core coordination runs through the host driver, whose
        service time varies; hardware-timed compute and plain DMA draw
        no jitter.  One reseeded generator replaces the per-command
        ``random.Random`` construction of the reference scheduler;
        reseeding is equivalent to construction, so the draws are
        bit-identical.
        """
        if not self.jittered:
            return self.base_delay
        cache = self._delay_cache
        delay = cache.get(seed)
        if delay is None:
            delay = list(self.base_delay)
            rng = random.Random()
            hi = seed << 32
            for cid, bound in self.jittered:
                rng.seed(hi ^ (cid * 2654435761))
                delay[cid] += rng.uniform(0.0, bound)
            if len(cache) >= _DELAY_CACHE_LIMIT:
                cache.pop(next(iter(cache)))
            cache[seed] = delay
        return delay


def _plan_for(program: Program, npu: NPUConfig) -> _SimPlan:
    """Fetch or build the cached scheduling plan for (program, npu).

    The cache lives on the program object, keyed by the (hashable,
    frozen) machine description, so a program swept across seeds or
    machines keeps one plan per machine and the whole thing is garbage
    collected with the program.
    """
    plans: Dict[NPUConfig, _SimPlan] = getattr(program, _PLAN_ATTR, None)
    if plans is None:
        plans = {}
        setattr(program, _PLAN_ATTR, plans)
    plan = plans.get(npu)
    if plan is None or plan.total != len(program.commands):
        plan = _SimPlan(program.index(), program.commands, npu)
        plans[npu] = plan
    return plan


def simulate(
    program: Program,
    npu: NPUConfig,
    seed: int = 0,
    faults: "Optional[FaultPlan]" = None,
    memo: Optional[SimMemo] = USE_DEFAULT_MEMO,  # type: ignore[assignment]
    check_bounds: bool = False,
) -> SimResult:
    """Run ``program`` to completion and return the trace.

    ``seed`` drives the deterministic pseudo-random jitter applied to
    cross-core coordination commands (barriers, halo rendezvous); runs
    with equal seeds are bit-identical.

    A non-empty ``faults`` plan routes to the fault-aware engine in
    :mod:`repro.faults.engine` (throttling, stalls, core-offline); an
    empty or absent plan runs the clean scheduler below, untouched, so
    the no-fault path is bit-identical -- and shares memo entries --
    whether or not a plan object was passed.

    ``memo`` defaults to the process-wide :func:`repro.sim.memo.default_memo`;
    pass ``None`` to force a fresh run (benchmarks measuring raw core
    speed do) or a private :class:`~repro.sim.memo.SimMemo` to isolate
    an experiment's cache.  Memoized results are shared objects.

    ``check_bounds=True`` asserts the makespan against the program's
    static latency bracket (:mod:`repro.verify.bounds`), raising
    :class:`~repro.verify.bounds.BoundsViolation` on escape -- the
    oracle that guards rewrites of this hot loop.  Faulted runs
    deliberately violate the bracket, so combining the two is refused.
    """
    if faults is not None and not faults.is_empty:
        if check_bounds:
            raise ValueError(
                "check_bounds applies to clean runs only: fault injection "
                "(throttling, stalls, core death) escapes the static bracket"
            )
        from repro.faults.engine import simulate_faulted

        return simulate_faulted(program, npu, seed=seed, plan=faults, memo=memo)
    if program.num_cores > npu.num_cores:
        raise ValueError(
            f"program targets {program.num_cores} cores, machine has {npu.num_cores}"
        )
    if memo is USE_DEFAULT_MEMO:
        memo = memo_mod.default_memo()
    result = None
    if memo is not None:
        key = memo_mod.clean_key(program, npu, seed)
        result = memo.get(key)
    if result is None:
        result = _simulate_clean(program, npu, seed)
        if memo is not None:
            memo.put(key, result)
    if check_bounds:
        from repro.verify.bounds import bounds_for

        bounds_for(program, npu).assert_contains(
            result.makespan_cycles, context=f"seed {seed} on {npu.name}"
        )
    return result


def _derive_columns(plan: _SimPlan, done_at: List[float]) -> TraceColumns:
    """Batched post-run derivation of the columnar trace payload.

    A command starts the moment its last enabler completes: the
    in-queue predecessor (which also freed the engine) or its slowest
    dependency.  These are *selections* among final completion times,
    never arithmetic, so the segmented ``maximum.reduceat`` reductions
    below produce the exact floats of the per-command scan they
    replace; the stable argsort on starts equals sorting (start, cid)
    pairs because ties fall back to index order.
    """
    done = np.array(done_at)
    prev = plan.prev_np
    # prev is -1 for queue heads; the fancy-index result at those slots
    # is masked off by the where(), so the wrap-around read is harmless.
    base = np.where(prev >= 0, done[prev], 0.0)
    r_dep = np.zeros(plan.total)
    if len(plan.dep_flat):
        r_dep[plan.dep_cids] = np.maximum.reduceat(done[plan.dep_flat], plan.dep_starts)
    r_own = base.copy()
    if len(plan.own_flat):
        red = np.maximum.reduceat(done[plan.own_flat], plan.own_starts)
        cids = plan.own_cids
        np.maximum(r_own[cids], red, out=red)
        r_own[cids] = red
    starts = np.maximum(base, r_dep)
    order = np.argsort(starts, kind="stable")
    # .tolist() yields plain Python floats: downstream consumers (stats
    # sums, json dumps) must never see numpy scalars.
    return TraceColumns(
        cids=order.tolist(),
        start=starts[order].tolist(),
        end=done[order].tolist(),
        own_ready=r_own[order].tolist(),
        dep_ready=r_dep[order].tolist(),
        protos=plan.protos,
        static=plan.static_cols,
    )


def _finished_columns(
    plan: _SimPlan,
    finished_cids: List[int],
    r_start: List[float],
    done_at: List[float],
    r_own: List[float],
    r_dep: List[float],
) -> TraceColumns:
    """Columnar trace payload for a finished subset of a plan's commands.

    Sessions and the fault engine track readiness live (their starts
    depend on cross-injection and fault state), so they gather columns
    eagerly rather than deriving them.  ``finished_cids`` must be
    ascending: the stable sort on start then equals ordering by
    (start, cid), the event order every core emits.
    """
    order = sorted(finished_cids, key=r_start.__getitem__)
    return TraceColumns(
        cids=order,
        start=[r_start[c] for c in order],
        end=[done_at[c] for c in order],
        own_ready=[r_own[c] for c in order],
        dep_ready=[r_dep[c] for c in order],
        protos=plan.protos,
        static=plan.static_cols,
    )


def _simulate_clean(program: Program, npu: NPUConfig, seed: int) -> SimResult:
    """The flat-array hot loop (clean runs; no memo, no fault plan)."""
    plan = _plan_for(program, npu)
    done_at = _run_flat(plan, program, npu, seed)
    # Column derivation (and event materialization beyond it) is lazy:
    # cold timed runs end here, at loop + makespan.
    trace = Trace(columns=lambda: _derive_columns(plan, done_at))
    makespan = max(done_at) if done_at else 0.0
    return SimResult(trace=trace, makespan_cycles=makespan, npu=npu)


def _run_flat(
    plan: _SimPlan, program: Program, npu: NPUConfig, seed: int
) -> List[float]:
    """Run the event loop; returns per-command completion times.

    The bus is inlined as parallel arrays with the water-filling refill
    deferred to the next eta query (``b_dirty``) and both the refill
    and the per-epoch advance *fused* with the eta they would otherwise
    be followed by -- the clock does not move in between, so the fused
    float sequence is identical.  The kernels are unrolled for 1-3
    in-flight transfers; at ``_VECTOR_MIN`` or more they hand off to
    the numpy twins in :mod:`repro.sim.bus`.
    """
    total = plan.total
    qcids = plan.qcids
    nq = plan.nq
    qlen = plan.qlen
    qid_of = plan.qid_of
    consumers = plan.consumers
    indeg = list(plan.indeg0)
    evkind = plan.evkind
    dma_cap = plan.dma_cap
    num_bytes_f = plan.num_bytes_f
    delay = plan.delays_for(seed)  # shared, read-only
    uniform_cap = plan.uniform_dma_cap
    vec_min = _VECTOR_MIN

    qhead = [0] * nq
    qbusy = [False] * nq

    # Completion times; a slot is valid once the command completed (every
    # read is gated by the outstanding-dependency counter hitting zero).
    done_at = [0.0] * total
    remaining = total

    heap: List[Tuple[float, int, int]] = []  # (time, seq, cid)
    seq = 0
    bw = npu.bus_bytes_per_cycle
    half_bw = bw / 2  # same float as budget / (2 - 0) in the generic walk
    third_bw = bw / 3
    b_cid: List[int] = []
    b_rem: List[float] = []
    b_cap: List[float] = []
    b_rate: List[float] = []
    nb = 0
    b_dirty = False
    t_bus = inf = float("inf")
    clock = 0.0

    # Engine queues whose head may have become startable.  Seeded with
    # every queue; afterwards only completions repopulate it.
    check: List[int] = list(range(nq))
    check_pop = check.pop
    check_append = check.append
    heappush = heapq.heappush
    heappop = heapq.heappop

    while remaining:
        # Start every startable queue head reachable from the check set.
        while check:
            qid = check_pop()
            if qbusy[qid]:
                continue
            idx = qhead[qid]
            if idx >= qlen[qid]:
                continue
            cid = qcids[qid][idx]
            if indeg[cid]:
                continue
            qbusy[qid] = True
            qhead[qid] = idx + 1
            heappush(heap, (clock + delay[cid], seq, cid))
            seq += 1

        t_heap = heap[0][0] if heap else inf
        if b_dirty:
            # Water-filling refill, deferred from membership changes and
            # fused with the eta query that always follows it (min is
            # order-independent and every slot is written exactly once,
            # so the floats match the split refill-then-scan).  Same
            # float sequence as FluidBus._recompute_rates: the sort is
            # stable and parallel-array insertion order equals the dict
            # insertion order it replaces.
            if nb == 1:
                cap = b_cap[0]
                rate = cap if cap <= bw else bw
                b_rate[0] = rate
                t_bus = clock + b_rem[0] / rate
            elif nb == 2:
                c0 = b_cap[0]
                c1 = b_cap[1]
                if c0 <= c1:
                    rlo = c0 if c0 <= half_bw else half_bw
                    budget = bw - rlo
                    rhi = c1 if c1 <= budget else budget
                    b_rate[0] = rlo
                    b_rate[1] = rhi
                    best = inf
                    if rlo > 0.0:
                        best = b_rem[0] / rlo
                    if rhi > 0.0:
                        t = b_rem[1] / rhi
                        if t < best:
                            best = t
                else:
                    rlo = c1 if c1 <= half_bw else half_bw
                    budget = bw - rlo
                    rhi = c0 if c0 <= budget else budget
                    b_rate[1] = rlo
                    b_rate[0] = rhi
                    best = inf
                    if rlo > 0.0:
                        best = b_rem[1] / rlo
                    if rhi > 0.0:
                        t = b_rem[0] / rhi
                        if t < best:
                            best = t
                t_bus = clock + best
            elif nb == 3:
                # Stable 3-sort by (cap, index), unrolled: ja/jb/jc are
                # the slot indices in ascending cap order, ties keeping
                # insertion order (every branch uses <=).
                c0 = b_cap[0]
                c1 = b_cap[1]
                c2 = b_cap[2]
                if c0 <= c1:
                    if c1 <= c2:
                        ja, jb, jc = 0, 1, 2
                        ca, cb, cc = c0, c1, c2
                    elif c0 <= c2:
                        ja, jb, jc = 0, 2, 1
                        ca, cb, cc = c0, c2, c1
                    else:
                        ja, jb, jc = 2, 0, 1
                        ca, cb, cc = c2, c0, c1
                elif c0 <= c2:
                    ja, jb, jc = 1, 0, 2
                    ca, cb, cc = c1, c0, c2
                elif c1 <= c2:
                    ja, jb, jc = 1, 2, 0
                    ca, cb, cc = c1, c2, c0
                else:
                    ja, jb, jc = 2, 1, 0
                    ca, cb, cc = c2, c1, c0
                ra = ca if ca <= third_bw else third_bw
                budget = bw - ra
                fair = budget / 2
                rb = cb if cb <= fair else fair
                budget -= rb
                rc = cc if cc <= budget else budget
                b_rate[ja] = ra
                b_rate[jb] = rb
                b_rate[jc] = rc
                best = inf
                if ra > 0.0:
                    best = b_rem[ja] / ra
                if rb > 0.0:
                    t = b_rem[jb] / rb
                    if t < best:
                        best = t
                if rc > 0.0:
                    t = b_rem[jc] / rc
                    if t < best:
                        best = t
                t_bus = clock + best
            elif nb >= vec_min:
                b_rate[:] = bus_mod.refill_rates_wide(b_cap, bw)
                t_bus = clock + bus_mod.eta_wide(b_rem, b_rate)
            else:
                # All-equal caps make the stable sort the identity.
                if uniform_cap:
                    order = range(nb)
                else:
                    order = sorted(range(nb), key=b_cap.__getitem__)
                budget = bw
                i = nb
                best = inf
                for j in order:
                    fair = budget / i
                    cap = b_cap[j]
                    rate = cap if cap <= fair else fair
                    b_rate[j] = rate
                    budget -= rate
                    i -= 1
                    if rate > 0.0:
                        t = b_rem[j] / rate
                        if t < best:
                            best = t
                t_bus = clock + best
            b_dirty = False

        t_next = t_heap if t_heap <= t_bus else t_bus
        if t_next == inf:
            commands = program.commands
            waiting = [
                str(commands[qcids[qid][qhead[qid]]])
                for qid in range(nq)
                if not qbusy[qid] and qhead[qid] < qlen[qid]
            ]
            raise RuntimeError(
                f"simulation deadlock at t={clock}: blocked heads={waiting[:8]}"
            )
        dt = t_next - clock
        finished_dma = None
        if nb:
            if dt > 0.0:
                # Fused advance + finish-check + next-eta: decrement all
                # residuals by this epoch's dt and compute the survivors'
                # eta in the same pass (the next refill only happens on
                # membership change, so the eta written here is final).
                if nb == 1:
                    r = b_rem[0] - b_rate[0] * dt
                    if r <= _BUS_EPS:
                        finished_dma = (b_cid[0],)
                        del b_cid[0], b_rem[0], b_cap[0], b_rate[0]
                        nb = 0
                        t_bus = inf
                    else:
                        b_rem[0] = r
                        t_bus = t_next + r / b_rate[0]
                elif nb == 2:
                    rate0 = b_rate[0]
                    rate1 = b_rate[1]
                    r0 = b_rem[0] - rate0 * dt
                    r1 = b_rem[1] - rate1 * dt
                    b_rem[0] = r0
                    b_rem[1] = r1
                    if r0 <= _BUS_EPS:
                        if r1 <= _BUS_EPS:
                            finished_dma = (b_cid[0], b_cid[1])
                            del b_cid[:], b_rem[:], b_cap[:], b_rate[:]
                            nb = 0
                            t_bus = inf
                        else:
                            finished_dma = (b_cid[0],)
                            del b_cid[0], b_rem[0], b_cap[0], b_rate[0]
                            nb = 1
                            b_dirty = True
                    elif r1 <= _BUS_EPS:
                        finished_dma = (b_cid[1],)
                        del b_cid[1], b_rem[1], b_cap[1], b_rate[1]
                        nb = 1
                        b_dirty = True
                    else:
                        best = inf
                        if rate0 > 0.0:
                            best = r0 / rate0
                        if rate1 > 0.0:
                            t = r1 / rate1
                            if t < best:
                                best = t
                        t_bus = t_next + best
                elif nb == 3:
                    rate0 = b_rate[0]
                    rate1 = b_rate[1]
                    rate2 = b_rate[2]
                    r0 = b_rem[0] - rate0 * dt
                    r1 = b_rem[1] - rate1 * dt
                    r2 = b_rem[2] - rate2 * dt
                    b_rem[0] = r0
                    b_rem[1] = r1
                    b_rem[2] = r2
                    if r0 <= _BUS_EPS or r1 <= _BUS_EPS or r2 <= _BUS_EPS:
                        fin = []
                        if r0 <= _BUS_EPS:
                            fin.append(0)
                        if r1 <= _BUS_EPS:
                            fin.append(1)
                        if r2 <= _BUS_EPS:
                            fin.append(2)
                        finished_dma = [b_cid[i] for i in fin]
                        for i in reversed(fin):
                            del b_cid[i], b_rem[i], b_cap[i], b_rate[i]
                        nb -= len(fin)
                        if nb:
                            b_dirty = True
                        else:
                            t_bus = inf
                    else:
                        best = inf
                        if rate0 > 0.0:
                            best = r0 / rate0
                        if rate1 > 0.0:
                            t = r1 / rate1
                            if t < best:
                                best = t
                        if rate2 > 0.0:
                            t = r2 / rate2
                            if t < best:
                                best = t
                        t_bus = t_next + best
                elif nb >= vec_min:
                    new_rem, fin = bus_mod.advance_wide(b_rem, b_rate, dt)
                    b_rem[:] = new_rem
                    if fin:
                        finished_dma = [b_cid[i] for i in fin]
                        for i in reversed(fin):
                            del b_cid[i], b_rem[i], b_cap[i], b_rate[i]
                        nb -= len(fin)
                        if nb:
                            b_dirty = True
                        else:
                            t_bus = inf
                    else:
                        t_bus = t_next + bus_mod.eta_wide(b_rem, b_rate)
                else:
                    fin = None
                    best = inf
                    for i in range(nb):
                        rate = b_rate[i]
                        r = b_rem[i] - rate * dt
                        b_rem[i] = r
                        if r <= _BUS_EPS:
                            if fin is None:
                                fin = [i]
                            else:
                                fin.append(i)
                        elif rate > 0.0:
                            t = r / rate
                            if t < best:
                                best = t
                    if fin is not None:
                        finished_dma = [b_cid[i] for i in fin]
                        for i in reversed(fin):
                            del b_cid[i], b_rem[i], b_cap[i], b_rate[i]
                        nb -= len(fin)
                        if nb:
                            b_dirty = True
                        else:
                            t_bus = inf
                    else:
                        t_bus = t_next + best
            elif t_next == t_bus and t_next <= clock:
                # dt == 0 can finish nothing through the decrement pass
                # (every residual exceeded the epsilon when it was last
                # written), so when the bus eta underflowed the clock's
                # float resolution, retire the nearest transfer(s)
                # directly rather than spinning at dt == 0
                # (FluidBus.force_min_completion, inlined).
                nearest = inf
                for i in range(nb):
                    rate = b_rate[i]
                    if rate > 0.0:
                        rem = b_rem[i]
                        if rem < 0.0:
                            rem = 0.0
                        t = rem / rate
                        if t < nearest:
                            nearest = t
                if nearest == inf:
                    raise RuntimeError(
                        "bus livelock: no active transfer is making progress "
                        f"(bandwidth={bw})"
                    )
                fin = []
                for i in range(nb):
                    rate = b_rate[i]
                    if rate > 0.0:
                        rem = b_rem[i]
                        if rem < 0.0:
                            rem = 0.0
                        if rem / rate <= nearest + _BUS_EPS:
                            fin.append(i)
                finished_dma = [b_cid[i] for i in fin]
                for i in reversed(fin):
                    del b_cid[i], b_rem[i], b_cap[i], b_rate[i]
                nb -= len(fin)
                if nb:
                    b_dirty = True
                else:
                    t_bus = inf
        clock = t_next
        if finished_dma:
            for cid in finished_dma:
                done_at[cid] = clock
                remaining -= 1
                qid = qid_of[cid]
                qbusy[qid] = False
                check_append(qid)
                for consumer in consumers[cid]:
                    left = indeg[consumer] - 1
                    indeg[consumer] = left
                    if not left:
                        check_append(qid_of[consumer])
        if heap:
            # Batch-retire every heap event inside this epoch's epsilon
            # window in one pass (one peek per pop instead of a fresh
            # bound check each iteration).
            threshold = clock + _EPS
            h0 = heap[0]
            while h0[0] <= threshold:
                cid = heappop(heap)[2]
                if evkind[cid]:
                    b_cid.append(cid)
                    b_rem.append(num_bytes_f[cid])
                    b_cap.append(dma_cap[cid])
                    b_rate.append(0.0)
                    nb += 1
                    b_dirty = True
                else:
                    done_at[cid] = clock
                    remaining -= 1
                    qid = qid_of[cid]
                    qbusy[qid] = False
                    check_append(qid)
                    for consumer in consumers[cid]:
                        left = indeg[consumer] - 1
                        indeg[consumer] = left
                        if not left:
                            check_append(qid_of[consumer])
                if not heap:
                    break
                h0 = heap[0]
    return done_at
