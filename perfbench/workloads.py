"""The three benchmark workloads: set-up, timed body, checks and summary.

Each workload is one serial caller: ``setup()`` builds what counts as
set-up (the machine and the model graphs), ``run(state, seed, tracer,
clock)`` is the timed body, ``check(outcome)`` applies the output
checks that need live objects, and ``summarize(outcome, seed)`` turns
the outputs into digests and the numbers the benchmark reports.  The
body calls every layer through its module (``sim.simulate``, not a
name bound at import time), so the traced run's wrappers see each call.

* ``zoo_cold`` -- the paper's Fig. 11 grid: six zoo models x the four
  ``paper_configurations()``, each through compile -> verify -> bounds
  -> simulate -> stats.  Every item is distinct cold work.
* ``autotune_search`` -- ``autotune(beam+anneal)`` on MobileNetV2 (the
  bound prune never fires) and UNet (it does), one seed each.
* ``fleet_serve`` -- four exynos2100 devices behind the affinity
  router, dynamic policy, continuous admission, 150 open-loop Poisson
  arrivals at 3000 req/s on the simulated clock, device 1 killed at
  mid-run.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import time
from typing import Callable, Dict, List, Optional, Tuple

MACHINE = "exynos2100"

#: per-model autotune budget (distinct candidate evaluations).
AUTOTUNE_MODELS = ("MobileNetV2", "UNet")
AUTOTUNE_BUDGET = 24

FLEET_MIX = [("MobileNetV2", 1.0), ("InceptionV3", 1.0)]
FLEET_DEVICES = 4
FLEET_RPS = 3000.0
#: every seed serves exactly this many requests: the arrival window is
#: long enough (mean 240 arrivals) that the cap always binds, so the
#: work per run does not swing with the Poisson count.
FLEET_REQUESTS = 150
FLEET_WINDOW_US = 80_000.0
FLEET_KILLED_DEVICE = 1
#: mid-run: 150 arrivals at 3000 req/s span about 50 ms.
FLEET_KILL_AT_US = 25_000.0


def _m(path: str):
    return importlib.import_module(path)


def digest(payload: object) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode()
    ).hexdigest()[:16]


def geomean(xs: List[float]) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def nearest_rank(xs: List[float], pct: float) -> float:
    ordered = sorted(xs)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _set_item(tracer, item) -> None:
    if tracer is not None:
        tracer.item = item


class UnitClock:
    """Host time of each unit of work in one repetition process, plus a
    calibration loop timed after every unit.

    The repetitions of a run do identical work, so unit ``k`` of one
    repetition is the same work as unit ``k`` of the next; ``run.py``
    sums each unit's median over the run's repetitions.  The units are
    zoo records, autotune candidate evaluations in call order, and
    fleet device serves.

    The host is shared with other tenants, and for tens of seconds at a
    time it can run everything up to 1.8x slower.  A whole run can fall
    inside such a spell, so no statistic over the run's own repetitions
    can see it.  The calibration loop can: it is fixed code that uses
    only builtins, so its time moves with the host and never with the
    program.  ``run.py`` rescales throughput by it.  Its time is kept
    out of the units.
    """

    def __init__(self) -> None:
        self.units: Dict[str, float] = {}
        self.calibration: List[float] = []
        self._calls: Dict[str, int] = {}
        self._table = {(i * 7919) % 100_003: (i, float(i)) for i in range(20_000)}

    def add(self, key: str, seconds: float) -> None:
        """Count ``seconds`` of work to unit ``key``, then calibrate."""
        self.units[key] = self.units.get(key, 0.0) + seconds
        start = time.perf_counter()
        self._calibration_loop()
        self.calibration.append(time.perf_counter() - start)

    def _calibration_loop(self) -> float:
        # Dict probes and tuple reads over a table of about 3 MB: the same
        # kind of work as the compiler's, on a working set larger than
        # the caches.
        table = self._table
        keys = list(table)
        acc = 0.0
        for j in range(0, 60_000, 5):
            entry = table[keys[(j * 31) % len(keys)]]
            acc += entry[0] + entry[1]
        return acc

    def time_calls(self, owner: object, attr: str, key_of: Callable) -> None:
        """Time every call of ``owner.attr`` as the unit ``key_of(args, kwargs)``."""
        original = getattr(owner, attr)

        def timed(*args, **kwargs):
            key = key_of(args, kwargs)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.add(key, time.perf_counter() - start)

        setattr(owner, attr, timed)

    def nth_call(self, name: str) -> str:
        self._calls[name] = self._calls.get(name, 0) + 1
        return f"{name} call {self._calls[name]}"


# ------------------------------------------------------------------ zoo_cold


def setup_zoo() -> Dict:
    presets = _m("repro.hw.presets")
    models = _m("repro.models")
    compare = _m("repro.analysis.compare")
    npu = presets.resolve_machine(MACHINE)
    return {
        "machines": {False: npu, True: npu.single_core()},
        "graphs": [(name, models.get_model(name)) for name in models.model_names()],
        "configs": compare.paper_configurations(),
    }


def run_zoo(state: Dict, seed: int, tracer=None, clock: Optional[UnitClock] = None) -> Dict:
    compiler = _m("repro.compiler.compiler")
    verify = _m("repro.verify")
    bounds = _m("repro.verify.bounds")
    sim = _m("repro.sim")
    stats = _m("repro.sim.stats")
    records: List[Dict] = []
    errors: List[str] = []
    for name, graph in state["graphs"]:
        for options in state["configs"]:
            key = f"{name}/{options.label}"
            _set_item(tracer, f"record {len(records) + len(errors)}")
            machine = state["machines"][options.is_single_core]
            start = time.perf_counter()
            try:
                compiled = compiler.compile_model(graph, machine, options)
                report = verify.verify_model(compiled)
                bracket = bounds.bounds_for(compiled.program, machine)
                result = sim.simulate(compiled.program, machine, seed=seed)
                run = stats.collect_stats(result.trace, machine)
            except Exception as exc:  # a failed item counts, the run goes on
                errors.append(f"{key}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if clock is not None:
                    clock.add(key, time.perf_counter() - start)
            records.append(
                {
                    "key": key,
                    "model": name,
                    "label": options.label,
                    "makespan_cycles": result.makespan_cycles,
                    "latency_us": run.latency_us,
                    "lb_cycles": bracket.lower_bound_cycles,
                    "ub_cycles": bracket.upper_bound_cycles,
                    "verify_ok": report.ok,
                    "commands": len(compiled.program.commands),
                    "dram_bytes": run.total_transfer_bytes,
                    "halo_bytes": run.total_halo_bytes,
                    "barriers": run.num_barriers,
                    "halo_exchanges": run.num_halo_exchanges,
                    "macs": compiled.total_macs,
                    "redundant_macs": compiled.redundant_macs,
                    "idle_cycles": sum(c.idle_cycles for c in run.cores),
                    "core_cycles": machine.num_cores * run.makespan_cycles,
                }
            )
    _set_item(tracer, None)
    return {"records": records, "errors": errors}


def check_zoo(outcome: Dict) -> Tuple[List[str], int]:
    """Every record verifier-clean and inside its ``lb <= sim <= ub``
    bracket; returns the problems and the number of failed records.
    (Makespans are compared with the reference scheduler by the caller,
    which holds the recorded values.)"""
    problems = list(outcome["errors"])
    failed = len(problems)
    for r in outcome["records"]:
        bad = []
        if not r["verify_ok"]:
            bad.append(f"{r['key']}: verifier rejected the program")
        if not r["lb_cycles"] <= r["makespan_cycles"] <= r["ub_cycles"]:
            bad.append(
                f"{r['key']}: makespan {r['makespan_cycles']} outside "
                f"[{r['lb_cycles']}, {r['ub_cycles']}]"
            )
        problems += bad
        failed += bool(bad)
    return problems, failed


def summarize_zoo(outcome: Dict, seed: int) -> Dict:
    records = outcome["records"]
    latency = {(r["model"], r["label"]): r["latency_us"] for r in records}
    models = sorted({r["model"] for r in records})
    speedups = [
        latency[(m, "1-core")] / latency[(m, "+Stratum")]
        for m in models
        if (m, "1-core") in latency and (m, "+Stratum") in latency
    ]
    macs = sum(r["macs"] for r in records)
    core_cycles = sum(r["core_cycles"] for r in records)
    return {
        "items": len(records) + len(outcome["errors"]),
        "input_digest": digest([(r["key"], seed) for r in records]),
        "output_digest": digest([(r["key"], r["makespan_cycles"]) for r in records]),
        "makespans": {r["key"]: r["makespan_cycles"] for r in records},
        "sim": {
            "sim_latency_geomean_us": geomean([r["latency_us"] for r in records]),
            "sim_stratum_speedup_geomean": geomean(speedups),
        },
        "layer": {
            "compiler.commands": sum(r["commands"] for r in records),
            "sim.dram_bytes": sum(r["dram_bytes"] for r in records),
            "sim.halo_bytes": sum(r["halo_bytes"] for r in records),
            "sim.barriers": sum(r["barriers"] for r in records),
            "sim.halo_exchanges": sum(r["halo_exchanges"] for r in records),
            "sim.redundant_mac_share": sum(r["redundant_macs"] for r in records) / macs,
            "sim.core_idle_share": sum(r["idle_cycles"] for r in records) / core_cycles,
        },
    }


def zoo_reference(seed: int) -> Dict[str, float]:
    """Makespans from :mod:`repro.sim.reference_scheduler`, the
    independent timing oracle, for every zoo record at ``seed``."""
    reference = _m("repro.sim.reference_scheduler")
    compiler = _m("repro.compiler.compiler")
    state = setup_zoo()
    out: Dict[str, float] = {}
    for name, graph in state["graphs"]:
        for options in state["configs"]:
            machine = state["machines"][options.is_single_core]
            compiled = compiler.compile_model(graph, machine, options)
            result = reference.simulate_reference(compiled.program, machine, seed=seed)
            out[f"{name}/{options.label}"] = result.makespan_cycles
    return out


# ----------------------------------------------------------- autotune_search


def setup_autotune() -> Dict:
    presets = _m("repro.hw.presets")
    models = _m("repro.models")
    return {
        "npu": presets.resolve_machine(MACHINE),
        "graphs": [(name, models.get_model(name)) for name in AUTOTUNE_MODELS],
    }


def run_autotune(
    state: Dict, seed: int, tracer=None, clock: Optional[UnitClock] = None
) -> Dict:
    autotune = _m("repro.compiler.autotune")
    if clock is not None:
        clock.time_calls(
            autotune.Evaluator,
            "evaluate",
            lambda args, kwargs: clock.nth_call(args[0].graph.name),
        )
    reports = []
    errors: List[str] = []
    for name, graph in state["graphs"]:
        _set_item(tracer, name)
        try:
            reports.append(
                autotune.autotune(
                    graph,
                    state["npu"],
                    strategy="beam+anneal",
                    budget=AUTOTUNE_BUDGET,
                    seed=seed,
                )
            )
        except Exception as exc:
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
    _set_item(tracer, None)
    return {"reports": reports, "errors": errors}


def check_autotune(outcome: Dict) -> Tuple[List[str], int]:
    """Counters add up and the winner is no slower than the baseline;
    a model whose search fails a check fails all its candidates."""
    problems = list(outcome["errors"])
    failed = AUTOTUNE_BUDGET * len(problems)
    for r in outcome["reports"]:
        bad = []
        spent = r.simulations + r.verify_rejects + r.bound_prunes + r.compile_errors
        if spent != r.evaluations or len(r.trajectory) != r.evaluations:
            bad.append(
                f"{r.model}: {r.evaluations} evaluations but {spent} outcomes "
                f"and {len(r.trajectory)} trajectory records"
            )
        if r.memo_hits + r.memo_misses != r.simulations:
            bad.append(
                f"{r.model}: memo {r.memo_hits}+{r.memo_misses} != "
                f"{r.simulations} simulations"
            )
        simulated = [t.latency_us for t in r.trajectory if t.status == "ok"]
        if not r.best_latency_us <= r.baseline_latency_us:
            bad.append(f"{r.model}: winner slower than the h1-h8 baseline")
        if simulated and min(simulated) != r.best_latency_us:
            bad.append(f"{r.model}: winner is not the fastest simulated candidate")
        problems += bad
        failed += r.evaluations if bad else 0
    return problems, failed


def summarize_autotune(outcome: Dict, seed: int) -> Dict:
    reports = outcome["reports"]
    evaluations = sum(r.evaluations for r in reports)
    sims = sum(r.simulations for r in reports)
    memo = sum(r.memo_hits + r.memo_misses for r in reports)
    return {
        "items": evaluations + len(outcome["errors"]),
        "input_digest": digest(
            [[t.fingerprint for t in r.trajectory] for r in reports]
        ),
        "output_digest": digest(
            [
                [r.model, r.best_fingerprint, r.best_latency_us]
                + [t.to_dict() for t in r.trajectory]
                for r in reports
            ]
        ),
        "sim": {
            "sim_latency_geomean_us": geomean([r.best_latency_us for r in reports]),
            "search_speedup_geomean": geomean([r.speedup for r in reports]),
        },
        "layer": {
            "autotune.prune_ratio": sum(r.bound_prunes for r in reports) / evaluations,
            "autotune.sim_ratio": sims / evaluations,
            "autotune.memo_hit_ratio": (
                sum(r.memo_hits for r in reports) / memo if memo else 0.0
            ),
            "sim.memo.hit_ratio": (
                sum(r.memo_hits for r in reports) / memo if memo else 0.0
            ),
            "verify.rejects": sum(r.verify_rejects for r in reports),
        },
    }


# --------------------------------------------------------------- fleet_serve


def setup_fleet() -> Dict:
    presets = _m("repro.hw.presets")
    return {"npu": presets.resolve_machine(MACHINE)}


def run_fleet(
    state: Dict, seed: int, tracer=None, clock: Optional[UnitClock] = None
) -> Dict:
    fleet = _m("repro.serve.fleet")
    if clock is not None:
        clock.time_calls(
            _m("repro.serve.server"),
            "serve",
            lambda args, kwargs: f"device {kwargs.get('device_id', 0)}",
        )
    try:
        report = fleet.serve_fleet(
            FLEET_MIX,
            FLEET_DEVICES,
            machine=state["npu"],
            router="affinity",
            policy="dynamic",
            mode="continuous",
            rps=FLEET_RPS,
            duration_us=FLEET_WINDOW_US,
            max_requests=FLEET_REQUESTS,
            seed=seed,
            kills={FLEET_KILLED_DEVICE: FLEET_KILL_AT_US},
            jobs=1,
        )
    except Exception as exc:
        return {"report": None, "errors": [f"serve_fleet: {type(exc).__name__}: {exc}"]}
    return {"report": report, "errors": []}


def check_fleet(outcome: Dict) -> Tuple[List[str], int]:
    """The fleet ledger: served + shed == generated, routed counts sum
    to generated, and the served and shed requests are exactly the
    generated stream.  A broken ledger fails every request."""
    problems = list(outcome["errors"])
    report = outcome["report"]
    if report is None:
        return problems, 1
    generated = report.num_generated
    if report.num_served + report.num_shed != generated:
        problems.append(
            f"{report.num_served} served + {report.num_shed} shed != {generated} generated"
        )
    routed = sum(d.num_routed for d in report.devices)
    if routed != generated or len(report.trace) != generated:
        problems.append(
            f"{routed} routed ({len(report.trace)} decisions) != {generated} generated"
        )
    rids = [r.request.rid for d in report.devices for r in d.report.results]
    rids += [s.request.rid for d in report.devices for s in d.report.shed]
    if sorted(rids) != sorted(r.rid for r in report.trace):
        problems.append("served and shed requests are not the generated stream")
    return problems, generated if problems else 0


def summarize_fleet(outcome: Dict, seed: int) -> Dict:
    report = outcome["report"]
    if report is None:
        return {"items": 1, "input_digest": "", "output_digest": "", "sim": {}, "layer": {}}
    results = [r for d in report.devices for r in d.report.results]
    totals = [r.total_us for r in results]
    # A shed request misses any latency limit: it sorts last.
    latencies = totals + [math.inf] * report.num_shed
    missed = sum(1 for r in results if not r.slo_met) + report.num_shed
    memo_entries = sum(d.memo_stats.get("entries", 0) for d in report.devices)
    return {
        "items": report.num_generated,
        "input_digest": digest(
            sorted((r.rid, r.model, r.arrival_us) for r in report.trace)
        ),
        "output_digest": digest(report.to_dict(include_trace=True)),
        "sim": {
            "sim_latency_geomean_us": geomean(totals),
            "sim_p50_us": nearest_rank(latencies, 50),
            "sim_p90_us": nearest_rank(latencies, 90),
            "sim_slo_miss_rate": missed / report.num_generated,
            "served": report.num_served,
            "shed": report.num_shed,
        },
        "layer": {
            "faults.retries": sum(
                d.report.degraded.num_retries
                for d in report.devices
                if d.report.degraded is not None
            ),
            "faults.shed": report.num_shed,
            "fleet.compiler_misses": sum(d.cache_stats[1] for d in report.devices),
            "serve.queue_us_mean": sum(r.start_us - r.request.arrival_us for r in results)
            / len(results),
            "serve.exec_us_mean": sum(r.finish_us - r.start_us for r in results)
            / len(results),
            "serve.core_util_mean": sum(d.report.mean_utilization for d in report.devices)
            / len(report.devices),
            "sim.memo.hit_ratio": report.memo_hit_rate,
            "sim.memo.entries": memo_entries,
        },
    }


#: name -> (setup, timed body, invariant checks, summary)
WORKLOADS = {
    "zoo_cold": (setup_zoo, run_zoo, check_zoo, summarize_zoo),
    "autotune_search": (setup_autotune, run_autotune, check_autotune, summarize_autotune),
    "fleet_serve": (setup_fleet, run_fleet, check_fleet, summarize_fleet),
}
