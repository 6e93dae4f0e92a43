"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts these one at a time, so no state -- simulation memo,
compile cache, plan caches, allocator warmth -- survives from one
repetition into the next.  Set-up time runs from the first line of
this file (before ``repro`` is imported) to the end of the workload's
``setup()``.  The last line of standard output is one JSON object.

    python3 perfbench/rep.py --workload zoo_cold --seed 0 [--trace --spans STEM]
    python3 perfbench/rep.py --workload zoo_cold --seed 0 --setup-only
    python3 perfbench/rep.py --zoo-reference --seed 0
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _default_state() -> dict:
    from repro.compiler.cache import default_cache
    from repro.sim.memo import default_memo

    memo, cache = default_memo(), default_cache()
    return {
        "memo": {"entries": len(memo), "hits": memo.hits, "misses": memo.misses},
        "cache": {"entries": len(cache), "hits": cache.hits, "misses": cache.misses},
    }


def _span_metrics(tracer, self_s: dict, wall_s: float) -> dict:
    """Per-layer numbers from the traced repetition."""
    counters = tracer.counters
    out = {f"{name}.s": seconds for name, seconds in sorted(self_s.items())}
    out["compiler.compile.total_s"] = tracer.total_s("compiler.compile")
    out["verify.model.total_s"] = tracer.total_s("verify.model")
    out["compiler.compiles"] = counters.get("compiler.compiles", 0)
    out["compiler.commands"] = counters.get("compiler.commands", 0)
    lookups = counters.get("compiler.cache.lookups", 0)
    out["compiler.cache.lookup_s"] = self_s.get("compiler.cache.lookup", 0.0)
    out["compiler.cache.hit_ratio"] = (
        counters.get("compiler.cache.hits", 0) / lookups if lookups else 0.0
    )
    out["verify.rejects"] = counters.get("verify.rejects", 0)
    out["verify.bounds.calls"] = tracer.calls("verify.bounds")
    out["sim.simulate.calls"] = tracer.calls("sim.simulate")
    out["sim.events"] = counters.get("sim.events", 0)
    sim_s = self_s.get("sim.simulate", 0.0)
    out["sim.events_per_s"] = out["sim.events"] / sim_s if sim_s else 0.0
    out["serve.admit.calls"] = tracer.calls("serve.admit")
    killed = f"device {workloads.FLEET_KILLED_DEVICE}"
    out["faults.device.s"] = sum(
        d for item, d in tracer.durations_s("serve.device") if item == killed
    )
    evals = sorted(d * 1e3 for _, d in tracer.durations_s("autotune.evaluate"))
    if evals:
        out["autotune.eval_ms_p50"] = workloads.nearest_rank(evals, 50)
        out["autotune.eval_ms_p90"] = workloads.nearest_rank(evals, 90)
    out["trace.coverage"] = tracer.covered_s() / wall_s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write spans to STEM.spans.json / STEM.chrome.json")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--zoo-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.zoo_reference:
        print(json.dumps({"makespans": workloads.zoo_reference(args.seed)}))
        return 0

    setup, run, check, summarize = workloads.WORKLOADS[args.workload]
    state = setup()
    setup_s = time.perf_counter() - _T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    at_start = _default_state()

    tracer = clock = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        clock = workloads.UnitClock()
    t0 = time.perf_counter_ns()
    outcome = run(state, args.seed, tracer, clock)
    t1 = time.perf_counter_ns()
    if tracer is not None:
        tracer.unwrap_all()
    # the calibration loop runs inside the timed body but is not its work
    wall_s = (t1 - t0) / 1e9 - (sum(clock.calibration) if clock else 0.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, failed = check(outcome)
    if any(at_start["memo"].values()) or any(at_start["cache"].values()):
        problems.append(f"process-default memo or cache not empty at start: {at_start}")
    summary = summarize(outcome, args.seed)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "failed": failed,
        "defaults_at_end": _default_state(),
        **summary,
    }
    if clock is not None:
        clock.units["rest"] = wall_s - sum(clock.units.values())
        result["units_s"] = clock.units
        result["calibration_s"] = clock.calibration
    if tracer is not None:
        result["self_s"] = tracer.self_times_s()
        result["spans"] = _span_metrics(tracer, result["self_s"], wall_s)
        if args.spans:
            import tracing

            tracing.write_spans(tracer, pathlib.Path(args.spans), t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
