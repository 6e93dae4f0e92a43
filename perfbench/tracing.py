"""Wall-clock spans around the public calls of each layer.

The traced run replaces each wrapped function at the name its caller
looks it up by (``repro.compiler.compiler.partition_graph`` rather than
``repro.partition.partitioner.partition_graph``, because
``compile_model`` imported it by name), so ``src/`` stays untouched.
Spans live in memory until the run ends; :func:`write_spans` then
writes them as plain JSON and as a Chrome trace-event file that
Perfetto opens (the format ``repro simulate --chrome-trace`` writes).

A span records its name, start, end, parent span and an item id: the
zoo record index, the autotune candidate index or the fleet device.
A layer's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import pathlib
import time
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns


class Tracer:
    """In-memory span recorder for one process.

    ``spans`` holds ``[name, start_ns, end_ns, parent, item]`` lists,
    appended when a call starts so a parent's index is known to its
    children.  ``item`` is the id the benchmark sets before each unit
    of work; calls that carry their own id override it.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.item: object = None
        self.counters: Dict[str, float] = {}
        #: results already returned by ``simulate``, by id (kept alive)
        self.sim_results: Dict[int, object] = {}
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------ wrapping

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        item_of: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``item_of(args, kwargs)`` gives the call's own item id (or
        ``None`` to inherit the enclosing one); ``after(tracer, span,
        args, result)`` records counters from a call that returned.  A
        call that raised keeps its span, renamed ``<name>.raised``.
        """
        original = getattr(owner, attr)
        spans = self.spans
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            item = item_of(args, kwargs) if item_of is not None else None
            if item is None:
                item = spans[parent][4] if parent is not None else self.item
            record = [name, _now(), 0, parent, item]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                record[0] += ".raised"
                raise
            finally:
                record[2] = _now()
                stack.pop()
            if after is not None:
                after(self, record, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ----------------------------------------------------------- analysis

    def self_times_s(self) -> Dict[str, float]:
        """Per-span-name self time in seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals: Dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start - child_ns[i]) / 1e9
        return totals

    def total_s(self, name: str) -> float:
        """Inclusive time of ``name``, counting only its outermost spans."""
        spans = self.spans
        total = 0
        for sname, start, end, parent, _ in spans:
            if sname != name:
                continue
            p = parent
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:
                total += end - start
        return total / 1e9

    def calls(self, name: str) -> int:
        """Calls of ``name`` not nested inside another call of it."""
        return sum(
            1
            for sname, _, _, parent, _ in self.spans
            if sname == name and (parent is None or self.spans[parent][0] != name)
        )

    def durations_s(self, name: str) -> List[Tuple[object, float]]:
        return [
            (item, (end - start) / 1e9)
            for sname, start, end, _, item in self.spans
            if sname == name
        ]

    def covered_s(self) -> float:
        """Wall time inside top-level spans (they never overlap)."""
        return sum(
            (end - start) / 1e9
            for _, start, end, parent, _ in self.spans
            if parent is None
        )


# ----------------------------------------------------------------- the map


def _candidate_index(args, kwargs):
    evaluator = args[0]
    return f"{evaluator.graph.name} candidate {evaluator.evaluations + 1}"


def _mark_repeat(tracer: Tracer, span: list, args, result) -> None:
    # A candidate seen before is answered from the evaluator's table and
    # spends no budget: its evaluation count did not move.
    if span[4] == _candidate_index(args, None):
        span[0] = "autotune.repeat"


def _device_id(args, kwargs):
    return f"device {kwargs.get('device_id', 0)}"


def _count_verify(tracer: Tracer, span: list, args, report) -> None:
    if not report.ok:
        tracer.count("verify.rejects")


def _count_compile(tracer: Tracer, span: list, args, compiled) -> None:
    tracer.count("compiler.compiles")
    tracer.count("compiler.commands", len(compiled.program.commands))


def _count_lookup(tracer: Tracer, span: list, args, result) -> None:
    tracer.count("compiler.cache.lookups")
    if result[1] is not None:
        tracer.count("compiler.cache.hits")


def _count_simulate(tracer: Tracer, span: list, args, result) -> None:
    # A memo hit hands back an object returned before; only fresh
    # results were produced by the event loop.
    if id(result) not in tracer.sim_results:
        tracer.sim_results[id(result)] = result
        tracer.count("sim.events", len(result.trace))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    compiler = importlib.import_module("repro.compiler.compiler")
    cache = importlib.import_module("repro.compiler.cache")
    lowering = importlib.import_module("repro.compiler.lowering")
    autotune = importlib.import_module("repro.compiler.autotune")
    verify = importlib.import_module("repro.verify")
    verifier = importlib.import_module("repro.verify.verifier")
    bounds = importlib.import_module("repro.verify.bounds")
    sim = importlib.import_module("repro.sim")
    simulator = importlib.import_module("repro.sim.simulator")
    stats = importlib.import_module("repro.sim.stats")
    session = importlib.import_module("repro.sim.session")
    predictor = importlib.import_module("repro.serve.predictor")
    server = importlib.import_module("repro.serve.server")
    policies = importlib.import_module("repro.serve.policies")
    fleet = importlib.import_module("repro.serve.fleet")

    # compiler phases, at the names compile_model looks them up by
    for mod in (compiler, cache):
        tracer.wrap(mod, "compile_model", "compiler.compile", after=_count_compile)
    tracer.wrap(compiler, "partition_graph", "partition")
    for fn in ("schedule_layers", "depth_first_order", "breadth_first_order"):
        tracer.wrap(compiler, fn, "schedule.order")
    tracer.wrap(compiler, "build_strata", "schedule.strata")
    tracer.wrap(compiler, "exec_regions_for", "compiler.regions")
    tracer.wrap(compiler, "plan_forwarding", "compiler.forwarding")
    tracer.wrap(compiler, "lower", "compiler.lower")
    tracer.wrap(lowering, "plan_tiles", "schedule.tiles")
    tracer.wrap(cache.ProgramCache, "get", "compiler.cache.lookup", after=_count_lookup)

    # static verifier: callers import verify_model lazily from the package
    tracer.wrap(verify, "verify_model", "verify.model", after=_count_verify)
    tracer.wrap(verifier, "check_structure", "verify.structure")
    tracer.wrap(verifier, "HappensBefore", "verify.hb")
    tracer.wrap(verifier, "check_races", "verify.race")
    tracer.wrap(verifier, "check_liveness", "verify.liveness")
    tracer.wrap(verifier, "check_spm", "verify.spm")
    tracer.wrap(verifier, "check_strata", "verify.stratum")
    tracer.wrap(verifier, "check_halo", "verify.halo")
    tracer.wrap(bounds, "bounds_for", "verify.bounds")

    # simulator
    for mod in (sim, simulator, predictor, server):
        tracer.wrap(mod, "simulate", "sim.simulate", after=_count_simulate)
    tracer.wrap(stats, "collect_stats", "sim.stats")
    tracer.wrap(session.SimSession, "inject", "sim.session")
    tracer.wrap(session.SimSession, "run_until", "sim.session")
    tracer.wrap(predictor, "merge_programs", "sim.merge")

    # serving and fleet
    tracer.wrap(server, "serve", "serve.device", item_of=_device_id)
    for cls in vars(policies).values():
        if isinstance(cls, type) and "admit" in vars(cls):
            tracer.wrap(cls, "admit", "serve.admit")
    for method in (
        "isolated_run",
        "predicted_latency_us",
        "wave_latency_us",
        "bound",
        "wave_bound_us",
    ):
        tracer.wrap(predictor.LatencyPredictor, method, "serve.predict")
    tracer.wrap(fleet, "make_arrivals", "serve.arrivals")
    tracer.wrap(fleet, "route_requests", "fleet.route")

    # autotune candidates
    tracer.wrap(
        autotune.Evaluator,
        "evaluate",
        "autotune.evaluate",
        item_of=_candidate_index,
        after=_mark_repeat,
    )


# ------------------------------------------------------------------ export


def write_spans(tracer: Tracer, path_stem: pathlib.Path, t0_ns: int) -> List[pathlib.Path]:
    """Write ``<stem>.spans.json`` and ``<stem>.chrome.json``.

    The Chrome file has one process (the benchmark) and one track per
    item, so each zoo record, candidate or device reads as its own row
    in Perfetto; timestamps are microseconds of host time since the
    timed region began.
    """
    path_stem.parent.mkdir(parents=True, exist_ok=True)
    rows = [
        {
            "name": name,
            "start_us": (start - t0_ns) / 1e3,
            "end_us": (end - t0_ns) / 1e3,
            "parent": parent,
            "item": item,
        }
        for name, start, end, parent, item in tracer.spans
    ]
    spans_path = path_stem.with_suffix(".spans.json")
    spans_path.write_text(json.dumps({"spans": rows}))

    tracks: Dict[object, int] = {}
    events: List[Dict] = [
        {"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "perfbench"}}
    ]
    for row in rows:
        key = str(row["item"])
        if key not in tracks:
            tracks[key] = len(tracks)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tracks[key],
                    "args": {"name": key},
                }
            )
        events.append(
            {
                "name": row["name"],
                "cat": row["name"].split(".")[0],
                "ph": "X",
                "pid": 0,
                "tid": tracks[key],
                "ts": row["start_us"],
                "dur": row["end_us"] - row["start_us"],
            }
        )
    chrome_path = path_stem.with_suffix(".chrome.json")
    chrome_path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ns"}))
    return [spans_path, chrome_path]
