"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

Not part of the tier-1 suite (``testpaths`` names ``tests/`` only): the
numeric check of an autotune winner takes a few seconds per model.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_autotune_winner_is_numerically_exact():
    """The crowned MobileNetV2 winner computes the whole-tensor
    reference bit for bit (the numeric oracle is too slow to run inside
    every benchmark repetition)."""
    from repro.compiler.autotune import autotune
    from repro.compiler.compiler import compile_model
    from repro.runtime import run_compiled_functional

    state = workloads.setup_autotune()
    name, graph = state["graphs"][0]
    report = autotune(
        graph, state["npu"], budget=workloads.AUTOTUNE_BUDGET, seed=0
    )
    assert report.improved, f"{name}: the search found no winner to check"
    functional = run_compiled_functional(
        compile_model(graph, state["npu"], report.best_options)
    )
    assert functional.max_abs_error == 0.0


def test_tracing_leaves_outputs_and_functions_unchanged():
    from repro.compiler import compiler as compiler_mod
    from repro.hw.presets import resolve_machine
    from repro.models import inception_v3_stem
    from repro.sim import simulate

    npu = resolve_machine(workloads.MACHINE)
    graph = inception_v3_stem()
    before = compiler_mod.partition_graph
    plain = simulate(compiler_mod.compile_model(graph, npu).program, npu, seed=3, memo=None)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = simulate(
            compiler_mod.compile_model(graph, npu).program, npu, seed=3, memo=None
        )
    finally:
        tracer.unwrap_all()

    assert compiler_mod.partition_graph is before
    assert traced.makespan_cycles == plain.makespan_cycles
    names = {span[0] for span in tracer.spans}
    assert {"compiler.compile", "partition", "compiler.lower", "schedule.tiles"} <= names
    assert tracer.counters["compiler.compiles"] == 1


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        ["outer", 0, 1_000_000_000, None, None],
        ["inner", 100_000_000, 400_000_000, 0, None],
        ["inner", 500_000_000, 600_000_000, 0, None],
    ]
    self_s = tracer.self_times_s()
    assert self_s["outer"] == pytest.approx(0.6)
    assert self_s["inner"] == pytest.approx(0.4)
    assert tracer.covered_s() == pytest.approx(1.0)
    assert tracer.calls("inner") == 2


def test_spec_follows_the_contract():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, the run
    exits nonzero without printing a result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zoo_cold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
