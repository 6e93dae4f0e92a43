"""The evaluator's verdict table answers exactly what a fresh check would.

An autotune search verifies each distinct compiled model once and bounds
each distinct program once.  Every candidate whose verdict or bounds
came from the table is re-checked here from scratch, and the search's
counters must still account for every evaluation.
"""

import dataclasses
import importlib

import pytest

import repro.verify
import repro.verify.bounds
from repro.compiler import CompileOptions, compile_model
from repro.compiler.autotune import autotune, verdict_key
from repro.hw.presets import exynos2100_like
from repro.models import get_model
from repro.sim.memo import program_fingerprint
from repro.verify.bounds import compute_bounds

autotune_mod = importlib.import_module("repro.compiler.autotune")


@pytest.mark.parametrize("model", ["MobileNetV2", "UNet"])
def test_reused_verdicts_equal_fresh_checks(model, monkeypatch):
    evaluators, compiled_models = [], []
    verified, bounded = set(), set()

    class RecordingEvaluator(autotune_mod.Evaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            evaluators.append(self)
            compile_ = self.cache.compile

            def compile(*args, **kwargs):
                compiled = compile_(*args, **kwargs)
                compiled_models.append(compiled)
                return compiled

            self.cache.compile = compile

    verify_model, bounds_for = repro.verify.verify_model, repro.verify.bounds.bounds_for

    def recording_verify(compiled, *args, **kwargs):
        verified.add(id(compiled))
        return verify_model(compiled, *args, **kwargs)

    def recording_bounds(program, npu):
        bounded.add(id(program))
        return bounds_for(program, npu)

    monkeypatch.setattr(autotune_mod, "Evaluator", RecordingEvaluator)
    monkeypatch.setattr(repro.verify, "verify_model", recording_verify)
    monkeypatch.setattr(repro.verify.bounds, "bounds_for", recording_bounds)

    npu = exynos2100_like()
    report = autotune(get_model(model), npu, budget=24, seed=0)
    (evaluator,) = evaluators

    # The counters add up, as the repository benchmark checks them.
    spent = (
        report.simulations + report.verify_rejects + report.bound_prunes
        + report.compile_errors
    )
    assert spent == report.evaluations == len(report.trajectory)
    assert report.memo_hits + report.memo_misses == report.simulations

    reused_verdicts = [c for c in compiled_models if id(c) not in verified]
    assert len(reused_verdicts) == evaluator.verdict_hits > 0
    for compiled in reused_verdicts:
        fresh = verify_model(compiled, passes=evaluator.verify_passes)
        assert evaluator._verdicts[verdict_key(compiled)] == fresh.ok

    reused_bounds = [
        c for c in compiled_models
        if id(c.program) not in bounded
        and evaluator._verdicts[verdict_key(c)]
    ]
    assert len(reused_bounds) == evaluator.bounds_hits > 0
    for compiled in reused_bounds:
        fresh = compute_bounds(compiled.program, npu)
        assert evaluator._bounds[program_fingerprint(compiled.program)] == fresh


def test_verdict_key_covers_everything_the_verifier_reads():
    graph, npu = get_model("MobileNetV2"), exynos2100_like()
    compiled = compile_model(graph, npu, CompileOptions.stratum_config())
    key = verdict_key(compiled)
    relabelled = dataclasses.replace(compiled, options=CompileOptions.base())
    assert verdict_key(relabelled) == key
    other = compile_model(graph, npu, CompileOptions.halo())
    changes = {
        "schedule": compiled.schedule[::-1],
        "strata": other.strata,
        "forwarding": other.forwarding,
        "exec_regions": other.exec_regions,
        "program": other.program,
    }
    for field, value in changes.items():
        assert getattr(compiled, field) != value, field
        changed = dataclasses.replace(compiled, **{field: value})
        assert verdict_key(changed) != key, field
