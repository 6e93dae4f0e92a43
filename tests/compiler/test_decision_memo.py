"""The per-search decision memo is transparent.

A :class:`DecisionMemo` shared across many compiles of one graph on one
machine must change nothing: every compile gives the program and the
decisions it gives without the memo.  The reference values are the
golden pins of ``test_compile_golden.py`` plus a memo-free compile.
"""

import dataclasses

import pytest

from repro.analysis.compare import paper_configurations
from repro.compiler import CompileOptions, compile_model
from repro.compiler.decisions import DecisionMemo, MemoBindingError
from repro.hw import tiny_test_machine
from repro.ir import Conv2D, Graph, Input, TensorShape, Window2D
from repro.sim.memo import program_fingerprint

from tests.compiler.test_compile_golden import (
    _BASES,
    CANDIDATE_GOLDEN,
    ZOO_GOLDEN,
    _graph,
    _npu,
)
from tests.conftest import make_chain_graph, make_mixed_graph


def _decisions(compiled):
    return (
        compiled.partition,
        compiled.schedule,
        compiled.strata,
        compiled.forwarding,
        compiled.exec_regions,
    )


def _assert_transparent(with_memo, without):
    assert program_fingerprint(with_memo.program) == program_fingerprint(
        without.program
    )
    assert _decisions(with_memo) == _decisions(without)


@pytest.mark.parametrize("model", sorted({m for m, _ in ZOO_GOLDEN}))
def test_memo_shared_across_paper_configurations(model):
    graph, npu = _graph(model), _npu()
    memo = DecisionMemo(graph, npu)
    for options in paper_configurations():
        compiled = compile_model(graph, npu, options, memo=memo)
        fingerprint = program_fingerprint(compiled.program)
        assert fingerprint == ZOO_GOLDEN[(model, options.label)]
        _assert_transparent(compiled, compile_model(graph, npu, options))
    assert memo.partitions and memo.tiles


@pytest.mark.parametrize("model", sorted({m for m, *_ in CANDIDATE_GOLDEN}))
def test_memo_shared_across_golden_candidates(model):
    graph, npu = _graph(model), _npu()
    memo = DecisionMemo(graph, npu)
    # Twice over: the second pass is answered from the warm memo.
    for _ in range(2):
        for name, base, overrides, expected in CANDIDATE_GOLDEN:
            if name != model:
                continue
            options = _BASES[base]().with_overrides(**overrides)
            compiled = compile_model(graph, npu, options, memo=memo)
            assert program_fingerprint(compiled.program) == expected
            _assert_transparent(compiled, compile_model(graph, npu, options))


def test_memo_bound_to_another_graph_raises():
    npu = tiny_test_machine(2)
    memo = DecisionMemo(make_chain_graph(), npu)
    for graph in (make_chain_graph(), make_mixed_graph()):
        with pytest.raises(MemoBindingError, match="bound to graph"):
            compile_model(graph, npu, CompileOptions.base(), memo=memo)


def test_memo_bound_to_another_machine_raises():
    graph = make_chain_graph()
    memo = DecisionMemo(graph, tiny_test_machine(2))
    for npu in (tiny_test_machine(2), tiny_test_machine(3)):
        with pytest.raises(MemoBindingError, match="bound to graph"):
            compile_model(graph, npu, CompileOptions.base(), memo=memo)


def test_plan_tiles_error_is_never_stored():
    """A compile-error candidate: layer ``b``'s weights overflow a core's
    SPM and its four channels cannot split.  Nothing is stored for it,
    so the next compile raises again."""
    graph = Graph("overflow")
    graph.add("in", Input(TensorShape(16, 16, 8)))
    graph.add(
        "a", Conv2D(out_channels=16, in_channels=8, window=Window2D.square(3)), ["in"]
    )
    graph.add(
        "b", Conv2D(out_channels=4, in_channels=16, window=Window2D.square(3)), ["a"]
    )
    npu = tiny_test_machine(2)
    npu = dataclasses.replace(
        npu, cores=tuple(dataclasses.replace(c, spm_bytes=512) for c in npu.cores)
    )
    memo = DecisionMemo(graph, npu)
    for _ in range(2):
        with pytest.raises(ValueError, match="sub-layer b cannot fit SPM"):
            compile_model(graph, npu, CompileOptions.base(), memo=memo)
        assert {key[0] for key in memo.tiles} == {"a"}
