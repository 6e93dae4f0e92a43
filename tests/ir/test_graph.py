"""Graph construction, validation, queries, and subgraph extraction."""

import dataclasses
import pickle

import pytest

from repro.analysis.compare import paper_configurations
from repro.compiler import compile_model
from repro.compiler.cache import graph_fingerprint
from repro.hw.presets import exynos2100_like
from repro.ir import (
    Add,
    Concat,
    Conv2D,
    DataType,
    Graph,
    GraphError,
    Input,
    Interval,
    Region,
    TensorShape,
    Window2D,
)
from repro.ir.graph import Layer
from repro.models import get_model, model_names


def small_graph() -> Graph:
    g = Graph("g")
    g.add("in", Input(TensorShape(8, 8, 4)))
    g.add("a", Conv2D(out_channels=8, in_channels=4, window=Window2D.square(3)), ["in"])
    g.add("b", Conv2D(out_channels=8, in_channels=8, window=Window2D.square(3)), ["a"])
    g.add("c", Conv2D(out_channels=8, in_channels=8, window=Window2D.square(1)), ["a"])
    g.add("d", Add(), ["b", "c"])
    return g


class TestBuild:
    def test_shapes_inferred_eagerly(self):
        g = small_graph()
        assert g.layer("b").output_shape == TensorShape(8, 8, 8)
        assert g.layer("d").output_shape == TensorShape(8, 8, 8)

    def test_duplicate_name_rejected(self):
        g = small_graph()
        with pytest.raises(GraphError):
            g.add("a", Input(TensorShape(1, 1, 1)))

    def test_unknown_input_rejected(self):
        g = Graph("g")
        with pytest.raises(GraphError):
            g.add(
                "x",
                Conv2D(out_channels=1, in_channels=1, window=Window2D.square(1)),
                ["nope"],
            )

    def test_dtype_inherited_from_input(self):
        g = Graph("g")
        g.add("in", Input(TensorShape(4, 4, 2)), dtype=DataType.INT16)
        layer = g.add(
            "c", Conv2D(out_channels=2, in_channels=2, window=Window2D.square(1)), ["in"]
        )
        assert layer.dtype is DataType.INT16


class TestQueries:
    def test_consumers_and_producers(self):
        g = small_graph()
        assert sorted(g.consumers("a")) == ["b", "c"]
        assert g.producers("d") == ["b", "c"]
        assert g.consumers("d") == []

    def test_outputs(self):
        g = small_graph()
        assert [l.name for l in g.outputs()] == ["d"]

    def test_inputs(self):
        g = small_graph()
        assert [l.name for l in g.inputs()] == ["in"]

    def test_unknown_layer_raises(self):
        g = small_graph()
        with pytest.raises(GraphError):
            g.layer("zzz")
        with pytest.raises(GraphError):
            g.consumers("zzz")

    def test_len_and_contains(self):
        g = small_graph()
        assert len(g) == 5
        assert "a" in g
        assert "zzz" not in g


class TestStatistics:
    def test_total_macs_sums_layers(self):
        g = small_graph()
        assert g.total_macs() == sum(l.macs() for l in g.layers())

    def test_weight_and_activation_bytes_positive(self):
        g = small_graph()
        assert g.total_weight_bytes() > 0
        assert g.total_activation_bytes() > 0


class TestValidation:
    def test_valid_graph_passes(self):
        small_graph().validate()

    def test_empty_graph_fails(self):
        with pytest.raises(GraphError):
            Graph("e").validate()

    def test_no_input_fails(self):
        g = Graph("g")
        # Build a graph whose only layer pretends to be non-input: not
        # constructible through add(); validate still guards inputs().
        g.add("in", Input(TensorShape(2, 2, 1)))
        g._layers.pop("in")
        g._order.remove("in")
        with pytest.raises(GraphError):
            g.validate()


class TestLayerHelpers:
    def test_input_region_concat_offsets(self):
        g = Graph("g")
        g.add("in", Input(TensorShape(4, 4, 3)))
        g.add("x", Conv2D(out_channels=5, in_channels=3, window=Window2D.square(1)), ["in"])
        g.add("cat", Concat(), ["in", "x"])
        cat = g.layer("cat")
        out = Region(Interval(0, 4), Interval(0, 4), Interval(2, 6))
        r0 = cat.input_region(out, 0)
        r1 = cat.input_region(out, 1)
        assert r0.chans == Interval(2, 3)
        assert r1.chans == Interval(0, 3)

    def test_input_region_bad_index(self):
        g = small_graph()
        with pytest.raises(GraphError):
            g.layer("b").input_region(Region.full(g.layer("b").output_shape), 5)

    def test_macs_default_full(self):
        g = small_graph()
        b = g.layer("b")
        assert b.macs() == b.macs(Region.full(b.output_shape))


class TestSubgraph:
    def test_subgraph_inserts_boundary_inputs(self):
        g = small_graph()
        sub = g.subgraph(["b", "c", "d"])
        sub.validate()
        # 'a' becomes an Input with a's output shape.
        assert sub.layer("a").is_input
        assert sub.layer("a").output_shape == g.layer("a").output_shape
        assert len(sub) == 4

    def test_subgraph_keeps_real_inputs(self):
        g = small_graph()
        sub = g.subgraph(["in", "a"])
        sub.validate()
        assert sub.layer("in").is_input
        assert not sub.layer("a").is_input

    def test_empty_selection_rejected(self):
        with pytest.raises(GraphError):
            small_graph().subgraph([])

    def test_subgraph_macs_subset(self):
        g = small_graph()
        sub = g.subgraph(["b", "c"])
        assert sub.total_macs() == g.layer("b").macs() + g.layer("c").macs()


class TestInputRegionMemo:
    """``Layer.input_region`` answers from a per-layer memo; the memo must
    be invisible: same answers, same errors, same equality and pickling."""

    @pytest.mark.parametrize("model", model_names())
    def test_warm_memo_matches_uncached(self, model, monkeypatch):
        graph = get_model(model)
        asked = set()
        original = Layer.input_region

        def recording(layer, out_region, input_index):
            asked.add((layer.name, out_region))
            return original(layer, out_region, input_index)

        monkeypatch.setattr(Layer, "input_region", recording)
        npu = exynos2100_like()
        for options in paper_configurations():
            compile_model(graph, npu, options)
        monkeypatch.undo()
        assert asked

        # The reference is a copy of the layer whose memo is emptied
        # before every question, so each answer is computed from scratch.
        fresh = {name: dataclasses.replace(graph.layer(name)) for name, _ in asked}
        for name, region in sorted(asked, key=repr):
            layer = graph.layer(name)
            assert layer._input_regions, name
            for i in range(len(layer.inputs)):
                fresh[name]._input_regions.clear()
                assert layer.input_region(region, i) == fresh[name].input_region(region, i)

    def test_regions_differing_in_one_bound_get_their_own_answers(self):
        layer = small_graph().layer("b")
        reference = dataclasses.replace(layer)
        base = (1, 6, 2, 7, 1, 7)
        # shrink one bound at a time: starts move up, stops move down
        variants = [base] + [
            base[:k] + (base[k] + (-1 if k % 2 else 1),) + base[k + 1:]
            for k in range(6)
        ]
        for r0, r1, c0, c1, h0, h1 in variants:
            out = Region(Interval(r0, r1), Interval(c0, c1), Interval(h0, h1))
            reference._input_regions.clear()
            assert layer.input_region(out, 0) == reference.input_region(out, 0)
        assert len(layer._input_regions) == len(variants)

    def test_bad_index_raises_with_warm_memo(self):
        layer = small_graph().layer("d")
        full = Region.full(layer.output_shape)
        layer.input_region(full, 0)
        layer.input_region(full, 1)
        for _ in range(2):
            for bad in (-1, 2, 5):
                with pytest.raises(GraphError):
                    layer.input_region(full, bad)
        assert len(layer._input_regions) == 2

    def test_warm_layer_equals_and_hashes_like_fresh(self):
        layer = small_graph().layer("b")
        fresh = dataclasses.replace(layer)
        layer.input_region(Region.full(layer.output_shape), 0)
        assert layer._input_regions and not fresh._input_regions
        assert layer == fresh
        assert hash(layer) == hash(fresh)
        assert repr(layer) == repr(fresh)

    def test_pickled_graph_stays_equal(self):
        graph = get_model("MobileNetV2")
        compile_model(graph, exynos2100_like())
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.layers() == graph.layers()
        assert graph_fingerprint(clone) == graph_fingerprint(graph)
        last = graph.layers()[-1]
        out = Region.full(last.output_shape)
        assert clone.layer(last.name).input_region(out, 0) == last.input_region(out, 0)
