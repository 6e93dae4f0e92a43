"""Tiling for pipelined execution: SPM fit, coverage, halo-first order."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cost.memory import aligned_region_bytes, aligned_weight_bytes
from repro.hw import tiny_test_machine
from repro.ir import Conv2D, Graph, Input, Interval, Region, TensorShape, Window2D
from repro.schedule import Tile, order_halo_first, plan_tiles
from repro.schedule import tiling


def conv_layer(h=32, w=32, c_in=8, c_out=16, kernel=3):
    g = Graph("g")
    g.add("in", Input(TensorShape(h, w, c_in)))
    g.add(
        "c",
        Conv2D(out_channels=c_out, in_channels=c_in, window=Window2D.square(kernel)),
        ["in"],
    )
    return g.layer("c")


def machine(spm_bytes=64 * 1024):
    npu = tiny_test_machine(1)
    cores = tuple(dataclasses.replace(c, spm_bytes=spm_bytes) for c in npu.cores)
    return dataclasses.replace(npu, cores=cores)


def tiles_cover(plan, region: Region):
    total = sum(t.out_region.num_elements for t in plan.tiles)
    assert total == region.num_elements
    for a in plan.tiles:
        assert region.contains(a.out_region)
        for b in plan.tiles:
            if a is not b:
                assert a.out_region.intersect(b.out_region).is_empty


class TestBasicTiling:
    def test_tiles_cover_region(self):
        layer = conv_layer()
        npu = machine()
        region = Region.full(layer.output_shape)
        plan = plan_tiles(layer, region, 0, npu)
        tiles_cover(plan, region)

    def test_empty_region_no_tiles(self):
        layer = conv_layer()
        npu = machine()
        from repro.ir import Interval

        empty = Region(Interval(0, 0), Interval(0, 0), Interval(0, 0))
        plan = plan_tiles(layer, empty, 0, npu)
        assert plan.num_tiles == 0

    def test_macs_sum(self):
        layer = conv_layer()
        npu = machine()
        region = Region.full(layer.output_shape)
        plan = plan_tiles(layer, region, 0, npu)
        assert sum(t.macs for t in plan.tiles) == layer.macs()

    def test_small_spm_forces_more_tiles(self):
        layer = conv_layer(h=64, w=64, c_out=32)
        big = plan_tiles(layer, Region.full(layer.output_shape), 0, machine(1 << 20))
        small = plan_tiles(layer, Region.full(layer.output_shape), 0, machine(16 * 1024))
        assert small.num_tiles >= big.num_tiles

    def test_resident_bytes_shrink_budget(self):
        layer = conv_layer(h=64, w=64, c_out=32)
        npu = machine(64 * 1024)
        region = Region.full(layer.output_shape)
        free = plan_tiles(layer, region, 0, npu)
        crowded = plan_tiles(layer, region, 0, npu, resident_bytes=48 * 1024)
        assert crowded.num_tiles >= free.num_tiles

    def test_forwarded_input_not_streamed(self):
        layer = conv_layer(h=64, w=64, c_out=32)
        npu = machine(24 * 1024)
        region = Region.full(layer.output_shape)
        streaming = plan_tiles(layer, region, 0, npu, input_stream_mask=[True])
        resident = plan_tiles(layer, region, 0, npu, input_stream_mask=[False])
        assert resident.num_tiles <= streaming.num_tiles


class TestSpmPressure:
    def test_double_buffered_tiles_fit(self):
        layer = conv_layer(h=64, w=64, c_out=32)
        npu = machine(24 * 1024)
        core = npu.core(0)
        region = Region.full(layer.output_shape)
        plan = plan_tiles(layer, region, 0, npu)
        if plan.num_tiles < 2:
            pytest.skip("no tiling happened")
        weights = aligned_weight_bytes(
            layer.op.weight_elements, layer.dtype, core
        )
        for tile in plan.tiles:
            in_bytes = aligned_region_bytes(
                layer.input_region(tile.out_region, 0), layer.dtype, core
            )
            out_bytes = aligned_region_bytes(tile.out_region, layer.dtype, core)
            assert weights + 2 * (in_bytes + out_bytes) <= core.spm_bytes * 1.25

    def test_impossible_fit_raises(self):
        layer = conv_layer(c_out=4)  # too few channels to slice on 'c'
        npu = machine(64)
        with pytest.raises(ValueError):
            plan_tiles(layer, Region.full(layer.output_shape), 0, npu)


class TestHaloFirst:
    def _plan(self, halo_first):
        layer = conv_layer(h=64, w=64)
        npu = machine(16 * 1024)
        region = Region.full(layer.output_shape)
        return plan_tiles(
            layer,
            region,
            0,
            npu,
            halo_first=halo_first,
            halo_at_start=True,
            halo_at_end=True,
        )

    def test_halo_flags_marked(self):
        plan = self._plan(halo_first=False)
        assert plan.num_tiles >= 2
        flags = [t.produces_halo for t in plan.tiles]
        assert flags[0] and flags[-1]
        assert not any(flags[1:-1])

    def test_halo_first_reorders(self):
        plan = self._plan(halo_first=True)
        k = sum(1 for t in plan.tiles if t.produces_halo)
        assert all(t.produces_halo for t in plan.tiles[:k])
        assert not any(t.produces_halo for t in plan.tiles[k:])
        # still covers the region after reordering.
        total = sum(t.out_region.num_elements for t in plan.tiles)
        assert total == 64 * 64 * 16

    def test_order_halo_first_stable(self):
        def tile(i, halo):
            from repro.ir import Interval

            return Tile(
                index=i,
                out_region=Region(Interval(i, i + 1), Interval(0, 1), Interval(0, 1)),
                macs=0,
                produces_halo=halo,
            )

        tiles = [tile(0, False), tile(1, True), tile(2, False), tile(3, True)]
        ordered = order_halo_first(tiles)
        assert [t.index for t in ordered] == [1, 3, 0, 2]


@settings(max_examples=50, deadline=None)
@given(
    h=st.integers(8, 64),
    c_out=st.integers(4, 32),
    spm_kb=st.sampled_from([8, 16, 64, 256]),
)
def test_property_tiles_always_cover(h, c_out, spm_kb):
    layer = conv_layer(h=h, w=h, c_out=c_out)
    npu = machine(spm_kb * 1024)
    region = Region.full(layer.output_shape)
    try:
        plan = plan_tiles(layer, region, 0, npu)
    except ValueError:
        return  # genuinely cannot fit; acceptable
    tiles_cover(plan, region)
    assert sum(t.macs for t in plan.tiles) == layer.macs()


def _stub_footprint(region):
    """Deterministic, deliberately non-monotonic bytes for one tile."""
    return sum(
        iv.length * 5 + (iv.start * 37 + iv.stop * 11) % 53
        for iv in (region.rows, region.chans)
    )


#: the real splitter, kept before the property test patches in a recorder
_SPLIT_REGION = tiling._split_region


def _linear_grow(out_region, axis, alignment, num_tiles, cap, resident_w, budget):
    """The plain search: try every tile count in turn."""
    num_tiles = max(1, min(num_tiles, cap))
    while True:
        regions = (
            _SPLIT_REGION(out_region, axis, num_tiles, alignment)
            if num_tiles > 1
            else [out_region]
        )
        worst = max(_stub_footprint(r) for r in regions)
        if resident_w + 2 * worst <= budget or num_tiles >= cap:
            return regions, worst
        num_tiles += 1


@settings(max_examples=400, deadline=None)
@given(
    axis=st.sampled_from(["h", "c"]),
    offset=st.integers(0, 9),
    length=st.integers(1, 300),
    alignment=st.integers(1, 32),
    start=st.integers(1, 40),
    cap_extra=st.integers(-40, 8),
    resident_w=st.integers(0, 200),
    budget=st.integers(1, 4000),
)
def test_property_chunk_skip_matches_linear_search(
    axis, offset, length, alignment, start, cap_extra, resident_w, budget
):
    """Skipping tile counts that keep the aligned chunk picks the same
    split, with the same worst footprint, as trying every count."""
    iv = Interval(offset, offset + length)
    fixed = Interval(0, 7)
    out_region = Region(iv, fixed, fixed) if axis == "h" else Region(fixed, fixed, iv)
    capacity = tiling._axis_capacity(out_region, axis, alignment)
    cap = max(1, capacity + cap_extra)
    splits = []

    def recording_split(*args):
        pieces = _SPLIT_REGION(*args)
        splits.append(tuple(pieces))
        return pieces

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tiling, "_tile_stream_spm", lambda _l, r, *_: _stub_footprint(r))
        mp.setattr(tiling, "_split_region", recording_split)
        got = tiling._grow_until_fit(
            None, out_region, axis, alignment, start, cap, resident_w, budget,
            None, None, True,
        )
    expected = _linear_grow(out_region, axis, alignment, start, cap, resident_w, budget)
    assert got == expected
    # The skipping search never measures the same split twice.
    assert len(splits) == len(set(splits))
