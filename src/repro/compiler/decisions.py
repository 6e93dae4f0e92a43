"""A per-search memo of the compiler's layer-local decisions.

A design-space search compiles dozens of candidates of one graph on one
machine, and each candidate differs from an earlier one by a pin or two.
Two of the compiler's per-layer decisions are pure shape arithmetic of
the layer, the machine and a few plain arguments: how a layer splits
across cores (:func:`~repro.partition.partitioner.partition_layer`,
Section 3.1) and how one sub-layer is tiled
(:func:`~repro.schedule.tiling.plan_tiles`, Section 3.3).  A candidate
therefore asks almost all of its predecessors' questions again.
:class:`DecisionMemo` answers the repeats from two tables keyed on
those plain values, and :func:`~repro.compiler.compiler.compile_model`
consults it when one is passed.

A memo is bound to one (graph, machine) pair by identity, because its
keys name layers rather than hold them.  Its lifetime is one search:
:class:`~repro.compiler.autotune.Evaluator` owns one, and nothing
process-wide does, so every other compile runs exactly as without it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.config import NPUConfig
    from repro.ir.graph import Graph
    from repro.partition.slicer import LayerPartition
    from repro.schedule.tiling import TilePlan


class MemoBindingError(Exception):
    """A decision memo was handed a graph or machine it is not bound to."""


class DecisionMemo:
    """Partition and tile-plan answers for one (graph, machine) pair.

    ``partitions`` is keyed on (layer name, policy, enabled heuristics,
    weight override, direction pin); ``tiles`` on (layer name, the six
    bounds of the sub-layer's output region, core index, and every flag
    and pin :func:`~repro.schedule.tiling.plan_tiles` is called with).
    Both hold frozen values, so compiled models share them safely.  A
    call that raises stores nothing.
    """

    def __init__(self, graph: "Graph", npu: "NPUConfig") -> None:
        self.graph = graph
        self.npu = npu
        self.partitions: Dict[Tuple, "LayerPartition"] = {}
        self.tiles: Dict[Tuple, "TilePlan"] = {}

    def check(self, graph: "Graph", npu: "NPUConfig") -> None:
        """Raise :class:`MemoBindingError` unless bound to exactly these."""
        if graph is not self.graph or npu is not self.npu:
            raise MemoBindingError(
                f"decision memo is bound to graph {self.graph.name!r} on "
                f"{self.npu.name!r}; it cannot answer for graph "
                f"{graph.name!r} on {npu.name!r} (a different object)"
            )
