"""Slicing floorplanner for package-substrate / interposer area estimation.

Section III-D(3) of the paper: the area of the package substrate or
interposer (and therefore its carbon footprint) depends on how the chiplets
are arranged.  ECO-CHIP estimates it with a recursive bi-partitioning slicing
floorplan:

1. Chiplets are sorted by decreasing area and assigned one-by-one to the
   lighter of two partitions, producing an area-balanced two-way partition.
2. Each partition is recursively bi-partitioned until every partition holds a
   single chiplet, yielding a full binary tree whose leaves are chiplets.
3. The tree is processed bottom-up: leaves become chiplet bounding boxes,
   internal nodes combine their two children side-by-side (choosing the
   orientation that minimises the bounding-box area), adding the
   chiplet-spacing constraint and accounting for whitespace created when the
   two children have mismatched dimensions.

The resulting floorplan provides the package/interposer area, the whitespace
fraction, per-chiplet placements and the chiplet adjacency list used to place
silicon bridges and NoC routers.  Callers that need only the area take
:meth:`SlicingFloorplanner.outline`, which folds step 3 into bare floats and
returns the same area fields bit for bit without placements.
"""

from repro.floorplan.partition import PartitionNode, build_partition_tree
from repro.floorplan.rect import Rect
from repro.floorplan.slicing import FloorplanResult, Placement, SlicingFloorplanner

__all__ = [
    "PartitionNode",
    "build_partition_tree",
    "Rect",
    "FloorplanResult",
    "Placement",
    "SlicingFloorplanner",
]
