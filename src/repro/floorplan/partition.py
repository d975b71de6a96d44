"""Recursive bi-partitioning of chiplets into a full binary tree.

The paper's whitespace-estimation algorithm builds a slicing floorplan from a
recursive bi-partitioning of the chiplets: chiplets are sorted in decreasing
order of area and assigned greedily to the partition with the lesser total
weight (area), producing an area-balanced two-way split; each side is then
partitioned again until every partition holds exactly one chiplet.  The
result is a full binary tree whose leaves are chiplets and whose internal
nodes are partitions.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple


@dataclasses.dataclass
class PartitionNode:
    """A node of the partition tree.

    Leaf nodes carry a single chiplet name; internal nodes carry two
    children.  ``total_area`` is the sum of the chiplet areas below the node
    (before any whitespace is added).
    """

    chiplet: Optional[str] = None
    left: Optional["PartitionNode"] = None
    right: Optional["PartitionNode"] = None
    total_area: float = 0.0

    @property
    def is_leaf(self) -> bool:
        """True for single-chiplet nodes."""
        return self.chiplet is not None

    def leaves(self) -> List[str]:
        """Chiplet names under this node, left to right."""
        if self.is_leaf:
            return [self.chiplet]  # type: ignore[list-item]
        names: List[str] = []
        if self.left is not None:
            names.extend(self.left.leaves())
        if self.right is not None:
            names.extend(self.right.leaves())
        return names

    def depth(self) -> int:
        """Height of the subtree rooted at this node (leaf = 1)."""
        if self.is_leaf:
            return 1
        left_depth = self.left.depth() if self.left is not None else 0
        right_depth = self.right.depth() if self.right is not None else 0
        return 1 + max(left_depth, right_depth)

    def internal_nodes(self) -> int:
        """Number of internal (partition) nodes in the subtree."""
        if self.is_leaf:
            return 0
        count = 1
        if self.left is not None:
            count += self.left.internal_nodes()
        if self.right is not None:
            count += self.right.internal_nodes()
        return count


def _balanced_split(areas: Sequence[Tuple[str, float]]) -> Tuple[List[Tuple[str, float]], List[Tuple[str, float]]]:
    """Greedy area-balanced two-way split.

    Chiplets (already sorted by decreasing area) are assigned one by one to
    the side with the smaller accumulated area.
    """
    left: List[Tuple[str, float]] = []
    right: List[Tuple[str, float]] = []
    left_weight = 0.0
    right_weight = 0.0
    for name, area in areas:
        if left_weight <= right_weight:
            left.append((name, area))
            left_weight += area
        else:
            right.append((name, area))
            right_weight += area
    return left, right


def build_partition_tree(chiplet_areas: Dict[str, float]) -> PartitionNode:
    """Build the recursive bi-partitioning tree for ``chiplet_areas``.

    Args:
        chiplet_areas: Mapping of chiplet name to area in mm².  Must be
            non-empty and every area must be positive.

    Returns:
        The root :class:`PartitionNode` of a full binary tree whose leaves
        are exactly the given chiplets.
    """
    return _build(ordered_areas(chiplet_areas))


def ordered_areas(chiplet_areas: Dict[str, float]) -> List[Tuple[str, float]]:
    """Validated ``(name, area)`` items by decreasing area, then name.

    The order the partition tree (and the floorplanner's outline pass, which
    folds the same partition without building it) splits.
    """
    if not chiplet_areas:
        raise ValueError("at least one chiplet is required")
    for name, area in chiplet_areas.items():
        if area <= 0:
            raise ValueError(f"chiplet {name!r} has non-positive area {area}")
    return sorted(chiplet_areas.items(), key=lambda item: (-item[1], item[0]))


def split(
    ordered: Sequence[Tuple[str, float]],
) -> Tuple[Sequence[Tuple[str, float]], Sequence[Tuple[str, float]]]:
    """The two sides one partition level splits ``ordered`` (len >= 2) into."""
    left_items, right_items = _balanced_split(ordered)
    # The greedy split always leaves both sides non-empty for len >= 2, but
    # guard against degenerate weights anyway.
    if not left_items or not right_items:
        midpoint = max(1, len(ordered) // 2)
        left_items, right_items = list(ordered[:midpoint]), list(ordered[midpoint:])
    return left_items, right_items


def _build(ordered: Sequence[Tuple[str, float]]) -> PartitionNode:
    if len(ordered) == 1:
        name, area = ordered[0]
        return PartitionNode(chiplet=name, total_area=area)
    left_items, right_items = split(ordered)
    left = _build(left_items)
    right = _build(right_items)
    return PartitionNode(
        left=left,
        right=right,
        total_area=left.total_area + right.total_area,
    )
