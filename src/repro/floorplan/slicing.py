"""Slicing-floorplan construction and whitespace estimation.

Processes the partition tree produced by
:func:`repro.floorplan.partition.build_partition_tree` bottom-up:

* **Leaf nodes** become chiplet bounding boxes.  The chiplet's aspect ratio
  defaults to square (the paper sets orientation/aspect ratio at the leaves;
  a square is the area-optimal default when the true die outline is
  unknown).
* **Internal nodes** combine their two children either side-by-side
  (vertical cut) or stacked (horizontal cut), separated by the chiplet
  spacing constraint.  Whichever orientation yields the smaller bounding box
  is kept.  Any dimension mismatch between the two children becomes
  whitespace inside the bounding box — exactly the two whitespace sources
  described in Section III-D(3).

The floorplan also reports chiplet adjacencies (pairs of chiplets whose
placements abut across a spacing channel) which the packaging models use to
count silicon bridges and place NoC routers.

Two passes share the partition and the orientation rule:

* :meth:`SlicingFloorplanner.floorplan` builds the partition tree, a
  placement per chiplet and (optionally) the adjacency list.  It is the
  reference the estimator uses.
* :meth:`SlicingFloorplanner.outline` folds the same partition straight
  into ``(width, height)`` floats — no tree nodes, blocks, placements or
  rectangles per level — with the same operation order, so its outline,
  package area, chiplet area and whitespace fields equal ``floorplan()``'s
  bit for bit.  Its result carries no placements and no adjacencies.  Every
  consumer that only needs the package area (the dollar-cost model, every
  packaging model without ``needs_adjacencies``, the template compiler's
  cache of them) takes this pass.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Dict, List, Sequence, Tuple

from repro.floorplan.partition import (
    PartitionNode,
    build_partition_tree,
    ordered_areas,
    split,
)
from repro.floorplan.rect import Rect

#: Default chiplet-to-chiplet spacing constraint in mm (Table I: 0.1–1 mm).
DEFAULT_CHIPLET_SPACING_MM = 0.5


@dataclasses.dataclass(frozen=True)
class Placement:
    """Final position of one chiplet inside the package outline."""

    name: str
    rect: Rect


@dataclasses.dataclass(frozen=True)
class FloorplanResult:
    """Output of the slicing floorplanner.

    Attributes:
        placements: Per-chiplet placement rectangles (package coordinates);
            empty for an :meth:`SlicingFloorplanner.outline` result.
        outline: Bounding box of the whole assembly; its area is the package
            substrate / interposer area used in the packaging CFP models.
        chiplet_area_mm2: Sum of chiplet silicon areas.
        package_area_mm2: Area of the outline.
        whitespace_area_mm2: Outline area not covered by chiplets.
        whitespace_fraction: Whitespace as a fraction of the package area.
        adjacencies: Pairs of chiplet names that abut (share an interface
            across a spacing channel), with the shared edge length in mm;
            empty unless requested from :meth:`SlicingFloorplanner.floorplan`.
    """

    placements: Tuple[Placement, ...]
    outline: Rect
    chiplet_area_mm2: float
    package_area_mm2: float
    whitespace_area_mm2: float
    whitespace_fraction: float
    adjacencies: Tuple[Tuple[str, str, float], ...]

    def placement_of(self, name: str) -> Placement:
        """Return the placement of chiplet ``name``."""
        for placement in self.placements:
            if placement.name == name:
                return placement
        raise KeyError(f"no chiplet named {name!r} in floorplan")

    def adjacency_count(self) -> int:
        """Number of abutting chiplet pairs."""
        return len(self.adjacencies)


@dataclasses.dataclass(frozen=True)
class _Block:
    """Intermediate floorplan block: a set of placed chiplets in local coords."""

    width: float
    height: float
    placements: Tuple[Placement, ...]


class SlicingFloorplanner:
    """Builds a slicing floorplan and estimates whitespace.

    Args:
        spacing_mm: Minimum spacing between adjacent chiplets and between a
            chiplet and the combined-partition boundary (Table I: 0.1–1 mm).
        aspect_ratio: Aspect ratio applied to every chiplet bounding box
            (width / height).  1.0 (square) by default.
    """

    def __init__(
        self,
        spacing_mm: float = DEFAULT_CHIPLET_SPACING_MM,
        aspect_ratio: float = 1.0,
    ):
        if spacing_mm < 0:
            raise ValueError(f"spacing must be non-negative, got {spacing_mm}")
        if aspect_ratio <= 0:
            raise ValueError(f"aspect ratio must be positive, got {aspect_ratio}")
        self.spacing_mm = float(spacing_mm)
        self.aspect_ratio = float(aspect_ratio)

    # -- public API --------------------------------------------------------------
    def floorplan(
        self, chiplet_areas: Dict[str, float], adjacencies: bool = True
    ) -> FloorplanResult:
        """Floorplan the chiplets and report package area and whitespace.

        ``adjacencies=False`` skips the pairwise adjacency extraction (an
        O(n²) pass only the silicon-bridge packaging model consumes) and
        leaves the ``adjacencies`` field empty; use
        :meth:`adjacencies_of` to fill it in later.  Geometry is identical
        either way.
        """
        block = self._process(build_partition_tree(chiplet_areas))
        return self._result(
            chiplet_areas,
            block.width,
            block.height,
            block.placements,
            self._adjacencies(block.placements) if adjacencies else (),
        )

    def outline(self, chiplet_areas: Dict[str, float]) -> FloorplanResult:
        """The package outline and whitespace of :meth:`floorplan`, without
        placements.

        Folds the partition of ``chiplet_areas`` bottom-up as bare
        ``(width, height)`` floats.  The area fields equal
        ``floorplan(chiplet_areas)``'s bit for bit; ``placements`` and
        ``adjacencies`` are empty, and :meth:`adjacencies_of` refuses the
        result.
        """
        width, height = self._fold(ordered_areas(chiplet_areas))
        return self._result(chiplet_areas, width, height, (), ())

    def adjacencies_of(self, floorplan: FloorplanResult) -> FloorplanResult:
        """A copy of ``floorplan`` with the adjacency pairs filled in.

        Computes the same pairs :meth:`floorplan` would have produced with
        ``adjacencies=True``; already-filled results are returned unchanged.

        Raises:
            ValueError: ``floorplan`` has no placements (an
                :meth:`outline` result), so its pairs cannot be derived.
        """
        if not floorplan.placements:
            raise ValueError(
                "floorplan has no placements (an outline); floorplan() the "
                "chiplets in full to derive adjacencies"
            )
        if floorplan.adjacencies:
            return floorplan
        return dataclasses.replace(
            floorplan, adjacencies=self._adjacencies(floorplan.placements)
        )

    def package_area_mm2(self, chiplet_areas: Dict[str, float]) -> float:
        """Convenience wrapper returning only the package/interposer area."""
        return self.outline(chiplet_areas).package_area_mm2

    @staticmethod
    def _result(
        chiplet_areas: Dict[str, float],
        width: float,
        height: float,
        placements: Tuple[Placement, ...],
        adjacencies: Tuple[Tuple[str, str, float], ...],
    ) -> FloorplanResult:
        outline = Rect(0.0, 0.0, width, height)
        chiplet_area = sum(chiplet_areas.values())
        package_area = outline.area
        whitespace = max(0.0, package_area - chiplet_area)
        return FloorplanResult(
            placements=placements,
            outline=outline,
            chiplet_area_mm2=chiplet_area,
            package_area_mm2=package_area,
            whitespace_area_mm2=whitespace,
            whitespace_fraction=whitespace / package_area if package_area > 0 else 0.0,
            adjacencies=adjacencies,
        )

    # -- tree processing -----------------------------------------------------------
    def _process(self, node: PartitionNode) -> _Block:
        if node.is_leaf:
            width, height = self._leaf(node.total_area)
            placement = Placement(
                name=node.chiplet or "", rect=Rect(0.0, 0.0, width, height)
            )
            return _Block(width=width, height=height, placements=(placement,))
        assert node.left is not None and node.right is not None
        left = self._process(node.left)
        right = self._process(node.right)
        # Decide the cut orientation from the candidate bounding boxes alone,
        # then translate only the winner's placements.
        vertical_cut, width, height = self._cut(
            left.width, left.height, right.width, right.height
        )
        if vertical_cut:
            dx, dy = left.width + self.spacing_mm, 0.0
        else:
            dx, dy = 0.0, left.height + self.spacing_mm
        shifted = tuple(
            Placement(p.name, p.rect.translated(dx, dy)) for p in right.placements
        )
        return _Block(width=width, height=height, placements=left.placements + shifted)

    def _fold(self, ordered: Sequence[Tuple[str, float]]) -> Tuple[float, float]:
        """``(width, height)`` of the partition of ``ordered``: :meth:`_process`
        over the same split, without the tree or any placement."""
        if len(ordered) == 1:
            return self._leaf(ordered[0][1])
        left_items, right_items = split(ordered)
        left_width, left_height = self._fold(left_items)
        right_width, right_height = self._fold(right_items)
        _, width, height = self._cut(left_width, left_height, right_width, right_height)
        return width, height

    def _leaf(self, area: float) -> Tuple[float, float]:
        """Bounding box of one chiplet at the configured aspect ratio."""
        width = math.sqrt(area * self.aspect_ratio)
        height = area / width if width > 0 else 0.0
        return width, height

    def _cut(
        self, left_width: float, left_height: float, right_width: float, right_height: float
    ) -> Tuple[bool, float, float]:
        """``(vertical cut?, width, height)`` of the smaller combined box.

        A vertical cut puts the right child beside the left one (widths add
        across the spacing gap), a horizontal cut stacks it on top; a tie
        keeps the vertical cut.
        """
        gap = self.spacing_mm
        side_width = left_width + gap + right_width
        side_height = max(left_height, right_height)
        stack_width = max(left_width, right_width)
        stack_height = left_height + gap + right_height
        if side_width * side_height <= stack_width * stack_height:
            return True, side_width, side_height
        return False, stack_width, stack_height

    # -- adjacency extraction ---------------------------------------------------------
    def _adjacencies(
        self, placements: Tuple[Placement, ...]
    ) -> Tuple[Tuple[str, str, float], ...]:
        """Pairs of chiplets that face each other across a spacing channel.

        Each placement is inflated by half the spacing on every side; two
        chiplets are adjacent when their inflated outlines abut or overlap
        and the overlap of their projections on the facing axis is positive.
        """
        inflate = self.spacing_mm / 2.0 + 1e-9
        tolerance = 1e-6
        # Inflate every placement once, as bare floats; the arithmetic per
        # coordinate (x - inflate, width + 2*inflate, x2 = x + width) is
        # exactly what the former per-pair Rect construction computed.
        inflated = []
        for placement in placements:
            rect = placement.rect
            x = rect.x - inflate
            y = rect.y - inflate
            x2 = x + (rect.width + 2 * inflate)
            y2 = y + (rect.height + 2 * inflate)
            inflated.append((placement.name, x, y, x2, y2))
        pairs: List[Tuple[str, str, float]] = []
        for (a_name, ax, ay, ax2, ay2), (b_name, bx, by, bx2, by2) in (
            itertools.combinations(inflated, 2)
        ):
            if ax < bx2 and bx < ax2 and ay < by2 and by < ay2:
                # Overlap after inflation: the interface length is the extent
                # of the overlap along the facing (longer) direction.
                dx = min(ax2, bx2) - max(ax, bx)
                dy = min(ay2, by2) - max(ay, by)
                shared = max(dx, dy) if min(dx, dy) > 0 else 0.0
            else:
                # Rect.shared_edge_length over the inflated outlines.
                shared = 0.0
                if abs(ax2 - bx) <= tolerance or abs(bx2 - ax) <= tolerance:
                    low = max(ay, by)
                    high = min(ay2, by2)
                    if high > low:
                        shared = high - low
                if not shared and (
                    abs(ay2 - by) <= tolerance or abs(by2 - ay) <= tolerance
                ):
                    low = max(ax, bx)
                    high = min(ax2, bx2)
                    if high > low:
                        shared = high - low
            if shared > 0:
                names = sorted((a_name, b_name))
                pairs.append((names[0], names[1], shared))
        return tuple(sorted(pairs))


def floorplan_areas(
    chiplet_areas: Dict[str, float],
    spacing_mm: float = DEFAULT_CHIPLET_SPACING_MM,
    aspect_ratio: float = 1.0,
) -> FloorplanResult:
    """Functional shortcut: floorplan ``chiplet_areas`` with default settings."""
    planner = SlicingFloorplanner(spacing_mm=spacing_mm, aspect_ratio=aspect_ratio)
    return planner.floorplan(chiplet_areas)
