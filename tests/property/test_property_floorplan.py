"""Property-based tests (hypothesis) for the slicing floorplanner."""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.floorplan.partition import build_partition_tree
from repro.floorplan.slicing import SlicingFloorplanner

chiplet_sets = st.dictionaries(
    keys=st.text(alphabet="abcdefghij", min_size=1, max_size=4),
    values=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    min_size=1,
    max_size=8,
)
spacings = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestPartitionProperties:
    @given(areas=chiplet_sets)
    @settings(max_examples=100)
    def test_leaves_are_exactly_the_input_chiplets(self, areas):
        tree = build_partition_tree(areas)
        assert sorted(tree.leaves()) == sorted(areas)

    @given(areas=chiplet_sets)
    @settings(max_examples=100)
    def test_total_area_preserved(self, areas):
        tree = build_partition_tree(areas)
        assert abs(tree.total_area - sum(areas.values())) < 1e-6

    @given(areas=chiplet_sets)
    @settings(max_examples=100)
    def test_internal_node_count_of_a_full_binary_tree(self, areas):
        tree = build_partition_tree(areas)
        assert tree.internal_nodes() == len(areas) - 1


class TestFloorplanProperties:
    @given(areas=chiplet_sets, spacing=spacings)
    @settings(max_examples=100, deadline=None)
    def test_package_area_covers_all_chiplets(self, areas, spacing):
        result = SlicingFloorplanner(spacing_mm=spacing).floorplan(areas)
        assert result.package_area_mm2 >= sum(areas.values()) - 1e-6
        assert result.whitespace_area_mm2 >= -1e-9
        assert 0.0 <= result.whitespace_fraction < 1.0

    @given(areas=chiplet_sets, spacing=spacings)
    @settings(max_examples=100, deadline=None)
    def test_no_two_placements_overlap(self, areas, spacing):
        result = SlicingFloorplanner(spacing_mm=spacing).floorplan(areas)
        for a, b in itertools.combinations(result.placements, 2):
            # Floating-point placement offsets can make abutting chiplets
            # "overlap" by a few ULPs; only a positive overlap area counts.
            dx = min(a.rect.x2, b.rect.x2) - max(a.rect.x, b.rect.x)
            dy = min(a.rect.y2, b.rect.y2) - max(a.rect.y, b.rect.y)
            overlap_area = max(0.0, dx) * max(0.0, dy)
            assert overlap_area < 1e-9

    @given(areas=chiplet_sets, spacing=spacings)
    @settings(max_examples=100, deadline=None)
    def test_placements_stay_inside_the_outline(self, areas, spacing):
        result = SlicingFloorplanner(spacing_mm=spacing).floorplan(areas)
        for placement in result.placements:
            assert placement.rect.x >= -1e-9
            assert placement.rect.y >= -1e-9
            assert placement.rect.x2 <= result.outline.x2 + 1e-9
            assert placement.rect.y2 <= result.outline.y2 + 1e-9

    @given(areas=chiplet_sets, spacing=spacings)
    @settings(max_examples=100, deadline=None)
    def test_placement_areas_match_chiplet_areas(self, areas, spacing):
        result = SlicingFloorplanner(spacing_mm=spacing).floorplan(areas)
        for placement in result.placements:
            assert abs(placement.rect.area - areas[placement.name]) < 1e-6

    @given(areas=st.dictionaries(
        keys=st.text(alphabet="abcdefgh", min_size=1, max_size=3),
        values=st.floats(min_value=1.0, max_value=500.0),
        min_size=2,
        max_size=8,
    ), spacing=spacings)
    @settings(max_examples=100, deadline=None)
    def test_multi_chiplet_floorplans_report_adjacencies(self, areas, spacing):
        result = SlicingFloorplanner(spacing_mm=spacing).floorplan(areas)
        assert result.adjacency_count() >= 1
        for a, b, edge in result.adjacencies:
            assert a in areas and b in areas and a != b
            assert edge > 0


#: The FloorplanResult fields the outline pass shares with floorplan().
AREA_FIELDS = (
    "outline",
    "chiplet_area_mm2",
    "package_area_mm2",
    "whitespace_area_mm2",
    "whitespace_fraction",
)


class TestOutlinePass:
    """SlicingFloorplanner.outline folds the same partition as floorplan()."""

    @given(
        areas=st.dictionaries(
            keys=st.text(alphabet="abcdefghij", min_size=1, max_size=4),
            # Wide magnitudes plus integer-valued areas: ties between equal
            # areas exercise the name tie-break of the partition order.
            values=st.one_of(
                st.floats(min_value=1e-3, max_value=5e3, allow_nan=False),
                st.integers(min_value=1, max_value=60).map(float),
            ),
            min_size=1,
            max_size=10,
        ),
        spacing=spacings,
        aspect_ratio=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_area_fields_equal_floorplan_bit_for_bit(self, areas, spacing, aspect_ratio):
        planner = SlicingFloorplanner(spacing_mm=spacing, aspect_ratio=aspect_ratio)
        full = planner.floorplan(areas)
        outline = planner.outline(areas)
        for field in AREA_FIELDS:
            # repr() tells apart values == would not (-0.0 vs 0.0).
            assert repr(getattr(outline, field)) == repr(getattr(full, field)), field
        assert planner.package_area_mm2(areas) == full.package_area_mm2
        assert outline.placements == () and outline.adjacencies == ()
