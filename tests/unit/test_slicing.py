"""Unit tests for repro.floorplan.slicing."""

from __future__ import annotations

import itertools

import pytest

from repro.floorplan.slicing import SlicingFloorplanner, floorplan_areas


class TestFloorplanInvariants:
    def test_single_chiplet_floorplan_is_tight(self):
        planner = SlicingFloorplanner(spacing_mm=0.5)
        result = planner.floorplan({"only": 100.0})
        assert result.package_area_mm2 == pytest.approx(100.0, rel=1e-6)
        assert result.whitespace_area_mm2 == pytest.approx(0.0, abs=1e-6)
        assert result.adjacency_count() == 0

    def test_package_area_at_least_sum_of_chiplets(self):
        areas = {"a": 120.0, "b": 80.0, "c": 40.0, "d": 10.0}
        result = floorplan_areas(areas, spacing_mm=0.5)
        assert result.package_area_mm2 >= sum(areas.values())
        assert result.whitespace_area_mm2 == pytest.approx(
            result.package_area_mm2 - sum(areas.values())
        )
        assert 0.0 <= result.whitespace_fraction < 1.0

    def test_every_chiplet_is_placed_with_its_area(self):
        areas = {"a": 50.0, "b": 30.0, "c": 20.0}
        result = floorplan_areas(areas)
        assert {p.name for p in result.placements} == set(areas)
        for placement in result.placements:
            assert placement.rect.area == pytest.approx(areas[placement.name])

    def test_placements_do_not_overlap(self):
        areas = {f"c{i}": 10.0 + 7.0 * i for i in range(6)}
        result = floorplan_areas(areas, spacing_mm=0.3)
        for a, b in itertools.combinations(result.placements, 2):
            dx = min(a.rect.x2, b.rect.x2) - max(a.rect.x, b.rect.x)
            dy = min(a.rect.y2, b.rect.y2) - max(a.rect.y, b.rect.y)
            assert max(0.0, dx) * max(0.0, dy) < 1e-9, (a.name, b.name)

    def test_placements_inside_outline(self):
        areas = {f"c{i}": 25.0 for i in range(5)}
        result = floorplan_areas(areas)
        for placement in result.placements:
            assert placement.rect.x >= -1e-9
            assert placement.rect.y >= -1e-9
            assert placement.rect.x2 <= result.outline.x2 + 1e-9
            assert placement.rect.y2 <= result.outline.y2 + 1e-9

    def test_placement_lookup(self):
        result = floorplan_areas({"a": 10.0, "b": 20.0})
        assert result.placement_of("a").name == "a"
        with pytest.raises(KeyError):
            result.placement_of("missing")


class TestSpacingAndWhitespace:
    def test_larger_spacing_means_larger_package(self):
        areas = {"a": 100.0, "b": 100.0, "c": 100.0}
        tight = floorplan_areas(areas, spacing_mm=0.1)
        loose = floorplan_areas(areas, spacing_mm=1.0)
        assert loose.package_area_mm2 > tight.package_area_mm2

    def test_zero_spacing_two_equal_chiplets_has_no_whitespace(self):
        result = floorplan_areas({"a": 50.0, "b": 50.0}, spacing_mm=0.0)
        assert result.whitespace_area_mm2 == pytest.approx(0.0, abs=1e-9)

    def test_mismatched_chiplets_create_whitespace(self):
        result = floorplan_areas({"big": 400.0, "small": 10.0}, spacing_mm=0.0)
        assert result.whitespace_area_mm2 > 0.0

    def test_more_chiplets_more_whitespace_fraction_with_spacing(self):
        """Splitting the same silicon into more pieces inflates the package."""
        few = floorplan_areas({f"c{i}": 250.0 for i in range(2)}, spacing_mm=1.0)
        many = floorplan_areas({f"c{i}": 62.5 for i in range(8)}, spacing_mm=1.0)
        assert many.package_area_mm2 > few.chiplet_area_mm2
        assert many.whitespace_fraction >= few.whitespace_fraction


class TestAdjacencies:
    def test_two_chiplets_are_adjacent(self):
        result = floorplan_areas({"a": 100.0, "b": 100.0}, spacing_mm=0.5)
        assert result.adjacency_count() == 1
        name_a, name_b, edge = result.adjacencies[0]
        assert {name_a, name_b} == {"a", "b"}
        assert edge > 0.0

    def test_adjacency_names_are_sorted(self):
        result = floorplan_areas({"zeta": 50.0, "alpha": 50.0}, spacing_mm=0.5)
        a, b, _ = result.adjacencies[0]
        assert a <= b

    def test_adjacency_count_grows_with_chiplet_count(self):
        few = floorplan_areas({f"c{i}": 50.0 for i in range(2)})
        many = floorplan_areas({f"c{i}": 50.0 for i in range(6)})
        assert many.adjacency_count() >= few.adjacency_count()

    def test_adjacent_pairs_form_a_connected_set(self):
        """Every chiplet should appear in at least one adjacency (no islands)."""
        result = floorplan_areas({f"c{i}": 30.0 + i for i in range(5)}, spacing_mm=0.5)
        seen = set()
        for a, b, _ in result.adjacencies:
            seen.add(a)
            seen.add(b)
        assert seen == {f"c{i}" for i in range(5)}


class TestOutline:
    def test_outline_has_no_placements_or_adjacencies(self):
        areas = {"a": 120.0, "b": 80.0, "c": 40.0}
        planner = SlicingFloorplanner(spacing_mm=0.5)
        outline = planner.outline(areas)
        assert outline.placements == () and outline.adjacencies == ()
        assert outline.outline == planner.floorplan(areas).outline

    def test_adjacencies_of_refuses_a_placement_less_result(self):
        # An outline carries no placements: deriving "no adjacencies" from
        # it would silently price a bridged package with zero bridges.
        planner = SlicingFloorplanner(spacing_mm=0.5)
        outline = planner.outline({"a": 50.0, "b": 50.0})
        with pytest.raises(ValueError, match="no placements"):
            planner.adjacencies_of(outline)

    def test_adjacencies_of_fills_in_a_full_floorplan(self):
        planner = SlicingFloorplanner(spacing_mm=0.5)
        areas = {"a": 50.0, "b": 30.0, "c": 20.0}
        bare = planner.floorplan(areas, adjacencies=False)
        assert bare.adjacencies == ()
        assert planner.adjacencies_of(bare) == planner.floorplan(areas)

    def test_outline_validates_like_floorplan(self):
        planner = SlicingFloorplanner()
        with pytest.raises(ValueError, match="at least one chiplet"):
            planner.outline({})
        with pytest.raises(ValueError, match="non-positive"):
            planner.outline({"a": 0.0})


class TestConstruction:
    def test_invalid_spacing_and_aspect_ratio(self):
        with pytest.raises(ValueError):
            SlicingFloorplanner(spacing_mm=-1)
        with pytest.raises(ValueError):
            SlicingFloorplanner(aspect_ratio=0)

    def test_package_area_shortcut(self):
        planner = SlicingFloorplanner()
        areas = {"a": 10.0, "b": 20.0}
        assert planner.package_area_mm2(areas) == pytest.approx(
            planner.floorplan(areas).package_area_mm2
        )
