"""Error-function exactness and fitness aggregation."""

from __future__ import annotations

import sys
from random import Random

import pytest

from clear_ga.fitness import (
    UVALUE_TARGETS,
    GroundTruth,
    HeatingClass,
    ValueRange,
    WindowClass,
    YearRange,
    aggregate_fitness,
    energy_error,
    heating_error,
    lighting_error,
    range_point_error,
    range_range_error,
    uvalue_error,
    windows_error,
)
from clear_ga.items import ITEMS, building_error, failure_penalty, parse_estimate
from clear_ga.schema import DataItem

H = HeatingClass
W = WindowClass

# Full confusion matrices, frozen verbatim. Rows: estimate; columns: truth.
HEATING_MATRIX = {
    H.UNDERFLOOR:       {H.UNDERFLOOR: 0, H.WARM_AIR: 1, H.WATER_RADIATORS: 2, H.ELECTRIC_PANEL: 2, H.ELECTRIC_STORAGE: 2},
    H.WARM_AIR:         {H.UNDERFLOOR: 1, H.WARM_AIR: 0, H.WATER_RADIATORS: 2, H.ELECTRIC_PANEL: 2, H.ELECTRIC_STORAGE: 2},
    H.WATER_RADIATORS:  {H.UNDERFLOOR: 2, H.WARM_AIR: 2, H.WATER_RADIATORS: 0, H.ELECTRIC_PANEL: 2, H.ELECTRIC_STORAGE: 2},
    H.ELECTRIC_PANEL:   {H.UNDERFLOOR: 2, H.WARM_AIR: 2, H.WATER_RADIATORS: 2, H.ELECTRIC_PANEL: 0, H.ELECTRIC_STORAGE: 1},
    H.ELECTRIC_STORAGE: {H.UNDERFLOOR: 2, H.WARM_AIR: 2, H.WATER_RADIATORS: 2, H.ELECTRIC_PANEL: 1, H.ELECTRIC_STORAGE: 0},
}

WINDOWS_MATRIX = {
    W.SINGLE:          {W.SINGLE: 0, W.DOUBLE: 1, W.HIGH_EFFICIENCY: 2},
    W.DOUBLE:          {W.SINGLE: 1, W.DOUBLE: 0, W.HIGH_EFFICIENCY: 1},
    W.HIGH_EFFICIENCY: {W.SINGLE: 2, W.DOUBLE: 1, W.HIGH_EFFICIENCY: 0},
}


def brute_point_error(start: int, end: int, point: int) -> int:
    return min(abs(point - p) for p in range(start, end + 1))


def brute_range_error(a: YearRange, b: YearRange) -> int:
    return min(brute_point_error(a.start, a.end, q) for q in range(b.start, b.end + 1))


class TestRangeErrors:
    def test_point_inside(self):
        assert range_point_error(2007, 2011, 2009) == 0

    def test_point_above(self):
        assert range_point_error(2007, 2011, 2014) == 3

    def test_point_below(self):
        assert range_point_error(1990, 2020, 1985) == 5

    def test_range_gap_after(self):
        assert range_range_error(YearRange(1900, 1930), YearRange(1950, 1970)) == 20

    def test_range_gap_before(self):
        assert range_range_error(YearRange(1950, 1970), YearRange(1900, 1930)) == 20

    def test_range_overlap(self):
        assert range_range_error(YearRange(1900, 1960), YearRange(1950, 1970)) == 0

    def test_point_error_against_brute_force(self):
        rng = Random(101)
        for _ in range(10000):
            start = rng.randint(1000, 2100)
            end = start + rng.randint(0, 60)
            point = rng.randint(900, 2200)
            assert range_point_error(start, end, point) == brute_point_error(start, end, point)

    def test_range_error_against_brute_force(self):
        rng = Random(102)
        for _ in range(10000):
            a_start = rng.randint(1000, 2100)
            a = YearRange(a_start, a_start + rng.randint(0, 12))
            b_start = rng.randint(1000, 2100)
            b = YearRange(b_start, b_start + rng.randint(0, 12))
            assert range_range_error(a, b) == brute_range_error(a, b)

    def test_degenerate_range_equals_point_error(self):
        rng = Random(103)
        for _ in range(2000):
            start = rng.randint(1000, 2100)
            end = start + rng.randint(0, 40)
            point = rng.randint(900, 2200)
            assert range_point_error(start, end, point) == range_range_error(
                YearRange(start, end), YearRange(point, point)
            )

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            range_point_error(10, 5, 7)
        with pytest.raises(ValueError):
            YearRange(2011, 2007)


class TestCategoricalMatrices:
    def test_heating_matrix_verbatim(self):
        for estimate, row in HEATING_MATRIX.items():
            for truth, expected in row.items():
                assert heating_error(estimate, truth) == expected

    def test_windows_matrix_verbatim(self):
        for estimate, row in WINDOWS_MATRIX.items():
            for truth, expected in row.items():
                assert windows_error(estimate, truth) == expected

    def test_symmetry_and_zero_diagonal(self):
        for a in H:
            for b in H:
                assert heating_error(a, b) == heating_error(b, a)
            assert heating_error(a, a) == 0
        for a in W:
            for b in W:
                assert windows_error(a, b) == windows_error(b, a)
            assert windows_error(a, a) == 0

    def test_windows_triangle_inequality(self):
        for a in W:
            for b in W:
                for c in W:
                    assert windows_error(a, b) <= windows_error(a, c) + windows_error(c, b)


class TestScalarErrors:
    def test_lighting(self):
        assert lighting_error(20, 86) == 66
        assert lighting_error(100, 100) == 0
        assert lighting_error(0, 100) == 100

    def test_energy_point(self):
        assert energy_error(150.0, 120.0) == 30

    def test_energy_range_containing_truth(self):
        assert energy_error(ValueRange(100, 200), 150.0) == 0

    def test_energy_range_below_truth(self):
        assert energy_error(ValueRange(100, 200), 250.0) == 50

    def test_uvalue(self):
        assert uvalue_error(2.3, W.DOUBLE) == pytest.approx(0.3)
        assert uvalue_error(4.8, W.SINGLE) == 0.0
        assert uvalue_error(4.8, W.DOUBLE) == pytest.approx(2.8)

    def test_uvalue_targets_fall_as_glazing_improves(self):
        # Single glazing loses the most heat, so it has the highest U-value.
        assert (
            UVALUE_TARGETS[W.SINGLE] > UVALUE_TARGETS[W.DOUBLE] > UVALUE_TARGETS[W.HIGH_EFFICIENCY]
        )

    def test_uvalue_requires_positive_estimate(self):
        with pytest.raises(ValueError):
            uvalue_error(0.0, W.DOUBLE)

    def test_triangle_inequality_in_numeric_argument(self):
        rng = Random(104)
        for _ in range(500):
            a, b, c = (rng.uniform(0.1, 10) for _ in range(3))
            assert uvalue_error(a, W.DOUBLE) <= uvalue_error(c, W.DOUBLE) + abs(a - c) + 1e-12
            x, y, z = (rng.uniform(0, 100) for _ in range(3))
            assert lighting_error(x, y) <= lighting_error(x, z) + lighting_error(z, y) + 1e-12

    def test_non_negativity(self):
        rng = Random(105)
        for _ in range(500):
            assert range_point_error(1900, 1950, rng.randint(1500, 2400)) >= 0
            assert lighting_error(rng.uniform(0, 100), rng.uniform(0, 100)) >= 0
            assert energy_error(rng.uniform(1, 500), rng.uniform(35, 450)) >= 0
            assert uvalue_error(rng.uniform(0.1, 6), rng.choice(list(W))) >= 0


class TestBuildingError:
    def test_age_range_estimate_exact_truth(self):
        truth = GroundTruth(age=YearRange(2014, 2014))
        assert building_error(DataItem.BUILDING_AGE, YearRange(1990, 2020), truth) == 0

    def test_age_range_estimate_range_truth(self):
        truth = GroundTruth(age=YearRange(2007, 2011))
        assert building_error(DataItem.BUILDING_AGE, YearRange(1990, 2000), truth) == 7

    def test_heating_dispatch(self):
        truth = GroundTruth(heating=H.UNDERFLOOR)
        assert building_error(DataItem.HEATING, H.WARM_AIR, truth) == 1

    def test_uvalue_dispatch(self):
        truth = GroundTruth(windows=W.DOUBLE)
        assert building_error(DataItem.WINDOWS_UVALUE, 2.0, truth) == 0

    def test_variant_mismatch_rejected(self):
        truth = GroundTruth(heating=H.UNDERFLOOR)
        with pytest.raises(ValueError, match="estimate"):
            building_error(DataItem.HEATING, 3.0, truth)

    def test_missing_truth_field_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            building_error(DataItem.ENERGY, 100.0, GroundTruth(heating=H.UNDERFLOOR))


class TestMidpoint:
    def test_midpoint_is_the_mean_of_the_ends(self):
        assert ValueRange(2.0, 3.0).midpoint == 2.5
        rng = Random(7)
        for _ in range(200):
            start, end = sorted(rng.uniform(0, 500) for _ in range(2))
            assert ValueRange(start, end).midpoint == (start + end) / 2.0

    def test_midpoint_of_ends_near_the_float_range_is_finite(self):
        start, end = float("8" * 308), float("9" * 308)
        assert ValueRange(start, end).midpoint == start / 2.0 + end / 2.0
        uvalue = parse_estimate(DataItem.WINDOWS_UVALUE, f"{'9' * 308}-{'8' * 308}", 2025)
        assert start < uvalue < end


class TestAggregateAndPenalty:
    def test_sum(self):
        assert aggregate_fitness([0, 3, 5]) == 8

    def test_all_zero_is_perfect(self):
        assert aggregate_fitness([0.0, 0.0]) == 0.0

    def test_singleton(self):
        assert aggregate_fitness([66]) == 66

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_fitness([])

    def test_permutation_invariant(self):
        rng = Random(106)
        values = [rng.uniform(0, 50) for _ in range(20)]
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert aggregate_fitness(values) == pytest.approx(aggregate_fitness(shuffled))

    def test_sum_past_the_float_range_is_held_at_the_largest_float(self):
        # Two energy answers of 308 nines: each error is finite, their sum is not.
        answer = parse_estimate(DataItem.ENERGY, "9" * 308, 2025)
        error = building_error(DataItem.ENERGY, answer, GroundTruth(energy_kwh_m2=120.0))
        assert error < sys.float_info.max
        assert aggregate_fitness([error, error]) == sys.float_info.max
        assert aggregate_fitness([float("inf"), 1.0]) == sys.float_info.max
        assert aggregate_fitness([sys.float_info.max, 0.0]) == sys.float_info.max

    def test_penalty_table(self):
        assert failure_penalty(DataItem.BUILDING_AGE) == 1024
        assert failure_penalty(DataItem.HEATING) == 2
        assert failure_penalty(DataItem.WINDOWS) == 2
        assert failure_penalty(DataItem.LIGHTING) == 100
        assert failure_penalty(DataItem.ENERGY) == 450
        assert failure_penalty(DataItem.WINDOWS_UVALUE) == pytest.approx(4.3)
        assert set(ITEMS) == set(DataItem)
