"""Estimate types, per-building error functions, and fitness aggregation.

Lower is better everywhere; zero is a perfect score. All functions here are
pure and reentrant. Which error function scores which data item is set in
:mod:`clear_ga.items`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Union


@dataclass(frozen=True)
class YearRange:
    """Inclusive year span; an exact year is the degenerate range start == end."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"year range start {self.start} exceeds end {self.end}")

    @property
    def is_exact(self) -> bool:
        return self.start == self.end


@dataclass(frozen=True)
class ValueRange:
    """Inclusive numeric span for estimates; a point value has start == end."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"range start {self.start} exceeds end {self.end}")

    @property
    def is_point(self) -> bool:
        return self.start == self.end

    @property
    def midpoint(self) -> float:
        mid = (self.start + self.end) / 2.0
        # The sum of two finite ends can overflow; halving them first cannot,
        # but it would round subnormal ends, so it is the fallback only.
        return self.start / 2.0 + self.end / 2.0 if math.isinf(mid) else mid


class HeatingClass(str, Enum):
    UNDERFLOOR = "underfloor"
    WARM_AIR = "warm_air"
    WATER_RADIATORS = "water_radiators"
    ELECTRIC_PANEL = "electric_panel"
    ELECTRIC_STORAGE = "electric_storage"


class WindowClass(str, Enum):
    SINGLE = "single"
    DOUBLE = "double"
    HIGH_EFFICIENCY = "high_efficiency"


DataEstimate = Union[YearRange, ValueRange, HeatingClass, WindowClass, float]


@dataclass(frozen=True)
class GroundTruth:
    """Confirmed values for one building; fields may be absent for unused items."""

    age: YearRange | None = None
    lighting_pct: float | None = None
    heating: HeatingClass | None = None
    windows: WindowClass | None = None
    energy_kwh_m2: float | None = None


def range_point_error(start_a: float, end_a: float, point_b: float) -> float:
    """Distance from a point to an inclusive range; zero inside."""
    if start_a > end_a:
        raise ValueError(f"range start {start_a} exceeds end {end_a}")
    if start_a <= point_b <= end_a:
        return 0
    return min(abs(point_b - start_a), abs(point_b - end_a))


def range_range_error(a: YearRange | ValueRange, b: YearRange | ValueRange) -> float:
    """Gap between two inclusive ranges; zero when they overlap."""
    if a.end < b.start:
        return b.start - a.end
    if b.end < a.start:
        return a.start - b.end
    return 0


def age_error(estimate: YearRange, truth: YearRange) -> float:
    """Range-to-point distance for an exact true year, range-to-range gap otherwise."""
    if truth.is_exact:
        return range_point_error(estimate.start, estimate.end, truth.start)
    return range_range_error(estimate, truth)


# Classes that look alike in images carry a reduced penalty when confused:
# underfloor vents resemble warm-air vents, panel heaters resemble storage
# heaters. Everything else is a full miss.
HEATING_CONFUSION_GROUP = {
    HeatingClass.UNDERFLOOR: 0,
    HeatingClass.WARM_AIR: 0,
    HeatingClass.WATER_RADIATORS: 1,
    HeatingClass.ELECTRIC_PANEL: 2,
    HeatingClass.ELECTRIC_STORAGE: 2,
}


def heating_error(estimate: HeatingClass, truth: HeatingClass) -> float:
    if estimate == truth:
        return 0.0
    if HEATING_CONFUSION_GROUP[estimate] == HEATING_CONFUSION_GROUP[truth]:
        return 1.0
    return 2.0


WINDOW_ORDINAL = {
    WindowClass.SINGLE: 0,
    WindowClass.DOUBLE: 1,
    WindowClass.HIGH_EFFICIENCY: 2,
}


def windows_error(estimate: WindowClass, truth: WindowClass) -> float:
    return float(abs(WINDOW_ORDINAL[estimate] - WINDOW_ORDINAL[truth]))


def lighting_error(estimate_pct: float, truth_pct: float) -> float:
    return abs(estimate_pct - truth_pct)


def energy_error(estimate: ValueRange | float, truth: float) -> float:
    """Absolute difference for a point estimate, range-to-point gap for a range."""
    if isinstance(estimate, ValueRange):
        return range_point_error(estimate.start, estimate.end, truth)
    return abs(estimate - truth)


# Reference U-values (W/m2K) per glazing class for the real-valued windows
# variant; less efficient glazing loses more heat, so its U-value is higher.
UVALUE_TARGETS = {
    WindowClass.SINGLE: 4.8,
    WindowClass.DOUBLE: 2.0,
    WindowClass.HIGH_EFFICIENCY: 0.5,
}


def uvalue_error(estimate_u: float, truth: WindowClass) -> float:
    if estimate_u <= 0:
        raise ValueError(f"U-value estimate must be positive, got {estimate_u}")
    return abs(estimate_u - UVALUE_TARGETS[truth])


def aggregate_fitness(per_building_errors: list[float]) -> float:
    """Sum of per-building errors over the evaluation split; zero is perfect.

    A sum past the float range is held at the largest float, so a member whose
    finite errors overflow ranks last without an infinite error.
    """
    if not per_building_errors:
        raise ValueError("cannot aggregate an empty list of building errors")
    return min(float(sum(per_building_errors)), sys.float_info.max)
