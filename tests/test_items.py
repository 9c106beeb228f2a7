"""The per-item registry: complete, the only place naming items, and consistent."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path
from random import Random

import pytest

import clear_ga
from clear_ga.backends import (
    EvaluationFailure,
    EvaluationRequest,
    OracleEvaluator,
    PlantedCue,
    PlantedLandscape,
)
from clear_ga.fitness import GroundTruth, HeatingClass, ValueRange, WindowClass, YearRange
from clear_ga.items import ITEMS, ItemSpec, building_error, row_scorer
from clear_ga.schema import DataItem, Genotype

from conftest import build_record

SRC = Path(clear_ga.__file__).resolve().parent


def test_one_entry_per_data_item():
    assert list(ITEMS) == list(DataItem)
    assert all(isinstance(spec, ItemSpec) for spec in ITEMS.values())


def test_no_module_but_the_registry_names_an_item():
    member = re.compile(r"DataItem\.(" + "|".join(DataItem.__members__) + r")\b")
    offenders = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "items.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if member.search(line)
    ]
    assert offenders == []


@pytest.mark.parametrize("item", list(DataItem), ids=lambda i: i.value)
def test_entry_fits_the_rest_of_the_program(item):
    spec = ITEMS[item]
    assert spec.truth_field in {f.name for f in dataclasses.fields(GroundTruth)}
    assert spec.failure_penalty > 0


@pytest.mark.parametrize("item", list(DataItem), ids=lambda i: i.value)
def test_oracle_estimate_at_score_zero_is_exact(item):
    # The read-out yields the item's estimate type, and a zero score scores zero.
    landscape = PlantedLandscape(
        planted=(PlantedCue(0, "c0_0", 3.0),), distractor_penalty=1.0, base_error=3.0,
        noise_scale=0.0,
    )
    building = build_record()
    request = EvaluationRequest(Genotype((("c0_0",),)), building, item)
    estimate = OracleEvaluator(landscape).evaluate(request)
    assert isinstance(estimate, ITEMS[item].estimate_types)
    assert building_error(item, estimate, building.truth) == 0


# --- scoring a row of estimates at once --------------------------------------


def _random_value(rng: Random, kind: type):
    """A random value of ``kind``: an estimate type, or a truth field's type."""
    if kind is YearRange:
        start = rng.randint(1000, 2025)
        return YearRange(start, rng.choice([start, rng.randint(start, 2025)]))
    if kind is ValueRange:
        start = rng.uniform(0.1, 450)
        return ValueRange(start, rng.choice([start, rng.uniform(start, 500)]))
    if kind is int:
        return rng.randint(1, 450)
    if kind is float:
        return rng.uniform(0.1, 450)
    return rng.choice(list(kind))  # HeatingClass or WindowClass


def _random_truth(rng: Random) -> GroundTruth:
    return GroundTruth(
        age=_random_value(rng, YearRange),
        lighting_pct=rng.choice([0.0, 100.0, 50, rng.uniform(0, 100)]),
        heating=_random_value(rng, HeatingClass),
        windows=_random_value(rng, WindowClass),
        energy_kwh_m2=rng.choice([rng.randint(35, 450), rng.uniform(35, 450)]),
    )


def _pair_by_pair(item, row, truths):
    return [building_error(item, estimate, truth) for estimate, truth in zip(row, truths)]


@pytest.mark.parametrize("item", list(DataItem), ids=lambda i: i.value)
def test_row_scorer_equals_building_error_pair_by_pair(item):
    # Rows mix every estimate type of the item: int estimates of float items,
    # ValueRange and float energy answers, YearRange ages and enum classes.
    rng = Random(f"rows-{item.value}")
    kinds = ITEMS[item].estimate_types
    for _ in range(50):
        truths = [_random_truth(rng) for _ in range(rng.randint(1, 12))]
        score = row_scorer(item, truths)
        for _ in range(5):
            row = [_random_value(rng, rng.choice(kinds)) for _ in truths]
            expected = _pair_by_pair(item, row, truths)
            errors = score(row)
            assert errors == expected
            assert list(map(type, errors)) == list(map(type, expected))


def test_row_scorer_takes_a_member_value_and_an_empty_row():
    truths = [build_record().truth]
    assert row_scorer("energy", truths)([100.0]) == [20.0]
    assert row_scorer(DataItem.ENERGY, [])([]) == []


class Count(int):
    """An int subclass: ``building_error`` scores it as an int."""


@pytest.mark.parametrize(
    "odd", [True, "120", YearRange(1990, 1990), EvaluationFailure("no estimate"), Count(7)],
    ids=["bool", "text", "wrong-variant", "failure", "int-subclass"],
)
def test_row_with_an_estimate_of_another_exact_type_is_left_to_the_pair_path(odd):
    truths = [build_record(f"b{i}").truth for i in range(3)]
    score = row_scorer(DataItem.ENERGY, truths)
    assert score([100.0, 130, ValueRange(110.0, 125.0)]) == [20.0, 10, 0]
    assert score([100.0, odd, 130.0]) is None
    if type(odd) is Count:
        assert _pair_by_pair(DataItem.ENERGY, [100.0, odd, 130.0], truths) == [20.0, 113.0, 10.0]


def test_every_row_is_left_to_the_pair_path_when_a_truth_is_missing():
    truths = [build_record("b0").truth, build_record("b1", energy_kwh_m2=None).truth]
    assert row_scorer(DataItem.ENERGY, truths)([100.0, 100.0]) is None
    with pytest.raises(ValueError) as exc_info:
        _pair_by_pair(DataItem.ENERGY, [100.0, 100.0], truths)
    assert str(exc_info.value) == "ground truth is missing the field for energy"
