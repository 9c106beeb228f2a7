"""The per-item registry: complete, the only place naming items, and consistent."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

import clear_ga
from clear_ga.backends import EvaluationRequest, OracleEvaluator, PlantedCue, PlantedLandscape
from clear_ga.fitness import GroundTruth
from clear_ga.items import ITEMS, ItemSpec, building_error
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
