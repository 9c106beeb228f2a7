"""Pinned per-item behaviour: exact prompts, image subsets, splits and
schema-generation representatives for every data item.

The expected values are literals on purpose, so a drifted answer-option
list, question or grouping shows up here instead of being compared
against the same table it was read from.
"""

from __future__ import annotations

from pathlib import Path
from random import Random

import pytest

from clear_ga.backends import (
    EvaluationFailure,
    EvaluationRequest,
    LlmEvaluator,
    generate_schema,
)
from clear_ga.dataset import IMAGE_SUBSETS, BuildingRecord, load_manifest, split_records
from clear_ga.fitness import HeatingClass, WindowClass, YearRange
from clear_ga.schema import DataItem, Genotype

from conftest import RecordingTransport, build_record, write_manifest

REGION = "Wales"
GENOTYPE = Genotype((("high ceilings", "ceiling rose"), ("sash windows",)))

_HEAD = (
    "The images below belong to the same apartment. The building is located in Wales.\n"
)
_CUES = (
    "Make your judgement focusing on the presence of the following features: "
    "high ceilings, ceiling rose, sash windows\n"
    "For each feature, say yes if it is visible, no if it is not visible or n/a if it is "
    "not applicable, then provide a short explanation.\n"
)
_SELECT = (
    "You can only use one of these, do not modify or invent your own options. "
    "Put the selected option in between ### and ###"
)

EVALUATION_PROMPTS = {
    DataItem.BUILDING_AGE: (
        _HEAD
        + "What is the age of this apartment?\n"
        + _CUES
        + "Finally, select one of these options: before 1900, 1900-1930, 1930-1950, "
        "1950-1970, 1970-1990, 1990-2020, 2020-now.\n"
        + _SELECT
    ),
    DataItem.LIGHTING: (
        _HEAD
        + "What type of lighting does this apartment have?\n"
        + _CUES
        + "Finally, select one of these options: no low energy lighting, low energy in 20%, "
        "low energy in 40%, low energy in 60%, low energy in 80%, low energy in 100%.\n"
        + _SELECT
    ),
    DataItem.HEATING: (
        _HEAD
        + "What type of heating does this apartment have?\n"
        + _CUES
        + "Finally, select one of these options: underfloor heating, water radiators, "
        "electric heaters, electric storage heaters, warm air from vents.\n"
        + _SELECT
    ),
    DataItem.WINDOWS: (
        _HEAD
        + "What type of windows does this apartment have?\n"
        + _CUES
        + "Finally, select one of these options: (1) single glazed, (2) double glazed, "
        "(3) high efficiency double or triple glazed.\n"
        + _SELECT
    ),
    DataItem.WINDOWS_UVALUE: (
        _HEAD
        + "What is the U-value of the windows in this apartment?\n"
        + _CUES
        + "Finally, give an estimate of the U-value of the windows as a single number, "
        "low for efficient, high for inefficient.\n"
        "Put the estimated U-value in between ### and ###. "
        "Do not include any other text apart from the U-value"
    ),
    DataItem.ENERGY: (
        _HEAD
        + "Estimate the energy consumption in kwh per metre squared for the following "
        "apartment.\n"
        + _CUES
        + "Finally, give an estimate of the kwh. A highly efficient apartment might have a "
        "kwh/m2 value as low as 35 or better. An inefficient apartment might have a kwh/m2 "
        "value as high as 450 or worse.\n"
        "Put the estimated kwh in between ### and ###. "
        "Do not include any other text apart from the kwh values"
    ),
}

IMAGE_SUBSET = {
    DataItem.BUILDING_AGE: "building",
    DataItem.LIGHTING: "lighting",
    DataItem.HEATING: "heating",
    DataItem.WINDOWS: "windows",
    DataItem.WINDOWS_UVALUE: "windows",
    DataItem.ENERGY: "building",
}

_WINDOWS_EXTRACTION = (
    "Your task is to provide a detailed label of every architectural feature for the "
    "building that will help determine whether the glazing in the windows is single, "
    "double, or high efficiency. List 50 detailed visible features that are significant "
    "for window types."
)

EXTRACTION_PROMPTS = {
    DataItem.BUILDING_AGE: (
        "Your task is to provide a detailed label of every architectural feature for the "
        "building that will help determine the age of the building whether it is before "
        "1900, 1900-1930, 1930-1950, 1950-1970, 1970-1990, 1990-2020, 2020-now. List 50 "
        "visible features that are significant for building age."
    ),
    DataItem.LIGHTING: (
        "Your task is to provide a detailed label of every visible feature in the images "
        "relating to artificial lights for the building that will help determine the type "
        "of lighting whether it is no low energy lighting, low energy in 20%, low energy in "
        "40%, low energy in 60%, low energy in 80%, low energy in 100%. List 50 visible "
        "features that are significant for determining the type of bulbs used in the "
        "lights. Don't explain the label."
    ),
    DataItem.HEATING: (
        "Your task is to provide a detailed label of every visible feature in the images "
        "relating to heating type that will help determine the type of heating used whether "
        "it is underfloor heating, water radiators, electric heaters, electric storage "
        "heaters or warm air from vents. List 50 visible features that are significant for "
        "determining the type of heating used in the apartment. Don't explain the label."
    ),
    DataItem.WINDOWS: _WINDOWS_EXTRACTION,
    DataItem.WINDOWS_UVALUE: _WINDOWS_EXTRACTION,
    DataItem.ENERGY: (
        "Your task is to provide a detailed label of every visible architectural feature, "
        "appliance and energy consuming device in the images that will help determine the "
        "energy consumption in kwh per metre squared. Do not list furnishings or "
        "belongings, focus on visible items relevant to energy consumption or saving. List "
        "50, with no explanations."
    ),
}


def with_images(record: BuildingRecord) -> BuildingRecord:
    """The record with one distinct image file name per subset."""
    return BuildingRecord(
        id=record.id,
        region=record.region,
        image_sets={s: (Path(f"{record.id}/{s}.jpg"),) for s in IMAGE_SUBSETS},
        truth=record.truth,
    )


@pytest.mark.parametrize("item", list(DataItem), ids=lambda i: i.value)
def test_evaluation_prompt_and_images(item):
    transport = RecordingTransport(lambda prompt, images: "### unused ###")
    building = with_images(build_record("b1", region=REGION))
    request = EvaluationRequest(genotype=GENOTYPE, building=building, data_item=item)
    with pytest.raises(EvaluationFailure):  # "unused" is no answer; only the request is pinned
        LlmEvaluator(transport, retry_limit=0).evaluate(request)
    [(prompt, images)] = transport.calls
    assert prompt == EVALUATION_PROMPTS[item]
    assert images == (Path(f"b1/{IMAGE_SUBSET[item]}.jpg"),)


FEATURES = "\n".join(f"{i + 1}. feature {i + 1}" for i in range(6))
CLUSTERS = "**Frames**:\n- feature 1\n\n**Glass**:\n- feature 2\n"
FORMATTED = '[["feature 1", "feature 2"], ["feature 3"]]'

# Truth values spread over every stratum and schema-generation group.
_AGES = (1850, 1890, 1905, 1925, 1960, 1968, 1975, 2001, 2019, 2022)
_LIGHTING = (0.0, 0.0, 100.0, 20.0, 40.0, 86.0, 100.0, 60.0, 0.0, 80.0)
_HEATING = (
    HeatingClass.UNDERFLOOR,
    HeatingClass.WARM_AIR,
    HeatingClass.WATER_RADIATORS,
    HeatingClass.WATER_RADIATORS,
    HeatingClass.ELECTRIC_PANEL,
    HeatingClass.ELECTRIC_STORAGE,
    HeatingClass.WATER_RADIATORS,
    HeatingClass.UNDERFLOOR,
    HeatingClass.ELECTRIC_STORAGE,
    HeatingClass.WARM_AIR,
)
_WINDOWS = (
    WindowClass.SINGLE,
    WindowClass.DOUBLE,
    WindowClass.HIGH_EFFICIENCY,
    WindowClass.DOUBLE,
    WindowClass.SINGLE,
    WindowClass.DOUBLE,
    WindowClass.HIGH_EFFICIENCY,
    WindowClass.DOUBLE,
    WindowClass.SINGLE,
    WindowClass.DOUBLE,
)
_ENERGY = (50.0, 99.0, 100.0, 150.0, 200.0, 201.0, 320.0, 75.0, 180.0, 410.0)


def training_records() -> list[BuildingRecord]:
    return [
        with_images(
            build_record(
                f"t{i}",
                region=REGION,
                age=YearRange(_AGES[i], _AGES[i]),
                lighting_pct=_LIGHTING[i],
                heating=_HEATING[i],
                windows=_WINDOWS[i],
                energy_kwh_m2=_ENERGY[i],
            )
        )
        for i in range(len(_AGES))
    ]


def script(prompt: str, images) -> str:
    if "group the buildings by 3 eras" in prompt:
        return '[["t0", "t1"], ["t2", "t3", "t4", "t5"], ["t6", "t7", "t8", "t9"]]'
    if "remove duplicated items" in prompt:
        return CLUSTERS
    if "produce a python array" in prompt:
        return FORMATTED
    return FEATURES


# Building ids whose images go with each feature-extraction call, in order.
REPRESENTATIVES = {
    DataItem.BUILDING_AGE: ["t1", "t4", "t6"],
    DataItem.LIGHTING: ["t8", "t6", "t5"],
    DataItem.HEATING: ["t8", "t7", "t6"],
    DataItem.WINDOWS: ["t9", "t6", "t8"],
    DataItem.WINDOWS_UVALUE: ["t9", "t6", "t8"],
    DataItem.ENERGY: ["t4", "t7", "t6"],
}


@pytest.mark.parametrize("item", list(DataItem), ids=lambda i: i.value)
def test_feature_extraction_prompt_and_representatives(item):
    transport = RecordingTransport(script)
    generate_schema(training_records(), item, transport, Random(5), region=REGION)
    extraction = [(p, images) for p, images in transport.calls if "List 50" in p]
    expected_prompt = (
        "You are a surveyor. You are given a set of images that belong to the same building.\n"
        + EXTRACTION_PROMPTS[item]
        + "\nThe building is located in Wales. Return the features as a list."
    )
    assert [p for p, _ in extraction] == [expected_prompt] * 3
    subset = IMAGE_SUBSET[item]
    assert [images for _, images in extraction] == [
        (Path(f"{building_id}/{subset}.jpg"),) for building_id in REPRESENTATIVES[item]
    ]


MANIFEST = [
    {"id": "m00", "truth": {"age": "before 1900", "lighting_pct": 0, "heating": "underfloor",
                            "windows": "single", "energy_kwh_m2": 60}},
    {"id": "m01", "truth": {"age": "1890", "lighting_pct": 100, "heating": "warm air",
                            "windows": "double", "energy_kwh_m2": 99}},
    {"id": "m02", "truth": {"age": "1900-1930", "lighting_pct": 40, "heating": "water radiators",
                            "windows": "triple glazed", "energy_kwh_m2": 100}},
    {"id": "m03", "truth": {"age": "19th century", "lighting_pct": 0,
                            "heating": "electric storage", "windows": "double",
                            "energy_kwh_m2": 150}},
    {"id": "m04", "truth": {"age": "1965", "lighting_pct": 86, "heating": "electric panel",
                            "windows": "single glazed", "energy_kwh_m2": 200}},
    {"id": "m05", "truth": {"age": "1969-1971", "lighting_pct": 100,
                            "heating": "water radiators", "windows": "high efficiency",
                            "energy_kwh_m2": 201}},
    {"id": "m06", "truth": {"age": "2020-now", "lighting_pct": 60, "heating": "underfloor",
                            "windows": "double", "energy_kwh_m2": 330}},
    {"id": "m07", "truth": {"age": "1975", "lighting_pct": 0, "heating": "electric heaters",
                            "windows": "single", "energy_kwh_m2": 45}},
    {"id": "m08", "truth": {"age": "1930-1950", "lighting_pct": 20, "heating": "warm air",
                            "windows": "double glazed", "energy_kwh_m2": 180}},
    {"id": "m09", "truth": {"age": "2014", "lighting_pct": 100, "heating": "water rads",
                            "windows": "high efficiency", "energy_kwh_m2": 250}},
    {"id": "m10", "truth": {"age": "1840", "lighting_pct": 80,
                            "heating": "electric storage heaters", "windows": "double",
                            "energy_kwh_m2": 120}},
    {"id": "m11", "truth": {"age": "1999", "lighting_pct": 0, "heating": "underfloor heating",
                            "windows": "single", "energy_kwh_m2": 95}},
    {"id": "m12", "truth": {"age": "1955", "lighting_pct": 33, "heating": "water radiators",
                            "windows": "double", "energy_kwh_m2": 400}},
    {"id": "m13", "truth": {"age": "2005", "lighting_pct": 100, "heating": "electric panels",
                            "windows": "triple glazed", "energy_kwh_m2": 140}},
]

# Train and test ids per item for MANIFEST, Random(11), train_fraction 0.6.
SPLITS = {
    DataItem.BUILDING_AGE: (
        ["m01", "m02", "m03", "m04", "m05", "m07", "m09", "m10", "m13"],
        ["m00", "m06", "m08", "m11", "m12"],
    ),
    DataItem.LIGHTING: (
        ["m00", "m01", "m02", "m03", "m05", "m06", "m08", "m12"],
        ["m04", "m07", "m09", "m10", "m11", "m13"],
    ),
    DataItem.HEATING: (
        ["m00", "m02", "m03", "m04", "m05", "m06", "m08", "m13"],
        ["m01", "m07", "m09", "m10", "m11", "m12"],
    ),
    DataItem.WINDOWS: (
        ["m01", "m02", "m03", "m06", "m07", "m11", "m12", "m13"],
        ["m00", "m04", "m05", "m08", "m09", "m10"],
    ),
    DataItem.WINDOWS_UVALUE: (
        ["m01", "m02", "m03", "m06", "m07", "m11", "m12", "m13"],
        ["m00", "m04", "m05", "m08", "m09", "m10"],
    ),
    DataItem.ENERGY: (
        ["m00", "m02", "m03", "m04", "m09", "m11", "m12", "m13"],
        ["m01", "m05", "m06", "m07", "m08", "m10"],
    ),
}


@pytest.mark.parametrize("item", list(DataItem), ids=lambda i: i.value)
def test_split_ids(item, tmp_path):
    records = load_manifest(write_manifest(tmp_path / "data.json", MANIFEST), current_year=2025)
    train, test = split_records(records, item, Random(11))
    assert ([r.id for r in train], [r.id for r in test]) == SPLITS[item]
