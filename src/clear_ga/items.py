"""Per-data-item behaviour: one :class:`ItemSpec` registry entry per :class:`DataItem`.

Everything that differs between the extraction tasks lives here: the ground
truth field an item is scored against, how its answers are parsed and
scored, the penalty for a missing answer, how buildings are stratified for
the train/test split and grouped for schema generation, which images and
prompts go to the estimator, how the oracle reads its latent score out as
an estimate, and how a consistency probe codes an answer as a number.
Adding an item takes one ``DataItem`` member and one ``ITEMS`` entry.

A row of estimates, one per building, is scored by :func:`row_scorer`: the
spec and the truth values are found once, the row's estimate types checked in
one pass, and the item's error function mapped over the row. A row it does
not take, one holding a failure or an estimate of another exact type, is
left to its caller, which handles a failed pair itself and scores any other
pair with :func:`building_error`, whose checks and refusals are the item's rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Sequence

from .fitness import (
    HEATING_CONFUSION_GROUP,
    UVALUE_TARGETS,
    DataEstimate,
    GroundTruth,
    HeatingClass,
    ValueRange,
    WindowClass,
    YearRange,
    age_error,
    energy_error,
    heating_error,
    lighting_error,
    uvalue_error,
    windows_error,
)
from .parsing import parse_age, parse_categorical, parse_lighting, parse_numeric, parse_uvalue
from .prompts import (
    AGE_ANSWER_OPTIONS,
    EVALUATION_TEMPLATE,
    HEATING_ANSWER_OPTIONS,
    LIGHTING_ANSWER_OPTIONS,
    WINDOWS_ANSWER_OPTIONS,
    EvaluationPrompt,
    select_prompt,
)
from .schema import DataItem


@dataclass(frozen=True)
class ItemSpec:
    """How one data item is asked, parsed, scored, split and simulated.

    Every function that takes a ``truth`` gets the value of ``truth_field``
    on the building's :class:`GroundTruth`, not the whole record.
    """

    truth_field: str
    estimate_types: tuple[type, ...]
    parse: Callable[[str, int], DataEstimate]  # (payload, current year) -> estimate
    error: Callable[[Any, Any], float]  # (estimate, truth) -> per-building error
    failure_penalty: float  # charged when no estimate can be obtained or parsed
    stratum: Callable[[Any], str]  # train/test split stratum of a truth value
    schema_group: Callable[[Any], str] | None  # None: the LLM groups buildings by era
    image_subset: str
    prompt: EvaluationPrompt
    extraction_prompt: str  # the feature-listing task of schema generation
    oracle_readout: Callable[[Any, float], DataEstimate]  # (truth, latent score) -> estimate
    coded_value: Callable[[Any, Any], float]  # (estimate, truth) -> consistency code

    def truth_of(self, truth: GroundTruth):
        return getattr(truth, self.truth_field)


def _age_stratum(age: YearRange) -> str:
    # Fixed era boundaries keep the split deterministic.
    if age.end < 1900:
        return "pre-1900"
    if age.end < 1970:
        return "1900-1970"
    return "post-1970"


def _lighting_band(pct: float) -> str:
    return "0%" if pct == 0 else ("100%" if pct == 100 else "partial")


def _energy_band(kwh_m2: float) -> str:
    return "<100" if kwh_m2 < 100 else ("100-200" if kwh_m2 <= 200 else ">200")


_class_value = attrgetter("value")

# Schema generation groups heating classes by the classes they are confused
# with (vents with vents, panels with storage heaters), under these names.
_HEATING_GROUP_NAMES = ("warm air", "water radiators", "electric panels")


def _numeric_code(estimate, truth) -> float:
    """A numeric answer codes as itself, a range as its midpoint."""
    if isinstance(estimate, YearRange):
        return (estimate.start + estimate.end) / 2.0
    if isinstance(estimate, ValueRange):
        return estimate.midpoint
    return float(estimate)


# --- oracle read-outs: the building error follows the latent score -----------


def _age_readout(age: YearRange, score: float) -> YearRange:
    # Whole years: the error is the score rounded half up.
    year = age.end + math.floor(score + 0.5)
    return YearRange(year, year)


def _lighting_readout(pct: float, score: float) -> float:
    estimate = pct + score if pct + score <= 100 else pct - score
    # Past both ends of the scale, the end farther from the truth: the error
    # saturates at max(pct, 100 - pct) and never falls as the score rises.
    return estimate if estimate >= 0 else (100.0 if pct < 50 else 0.0)


def _quantized_class(error_fn, classes) -> Callable[[Any, float], DataEstimate]:
    """The read-out of a categorical item: a table from each truth and score band
    (0 below 1, 1 below 2, 2 from 2 up) to the first class in ``classes`` whose
    error is the band, else the band below, down to the truth itself."""
    # The bands mirror the categorical error scales; the fall-back covers matrix
    # rows that skip a level. Filled once, so a read-out calls no error function.
    table = {
        truth: tuple(
            next(c for target in range(band, -1, -1) for c in classes
                 if error_fn(c, truth) == target)
            for band in range(3)
        )
        for truth in classes
    }

    def readout(truth, score: float) -> DataEstimate:
        return table[truth][0 if score < 1 else (1 if score < 2 else 2)]

    return readout


# --- the registry -------------------------------------------------------------

_HEATING_OPTIONS = [text for text, _ in HEATING_ANSWER_OPTIONS]
_WINDOWS_OPTIONS = [text for text, _ in WINDOWS_ANSWER_OPTIONS]

_WINDOWS_EXTRACTION = (
    "Your task is to provide a detailed label of every architectural feature for the "
    "building that will help determine whether the glazing in the windows is single, "
    "double, or high efficiency. List 50 detailed visible features that are significant "
    "for window types."
)

ITEMS: dict[DataItem, ItemSpec] = {
    DataItem.BUILDING_AGE: ItemSpec(
        truth_field="age",
        estimate_types=(YearRange,),
        parse=parse_age,
        error=age_error,
        # Span of the cleaned 1000-to-now scale, rounded up.
        failure_penalty=1024.0,
        stratum=_age_stratum,
        schema_group=None,
        image_subset="building",
        prompt=select_prompt("What is the age of this apartment?", AGE_ANSWER_OPTIONS),
        extraction_prompt=(
            "Your task is to provide a detailed label of every architectural feature for the "
            "building that will help determine the age of the building whether it is "
            + ", ".join(AGE_ANSWER_OPTIONS)
            + ". List 50 visible features that are significant for building age."
        ),
        oracle_readout=_age_readout,
        coded_value=_numeric_code,
    ),
    DataItem.LIGHTING: ItemSpec(
        truth_field="lighting_pct",
        estimate_types=(int, float),
        parse=lambda payload, current_year: parse_lighting(payload),
        error=lambda estimate, truth: lighting_error(float(estimate), truth),
        failure_penalty=100.0,
        stratum=_lighting_band,
        schema_group=_lighting_band,
        image_subset="lighting",
        prompt=select_prompt(
            "What type of lighting does this apartment have?", LIGHTING_ANSWER_OPTIONS
        ),
        extraction_prompt=(
            "Your task is to provide a detailed label of every visible feature in the images "
            "relating to artificial lights for the building that will help determine the type of "
            "lighting whether it is "
            + ", ".join(LIGHTING_ANSWER_OPTIONS)
            + ". List 50 visible features that are significant for determining the type of "
            "bulbs used in the lights. Don't explain the label."
        ),
        oracle_readout=_lighting_readout,
        coded_value=_numeric_code,
    ),
    DataItem.HEATING: ItemSpec(
        truth_field="heating",
        estimate_types=(HeatingClass,),
        parse=lambda payload, current_year: parse_categorical(payload, HEATING_ANSWER_OPTIONS),
        error=heating_error,
        failure_penalty=2.0,
        stratum=_class_value,
        schema_group=lambda heating: _HEATING_GROUP_NAMES[HEATING_CONFUSION_GROUP[heating]],
        image_subset="heating",
        prompt=select_prompt("What type of heating does this apartment have?", _HEATING_OPTIONS),
        extraction_prompt=(
            "Your task is to provide a detailed label of every visible feature in the images "
            "relating to heating type that will help determine the type of heating used whether "
            "it is "
            + ", ".join(_HEATING_OPTIONS[:-1])
            + " or "
            + _HEATING_OPTIONS[-1]
            + ". List 50 visible features that are significant for determining the type of "
            "heating used in the apartment. Don't explain the label."
        ),
        oracle_readout=_quantized_class(heating_error, HeatingClass),
        # Categorical answers are coded by their error-matrix distance from the truth.
        coded_value=heating_error,
    ),
    DataItem.WINDOWS: ItemSpec(
        truth_field="windows",
        estimate_types=(WindowClass,),
        parse=lambda payload, current_year: parse_categorical(payload, WINDOWS_ANSWER_OPTIONS),
        error=windows_error,
        failure_penalty=2.0,
        stratum=_class_value,
        schema_group=_class_value,
        image_subset="windows",
        prompt=select_prompt("What type of windows does this apartment have?", _WINDOWS_OPTIONS),
        extraction_prompt=_WINDOWS_EXTRACTION,
        oracle_readout=_quantized_class(windows_error, WindowClass),
        coded_value=windows_error,
    ),
    DataItem.WINDOWS_UVALUE: ItemSpec(
        truth_field="windows",
        estimate_types=(int, float),
        parse=lambda payload, current_year: parse_uvalue(payload),
        error=lambda estimate, truth: uvalue_error(float(estimate), truth),
        # Span of the reference U-value targets.
        failure_penalty=4.3,
        stratum=_class_value,
        schema_group=_class_value,
        image_subset="windows",
        prompt=EvaluationPrompt(
            question="What is the U-value of the windows in this apartment?",
            instructions=(
                "Finally, give an estimate of the U-value of the windows as a single number, "
                "low for efficient, high for inefficient"
            ),
            final_instructions=(
                "Put the estimated U-value in between ### and ###. "
                "Do not include any other text apart from the U-value"
            ),
        ),
        # The real-valued variant searches the same visual space as windows.
        extraction_prompt=_WINDOWS_EXTRACTION,
        oracle_readout=lambda windows, score: UVALUE_TARGETS[windows] + score,
        coded_value=_numeric_code,
    ),
    DataItem.ENERGY: ItemSpec(
        truth_field="energy_kwh_m2",
        estimate_types=(ValueRange, int, float),
        parse=lambda payload, current_year: parse_numeric(payload),
        error=lambda estimate, truth: energy_error(estimate, float(truth)),
        failure_penalty=450.0,
        stratum=_energy_band,
        schema_group=_energy_band,
        image_subset="building",
        prompt=EvaluationPrompt(
            question=(
                "Estimate the energy consumption in kwh per metre squared for the following "
                "apartment."
            ),
            instructions=(
                "Finally, give an estimate of the kwh. A highly efficient apartment might have a "
                "kwh/m2 value as low as 35 or better. An inefficient apartment might have a kwh/m2 "
                "value as high as 450 or worse"
            ),
            final_instructions=(
                "Put the estimated kwh in between ### and ###. "
                "Do not include any other text apart from the kwh values"
            ),
        ),
        extraction_prompt=(
            "Your task is to provide a detailed label of every visible architectural feature, "
            "appliance and energy consuming device in the images that will help determine the "
            "energy consumption in kwh per metre squared. Do not list furnishings or belongings, "
            "focus on visible items relevant to energy consumption or saving. List 50, with no "
            "explanations."
        ),
        oracle_readout=lambda kwh_m2, score: kwh_m2 + score,
        coded_value=_numeric_code,
    ),
}


def item_spec(item: DataItem | str) -> ItemSpec:
    """The registry entry of a member or of a member's value.

    Members are looked up directly; ``ITEMS`` keys hash by member name, so a
    plain value such as ``"energy"`` is coerced first. An unknown item raises
    ``ValueError``.
    """
    try:
        return ITEMS[item]
    except (KeyError, TypeError):
        return ITEMS[DataItem(item)]


def failure_penalty(item: DataItem) -> float:
    """Worst-case error charged when a building's estimate cannot be obtained or
    parsed after retries; keeps the population totally ordered under failures."""
    return item_spec(item).failure_penalty


def building_error(item: DataItem, estimate: DataEstimate, truth: GroundTruth) -> float:
    """The item's error function; raises if the estimate variant or the truth field is wrong.

    The pair-by-pair path, for rows :func:`row_scorer` does not take: an
    estimate is checked with ``isinstance``, so a subclass of an estimate type
    is scored as that type, except a bool, which is refused.
    """
    spec = item_spec(item)
    if isinstance(estimate, bool) or not isinstance(estimate, spec.estimate_types):
        expected = " or ".join(t.__name__ for t in spec.estimate_types)
        raise ValueError(f"{DataItem(item).value} estimate must be {expected}, got {estimate!r}")
    actual = getattr(truth, spec.truth_field)
    if actual is None:
        raise ValueError(f"ground truth is missing the field for {DataItem(item).value}")
    return spec.error(estimate, actual)


def row_scorer(
    item: DataItem | str, truths: Sequence[GroundTruth]
) -> Callable[[Sequence[DataEstimate]], list[float] | None]:
    """A function from one row of estimates, one per building of ``truths`` in
    order, to their errors: the list ``building_error`` gives pair by pair.

    The spec is looked up and each truth value read once, here. A row is
    scored in one pass when the exact type of every estimate is one of the
    item's ``estimate_types``. Otherwise, and for every row when a truth lacks
    the item's field, the function returns None and the caller takes the row
    pair by pair: it handles a failed pair itself (a run charges the item's
    penalty) and scores any other with :func:`building_error`, which accepts or
    refuses it by its own rules. A row holding an ``EvaluationFailure`` or a
    bool is one it returns None for.
    """
    spec = item_spec(item)
    actual = [getattr(truth, spec.truth_field) for truth in truths]
    if any(value is None for value in actual):
        return lambda row: None
    exact, error = set(spec.estimate_types), spec.error

    def score(row: Sequence[DataEstimate]) -> list[float] | None:
        return list(map(error, row, actual)) if set(map(type, row)) <= exact else None

    return score


def parse_estimate(item: DataItem, payload: str, current_year: int) -> DataEstimate:
    """Parse a delimited payload into the estimate variant for the given item."""
    return item_spec(item).parse(payload, current_year)


def build_evaluation_prompt(item: DataItem, region: str, cue_list: str) -> str:
    parts = vars(item_spec(item).prompt)  # question, instructions, final_instructions
    return EVALUATION_TEMPLATE.format(region=region, cue_list=cue_list, **parts)
