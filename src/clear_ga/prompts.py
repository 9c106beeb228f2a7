"""Prompt templates sent to the vision estimator.

The evaluation prompt asks one question per data item, directs attention to
the evolved cue list, encourages per-cue reasoning, and pins the answer
format to a ``###``-delimited payload so responses stay machine-parseable.
The remaining templates drive the automated construction of a cue schema
from a handful of representative buildings. The per-item questions and
tasks that fill these templates are in :mod:`clear_ga.items`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .fitness import HeatingClass, WindowClass

EVALUATION_TEMPLATE = (
    "The images below belong to the same apartment. The building is located in {region}.\n"
    "{question}\n"
    "Make your judgement focusing on the presence of the following features: {cue_list}\n"
    "For each feature, say yes if it is visible, no if it is not visible or n/a if it is "
    "not applicable, then provide a short explanation.\n"
    "{instructions}.\n"
    "{final_instructions}"
)

_SELECT_FINAL = (
    "You can only use one of these, do not modify or invent your own options. "
    "Put the selected option in between ### and ###"
)


@dataclass(frozen=True)
class EvaluationPrompt:
    question: str
    instructions: str
    final_instructions: str


def select_prompt(question: str, options: Iterable[str]) -> EvaluationPrompt:
    """A multiple-choice prompt whose instructions list the answer options in order."""
    return EvaluationPrompt(
        question=question,
        instructions="Finally, select one of these options: " + ", ".join(options),
        final_instructions=_SELECT_FINAL,
    )


# Answer option strings as they appear in the evaluation prompts, mapped to
# the typed classes they mean. The age and lighting options are free-form
# enough that they go through dedicated parsers instead.
HEATING_ANSWER_OPTIONS: tuple[tuple[str, HeatingClass], ...] = (
    ("underfloor heating", HeatingClass.UNDERFLOOR),
    ("water radiators", HeatingClass.WATER_RADIATORS),
    ("electric heaters", HeatingClass.ELECTRIC_PANEL),
    ("electric storage heaters", HeatingClass.ELECTRIC_STORAGE),
    ("warm air from vents", HeatingClass.WARM_AIR),
)

WINDOWS_ANSWER_OPTIONS: tuple[tuple[str, WindowClass], ...] = (
    ("(1) single glazed", WindowClass.SINGLE),
    ("(2) double glazed", WindowClass.DOUBLE),
    ("(3) high efficiency double or triple glazed", WindowClass.HIGH_EFFICIENCY),
)

AGE_ANSWER_OPTIONS: tuple[str, ...] = (
    "before 1900",
    "1900-1930",
    "1930-1950",
    "1950-1970",
    "1970-1990",
    "1990-2020",
    "2020-now",
)

LIGHTING_ANSWER_OPTIONS: tuple[str, ...] = (
    "no low energy lighting",
    "low energy in 20%",
    "low energy in 40%",
    "low energy in 60%",
    "low energy in 80%",
    "low energy in 100%",
)


# --- schema generation -------------------------------------------------------

FEATURE_EXTRACTION_TEMPLATE = (
    "You are a surveyor. You are given a set of images that belong to the same building.\n"
    "{extraction_prompt}\n"
    "The building is located in {region}. Return the features as a list."
)

AGE_CLUSTERING_TEMPLATE = (
    "You are a surveyor. You are given this list of buildings, each row is a building with "
    "their id and the year they are built. First group the buildings by 3 eras to ensure good "
    "coverage representative of the architectural style and dataset, then return the ids of "
    "buildings per era in an array.\n{rows}"
)

DEDUP_CLUSTER_TEMPLATE = (
    "I have a list of features: {raw_feature_list}. First, remove duplicated items, including "
    "features semantically similar. Then cluster these features based on the type of feature. "
    "Aim to produce {cluster_target} clusters."
)

FORMATTING_TEMPLATE = (
    "Given this list {categories}, first clean the list to contain text only, then produce a "
    "python array, each subarray for each category."
)
