"""Post-run tooling: cue ablation, response-consistency probing, log reports.

Ablation removes each cue of a solution in turn and re-measures error on a
held-out split, showing whether every surviving cue pulls its weight.
Consistency probing repeats a single-cue evaluation on one building and
summarizes how much the estimator's answers wander.
"""

from __future__ import annotations

import json
import logging
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .backends.base import EvaluationFailure, Evaluator
from .dataset import BuildingRecord, require_truth
from .engine import GenerationStats, Mode, evaluate_genotype
from .fitness import (
    DataEstimate, HeatingClass, ValueRange, WindowClass, YearRange, aggregate_fitness,
)
from .items import ITEMS, building_error, row_scorer
from .schema import CueSchema, DataItem, Genotype, checked, validate_genotype

log = logging.getLogger(__name__)


class ReportError(ValueError):
    """Raised for malformed run-log input."""


# The values a run writes for the config fields a report names its files
# after; any other could name a file outside the output directory.
_NAMING_VALUES = {"data_item": tuple(m.value for m in DataItem),
                  "mode": tuple(m.value for m in Mode)}


# The radicand is scaled to at least 2**(2 * mant_dig + 2), so its integer
# root has the mant_dig + 2 bits that rounding to odd needs.
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _sqrt_of_ratio(numerator: int, denominator: int) -> float:
    """sqrt(numerator / denominator) as a correctly rounded float.

    The root is first taken to at least mant_dig + 2 bits, rounded to odd
    (an inexact root gets its last bit set), so the one rounding to a float
    that follows is correct: Boldo & Melquiond, "Emulation of FMA and
    correctly rounded sums: proved algorithms using rounding to odd", IEEE
    Trans. Computers 57(4), 2008.
    """
    shift = (numerator.bit_length() - denominator.bit_length() - _SQRT_BITS) // 2
    if shift >= 0:
        denominator <<= 2 * shift
    else:
        numerator <<= -2 * shift
    root = math.isqrt(numerator // denominator)
    root |= root * root * denominator != numerator
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def _over_common_denominator(values: Sequence[float]) -> tuple[list[int], int]:
    """Integer numerators and one denominator, each value exactly their ratio."""
    ratios = [value.as_integer_ratio() for value in values]
    denominator = math.lcm(*(d for _, d in ratios))
    return [n * (denominator // d) for n, d in ratios], denominator


def pstdev(values: Sequence[float]) -> float:
    """Population standard deviation, correctly rounded from its exact value.

    Every value is an exact ratio of integers, so over a common denominator
    ``d`` the variance of ``k`` values with numerators ``a`` is exactly
    ``(k * sum(a*a) - sum(a)**2) / (k * d)**2``, in integers.
    """
    if not values:
        raise ValueError("pstdev of an empty sequence")
    try:
        scaled, denominator = _over_common_denominator(values)
    except (OverflowError, ValueError):
        raise ValueError("pstdev of a non-finite value") from None
    k = len(scaled)
    total = sum(scaled)
    spread = k * sum(map(operator.mul, scaled, scaled)) - total * total
    return _sqrt_of_ratio(spread, (k * denominator) ** 2)


def mean(values: Sequence[float]) -> float:
    """``math.fsum(values) / len(values)``, or, where that sum passes the float
    range, the exact mean correctly rounded, which is finite when the values are."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        scaled, denominator = _over_common_denominator(values)
        return sum(scaled) / (len(scaled) * denominator)  # int / int rounds correctly


def cv(values: Sequence[float]) -> float:
    """Coefficient of variation: population standard deviation over :func:`mean`.

    The standard deviation is correctly rounded. Undefined (and refused) when
    the mean is zero or a value is not finite.
    """
    spread = pstdev(values)  # refuses an empty sequence and a non-finite value
    average = mean(values)
    if average == 0:
        raise ValueError("cv undefined: mean is zero")
    return spread / average


@dataclass
class AblationRow:
    cue: str
    category: str
    new_error: float | None
    delta: float | None
    failed: bool = False


@dataclass
class AblationReport:
    base_error: float
    rows: list[AblationRow]
    mean_new_error: float | None
    stddev: float | None
    failed_rows: int


def _without_cue(genotype: Genotype, index: int, position: int) -> Genotype:
    chromosomes = [list(ch) for ch in genotype.chromosomes]
    del chromosomes[index][position]
    return Genotype(tuple(tuple(ch) for ch in chromosomes))


def _split_error(
    estimates: list[DataEstimate | EvaluationFailure],
    records: Sequence[BuildingRecord],
    item: DataItem,
    score: Callable[[list[DataEstimate | EvaluationFailure]], list[float] | None],
) -> float | EvaluationFailure:
    """The summed building error of one job's estimates, or its first failure;
    ``score`` is :func:`~clear_ga.items.row_scorer` of the item and records."""
    errors = score(estimates)
    if errors is None:
        for estimate in estimates:
            if isinstance(estimate, EvaluationFailure):
                return estimate
        errors = [building_error(item, e, r.truth) for e, r in zip(estimates, records)]
    return aggregate_fitness(errors)


def ablate(
    genotype: Genotype,
    schema: CueSchema,
    evaluator: Evaluator,
    records: Sequence[BuildingRecord],
    item: DataItem,
) -> AblationReport:
    """Remove each cue in turn and record the error change against the full genotype.

    The full genotype is scored first, and its failure raised before any
    variant is sent. The summary mean and (population) standard deviation
    cover successful rows only; failed rows are marked and counted. A record
    without the item's truth is refused with a DatasetError before any
    evaluation.
    """
    item = DataItem(item)
    validate_genotype(genotype, schema)
    if genotype.cue_count() == 0:
        raise ValueError("cannot ablate an empty genotype")
    if not records:
        raise ValueError("evaluation split is empty")
    require_truth(records, item)
    score = row_scorer(item, [r.truth for r in records])
    [base] = evaluate_genotype([(genotype, 0)], records, item, evaluator)
    base_error = _split_error(base, records, item, score)
    if isinstance(base_error, EvaluationFailure):
        raise base_error
    cues = [
        (cue, schema.categories[index].name, _without_cue(genotype, index, position))
        for index, chromosome in enumerate(genotype.chromosomes)
        for position, cue in enumerate(chromosome)
    ]
    results = evaluate_genotype([(variant, 0) for *_, variant in cues], records, item, evaluator)
    rows: list[AblationRow] = []
    for (cue, category, _), estimates in zip(cues, results):
        new_error = _split_error(estimates, records, item, score)
        if isinstance(new_error, EvaluationFailure):
            log.warning("ablation row for cue %r failed: %s", cue, new_error)
            rows.append(AblationRow(cue=cue, category=category, new_error=None,
                                    delta=None, failed=True))
        else:
            rows.append(AblationRow(cue=cue, category=category, new_error=new_error,
                                    delta=new_error - base_error))
    successful = [r.new_error for r in rows if not r.failed]
    return AblationReport(
        base_error=base_error,
        rows=rows,
        mean_new_error=mean(successful) if successful else None,
        stddev=pstdev(successful) if successful else None,
        failed_rows=len(rows) - len(successful),
    )


@dataclass
class ConsistencyReport:
    cue: str
    samples: int
    disagreement_rate: float
    cv: float | None
    values: list[float]
    responses: list[str]


def _single_cue_genotype(schema: CueSchema, category_index: int, cue: str) -> Genotype:
    chromosomes = [() for _ in schema.categories]
    chromosomes[category_index] = (cue,)
    genotype = Genotype(tuple(chromosomes))
    validate_genotype(genotype, schema)
    return genotype


def _render_response(estimate) -> str:
    if isinstance(estimate, (HeatingClass, WindowClass)):
        return estimate.value
    if isinstance(estimate, YearRange):
        return f"{estimate.start}-{estimate.end}"
    if isinstance(estimate, ValueRange):
        return f"{estimate.start}-{estimate.end}" if not estimate.is_point else f"{estimate.start}"
    return f"{estimate}"


def consistency_probe(
    schema: CueSchema,
    category_index: int,
    cue: str,
    building: BuildingRecord,
    evaluator: Evaluator,
    item: DataItem,
    n: int,
) -> ConsistencyReport:
    """Evaluate a lone cue ``n`` times on one building and summarize the spread.

    Disagreement rate is the fraction of answers differing from the modal
    answer; cv is reported as absent when its mean is zero. Failed samples
    are skipped; if every sample fails the probe raises. A building without
    the item's truth is refused with a DatasetError before any evaluation.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    item = DataItem(item)
    require_truth([building], item)
    spec = ITEMS[item]
    genotype = _single_cue_genotype(schema, category_index, cue)
    values: list[float] = []
    responses: list[str] = []
    jobs = [(genotype, counter) for counter in range(n)]
    for counter, [estimate] in enumerate(evaluate_genotype(jobs, [building], item, evaluator)):
        if isinstance(estimate, EvaluationFailure):
            log.warning("probe sample %d failed: %s", counter, estimate)
            continue
        values.append(spec.coded_value(estimate, spec.truth_of(building.truth)))
        responses.append(_render_response(estimate))
    if not values:
        raise EvaluationFailure(f"all {n} probe evaluations failed")

    disagreement = (len(values) - max(Counter(values).values())) / len(values)
    try:
        spread = cv(values)
    except ValueError:
        spread = None
    return ConsistencyReport(
        cue=cue,
        samples=len(values),
        disagreement_rate=disagreement,
        cv=spread,
        values=values,
        responses=responses,
    )


# --- run-log reports ----------------------------------------------------------


def load_run_log(path: str | Path) -> tuple[dict | None, list[GenerationStats]]:
    """Read a JSONL run log; returns (config record or None, generation rows)."""
    path = Path(path)
    config: dict | None = None
    rows: list[GenerationStats] = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ReportError(f"cannot read log {path}: {exc}") from None
    if not lines:
        raise ReportError(f"{path}:1: log file is empty")
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReportError(f"{path}:{number}: invalid JSON: {exc.msg}") from None
        kind = obj.get("type") if isinstance(obj, dict) else None
        if kind == "config":
            # The fields a report's run label and file names are made of, where present.
            try:
                fields = checked(obj.get("config", {}), "config", "dict")
                for name, field_kind in (("data_item", "str"), ("mode", "str"), ("seed", "int")):
                    if name in fields:
                        checked(fields[name], name, field_kind)
                for name, values in _NAMING_VALUES.items():
                    if name in fields and fields[name] not in values:
                        raise ValueError(f"{name} {fields[name]!r} is not one of "
                                         f"{', '.join(values)}")
            except ValueError as exc:
                raise ReportError(f"{path}:{number}: bad config record: {exc}") from None
            config = obj
        elif kind == "generation":
            try:
                rows.append(GenerationStats.from_json_obj(obj))
            except (TypeError, ValueError) as exc:
                raise ReportError(f"{path}:{number}: bad generation record: {exc}") from None
        else:
            raise ReportError(f"{path}:{number}: unknown record type {kind!r}")
    if not rows:
        raise ReportError(f"{path}:1: no generation records")
    return config, rows


def run_series(rows: list[GenerationStats]) -> list[dict]:
    """Per-generation series: error distribution stats, fitness cv, cue counts."""
    series = []
    for row in rows:
        try:
            fitness_cv = cv(row.errors)
        except ValueError:
            fitness_cv = None
        series.append(
            {
                "generation": row.generation,
                "best_error": row.best_error,
                "best_ever_error": row.best_ever_error,
                "mean_error": mean(row.errors),
                "fitness_cv": fitness_cv,
                "mean_cue_count": row.mean_cue_count,
                "chromosome_mean_cue_counts": list(row.chromosome_mean_cue_counts),
                "errors": list(row.errors),
            }
        )
    return series


def summarize(labeled_runs: list[tuple[str, list[GenerationStats]]]) -> dict:
    """One summary document over run logs: per-run series plus, for two or
    more runs (e.g. fixed vs variable, or categorical vs continuous windows),
    a generation-aligned comparison with the per-generation fitness cv."""
    if not labeled_runs:
        raise ValueError("no runs to summarize")
    per_run = {label: run_series(rows) for label, rows in labeled_runs}
    document: dict = {"runs": per_run}
    if len(labeled_runs) > 1:
        comparison = []
        for generation in range(max(len(series) for series in per_run.values())):
            entry: dict = {"generation": generation}
            for label, series in per_run.items():
                row = series[generation] if generation < len(series) else {}
                entry[f"{label}_best_error"] = row.get("best_error")
                entry[f"{label}_fitness_cv"] = row.get("fitness_cv")
            comparison.append(entry)
        document["comparison"] = comparison
    return document


def render_text_summary(label: str, rows: list[GenerationStats]) -> str:
    first, last = rows[0], rows[-1]
    lines = [
        f"run {label}: {len(rows)} generations",
        f"  best error: {first.best_error:g} -> {last.best_error:g} "
        f"(best ever {last.best_ever_error:g})",
        f"  mean cue count: {first.mean_cue_count:.2f} -> {last.mean_cue_count:.2f}",
    ]
    return "\n".join(lines)
