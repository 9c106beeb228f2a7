"""Ablation, consistency probing, and run-log reports."""

from __future__ import annotations

import json
import math
import statistics
import struct
import sys
from fractions import Fraction
from random import Random

import pytest

from clear_ga import analysis
from clear_ga.analysis import (
    ReportError,
    ablate,
    consistency_probe,
    cv,
    load_run_log,
    pstdev,
    run_series,
)
from clear_ga.backends import (
    EvaluationFailure,
    FunctionTransport,
    LlmEvaluator,
    OracleEvaluator,
    PlantedCue,
    PlantedLandscape,
)
from clear_ga.dataset import DatasetError
from clear_ga.engine import Mode, RunConfig, evolve
from clear_ga.fitness import WindowClass, YearRange
from clear_ga.schema import DataItem, Genotype

from conftest import build_record, build_schema


def float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def nearest_float_sqrt(q: Fraction) -> float:
    """The float nearest sqrt(q), ties to even, by bisection on exact squares.

    Non-negative floats are ordered as their bit patterns are.
    """
    lo, hi = 0, 0x7FF0000000000000  # the bit patterns of 0.0 and inf
    while hi - lo > 1:  # lo's square is <= q, hi's is > q
        mid = (lo + hi) // 2
        if Fraction(float_from_bits(mid)) ** 2 <= q:
            lo = mid
        else:
            hi = mid
    midpoint = (Fraction(float_from_bits(lo)) + Fraction(float_from_bits(hi))) / 2
    if q < midpoint ** 2 or (q == midpoint ** 2 and lo % 2 == 0):
        return float_from_bits(lo)
    return float_from_bits(hi)


def exact_pstdev(values) -> float:
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    return nearest_float_sqrt(sum((x - mean) ** 2 for x in exact) / len(exact))


def exact_cv(values) -> float:
    return exact_pstdev(values) / (float(sum(map(Fraction, values))) / len(values))


def random_float(rng: Random) -> float:
    """A positive float of any binade from the subnormals up, below 2**1019 so
    that the sum of a case stays finite."""
    return math.ldexp(rng.random(), rng.randint(-1074, 1019))


def cv_cases():
    rng = Random(2008)
    cases = []
    for _ in range(150):  # any exponents and signs, so magnitudes far apart
        cases.append([rng.choice((-1, 1)) * random_float(rng) for _ in range(rng.randint(1, 9))])
    for _ in range(150):  # one binade, so the spread is far from negligible
        exponent = rng.randint(-1074, 1016)
        cases.append([math.ldexp(rng.random(), exponent + rng.randint(0, 3))
                      for _ in range(rng.randint(2, 9))])
    for scale in (5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1e307):
        cases.append([scale * rng.random() for _ in range(6)])
        cases.append([scale] * 4)
    for _ in range(50):
        cases.append([rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 9))])
    cases += [[7], [0.1], [2.5] * 9, [3, 3.0, 3], [0.1, 0.2, 0.3], [5e-324, 0.0, 0.0]]
    return cases


class TestCv:
    def test_constant_sequence(self):
        assert cv([2, 2, 2]) == 0

    def test_hand_computed_value(self):
        # pstdev([1,2,3]) = sqrt(2/3) = 0.816497; mean 2 -> 0.408248
        assert cv([1, 2, 3]) == pytest.approx(0.4082482904638631)

    def test_singleton(self):
        assert cv([5]) == 0

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError, match="mean"):
            cv([1, -1])
        with pytest.raises(ValueError):
            cv([0, 0])

    def test_equals_exact_reference(self):
        for values in cv_cases():
            assert pstdev(values) == exact_pstdev(values), values
            try:
                expected = exact_cv(values)
            except ZeroDivisionError:  # the mean rounds to zero
                with pytest.raises(ValueError, match="mean is zero"):
                    cv(values)
            else:
                assert cv(values) == expected, values

    def test_pstdev_exact_where_the_mean_is_not(self):
        # ints past float precision, and floats whose sum overflows
        for values in ([2**80 + 1, 2**80 + 2, 2**80 + 4, 3**50],
                       [sys.float_info.max, sys.float_info.max / 3, 0.9 * sys.float_info.max]):
            assert pstdev(values) == exact_pstdev(values)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="statistics.pstdev rounds twice before Python 3.11")
    def test_equals_stdlib(self):
        for values in cv_cases():
            if statistics.fmean(values) != 0:
                assert cv(values) == statistics.pstdev(values) / statistics.fmean(values), values

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            cv([1.0, bad, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            pstdev([1.0, bad])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cv([])
        with pytest.raises(ValueError, match="empty"):
            pstdev([])

    def test_scale_invariance(self):
        rng = Random(1)
        for _ in range(200):
            values = [rng.uniform(0.5, 10) for _ in range(rng.randint(2, 12))]
            k = rng.uniform(0.1, 9)
            assert cv([k * v for v in values]) == pytest.approx(cv(values))


def scripted_evaluator(responses):
    """Evaluator replaying one canned estimate per eval_counter."""

    class Scripted:
        def evaluate(self, request):
            value = responses[request.eval_counter]
            if isinstance(value, Exception):
                raise value
            return value

    return Scripted()


class TestConsistencyProbe:
    def probe(self, responses, item=DataItem.WINDOWS, truth=WindowClass.DOUBLE, n=None):
        schema = build_schema(item=item, category_sizes=(3, 3))
        building = build_record(windows=truth)
        return consistency_probe(
            schema, 0, "c0_0", building, scripted_evaluator(responses), item, n or len(responses)
        )

    def test_constant_responses(self):
        # identical wrong answers: codes are all 1, so cv is exactly 0
        report = self.probe([WindowClass.SINGLE] * 5)
        assert report.disagreement_rate == 0
        assert report.cv == 0
        assert report.samples == 5

    def test_constant_correct_answers_have_absent_cv(self):
        # all-correct answers code to zeros; the ratio is undefined, not 0
        report = self.probe([WindowClass.DOUBLE] * 5)
        assert report.disagreement_rate == 0
        assert report.cv is None

    def test_forty_percent_disagreement(self):
        # coded against truth DOUBLE: six matches, then four different answers
        responses = [WindowClass.DOUBLE] * 6 + [WindowClass.SINGLE] * 3 + [WindowClass.HIGH_EFFICIENCY]
        report = self.probe(responses)
        assert report.disagreement_rate == pytest.approx(0.4)

    def test_cv_over_numeric_codes(self):
        report = self.probe([1.0, 2.0, 3.0], item=DataItem.WINDOWS_UVALUE)
        assert report.cv == pytest.approx(0.4082482904638631)
        assert report.values == [1.0, 2.0, 3.0]

    def test_mode_tie_broken_by_first_observed(self):
        responses = [WindowClass.SINGLE, WindowClass.DOUBLE, WindowClass.SINGLE, WindowClass.DOUBLE]
        report = self.probe(responses)
        # codes: 1,0,1,0 -> tie; mode is the first observed (1)
        assert report.disagreement_rate == 0.5
        assert report.values[0] == 1.0

    def test_failures_skipped_and_all_failures_raise(self):
        responses = [WindowClass.DOUBLE, EvaluationFailure("x"), WindowClass.DOUBLE]
        report = self.probe(responses)
        assert report.samples == 2
        with pytest.raises(EvaluationFailure):
            self.probe([EvaluationFailure("x")] * 3)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            self.probe([WindowClass.DOUBLE], n=1)

    @pytest.mark.parametrize("item, field", [(DataItem.HEATING, "heating"),
                                             (DataItem.ENERGY, "energy_kwh_m2")])
    def test_building_without_the_items_truth_refused_before_any_send(self, item, field):
        sends = []

        def answer(prompt, images):
            sends.append(prompt)
            return "### 120 ###"

        schema = build_schema(item=item, category_sizes=(3, 3))
        building = build_record("b0", **{field: None})
        evaluator = LlmEvaluator(FunctionTransport(answer))
        message = f"^building 'b0' has no truth.{field} for item {item.value}$"
        with pytest.raises(DatasetError, match=message):
            consistency_probe(schema, 0, "c0_0", building, evaluator, item, 3)
        assert sends == []

    def test_cue_must_belong_to_category(self):
        schema = build_schema(category_sizes=(3, 3))
        with pytest.raises(Exception):
            consistency_probe(
                schema, 0, "missing", build_record(), scripted_evaluator([]), DataItem.WINDOWS, 3
            )


class TestAblate:
    def landscape(self):
        return PlantedLandscape(
            planted=(
                PlantedCue(0, "c0_0", 3.0),
                PlantedCue(0, "c0_1", 2.0),
                PlantedCue(1, "c1_1", 4.0),
            ),
            distractor_penalty=1.0,
            base_error=9.0,
            noise_scale=0.0,
        )

    def test_deltas_equal_benefits_and_penalties_exactly(self):
        schema = build_schema(category_sizes=(3, 3))
        evaluator = OracleEvaluator(self.landscape())
        genotype = Genotype((("c0_0", "c0_1"), ("c1_1", "c1_0")))  # optimum + one distractor
        report = ablate(genotype, schema, evaluator, [build_record()], DataItem.ENERGY)
        assert report.base_error == 1.0  # the distractor's penalty
        deltas = {row.cue: row.delta for row in report.rows}
        assert deltas == {"c0_0": 3.0, "c0_1": 2.0, "c1_1": 4.0, "c1_0": -1.0}
        assert report.failed_rows == 0
        expected_mean = (4.0 + 3.0 + 5.0 + 0.0) / 4
        assert report.mean_new_error == pytest.approx(expected_mean)
        assert report.stddev == math.sqrt(3.5)  # (1 + 0 + 4 + 9) / 4, correctly rounded

    def test_single_cue_genotype_single_row(self):
        schema = build_schema(category_sizes=(3, 3))
        evaluator = OracleEvaluator(self.landscape())
        genotype = Genotype((("c0_0",), ()))
        report = ablate(genotype, schema, evaluator, [build_record()], DataItem.ENERGY)
        assert len(report.rows) == 1
        assert report.rows[0].cue == "c0_0"
        assert report.stddev == 0.0

    def test_rows_cover_every_cue_exactly_once(self):
        schema = build_schema(category_sizes=(4, 4))
        evaluator = OracleEvaluator(self.landscape())
        genotype = Genotype((("c0_0", "c0_2"), ("c1_1", "c1_3")))
        report = ablate(genotype, schema, evaluator, [build_record()], DataItem.ENERGY)
        assert sorted(row.cue for row in report.rows) == ["c0_0", "c0_2", "c1_1", "c1_3"]

    def test_failed_row_excluded_from_summary(self):
        schema = build_schema(category_sizes=(3, 3))
        inner = OracleEvaluator(self.landscape())

        class PartialEvaluator:
            def evaluate(self, request):
                if request.genotype.chromosomes[0] == ("c0_1",):  # the c0_0-removed variant
                    raise EvaluationFailure("boom")
                return inner.evaluate(request)

        genotype = Genotype((("c0_0", "c0_1"), ("c1_1",)))
        report = ablate(genotype, schema, PartialEvaluator(), [build_record()], DataItem.ENERGY)
        assert report.failed_rows == 1
        failed = [row for row in report.rows if row.failed]
        assert failed[0].cue == "c0_0"
        assert all(row.new_error is not None for row in report.rows if not row.failed)

    def test_failed_base_sends_no_variant(self):
        genotype = Genotype((("c0_0", "c0_1"), ("c1_1",)))
        asked = []

        class FailsOnB1:
            def evaluate(self, request):
                asked.append((request.genotype, request.building.id))
                if request.building.id == "b1":
                    raise EvaluationFailure("no estimate for b1")
                return 100.0

        records = [build_record(f"b{i}") for i in range(3)]
        with pytest.raises(EvaluationFailure, match="no estimate for b1"):
            ablate(genotype, build_schema(category_sizes=(3, 3)), FailsOnB1(), records,
                   DataItem.ENERGY)
        assert asked == [(genotype, "b0"), (genotype, "b1"), (genotype, "b2")]

    def test_failed_variant_still_sends_its_other_buildings(self):
        schema = build_schema(category_sizes=(3, 3))
        inner = OracleEvaluator(self.landscape())
        asked = []

        class FailsOnB0:
            def evaluate(self, request):
                asked.append((request.genotype.chromosomes, request.building.id))
                if request.genotype.chromosomes[0] == ("c0_1",) and request.building.id == "b0":
                    raise EvaluationFailure("boom")
                return inner.evaluate(request)

        genotype = Genotype((("c0_0", "c0_1"), ("c1_1",)))
        records = [build_record(f"b{i}") for i in range(3)]
        report = ablate(genotype, schema, FailsOnB0(), records, DataItem.ENERGY)
        assert [row.failed for row in report.rows] == [True, False, False]
        variant = (("c0_1",), ("c1_1",))
        assert [b for chromosomes, b in asked if chromosomes == variant] == ["b0", "b1", "b2"]
        assert len(asked) == 4 * len(records)

    @pytest.mark.parametrize(
        "answer, words",
        [
            (True, "energy estimate must be ValueRange or int or float, got True"),
            ("120", "energy estimate must be ValueRange or int or float, got '120'"),
            (YearRange(1990, 1990), "energy estimate must be ValueRange or int or float, "
                                    "got YearRange(start=1990, end=1990)"),
            (None, "ground truth is missing the field for energy"),
        ],
        ids=["bool", "text", "wrong-variant", "missing-truth"],
    )
    def test_refused_pair_stops_the_ablation_in_building_errors_words(self, answer, words):
        # b1's answer is refused, or b1 has no energy truth; b0 and b2 are fine.
        class AnswersOnB1:
            def evaluate(self, request):
                return 100.0 if request.building.id != "b1" or answer is None else answer

        records = [build_record("b0"), build_record("b1", energy_kwh_m2=None if answer is None
                                                     else 120.0), build_record("b2")]
        with pytest.raises(ValueError) as exc_info:
            ablate(Genotype((("c0_0",), ())), build_schema(), AnswersOnB1(), records,
                   DataItem.ENERGY)
        assert str(exc_info.value) == words

    def test_failure_in_a_variant_row_wins_over_a_refused_answer_after_it(self):
        # The row is failed as a whole: its bool on b1 is never scored.
        class FailsThenBool:
            def evaluate(self, request):
                if request.genotype.cue_count() == 2:
                    return 100.0
                if request.building.id == "b0":
                    raise EvaluationFailure("boom")
                return True

        records = [build_record(f"b{i}") for i in range(2)]
        report = ablate(Genotype((("c0_0",), ("c1_1",))), build_schema(), FailsThenBool(),
                        records, DataItem.ENERGY)
        assert report.base_error == 40.0
        assert [row.failed for row in report.rows] == [True, True]

    def test_empty_genotype_rejected(self):
        schema = build_schema(category_sizes=(3, 3))
        with pytest.raises(ValueError, match="empty genotype"):
            ablate(Genotype(((), ())), schema, OracleEvaluator(self.landscape()),
                   [build_record()], DataItem.ENERGY)


def write_run_log(tmp_path, name="run.jsonl", seed=2, mode=Mode.VARIABLE, noise=0.8):
    log_path = tmp_path / name
    config = RunConfig(
        data_item=DataItem.ENERGY, mode=mode, population_size=6, generations=4,
        seed=seed, log_path=str(log_path),
    )
    landscape = PlantedLandscape(
        planted=(PlantedCue(0, "c0_0", 3.0),), distractor_penalty=1.0,
        base_error=5.0, noise_scale=noise, seed=seed,
    )
    schema = build_schema(category_sizes=(3, 3))
    evolve(config, schema, OracleEvaluator(landscape), [build_record()])
    return log_path


class TestRunLogReports:
    def test_load_and_series(self, tmp_path):
        log_path = write_run_log(tmp_path)
        config, rows = load_run_log(log_path)
        assert config["config"]["data_item"] == "energy"
        series = run_series(rows)
        assert len(series) == len(rows) <= 5
        for entry in series:
            assert entry["best_error"] <= entry["mean_error"]
            assert entry["fitness_cv"] is None or entry["fitness_cv"] >= 0

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "config", "config": {}}\nnot json\n', encoding="utf-8")
        with pytest.raises(ReportError, match=r"bad\.jsonl:2"):
            load_run_log(path)

    def test_empty_log_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ReportError, match="empty"):
            load_run_log(path)

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text('{"type": "mystery"}\n', encoding="utf-8")
        with pytest.raises(ReportError, match="unknown record type"):
            load_run_log(path)

    @pytest.mark.parametrize(
        "field, text",
        [
            ("errors", "[1.0, Infinity]"),
            ("errors", "[NaN, 1.0]"),
            ("errors", "[1.0, 1e400]"),
            ("errors", '[1.0, "2"]'),
            ("errors", "[1.0, null]"),
            ("errors", "[true, 1.0]"),
            ("errors", "[1.0, -0.5]"),
            ("errors", "[]"),
            ("errors", "3.0"),
            ("errors", "[1, 10" + "0" * 400 + "]"),
            ("best_error", "-Infinity"),
            ("best_error", '"1.0"'),
            ("best_ever_error", "NaN"),
            ("best_ever_error", "false"),
        ],
    )
    def test_unreportable_error_fields_rejected(self, tmp_path, field, text):
        row = {
            "generation": 0, "errors": [1.0, 2.0], "best_error": 1.0, "best_ever_error": 1.0,
            "mean_cue_count": 1.0, "chromosome_mean_cue_counts": [1.0],
            "parent_pool_size": None, "perfect": False, "type": "generation",
        }
        bad = json.dumps(dict(row, **{field: "@"})).replace('"@"', text)
        path = tmp_path / "bad.jsonl"
        path.write_text(
            "\n".join([json.dumps({"type": "config", "config": {}}), json.dumps(row), bad]),
            encoding="utf-8",
        )
        with pytest.raises(ReportError, match=r"bad\.jsonl:3: bad generation record"):
            load_run_log(path)

    def test_zero_and_int_errors_accepted(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        row = {
            "generation": 0, "errors": [0, 2, 0.5], "best_error": 0, "best_ever_error": 0,
            "mean_cue_count": 1.0, "chromosome_mean_cue_counts": [1.0],
            "parent_pool_size": None, "perfect": True, "type": "generation",
        }
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        _, rows = load_run_log(path)
        assert run_series(rows)[0]["mean_error"] == 2.5 / 3

    @pytest.mark.parametrize(
        "errors", [[1e308, 1e308], [sys.float_info.max, sys.float_info.max, 1.0]],
        ids=["two-1e308", "two-largest-and-one"],
    )
    def test_errors_summing_past_the_float_range_accepted(self, tmp_path, errors):
        # Every error is finite, so the row's mean is too: the exact mean, rounded once.
        path = tmp_path / "held.jsonl"
        row = {
            "generation": 0, "errors": errors, "best_error": 1.0, "best_ever_error": 1.0,
            "mean_cue_count": 1.0, "chromosome_mean_cue_counts": [1.0],
            "parent_pool_size": None, "perfect": False, "type": "generation",
        }
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        _, rows = load_run_log(path)
        mean = float(sum(map(Fraction, errors)) / len(errors))
        assert run_series(rows)[0]["mean_error"] == mean
        assert run_series(rows)[0]["fitness_cv"] == cv(errors) == pstdev(errors) / mean

    def test_comparison_series_for_matched_runs(self, tmp_path):
        log_a = write_run_log(tmp_path, "variable.jsonl", mode=Mode.VARIABLE)
        log_b = write_run_log(tmp_path, "fixed.jsonl", mode=Mode.FIXED)
        _, rows_a = load_run_log(log_a)
        _, rows_b = load_run_log(log_b)
        table = analysis.summarize([("variable", rows_a), ("fixed", rows_b)])["comparison"]
        assert len(table) == max(len(rows_a), len(rows_b))
        assert {"generation", "variable_best_error", "variable_fitness_cv",
                "fixed_best_error", "fixed_fitness_cv"} <= set(table[0])

    def test_text_summary_mentions_best_error(self, tmp_path):
        _, rows = load_run_log(write_run_log(tmp_path))
        text = analysis.render_text_summary("demo", rows)
        assert "best error" in text and "demo" in text

    def test_summarize_document_shape(self, tmp_path):
        _, rows_a = load_run_log(write_run_log(tmp_path, "a.jsonl", mode=Mode.VARIABLE))
        _, rows_b = load_run_log(write_run_log(tmp_path, "b.jsonl", mode=Mode.FIXED))
        single = analysis.summarize([("solo", rows_a)])
        assert set(single) == {"runs"} and set(single["runs"]) == {"solo"}
        paired = analysis.summarize([("variable", rows_a), ("fixed", rows_b)])
        assert set(paired) == {"runs", "comparison"}
        with pytest.raises(ValueError):
            analysis.summarize([])
