"""Oracle landscape semantics, the LLM evaluator, and schema generation."""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from random import Random

import pytest

from clear_ga.backends import (
    BackendHardFailure,
    EvaluationFailure,
    EvaluationRequest,
    FunctionTransport,
    LlmEvaluator,
    OracleEvaluator,
    PlantedCue,
    PlantedLandscape,
    SchemaGenerationError,
    generate_schema,
    landscape_from_json_obj,
    landscape_to_json_obj,
)
from clear_ga.backends.llm import AuthenticationError, TransportError
from clear_ga.fitness import HeatingClass, WindowClass, YearRange
from clear_ga.items import ITEMS, building_error
from clear_ga.schema import DataItem, Genotype, canonical_key, load_schema, render_cue_list

from conftest import RecordingTransport, build_record, build_schema


def landscape(noise: float = 0.0, seed: int = 0, penalty: float = 1.0) -> PlantedLandscape:
    return PlantedLandscape(
        planted=(PlantedCue(0, "c0_0", 3.0), PlantedCue(1, "c1_1", 3.0)),
        distractor_penalty=penalty,
        base_error=6.0,
        noise_scale=noise,
        seed=seed,
    )


def request(genotype: Genotype, item: DataItem = DataItem.ENERGY, counter: int = 0, **truth):
    return EvaluationRequest(
        genotype=genotype,
        building=build_record(**truth),
        data_item=item,
        eval_counter=counter,
    )


OPTIMUM = Genotype((("c0_0",), ("c1_1",)))


def oracle_estimate(land, genotype, building, item, counter):
    """What the oracle evaluator reads out for one building."""
    return OracleEvaluator(land).evaluate(EvaluationRequest(genotype, building, item, counter))


class TestLandscapeValidation:
    def test_benefit_must_exceed_penalty(self):
        with pytest.raises(ValueError, match="exceed"):
            PlantedLandscape(
                planted=(PlantedCue(0, "a", 1.0),),
                distractor_penalty=2.0,
                base_error=5.0,
                noise_scale=0.0,
            )

    def test_penalty_must_be_positive(self):
        with pytest.raises(ValueError, match="distractor_penalty"):
            PlantedLandscape(planted=(), distractor_penalty=0.0, base_error=0.0, noise_scale=0.0)

    def test_base_must_cover_total_benefit(self):
        with pytest.raises(ValueError, match="cover"):
            PlantedLandscape(
                planted=(PlantedCue(0, "a", 3.0),),
                distractor_penalty=1.0,
                base_error=2.0,
                noise_scale=0.0,
            )

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise_scale"):
            PlantedLandscape(planted=(), distractor_penalty=1.0, base_error=0.0, noise_scale=-1.0)

    def test_json_round_trip(self):
        land = landscape(noise=0.5, seed=7)
        again = landscape_from_json_obj(landscape_to_json_obj(land))
        assert again == land


class TestOracleScores:
    def test_optimum_scores_zero(self):
        evaluator = OracleEvaluator(landscape())
        estimate = evaluator.evaluate(request(OPTIMUM))
        assert building_error(DataItem.ENERGY, estimate, build_record().truth) == 0.0

    def test_missing_planted_cue_costs_its_benefit(self):
        evaluator = OracleEvaluator(landscape())
        g = Genotype((("c0_0",), ()))
        estimate = evaluator.evaluate(request(g))
        assert building_error(DataItem.ENERGY, estimate, build_record().truth) == 3.0

    def test_distractor_costs_the_penalty(self):
        evaluator = OracleEvaluator(landscape())
        g = Genotype((("c0_0", "c0_2"), ("c1_1",)))
        estimate = evaluator.evaluate(request(g))
        assert building_error(DataItem.ENERGY, estimate, build_record().truth) == 1.0

    def test_deterministic_across_instances(self):
        g = Genotype((("c0_1",), ("c1_1",)))
        first = OracleEvaluator(landscape(noise=2.0, seed=5)).evaluate(request(g, counter=3))
        second = OracleEvaluator(landscape(noise=2.0, seed=5)).evaluate(request(g, counter=3))
        assert first == second

    def test_noise_varies_with_counter_and_seed(self):
        land = landscape(noise=2.0, seed=5)
        key = '[["c0_0"],["c1_1"]]'
        draws = {land.noise(key, "b1", c) for c in range(8)}
        assert len(draws) == 8
        by_seed = {landscape(noise=2.0, seed=s).noise(key, "b1", 0) for s in range(4)}
        assert len(by_seed) == 4
        by_building = {land.noise(key, f"b{i}", 0) for i in range(4)}
        assert len(by_building) == 4
        # estimates built from a clamped-at-zero score still move with the counter
        values = {
            OracleEvaluator(land).evaluate(request(OPTIMUM, counter=c)) for c in range(16)
        }
        assert len(values) > 1

    def test_score_is_a_function_of_the_canonical_key(self):
        # Summing benefits in genotype order put these two 1 ulp apart.
        def fresh_landscape():
            return PlantedLandscape(
                planted=(PlantedCue(0, "a", 2.51), PlantedCue(1, "b", 2.991),
                         PlantedCue(1, "c", 2.899)),
                distractor_penalty=1.0,
                base_error=20.0,
                noise_scale=0.0,
            )

        first = Genotype((("a",), ("b", "c")))
        second = Genotype((("a",), ("c", "b")))
        assert canonical_key(first) == canonical_key(second)
        in_key_order = 20.0 - (0.0 + 2.51 + 2.991 + 2.899)
        # A landscape each, so neither score comes from the other's memo.
        scores = [fresh_landscape().latent_scores(g, ["b1"], 0)[0] for g in (first, second)]
        assert scores == [in_key_order, in_key_order]

    def test_zero_noise_argmin_is_exactly_the_planted_set(self):
        land = landscape()
        schema = build_schema(category_sizes=(3, 3))
        building = build_record()
        scores = {}
        for first in powerset(schema.categories[0].cues):
            for second in powerset(schema.categories[1].cues):
                g = Genotype((tuple(first), tuple(second)))
                scores[(first, second)] = land.latent_scores(g, [building.id], 0)[0]
        best = min(scores, key=scores.get)
        assert best == (("c0_0",), ("c1_1",))
        assert sum(1 for s in scores.values() if s == scores[best]) == 1

    def test_zero_noise_monotonicity(self):
        land = landscape()
        rng = Random(3)
        schema = build_schema(category_sizes=(3, 3))
        for _ in range(200):
            chromosomes = [
                list(rng.sample(c.cues, rng.randint(0, len(c.cues))))
                for c in schema.categories
            ]
            g = Genotype(tuple(tuple(ch) for ch in chromosomes))
            base = land.latent_scores(g, ["b1"], 0)[0]
            for index in range(2):
                for cue in schema.categories[index].cues:
                    if cue in chromosomes[index]:
                        continue
                    grown = [list(ch) for ch in chromosomes]
                    grown[index].append(cue)
                    new = land.latent_scores(
                        Genotype(tuple(tuple(ch) for ch in grown)), ["b1"], 0
                    )[0]
                    if (index, cue) in land.benefits:
                        assert new <= base
                    else:
                        assert new >= base


def powerset(items):
    out = []
    for r in range(len(items) + 1):
        out.extend(itertools.combinations(items, r))
    return out


class TestOracleReadouts:
    def test_energy_estimate_reproduces_score(self):
        estimate = oracle_estimate(
            landscape(), Genotype((("c0_0",), ())), build_record(), DataItem.ENERGY, 0
        )
        assert estimate == 123.0  # truth 120 + missing benefit 3

    def test_lighting_estimate_reproduces_score(self):
        truth = build_record(lighting_pct=86.0)
        estimate = oracle_estimate(landscape(), Genotype((("c0_0",), ())), truth, DataItem.LIGHTING, 0)
        assert building_error(DataItem.LIGHTING, estimate, truth.truth) == 3.0

    @pytest.mark.parametrize("truth_pct", [0.0, 30.0, 50.0, 86.0, 100.0])
    def test_lighting_error_saturates_instead_of_falling(self, truth_pct):
        # Reproduces the score up to max(truth, 100 - truth), then stays there:
        # with truth 30%, score 71 must not score better (error 30) than score 70.
        building = build_record(lighting_pct=truth_pct)
        no_cues = Genotype(((), ()))
        for score in range(6, 121):
            land = PlantedLandscape(
                planted=(PlantedCue(0, "c0_0", 3.0), PlantedCue(1, "c1_1", 3.0)),
                distractor_penalty=1.0,
                base_error=float(score),
                noise_scale=0.0,
            )
            estimate = oracle_estimate(land, no_cues, building, DataItem.LIGHTING, 0)
            error = building_error(DataItem.LIGHTING, estimate, building.truth)
            assert error == min(score, max(truth_pct, 100 - truth_pct)), score

    def test_age_estimate_rounds_to_whole_years(self):
        building = build_record(age=YearRange(2000, 2000))
        estimate = oracle_estimate(
            landscape(), Genotype((("c0_0",), ())), building, DataItem.BUILDING_AGE, 0
        )
        assert estimate == YearRange(2003, 2003)
        assert building_error(DataItem.BUILDING_AGE, estimate, building.truth) == 3

    def test_uvalue_estimate_is_target_plus_score(self):
        building = build_record(windows=WindowClass.DOUBLE)
        estimate = oracle_estimate(
            landscape(), Genotype((("c0_0",), ())), building, DataItem.WINDOWS_UVALUE, 0
        )
        assert estimate == pytest.approx(5.0)  # 2.0 target + 3.0 score

    def test_windows_quantization_ladder(self):
        building = build_record(windows=WindowClass.SINGLE)
        land = landscape()
        # score 0 at the optimum -> truth class
        assert oracle_estimate(land, OPTIMUM, building, DataItem.WINDOWS, 0) is WindowClass.SINGLE
        # one distractor -> score 1 -> adjacent class
        g = Genotype((("c0_0", "c0_2"), ("c1_1",)))
        assert oracle_estimate(land, g, building, DataItem.WINDOWS, 0) is WindowClass.DOUBLE
        # missing benefit -> score 3 -> furthest class
        g = Genotype((("c0_0",), ()))
        assert oracle_estimate(land, g, building, DataItem.WINDOWS, 0) is WindowClass.HIGH_EFFICIENCY

    def test_heating_row_without_middle_step_falls_back_to_truth(self):
        building = build_record(heating=HeatingClass.WATER_RADIATORS)
        land = landscape()
        g = Genotype((("c0_0", "c0_2"), ("c1_1",)))  # score 1; no distance-1 neighbour
        assert oracle_estimate(land, g, building, DataItem.HEATING, 0) is HeatingClass.WATER_RADIATORS
        g = Genotype((("c0_0",), ()))  # score 3 -> distance-2 class
        estimate = oracle_estimate(land, g, building, DataItem.HEATING, 0)
        assert building_error(DataItem.HEATING, estimate, building.truth) == 2

    def test_same_latent_stream_for_both_window_readouts(self):
        land = landscape(noise=1.0, seed=11)
        building = build_record(windows=WindowClass.DOUBLE)
        for counter in range(5):
            uvalue = oracle_estimate(land, OPTIMUM, building, DataItem.WINDOWS_UVALUE, counter)
            latent = uvalue - 2.0
            categorical = oracle_estimate(land, OPTIMUM, building, DataItem.WINDOWS, counter)
            expected_distance = 0 if latent < 1 else (1 if latent < 2 else 2)
            achievable = {0: 0, 1: 1, 2: 1}[expected_distance]  # double has no distance-2 class
            assert building_error(DataItem.WINDOWS, categorical, building.truth) == achievable

    def test_missing_truth_rejected(self):
        building = build_record(energy_kwh_m2=None)
        with pytest.raises(ValueError, match="no ground truth"):
            oracle_estimate(landscape(), OPTIMUM, building, DataItem.ENERGY, 0)


# Truths that reach every read-out branch: ages to round, lighting near and at
# both ends of the scale, every heating and windows class, and energies.
SPLIT = [
    build_record(f"b{i}", age=YearRange(year, year), lighting_pct=pct, heating=heating,
                 windows=windows, energy_kwh_m2=energy)
    for i, (year, pct, heating, windows, energy) in enumerate(zip(
        (1850, 1931, 1975, 2001, 2019, 1700),
        (0.0, 3.0, 50.0, 86.0, 98.0, 100.0),
        itertools.cycle(HeatingClass),
        itertools.cycle(WindowClass),
        (35.0, 80.5, 120.0, 199.0, 260.0, 450.0),
    ))
]


def bits(estimate):
    """An estimate's type and value, a float's to the bit."""
    return type(estimate), estimate.hex() if isinstance(estimate, float) else estimate


class TestSplitScoring:
    """``OracleEvaluator.evaluate_batch`` gives, to the bit, what ``evaluate``
    gives for each job on each building."""

    @pytest.mark.parametrize("item", list(DataItem))
    @pytest.mark.parametrize("noise", [0.0, 0.4])
    @pytest.mark.parametrize("counter", [0, 1, 2, 3])
    @pytest.mark.parametrize("base", [6.0, 60.0])
    def test_split_equals_pairs(self, item, noise, counter, base):
        land = PlantedLandscape(
            planted=(PlantedCue(0, "c0_0", 3.0), PlantedCue(1, "c1_1", 3.0)),
            distractor_penalty=1.0,
            base_error=base,
            noise_scale=noise,
            seed=17,
        )
        schema = build_schema(category_sizes=(3, 3))
        rng = Random(int(10 * (base + noise)) + counter)
        genotypes = [OPTIMUM, Genotype(((), ())), Genotype((("c0_0", "c0_2"), ("c1_1",)))] + [
            Genotype(tuple(
                tuple(rng.sample(c.cues, rng.randint(0, len(c.cues)))) for c in schema.categories
            ))
            for _ in range(12)
        ]
        # One genotype twice at the counter, as a batch holds members of one key,
        # and once more at the next counter.
        jobs = [(g, counter) for g in genotypes] + [(genotypes[2], counter),
                                                    (genotypes[2], counter + 1)]
        batch = OracleEvaluator(land).evaluate_batch(jobs, SPLIT, item)
        assert len(batch) == len(jobs)
        for (genotype, job_counter), row in zip(jobs, batch):
            pairs = [
                OracleEvaluator(land).evaluate(EvaluationRequest(genotype, b, item, job_counter))
                for b in SPLIT
            ]
            assert list(map(bits, row)) == list(map(bits, pairs))
        assert batch[-2] == batch[2]

    def test_missing_truth_in_a_split_rejected(self):
        split = [build_record("b1"), build_record("b2", lighting_pct=None)]
        with pytest.raises(ValueError, match="'b2' has no ground truth"):
            OracleEvaluator(landscape()).evaluate_batch([(OPTIMUM, 0)], split, DataItem.LIGHTING)


class TestLlmEvaluator:
    def well_formed(self, answer: str):
        return RecordingTransport(lambda prompt, images: f"reasoning...\n### {answer} ###")

    def test_parses_well_formed_response(self):
        transport = self.well_formed("(2) double glazed")
        evaluator = LlmEvaluator(transport, retry_limit=1)
        estimate = evaluator.evaluate(request(OPTIMUM, item=DataItem.WINDOWS))
        assert estimate is WindowClass.DOUBLE

    def test_prompt_contains_question_cues_and_final_instructions(self):
        transport = self.well_formed("120")
        evaluator = LlmEvaluator(transport)
        g = Genotype((("high ceilings", "ceiling rose"), ("sash windows",)))
        evaluator.evaluate(request(g, item=DataItem.ENERGY))
        prompt, _ = transport.calls[0]
        parts = ITEMS[DataItem.ENERGY].prompt
        assert parts.question in prompt
        assert parts.final_instructions in prompt
        assert render_cue_list(g) in prompt
        for cue in ("high ceilings", "ceiling rose", "sash windows"):
            assert prompt.count(cue) == 1

    def test_image_subset_chosen_per_item(self, tmp_path):
        paths = {}
        for subset in ("building", "heating", "windows", "lighting"):
            p = tmp_path / f"{subset}.jpg"
            p.write_bytes(b"x")
            paths[subset] = (p,)
        building = build_record()
        building.image_sets.update(paths)
        transport = self.well_formed("120")
        evaluator = LlmEvaluator(transport)
        req = EvaluationRequest(genotype=OPTIMUM, building=building, data_item=DataItem.ENERGY)
        evaluator.evaluate(req)
        assert transport.calls[0][1] == paths["building"]
        transport.calls.clear()
        req = EvaluationRequest(genotype=OPTIMUM, building=building, data_item=DataItem.LIGHTING)
        with pytest.raises(EvaluationFailure):
            evaluator.evaluate(req)  # "120" is not a lighting option; retries then fails
        assert all(images == paths["lighting"] for _, images in transport.calls)

    def test_missing_delimiters_consume_retries_then_fail(self):
        transport = RecordingTransport(lambda prompt, images: "no fences here")
        evaluator = LlmEvaluator(transport, retry_limit=2)
        with pytest.raises(EvaluationFailure, match="3 attempts"):
            evaluator.evaluate(request(OPTIMUM))
        assert len(transport.calls) == 3

    def test_transient_transport_error_is_retried(self):
        attempts = []

        def flaky(prompt, images):
            attempts.append(1)
            if len(attempts) == 1:
                raise TransportError("connection reset")
            return "### 120 ###"

        evaluator = LlmEvaluator(FunctionTransport(flaky), retry_limit=2)
        estimate = evaluator.evaluate(request(OPTIMUM))
        assert estimate.start == 120
        assert len(attempts) == 2

    @pytest.mark.parametrize("retry_limit, sends", [(2, 3), (1, 2)])
    def test_transport_and_parse_failures_share_one_budget(self, retry_limit, sends):
        answers = iter([TransportError("connection reset"), "no fences here", "### 120 ###"])

        def scripted(prompt, images):
            answer = next(answers)
            if isinstance(answer, Exception):
                raise answer
            return answer

        transport = RecordingTransport(scripted)
        evaluator = LlmEvaluator(transport, retry_limit=retry_limit)
        if retry_limit == 2:
            assert evaluator.evaluate(request(OPTIMUM)).start == 120
        else:
            with pytest.raises(EvaluationFailure, match="after 2 attempts: no"):
                evaluator.evaluate(request(OPTIMUM))
        assert len(transport.calls) == sends

    def test_auth_failure_aborts_immediately(self):
        def rejected(prompt, images):
            raise AuthenticationError("bad key")

        transport = RecordingTransport(rejected)
        evaluator = LlmEvaluator(transport, retry_limit=5)
        with pytest.raises(BackendHardFailure):
            evaluator.evaluate(request(OPTIMUM))
        assert len(transport.calls) == 1


class ScriptedTransport(RecordingTransport):
    """Replays canned responses keyed by recognizable prompt fragments.

    A response may be an iterator, whose items are answered in turn; an
    exception among them is raised instead of answered.
    """

    def __init__(self, script):
        super().__init__(self._reply)
        self.script = script

    def _reply(self, prompt, images):
        for fragment, response in self.script:
            if fragment in prompt:
                if isinstance(response, Iterator):
                    response = next(response)
                if isinstance(response, Exception):
                    raise response
                return response
        raise AssertionError(f"no scripted response for prompt: {prompt[:80]}...")


FEATURES = "\n".join(f"{i + 1}. feature {i + 1}" for i in range(10))

CLUSTER_TEXT = """Here are the clusters:

**Frames**:
- feature 1
- feature 2

**Glass**:
- feature 3
- feature 4
"""

FORMATTED = """Here is the python array:
[["feature 1", "feature 2"], ["feature 3", "feature 4"]]
"""


class TestGenerateSchema:
    def records(self):
        return [
            build_record("b1", windows=WindowClass.SINGLE),
            build_record("b2", windows=WindowClass.DOUBLE),
            build_record("b3", windows=WindowClass.HIGH_EFFICIENCY),
            build_record("b4", windows=WindowClass.DOUBLE),
        ]

    def transport(self):
        return ScriptedTransport(
            [
                ("List 50 detailed visible features", FEATURES),
                ("remove duplicated items", CLUSTER_TEXT),
                ("produce a python array", FORMATTED),
            ]
        )

    def test_windows_pipeline(self):
        transport = self.transport()
        schema = generate_schema(
            self.records(), DataItem.WINDOWS, transport, Random(0), region="UK"
        )
        assert schema.data_item is DataItem.WINDOWS
        assert [c.name for c in schema.categories] == ["Frames", "Glass"]
        assert schema.categories[0].cues == ("feature 1", "feature 2")
        # three representatives, one extraction call each, then cluster + format
        extraction_calls = [c for c in transport.calls if "List 50" in c[0]]
        assert len(extraction_calls) == 3
        cluster_calls = [c for c in transport.calls if "remove duplicated items" in c[0]]
        assert len(cluster_calls) == 1
        assert "Aim to produce 8 clusters" in cluster_calls[0][0]

    def test_lighting_value_grouping_covers_the_three_bands(self):
        records = [
            build_record("b1", lighting_pct=0.0),
            build_record("b2", lighting_pct=100.0),
            build_record("b3", lighting_pct=40.0),
            build_record("b4", lighting_pct=60.0),
        ]
        transport = ScriptedTransport(
            [
                ("type of bulbs", FEATURES),
                ("remove duplicated items", CLUSTER_TEXT),
                ("produce a python array", FORMATTED),
            ]
        )
        generate_schema(records, DataItem.LIGHTING, transport, Random(0))
        extraction_calls = [c for c in transport.calls if "type of bulbs" in c[0]]
        assert len(extraction_calls) == 3  # one per band: 0%, 100%, partial

    def test_age_pipeline_uses_llm_grouping(self):
        records = [
            build_record("b1", age=YearRange(1890, 1890)),
            build_record("b2", age=YearRange(1950, 1950)),
            build_record("b3", age=YearRange(2015, 2015)),
        ]
        transport = ScriptedTransport(
            [
                ("group the buildings by 3 eras", '[["b1"], ["b2"], ["b3"]]'),
                ("List 50 visible features", FEATURES),
                ("remove duplicated items", CLUSTER_TEXT),
                ("produce a python array", FORMATTED),
            ]
        )
        schema = generate_schema(records, DataItem.BUILDING_AGE, transport, Random(0))
        assert schema.category_count == 2
        assert any("group the buildings by 3 eras" in p for p, _ in transport.calls)

    def test_unparseable_formatting_aborts_with_raw_response(self):
        transport = ScriptedTransport(
            [
                ("List 50 detailed visible features", FEATURES),
                ("remove duplicated items", CLUSTER_TEXT),
                ("produce a python array", "I cannot help with that."),
            ]
        )
        with pytest.raises(SchemaGenerationError) as exc_info:
            generate_schema(self.records(), DataItem.WINDOWS, transport, Random(0))
        assert exc_info.value.raw_response == "I cannot help with that."

    def test_generated_schema_passes_document_validation(self):
        schema = generate_schema(self.records(), DataItem.WINDOWS, self.transport(), Random(0))
        from clear_ga.schema import schema_to_json

        assert load_schema(schema_to_json(schema)) == schema

    def test_heading_fallback_to_generic_names(self):
        transport = ScriptedTransport(
            [
                ("List 50 detailed visible features", FEATURES),
                ("remove duplicated items", "clusters: frames stuff and glass stuff"),
                ("produce a python array", FORMATTED),
            ]
        )
        schema = generate_schema(self.records(), DataItem.WINDOWS, transport, Random(0))
        assert [c.name for c in schema.categories] == ["category_1", "category_2"]

    def age_records(self):
        return [
            build_record("b1", age=YearRange(1890, 1890)),
            build_record("b2", age=YearRange(1950, 1950)),
            build_record("b3", age=YearRange(2015, 2015)),
        ]

    def test_formatting_step_sends_at_most_retry_limit_plus_one_prompts(self):
        answers = [TransportError("reset"), TransportError("reset"), "no arrays here"]
        transport = ScriptedTransport(
            [
                ("List 50 detailed visible features", FEATURES),
                ("remove duplicated items", CLUSTER_TEXT),
                ("produce a python array", itertools.cycle(answers)),
            ]
        )
        with pytest.raises(SchemaGenerationError) as exc_info:
            generate_schema(self.records(), DataItem.WINDOWS, transport, Random(0), retry_limit=2)
        assert transport.sends("produce a python array") == 3
        assert str(exc_info.value) == "could not parse formatted cue arrays"
        assert exc_info.value.raw_response == "no arrays here"

    def test_era_step_ending_in_transport_error_keeps_the_last_answer(self):
        answers = ["no arrays here", TransportError("reset"), TransportError("reset")]
        transport = ScriptedTransport([("group the buildings by 3 eras", itertools.cycle(answers))])
        with pytest.raises(SchemaGenerationError) as exc_info:
            generate_schema(self.age_records(), DataItem.BUILDING_AGE, transport, Random(0))
        assert transport.sends("group the buildings by 3 eras") == 3
        assert str(exc_info.value) == "transport failed after 3 attempts: reset"
        assert exc_info.value.raw_response == "no arrays here"

    def test_era_naming_no_training_building_is_resent(self):
        transport = ScriptedTransport(
            [
                ("group the buildings by 3 eras", iter(['[["x9"], []]', '[["b1", "b2"], ["b3"]]'])),
                ("List 50 visible features", FEATURES),
                ("remove duplicated items", CLUSTER_TEXT),
                ("produce a python array", FORMATTED),
            ]
        )
        generate_schema(self.age_records(), DataItem.BUILDING_AGE, transport, Random(0))
        assert transport.sends("group the buildings by 3 eras") == 2

    def test_authentication_error_propagates_after_one_send(self):
        transport = ScriptedTransport(
            [("List 50 detailed visible features", iter([AuthenticationError("bad key")]))]
        )
        with pytest.raises(AuthenticationError):
            generate_schema(self.records(), DataItem.WINDOWS, transport, Random(0), retry_limit=5)
        assert len(transport.calls) == 1

    def test_single_transport_error_then_good_answer_recovers(self):
        transport = ScriptedTransport(
            [
                ("List 50 detailed visible features", FEATURES),
                ("remove duplicated items", iter([TransportError("reset"), CLUSTER_TEXT])),
                ("produce a python array", FORMATTED),
            ]
        )
        schema = generate_schema(self.records(), DataItem.WINDOWS, transport, Random(0))
        assert [c.name for c in schema.categories] == ["Frames", "Glass"]
        assert transport.sends("remove duplicated items") == 2

    def test_empty_feature_list_is_resent_then_fails_with_its_raw_response(self):
        transport = ScriptedTransport([("List 50 detailed visible features", "Features:\n\n")])
        with pytest.raises(SchemaGenerationError, match="no features parsed from") as exc_info:
            generate_schema(self.records(), DataItem.WINDOWS, transport, Random(0), retry_limit=2)
        assert transport.sends("List 50 detailed visible features") == 3
        assert exc_info.value.raw_response == "Features:\n\n"

    def test_literal_with_unhashable_key_is_an_unparseable_answer(self):
        transport = ScriptedTransport(
            [
                ("List 50 detailed visible features", FEATURES),
                ("remove duplicated items", CLUSTER_TEXT),
                ("produce a python array", iter(["[{[]: 1}]", FORMATTED])),
            ]
        )
        schema = generate_schema(self.records(), DataItem.WINDOWS, transport, Random(0))
        assert schema.category_count == 2
        assert transport.sends("produce a python array") == 2

    def test_negative_retry_limit_rejected_before_any_send(self):
        transport = self.transport()
        with pytest.raises(ValueError, match="retry_limit"):
            generate_schema(self.records(), DataItem.WINDOWS, transport, Random(0), retry_limit=-1)
        assert transport.calls == []
