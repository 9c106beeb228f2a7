"""Acceptance suite: one test per shipping criterion.

Each test prints a pass/fail line via the conftest hook, so running
``pytest tests/test_acceptance.py -v`` doubles as the acceptance report.
Everything here is seeded; there are no flaky thresholds.
"""

from __future__ import annotations

import json
import statistics
from random import Random

from clear_ga.analysis import ablate, consistency_probe
from clear_ga.backends import (
    FunctionTransport,
    LlmEvaluator,
    OracleEvaluator,
    PlantedCue,
    PlantedLandscape,
)
from clear_ga.engine import (
    EvolutionRun,
    FitnessLedger,
    Mode,
    RunConfig,
    evolve,
    parent_pool_size,
)
from clear_ga.fitness import (
    HeatingClass,
    WindowClass,
    YearRange,
    heating_error,
    range_point_error,
    range_range_error,
    windows_error,
)
from clear_ga.items import ITEMS
from clear_ga.schema import (
    CueCategory,
    CueSchema,
    DataItem,
    Genotype,
    canonical_key,
    random_genotype,
    render_cue_list,
    validate_genotype,
)

from conftest import build_record, build_schema

H = HeatingClass
W = WindowClass


def make_records(n: int = 1) -> list:
    return [build_record(f"b{i}") for i in range(n)]


# --- criterion 1 --------------------------------------------------------------


def test_01_error_function_exactness():
    """Both confusion matrices verbatim; range errors match brute-force scans."""
    heating_expected = {
        H.UNDERFLOOR:       {H.UNDERFLOOR: 0, H.WARM_AIR: 1, H.WATER_RADIATORS: 2, H.ELECTRIC_PANEL: 2, H.ELECTRIC_STORAGE: 2},
        H.WARM_AIR:         {H.UNDERFLOOR: 1, H.WARM_AIR: 0, H.WATER_RADIATORS: 2, H.ELECTRIC_PANEL: 2, H.ELECTRIC_STORAGE: 2},
        H.WATER_RADIATORS:  {H.UNDERFLOOR: 2, H.WARM_AIR: 2, H.WATER_RADIATORS: 0, H.ELECTRIC_PANEL: 2, H.ELECTRIC_STORAGE: 2},
        H.ELECTRIC_PANEL:   {H.UNDERFLOOR: 2, H.WARM_AIR: 2, H.WATER_RADIATORS: 2, H.ELECTRIC_PANEL: 0, H.ELECTRIC_STORAGE: 1},
        H.ELECTRIC_STORAGE: {H.UNDERFLOOR: 2, H.WARM_AIR: 2, H.WATER_RADIATORS: 2, H.ELECTRIC_PANEL: 1, H.ELECTRIC_STORAGE: 0},
    }
    windows_expected = {
        W.SINGLE:          {W.SINGLE: 0, W.DOUBLE: 1, W.HIGH_EFFICIENCY: 2},
        W.DOUBLE:          {W.SINGLE: 1, W.DOUBLE: 0, W.HIGH_EFFICIENCY: 1},
        W.HIGH_EFFICIENCY: {W.SINGLE: 2, W.DOUBLE: 1, W.HIGH_EFFICIENCY: 0},
    }
    cells = 0
    for estimate, row in heating_expected.items():
        for truth, expected in row.items():
            assert heating_error(estimate, truth) == expected
            cells += 1
    assert cells == 25
    cells = 0
    for estimate, row in windows_expected.items():
        for truth, expected in row.items():
            assert windows_error(estimate, truth) == expected
            cells += 1
    assert cells == 9

    assert range_point_error(2007, 2011, 2009) == 0
    assert range_point_error(2007, 2011, 2014) == 3
    assert range_range_error(YearRange(1900, 1930), YearRange(1950, 1970)) == 20
    assert range_range_error(YearRange(1900, 1960), YearRange(1950, 1970)) == 0

    def brute_point(start, end, point):
        return min(abs(point - p) for p in range(start, end + 1))

    rng = Random(1001)
    for _ in range(10000):
        start = rng.randint(1000, 2100)
        end = start + rng.randint(0, 50)
        point = rng.randint(900, 2200)
        assert range_point_error(start, end, point) == brute_point(start, end, point)
    for _ in range(10000):
        a = YearRange((s := rng.randint(1000, 2100)), s + rng.randint(0, 12))
        b = YearRange((t := rng.randint(1000, 2100)), t + rng.randint(0, 12))
        brute = min(brute_point(a.start, a.end, q) for q in range(b.start, b.end + 1))
        assert range_range_error(a, b) == brute


# --- criterion 2 --------------------------------------------------------------


def test_02_operator_closure_and_bounds():
    """10,000 crossover+mutation rounds per mode on random schemas: no violations."""
    from clear_ga.genome import (
        crossover_fixed,
        crossover_variable,
        mutate_fixed,
        mutate_variable,
    )

    rng = Random(2002)
    schemas = [
        build_schema(
            category_sizes=tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 8)))
        )
        for _ in range(250)
    ]

    for _ in range(10000):
        schema = schemas[rng.randrange(len(schemas))]
        p1 = random_genotype(schema, rng)
        p2 = random_genotype(schema, rng)
        child = mutate_fixed(crossover_fixed(p1, p2, rng), schema, rng)
        validate_genotype(child, schema, mode="fixed")

    for _ in range(10000):
        schema = schemas[rng.randrange(len(schemas))]
        parents = []
        for _ in range(2):
            chromosomes = tuple(
                tuple(rng.sample(c.cues, rng.randint(0, min(len(c.cues), 6))))
                for c in schema.categories
            )
            parents.append(Genotype(chromosomes))
        crossed = crossover_variable(parents[0], parents[1], rng)
        for index, chromosome in enumerate(crossed.chromosomes):
            a = parents[0].chromosomes[index]
            b = parents[1].chromosomes[index]
            assert set(chromosome) <= set(a) | set(b)
            assert len(chromosome) <= max(len(a), len(b))
        child = mutate_variable(crossed, schema, rng)
        validate_genotype(child, schema, mode="variable")
        assert len(child.chromosomes) == schema.category_count


# --- criterion 3 --------------------------------------------------------------


def test_03_worst_of_ledger_order_independence():
    """1,000 random record sequences: identical ledgers under 20 permutations each."""
    rng = Random(3003)
    genotype = Genotype((("c0_0",),))  # kept under every key; the ledger rows are compared
    for _ in range(1000):
        records = [
            (f"k{rng.randint(0, 6)}", round(rng.uniform(0, 9), 3), rng.randint(0, 5))
            for _ in range(rng.randint(1, 15))
        ]
        reference = FitnessLedger()
        worst_seen: dict[str, float] = {}
        for key, error, generation in records:
            entry = reference.record(key, error, generation, genotype)
            assert entry.worst_error >= worst_seen.get(key, 0.0)
            worst_seen[key] = entry.worst_error
        reference_state = reference.to_json_obj()[0]
        reference_state.sort(key=lambda r: r["key"])
        for _ in range(20):
            shuffled = list(records)
            rng.shuffle(shuffled)
            ledger = FitnessLedger()
            for key, error, generation in shuffled:
                ledger.record(key, error, generation, genotype)
            state = ledger.to_json_obj()[0]
            state.sort(key=lambda r: r["key"])
            assert state == reference_state


# --- criterion 4 --------------------------------------------------------------


def test_04_elitism_and_selection_pool():
    """Over a full 20-generation run: top-2 keys always survive; pool is ceil(.33*15)=5."""
    assert parent_pool_size(15, 0.33) == 5
    schema = build_schema(category_sizes=(6, 6, 6, 6))
    landscape = PlantedLandscape(
        planted=(PlantedCue(0, "c0_1", 3.0), PlantedCue(1, "c1_2", 3.0)),
        distractor_penalty=1.0,
        base_error=8.0,  # above total benefit: perfect fitness is unreachable
        noise_scale=0.6,
        seed=44,
    )
    config = RunConfig(data_item=DataItem.ENERGY, mode=Mode.VARIABLE, seed=4)
    generations: list[dict] = []

    def monitor(stats, population):
        generations.append(
            {
                "stats": stats,
                "keys": [canonical_key(m.genotype) for m in population],
                "top2": [
                    canonical_key(m.genotype)
                    for m in sorted(population, key=lambda m: m.recorded_error)[:2]
                ],
            }
        )

    result = evolve(config, schema, OracleEvaluator(landscape), make_records(), on_generation=monitor)
    assert len(generations) == 21  # generation 0 plus 20 reproductions
    assert not result.per_generation_log[-1].perfect
    for previous, current in zip(generations, generations[1:]):
        for key in previous["top2"]:
            assert key in current["keys"]
        assert current["stats"].parent_pool_size == 5


# --- criterion 5 --------------------------------------------------------------


RECOVERY_SCHEMA = CueSchema(
    DataItem.ENERGY,
    "UK",
    tuple(
        CueCategory(f"cat{i}", tuple(f"c{i}_{j}" for j in range(20))) for i in range(8)
    ),
)
RECOVERY_PLANTED = (
    PlantedCue(0, "c0_3", 3.0),
    PlantedCue(0, "c0_7", 3.0),  # one category wants two cues
    PlantedCue(2, "c2_5", 3.0),
    PlantedCue(4, "c4_11", 3.0),
    PlantedCue(6, "c6_0", 3.0),
)


def test_05_planted_landscape_recovery():
    """Variable mode recovers >=4/5 planted cues with <=2 distractors in >=70% of 20 runs.

    Schema 8x20, five planted cues over four categories (four categories'
    optimum is empty), population 15, 20 generations, noise at ~3% of the
    total benefit.
    """
    planted_set = {(p.category, p.cue) for p in RECOVERY_PLANTED}
    landscape = PlantedLandscape(
        planted=RECOVERY_PLANTED,
        distractor_penalty=1.0,
        base_error=15.0,
        noise_scale=0.5,
        seed=99,
    )
    evaluator = OracleEvaluator(landscape)
    records = make_records()
    successes = 0
    for seed in range(20):
        config = RunConfig(data_item=DataItem.ENERGY, mode=Mode.VARIABLE, seed=seed)
        result = evolve(config, RECOVERY_SCHEMA, evaluator, records)
        found = {(index, cue) for index, cue in result.best_genotype.iter_cues()}
        recovered = len(found & planted_set)
        distractors = len(found - planted_set)
        if recovered >= 4 and distractors <= 2:
            successes += 1
    assert successes >= 14, f"only {successes}/20 runs recovered the planted cues"


# --- criterion 6 --------------------------------------------------------------


def test_06_variable_beats_fixed():
    """Where the optimum needs 0 or 2 cues per category, variable's median final
    best-ever error is strictly below fixed's over 20 paired seeds."""
    schema = build_schema(category_sizes=(8, 8, 8, 8, 8))
    landscape = PlantedLandscape(
        planted=(
            PlantedCue(0, "c0_1", 3.0),
            PlantedCue(0, "c0_5", 3.0),  # needs two cues here
            PlantedCue(1, "c1_2", 3.0),  # one here, none elsewhere
        ),
        distractor_penalty=1.0,
        base_error=9.0,
        noise_scale=0.4,
        seed=7,
    )
    evaluator = OracleEvaluator(landscape)
    records = make_records()
    medians = {}
    for mode in (Mode.VARIABLE, Mode.FIXED):
        finals = []
        for seed in range(20):
            config = RunConfig(data_item=DataItem.ENERGY, mode=mode, seed=seed)
            finals.append(evolve(config, schema, evaluator, records).best_recorded_error)
        medians[mode] = statistics.median(finals)
    assert medians[Mode.VARIABLE] < medians[Mode.FIXED]


# --- criterion 7 --------------------------------------------------------------


def test_07_ablation_fidelity():
    """On the zero-noise optimum, each planted cue's removal delta equals its
    benefit exactly; removing a distractor yields exactly minus the penalty."""
    schema = build_schema(category_sizes=(4, 4))
    landscape = PlantedLandscape(
        planted=(PlantedCue(0, "c0_0", 3.0), PlantedCue(0, "c0_1", 2.0), PlantedCue(1, "c1_2", 4.0)),
        distractor_penalty=1.0,
        base_error=9.0,
        noise_scale=0.0,
    )
    genotype = Genotype((("c0_0", "c0_1"), ("c1_2", "c1_0")))  # optimum plus one distractor
    report = ablate(genotype, schema, OracleEvaluator(landscape), make_records(), DataItem.ENERGY)
    deltas = {row.cue: row.delta for row in report.rows}
    assert deltas["c0_0"] == 3.0
    assert deltas["c0_1"] == 2.0
    assert deltas["c1_2"] == 4.0
    assert deltas["c1_0"] == -1.0
    assert all(row.delta > 0 for row in report.rows if row.cue != "c1_0")
    assert report.failed_rows == 0


# --- criterion 8 --------------------------------------------------------------


def test_08_noise_encoding_effect():
    """The same latent noise stream shows lower cv under the continuous read-out
    than under the 3-bucket categorical read-out in >=90% of 20 comparisons."""
    categorical_schema = CueSchema(
        DataItem.WINDOWS,
        "UK",
        (
            CueCategory("cat0", tuple(f"c0_{j}" for j in range(5))),
            CueCategory("cat1", tuple(f"c1_{j}" for j in range(5))),
        ),
    )
    continuous_schema = CueSchema(
        DataItem.WINDOWS_UVALUE, "UK", categorical_schema.categories
    )
    building = build_record(windows=W.DOUBLE)
    wins = 0
    for seed in range(20):
        landscape = PlantedLandscape(
            planted=(PlantedCue(0, "c0_1", 1.0),),
            distractor_penalty=0.5,
            base_error=2.2,
            noise_scale=0.4,
            seed=seed,
        )
        evaluator = OracleEvaluator(landscape)
        categorical = consistency_probe(
            categorical_schema, 0, "c0_1", building, evaluator, DataItem.WINDOWS, 10
        )
        continuous = consistency_probe(
            continuous_schema, 0, "c0_1", building, evaluator, DataItem.WINDOWS_UVALUE, 10
        )
        if (
            categorical.cv is not None
            and continuous.cv is not None
            and categorical.cv > continuous.cv
        ):
            wins += 1
    assert wins >= 18, f"continuous read-out beat categorical in only {wins}/20 comparisons"


# --- criterion 9 --------------------------------------------------------------


def test_09_checkpoint_resume_equivalence(tmp_path):
    """Pausing at generation 7 and resuming reproduces the run log byte-for-byte."""
    checkpoint_path = tmp_path / "checkpoint.json"
    log_path = tmp_path / "run.log.jsonl"
    schema = build_schema(category_sizes=(4, 4, 4))
    landscape = PlantedLandscape(
        planted=(PlantedCue(0, "c0_1", 3.0), PlantedCue(1, "c1_2", 3.0)),
        distractor_penalty=1.0,
        base_error=7.5,
        noise_scale=0.7,
        seed=12,
    )
    evaluator = OracleEvaluator(landscape)
    records = make_records()

    def config():
        return RunConfig(
            data_item=DataItem.ENERGY,
            mode=Mode.VARIABLE,
            seed=17,
            checkpoint_path=str(checkpoint_path),
            log_path=str(log_path),
        )

    uninterrupted = evolve(config(), schema, evaluator, records)
    assert uninterrupted.completed and len(uninterrupted.per_generation_log) == 21
    reference_bytes = log_path.read_bytes()

    partial = evolve(config(), schema, evaluator, records, stop_after_generation=7)
    assert not partial.completed and len(partial.per_generation_log) == 8
    assert log_path.read_bytes() != reference_bytes

    document = json.loads(checkpoint_path.read_text(encoding="utf-8"))
    assert document["generation"] == 7
    resumed = EvolutionRun.resume(document, schema, evaluator, records).run()
    assert resumed.completed
    assert log_path.read_bytes() == reference_bytes
    assert resumed.best_genotype == uninterrupted.best_genotype
    assert resumed.best_recorded_error == uninterrupted.best_recorded_error


# --- criterion 10 -------------------------------------------------------------


def test_10_concurrency_determinism():
    """Evaluation concurrency 1 vs 8 produces identical results for the same seed."""
    schema = build_schema(category_sizes=(4, 4, 4))
    landscape = PlantedLandscape(
        planted=(PlantedCue(0, "c0_1", 3.0), PlantedCue(2, "c2_3", 3.0)),
        distractor_penalty=1.0,
        base_error=7.0,
        noise_scale=0.9,
        seed=21,
    )
    evaluator = OracleEvaluator(landscape)
    records = make_records(3)
    results = []
    for concurrency in (1, 8):
        config = RunConfig(
            data_item=DataItem.ENERGY,
            mode=Mode.VARIABLE,
            seed=23,
            generations=12,
            evaluation_concurrency=concurrency,
        )
        results.append(evolve(config, schema, evaluator, records))
    serial, threaded = results
    assert serial.best_genotype == threaded.best_genotype
    assert serial.best_recorded_error == threaded.best_recorded_error
    assert [s.to_json_obj() for s in serial.per_generation_log] == [
        s.to_json_obj() for s in threaded.per_generation_log
    ]


# --- criterion 11 -------------------------------------------------------------


def test_11_prompt_assembly():
    """For all six data items the assembled prompt carries the item's question,
    every genotype cue exactly once, and the answer-fencing instruction."""
    captured: dict[str, str] = {}

    def transport_fn(prompt, images):
        captured["prompt"] = prompt
        return "### unused ###"

    cues = (("high ceilings", "ceiling rose"), ("sash windows",))
    genotype = Genotype(cues)
    for item in DataItem:
        building = build_record()
        evaluator = LlmEvaluator(FunctionTransport(transport_fn), retry_limit=0)
        from clear_ga.backends import EvaluationRequest

        request = EvaluationRequest(genotype=genotype, building=building, data_item=item)
        try:
            evaluator.evaluate(request)
        except Exception:
            pass  # payload parsing is not under test here
        prompt = captured["prompt"]
        parts = ITEMS[item].prompt
        assert parts.question in prompt
        assert parts.instructions in prompt
        assert parts.final_instructions in prompt
        assert "between ### and ###" in prompt
        assert render_cue_list(genotype) in prompt
        for cue in ("high ceilings", "ceiling rose", "sash windows"):
            assert prompt.count(cue) == 1
    # two spot checks on the per-item answer menus
    assert "(1) single glazed, (2) double glazed" in ITEMS[DataItem.WINDOWS].prompt.instructions
    assert "as low as 35 or better" in ITEMS[DataItem.ENERGY].prompt.instructions
