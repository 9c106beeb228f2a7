"""Generational loop: ledger, selection, elitism, determinism, checkpoints."""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from random import Random

import pytest

from clear_ga import engine, items
from clear_ga.analysis import load_run_log
from clear_ga.backends import (
    BackendHardFailure,
    EvaluationFailure,
    EvaluationRequest,
    FunctionTransport,
    LlmEvaluator,
    OracleEvaluator,
    PlantedCue,
    PlantedLandscape,
)
from clear_ga.cli import main
from clear_ga.engine import (
    CheckpointError,
    ConfigMismatchError,
    EvolutionRun,
    FitnessLedger,
    Member,
    Mode,
    RunAborted,
    RunConfig,
    evaluate_genotype,
    evolve,
    load_checkpoint_file,
    next_generation,
    select_parents,
)
from clear_ga.fitness import YearRange
from clear_ga.items import failure_penalty
from clear_ga.schema import DataItem, Genotype, canonical_key

from conftest import RecordingTransport, build_record, build_schema


def make_landscape(noise: float = 0.0, seed: int = 0, base: float = 6.0) -> PlantedLandscape:
    return PlantedLandscape(
        planted=(PlantedCue(0, "c0_0", 3.0), PlantedCue(1, "c1_1", 3.0)),
        distractor_penalty=1.0,
        base_error=base,
        noise_scale=noise,
        seed=seed,
    )


def as_loaded(obj):
    """``obj`` as it reads back from its JSON text: an in-memory checkpoint holds
    the run's tuples where the document read from its file holds lists."""
    return json.loads(json.dumps(obj))


def make_config(**overrides) -> RunConfig:
    values = dict(
        data_item=DataItem.ENERGY,
        mode=Mode.VARIABLE,
        population_size=8,
        generations=6,
        elites=2,
        seed=1,
    )
    values.update(overrides)
    return RunConfig(**values)


class PerfectEvaluator:
    """Returns the exact ground truth regardless of the genotype."""

    def evaluate(self, request: EvaluationRequest):
        return float(request.building.truth.energy_kwh_m2)


class FlakyEvaluator:
    """Hard-fails once a generation threshold is crossed."""

    def __init__(self, inner, fail_from_eval: int):
        self.inner = inner
        self.count = 0
        self.fail_from_eval = fail_from_eval

    def evaluate(self, request: EvaluationRequest):
        self.count += 1
        if self.count >= self.fail_from_eval:
            raise BackendHardFailure("endpoint revoked the credentials")
        return self.inner.evaluate(request)


# The genotype the ledger tests record under every key: they test the worst-of
# merge and the best key, not the genotypes kept beside them.
ONE = Genotype((("c0_0",),))


class TestFitnessLedger:
    def test_first_observation(self):
        ledger = FitnessLedger()
        entry = ledger.record("k", 5.0, generation=0, genotype=ONE)
        assert entry.worst_error == 5.0 and entry.evaluations == 1
        assert entry.first_seen_generation == 0

    def test_better_score_does_not_lower_worst(self):
        ledger = FitnessLedger()
        ledger.record("k", 5.0, 0, ONE)
        entry = ledger.record("k", 3.0, 1, ONE)
        assert entry.worst_error == 5.0 and entry.evaluations == 2

    def test_worse_score_raises_worst(self):
        ledger = FitnessLedger()
        ledger.record("k", 5.0, 0, ONE)
        assert ledger.record("k", 9.0, 1, ONE).worst_error == 9.0

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            FitnessLedger().record("k", -1.0, 0, ONE)

    def test_new_key_keeps_the_genotypes_own_chromosomes(self):
        ledger = FitnessLedger()
        first = Genotype((("c0_1", "c0_0"), ()))
        assert ledger.record("k", 1.0, 0, first).chromosomes is first.chromosomes
        # A later genotype of the same key leaves the first-seen one in place.
        again = Genotype((("c0_0", "c0_1"), ()))
        assert ledger.record("k", 2.0, 1, again).chromosomes is first.chromosomes

    def test_order_independence(self):
        rng = Random(7)
        for _ in range(100):
            records = [
                (f"k{rng.randint(0, 5)}", rng.uniform(0, 10), rng.randint(0, 4))
                for _ in range(rng.randint(1, 30))
            ]
            reference = FitnessLedger()
            for key, error, generation in records:
                reference.record(key, error, generation, ONE)
            for _ in range(10):
                shuffled = list(records)
                rng.shuffle(shuffled)
                ledger = FitnessLedger()
                for key, error, generation in shuffled:
                    ledger.record(key, error, generation, ONE)
                assert {
                    k: (e.worst_error, e.evaluations, e.first_seen_generation)
                    for k, e in ledger.entries.items()
                } == {
                    k: (e.worst_error, e.evaluations, e.first_seen_generation)
                    for k, e in reference.entries.items()
                }

    def test_best_key_of_empty_ledger_rejected(self):
        with pytest.raises(ValueError, match="ledger is empty"):
            FitnessLedger().best_key()

    def test_best_key_tie_goes_to_earliest_recorded(self):
        ledger = FitnessLedger()
        for key, error in [("c", 4.0), ("b", 2.0), ("a", 2.0), ("d", 2.0)]:
            ledger.record(key, error, 0, ONE)
        assert ledger.best_key() == "b"

    def test_best_key_moves_when_worst_of_update_raises_it(self):
        ledger = FitnessLedger()
        ledger.record("a", 1.0, 0, ONE)
        ledger.record("b", 2.0, 0, ONE)
        assert ledger.best_key() == "a"
        ledger.record("a", 5.0, 1, ONE)
        assert ledger.best_key() == "b"

    def test_genotype_rows_from_every_index(self):
        # A journal record's genotype rows are the ledger's from an index on,
        # in ledger order; a re-hit key adds none.
        ledger, genotypes = FitnessLedger(), [Genotype(((f"c0_{i}",),)) for i in range(5)]
        for i, genotype in enumerate(genotypes):
            ledger.record(f"k{i}", float(i), 0, genotype)
        ledger.record("k1", 9.0, 1, genotypes[1])
        for index in range(len(genotypes) + 2):
            rows, new = ledger.to_json_obj(["k3", "k1"], index)
            assert [row["key"] for row in rows] == ["k3", "k1"]
            assert new == [{"key": f"k{i}", "chromosomes": genotypes[i].chromosomes}
                           for i in range(index, len(genotypes))]
            assert all(row["chromosomes"] is genotypes[int(row["key"][1:])].chromosomes
                       for row in new)
        assert [row["key"] for row in ledger.to_json_obj()[0]] == [f"k{i}" for i in range(5)]

    def test_json_round_trip(self):
        ledger = FitnessLedger()
        ledger.record("a", 2.0, 0, ONE)
        ledger.record("b", 4.0, 1, ONE)
        again = FitnessLedger.from_json_obj(*ledger.to_json_obj(), 1)
        assert again.to_json_obj() == ledger.to_json_obj()


def scanned_best_key(ledger: FitnessLedger) -> str:
    """The best key by a scan of the whole ledger: the lowest worst-of error,
    the earliest-recorded key among ties."""
    return min(ledger.entries.items(), key=lambda item: item[1].worst_error)[0]


class TestIncrementalBestKey:
    """``best_key`` is kept as ``record`` runs, and always names the key a scan
    of the whole ledger would."""

    @staticmethod
    def random_records(rng: Random, ledger: FitnessLedger, count: int):
        """Records that re-hit and raise the best key, re-hit other keys and add
        new ones; errors are small integers, so ties are common."""
        for step in range(count):
            roll = rng.random()
            if ledger.entries and roll < 0.3:
                key = scanned_best_key(ledger)
            elif ledger.entries and roll < 0.6:
                key = rng.choice(list(ledger.entries))
            else:
                key = f"k{rng.randrange(10**6)}"
            yield key, float(rng.randint(0, 6)), step // 5

    def test_equals_a_full_scan_after_every_record(self):
        rng = Random(21)
        for _ in range(200):
            ledger, unread = FitnessLedger(), FitnessLedger()
            for key, error, generation in self.random_records(rng, ledger, rng.randint(1, 60)):
                ledger.record(key, error, generation, ONE)
                unread.record(key, error, generation, ONE)
                assert ledger.best_key() == scanned_best_key(ledger)
            # A ledger never asked in between ends on the same key.
            assert unread.best_key() == ledger.best_key()

    def test_equals_a_full_scan_after_a_json_round_trip(self):
        rng = Random(22)
        for _ in range(100):
            ledger = FitnessLedger()
            for record in self.random_records(rng, ledger, rng.randint(1, 30)):
                ledger.record(*record, ONE)
            again = FitnessLedger.from_json_obj(*ledger.to_json_obj(), 1)
            assert again.best_key() == ledger.best_key()
            for key, error, generation in self.random_records(rng, again, 30):
                again.record(key, error, generation, ONE)
                assert again.best_key() == scanned_best_key(again)

    def test_equals_a_full_scan_in_a_run_resumed_mid_way(self, tmp_path):
        config = make_config(
            generations=12, seed=5, checkpoint_path=str(tmp_path / "checkpoint.json")
        )
        schema = build_schema(category_sizes=(3, 3))
        evaluator = OracleEvaluator(make_landscape(noise=0.9, seed=4, base=8.0))
        records = [build_record(), build_record("b2")]
        evolve(config, schema, evaluator, records, stop_after_generation=5)
        run = EvolutionRun.resume(
            load_checkpoint_file(config.checkpoint_path), schema, evaluator, records
        )
        seen = []

        def check(stats, population):
            best = scanned_best_key(run.ledger)
            assert run.ledger.best_key() == best
            assert stats.best_ever_error == run.ledger.entries[best].worst_error
            seen.append(stats.generation)

        assert run.run(on_generation=check).completed
        assert seen == list(range(6, 13))
        # The entries keep the attributes that readers of a run's ledger use.
        entries = list(run.ledger.entries.values())
        assert sum(e.evaluations for e in entries) == config.population_size * 13
        assert min(e.first_seen_generation for e in entries) == 0
        assert min(e.worst_error for e in entries) == run.result().best_recorded_error


class TestBestGenotype:
    def test_result_refuses_a_best_row_holding_another_genotype(self):
        run = EvolutionRun(make_config(generations=2), build_schema(),
                           OracleEvaluator(make_landscape(noise=0.5)), [build_record("b1")])
        run.run()
        best = run.ledger.best_key()
        other_key, other = next(
            (key, entry) for key, entry in run.ledger.entries.items() if key != best
        )
        assert canonical_key(run.result().best_genotype) == best
        run.ledger.entries[best].chromosomes = other.chromosomes
        with pytest.raises(CheckpointError) as exc_info:
            run.result()
        assert str(exc_info.value) == (
            f"corrupt checkpoint document: the genotype row of the best key {best} "
            f"holds the genotype of {other_key}"
        )


class TestSelection:
    def members(self, errors):
        return [Member(Genotype((((f"g{i}",),))), recorded_error=e) for i, e in enumerate(errors)]

    def test_pool_size_fifteen_at_one_third(self):
        population = self.members([float(i) for i in range(15)])
        assert len(select_parents(population, 0.33)) == 5

    def test_pool_of_one_from_two(self):
        population = self.members([2.0, 1.0])
        pool = select_parents(population, 0.33)
        assert len(pool) == 1 and pool[0].recorded_error == 1.0

    def test_ties_resolved_by_stable_order(self):
        population = self.members([1.0] * 15)
        pool = select_parents(population, 0.33)
        assert [p.genotype for p in pool] == [m.genotype for m in population[:5]]

    def test_unevaluated_population_rejected(self):
        with pytest.raises(ValueError):
            select_parents([Member(Genotype((("a",),)))], 0.33)


class TestNextGeneration:
    def test_elites_survive_verbatim(self):
        schema = build_schema(category_sizes=(3, 3))
        rng = Random(0)
        population = [
            Member(Genotype(((f"c0_{i % 3}",), (f"c1_{i % 3}",))), recorded_error=float(i))
            for i in range(8)
        ]
        config = make_config()
        new, pool_size = next_generation(population, schema, config, rng)
        assert len(new) == config.population_size
        assert pool_size == 3  # ceil(0.33 * 8)
        new_keys = [canonical_key(m.genotype) for m in new]
        assert canonical_key(population[0].genotype) in new_keys[:2]
        assert canonical_key(population[1].genotype) in new_keys[:2]
        assert all(m.recorded_error is None for m in new)

    def test_zero_elites_all_offspring(self):
        schema = build_schema(category_sizes=(3, 3))
        population = [
            Member(Genotype((("c0_0",), ("c1_0",))), recorded_error=float(i)) for i in range(6)
        ]
        new, _ = next_generation(population, schema, make_config(population_size=6, elites=0), Random(1))
        assert len(new) == 6

    def test_pool_of_one_degenerates_to_mutated_copies(self):
        schema = build_schema(category_sizes=(1, 1))  # mutation cannot change anything
        population = [
            Member(Genotype((("c0_0",), ("c1_0",))), recorded_error=1.0),
            Member(Genotype((("c0_0",), ("c1_0",))), recorded_error=2.0),
        ]
        config = make_config(population_size=2, elites=0, mode=Mode.FIXED)
        new, pool_size = next_generation(population, schema, config, Random(3))
        assert pool_size == 1
        assert all(m.genotype == population[0].genotype for m in new)

    @pytest.mark.parametrize(
        "errors, message",
        [([1.0, None, 2.0], "population must be evaluated before selection"),
         ([], "parent pool is empty")],
        ids=["unevaluated", "empty"],
    )
    def test_refuses_what_selection_refuses(self, errors, message):
        # Elites and parents come from one ranking, which keeps both refusals.
        population = [Member(Genotype((("c0_0",), ("c1_0",))), recorded_error=e) for e in errors]
        with pytest.raises(ValueError) as exc_info:
            next_generation(population, build_schema(), make_config(), Random(0))
        assert str(exc_info.value) == message

    def test_fixed_mode_closure(self):
        schema = build_schema(category_sizes=(4, 4, 4))
        rng = Random(2)
        population = [
            Member(Genotype(tuple((c.cues[i % 4],) for c in schema.categories)), recorded_error=float(i))
            for i in range(8)
        ]
        config = make_config(mode=Mode.FIXED)
        for _ in range(5):
            population, _ = next_generation(population, schema, config, rng)
            for member in population:
                assert all(len(ch) == 1 for ch in member.genotype.chromosomes)
                member.recorded_error = rng.random()


class FailsOnBuilding(PerfectEvaluator):
    """Exact everywhere but on one building, where every estimate fails."""

    def __init__(self, building_id: str):
        self.building_id = building_id

    def evaluate(self, request: EvaluationRequest):
        if request.building.id == self.building_id:
            raise EvaluationFailure(f"no estimate for {self.building_id}")
        return super().evaluate(request)


class TestEvaluateGenotype:
    def test_penalty_applied_on_permanent_failure(self, caplog):
        # A failed pair costs its member the penalty in a run, with one warning
        # per failed pair, logged on the run's thread in building order.
        config = make_config(generations=0, evaluation_concurrency=3)
        records = [build_record("b0"), build_record("b1"), build_record("b2")]
        with caplog.at_level("WARNING", logger="clear_ga.engine"):
            result = evolve(config, build_schema(), FailsOnBuilding("b1"), records)
        penalty = failure_penalty(DataItem.ENERGY)
        assert result.per_generation_log[0].errors == [penalty] * config.population_size
        assert [r.getMessage() for r in caplog.records] == [
            "building b1: estimate unavailable, charging failure penalty"
        ] * config.population_size
        assert {r.thread for r in caplog.records} == {threading.get_ident()}

    def test_failed_pairs_warn_once_each_in_building_order(self, caplog):
        # A row with two failed pairs is scored pair by pair: both penalties,
        # and a warning for each failed pair, b1's before b3's.
        class FailsOnTwo(PerfectEvaluator):
            def evaluate(self, request):
                if request.building.id in ("b1", "b3"):
                    raise EvaluationFailure("no estimate")
                return super().evaluate(request)

        config = make_config(generations=0)
        records = [build_record(f"b{i}") for i in range(5)]
        with caplog.at_level("WARNING", logger="clear_ga.engine"):
            result = evolve(config, build_schema(), FailsOnTwo(), records)
        penalty = failure_penalty(DataItem.ENERGY)
        assert result.per_generation_log[0].errors == [2 * penalty] * config.population_size
        assert [r.getMessage() for r in caplog.records] == [
            "building b1: estimate unavailable, charging failure penalty",
            "building b3: estimate unavailable, charging failure penalty",
        ] * config.population_size

    def test_failure_free_oracle_generations_call_no_building_error(self, monkeypatch):
        # Each member's row is scored at once; building_error is the pair path's.
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(engine, "building_error", counted("engine", engine.building_error))
        monkeypatch.setattr(items, "building_error", counted("items", items.building_error))
        records = [build_record(f"b{i}") for i in range(4)]
        result = evolve(make_config(generations=3), build_schema(),
                        OracleEvaluator(make_landscape(noise=0.5)), records)
        assert len(result.per_generation_log) == 4
        assert calls == Counter()
        # The counters see the pair path: a row with a failed pair takes it.
        evolve(make_config(generations=0), build_schema(), FailsOnBuilding("b1"), records)
        assert calls == Counter(engine=3 * make_config().population_size)

    def test_raise_mode_propagates(self):
        # evaluate_genotype hands a failed pair's exception back in the
        # pair's place, and estimates every other pair.
        g = Genotype((("c0_0",), ("c1_1",)))
        records = [build_record("b0"), build_record("b1"), build_record("b2")]
        [estimates] = evaluate_genotype([(g, 0)], records, DataItem.ENERGY, FailsOnBuilding("b1"))
        assert estimates[0] == estimates[2] == 120.0
        assert isinstance(estimates[1], EvaluationFailure)
        assert str(estimates[1]) == "no estimate for b1"


class TestTracerContract:
    """A wrapper set on ``engine.evaluate_genotype``, as the benchmark's tracer
    sets it, is called once per evaluated generation, and every estimator send
    of the run happens inside that call."""

    @pytest.mark.parametrize("backend", ["oracle", "llm"])
    def test_one_wrapped_call_per_generation(self, monkeypatch, backend):
        calls, inside, sends_outside = [], [0], []
        score = engine.evaluate_genotype

        def traced(jobs, *args, **kwargs):
            calls.append(len(jobs))
            inside[0] += 1
            try:
                return score(jobs, *args, **kwargs)
            finally:
                inside[0] -= 1

        def answer(prompt, images):
            if not inside[0]:
                sends_outside.append(prompt)
            return f"### {100 + len(prompt) % 7} ###"

        monkeypatch.setattr(engine, "evaluate_genotype", traced)
        config = make_config(generations=4, evaluation_concurrency=3)
        if backend == "oracle":
            evaluator = OracleEvaluator(make_landscape(noise=0.5))
        else:
            evaluator = LlmEvaluator(FunctionTransport(answer))
        records = [build_record(f"b{i}", region=f"region{i}") for i in range(3)]
        result = evolve(config, build_schema(), evaluator, records)
        assert len(result.per_generation_log) == config.generations + 1
        assert calls == [config.population_size] * len(result.per_generation_log)
        assert sends_outside == []


class TestEvolve:
    def test_perfect_evaluator_terminates_after_generation_zero(self):
        schema = build_schema(category_sizes=(3, 3))
        result = evolve(make_config(), schema, PerfectEvaluator(), [build_record()])
        assert result.completed
        assert result.best_recorded_error == 0.0
        assert len(result.per_generation_log) == 1
        assert result.per_generation_log[0].perfect

    def test_log_length_bounded_by_generations_plus_one(self):
        schema = build_schema(category_sizes=(3, 3))
        config = make_config(generations=6, seed=3)
        evaluator = OracleEvaluator(make_landscape(noise=1.0))
        result = evolve(config, schema, evaluator, [build_record()])
        assert len(result.per_generation_log) <= config.generations + 1
        for stats in result.per_generation_log:
            assert len(stats.errors) == config.population_size
            assert len(stats.chromosome_mean_cue_counts) == schema.category_count

    def test_seed_determinism(self):
        schema = build_schema(category_sizes=(3, 3))
        evaluator = OracleEvaluator(make_landscape(noise=0.8, seed=4))
        runs = [
            evolve(make_config(seed=9), schema, evaluator, [build_record()]) for _ in range(2)
        ]
        assert runs[0].best_genotype == runs[1].best_genotype
        assert [s.to_json_obj() for s in runs[0].per_generation_log] == [
            s.to_json_obj() for s in runs[1].per_generation_log
        ]

    def test_concurrency_does_not_change_results(self):
        schema = build_schema(category_sizes=(3, 3))
        evaluator = OracleEvaluator(make_landscape(noise=0.8, seed=4))
        records = [build_record("b1"), build_record("b2", energy_kwh_m2=90.0)]
        serial = evolve(make_config(seed=11, evaluation_concurrency=1), schema, evaluator, records)
        threaded = evolve(make_config(seed=11, evaluation_concurrency=8), schema, evaluator, records)
        assert serial.best_genotype == threaded.best_genotype
        assert serial.best_recorded_error == threaded.best_recorded_error
        assert [s.to_json_obj() for s in serial.per_generation_log] == [
            s.to_json_obj() for s in threaded.per_generation_log
        ]

    def test_elites_reevaluated_every_generation(self):
        schema = build_schema(category_sizes=(3, 3))
        evaluator = OracleEvaluator(make_landscape(noise=0.5, seed=2))
        run = EvolutionRun(make_config(seed=5), schema, evaluator, [build_record()])
        history: list[dict] = []

        def snapshot(stats, population):
            keys = [canonical_key(m.genotype) for m in population]
            history.append(
                {
                    "top2": [
                        canonical_key(m.genotype)
                        for m in sorted(population, key=lambda m: m.recorded_error)[:2]
                    ],
                    "keys": keys,
                    "evaluations": {k: run.ledger.evaluations(k) for k in keys},
                }
            )

        run.run(on_generation=snapshot)
        for previous, current in zip(history, history[1:]):
            for key in previous["top2"]:
                assert key in current["keys"]
                assert current["evaluations"][key] > previous["evaluations"][key]

    def test_recorded_error_monotone_per_key(self):
        schema = build_schema(category_sizes=(3, 3))
        evaluator = OracleEvaluator(make_landscape(noise=1.5, seed=8))
        run = EvolutionRun(make_config(seed=6, generations=8), schema, evaluator, [build_record()])
        worst_seen: dict[str, float] = {}

        def check(stats, population):
            for member in population:
                key = canonical_key(member.genotype)
                if key in worst_seen:
                    assert member.recorded_error >= worst_seen[key]
                worst_seen[key] = member.recorded_error

        run.run(on_generation=check)

    def test_schema_item_mismatch_rejected(self):
        schema = build_schema(item=DataItem.WINDOWS, category_sizes=(3, 3))
        with pytest.raises(ValueError, match="schema is for"):
            EvolutionRun(make_config(), schema, PerfectEvaluator(), [build_record()])

    def test_population_invariants_throughout(self):
        schema = build_schema(category_sizes=(3, 3))
        evaluator = OracleEvaluator(make_landscape(noise=1.0, seed=1))
        config = make_config(seed=7)
        sizes = []

        def collect(stats, population):
            sizes.append(len(population))
            for member in population:
                assert len(member.genotype.chromosomes) == schema.category_count

        evolve(config, schema, evaluator, [build_record()], on_generation=collect)
        assert set(sizes) == {config.population_size}


class TestCheckpointResume:
    def paths(self, tmp_path, name):
        return str(tmp_path / f"{name}.checkpoint.json"), str(tmp_path / f"{name}.log.jsonl")

    def run_setup(self, tmp_path, name, **overrides):
        checkpoint, log_path = self.paths(tmp_path, name)
        config = make_config(
            generations=10, seed=13, checkpoint_path=checkpoint, log_path=log_path, **overrides
        )
        schema = build_schema(category_sizes=(3, 3))
        evaluator = OracleEvaluator(make_landscape(noise=0.7, seed=3))
        return config, schema, evaluator, [build_record()]

    def test_pause_and_resume_matches_uninterrupted(self, tmp_path):
        config_a, schema, evaluator, records = self.run_setup(tmp_path, "full")
        full = evolve(config_a, schema, evaluator, records)

        config_b, _, _, _ = self.run_setup(tmp_path, "paused")
        partial = evolve(config_b, schema, evaluator, records, stop_after_generation=3)
        assert not partial.completed
        doc = json.loads(Path(config_b.checkpoint_path).read_text(encoding="utf-8"))
        resumed_run = EvolutionRun.resume(doc, schema, evaluator, records)
        resumed = resumed_run.run()
        assert resumed.completed
        assert resumed.best_genotype == full.best_genotype
        assert resumed.best_recorded_error == full.best_recorded_error
        assert [s.to_json_obj() for s in resumed.per_generation_log] == [
            s.to_json_obj() for s in full.per_generation_log
        ]
        full_log = Path(config_a.log_path).read_text(encoding="utf-8")
        paused_log = Path(config_b.log_path).read_text(encoding="utf-8")
        assert paused_log.replace("paused", "full") == full_log

    def test_fresh_state_checkpoint_reproduces_generation_zero(self, tmp_path):
        config, schema, evaluator, records = self.run_setup(tmp_path, "fresh")
        run = EvolutionRun(config, schema, evaluator, records)
        doc = run.checkpoint_obj()  # before any evaluation
        direct = run.run()
        resumed = EvolutionRun.resume(doc, schema, evaluator, records).run()
        assert [s.to_json_obj() for s in resumed.per_generation_log] == [
            s.to_json_obj() for s in direct.per_generation_log
        ]

    def test_tampered_population_size_refused(self, tmp_path):
        config, schema, evaluator, records = self.run_setup(tmp_path, "tamper")
        evolve(config, schema, evaluator, records, stop_after_generation=2)
        doc = json.loads(Path(config.checkpoint_path).read_text(encoding="utf-8"))
        doc["config"]["population_size"] = 12
        with pytest.raises(ConfigMismatchError):
            EvolutionRun.resume(doc, schema, evaluator, records)

    def test_changed_schema_digest_refused(self, tmp_path):
        config, schema, evaluator, records = self.run_setup(tmp_path, "digest")
        config.schema_sha256 = "abc"
        evolve(config, schema, evaluator, records, stop_after_generation=2)
        doc = json.loads(Path(config.checkpoint_path).read_text(encoding="utf-8"))
        with pytest.raises(ConfigMismatchError, match="schema"):
            EvolutionRun.resume(doc, schema, evaluator, records, schema_sha256="different")

    def test_changed_landscape_digest_refused(self, tmp_path):
        config, schema, evaluator, records = self.run_setup(tmp_path, "landscape")
        config.landscape_sha256 = "abc"
        evolve(config, schema, evaluator, records, stop_after_generation=2)
        doc = json.loads(Path(config.checkpoint_path).read_text(encoding="utf-8"))
        with pytest.raises(ConfigMismatchError, match="landscape"):
            EvolutionRun.resume(doc, schema, evaluator, records, landscape_sha256="different")

    def test_fields_at_their_defaults_leave_the_digest_as_it_was(self):
        # Digests of configs written before train_fraction and
        # landscape_sha256 existed; their checkpoints must stay resumable.
        assert RunConfig(data_item="energy").digest() == (
            "c5eb4b9c97209071b196929795595e7442ae8a98ee83cba0d6ac094015d18be8"
        )
        pinned = RunConfig(data_item="windows", mode="fixed", seed=4, schema_sha256="ab",
                           dataset_sha256="cd", train_fraction=0.6, landscape_sha256="")
        assert pinned.digest() == (
            "7cc91d496dbec94865825c9c9feb1623e65598c4d80d1ae2045672a4a35ac98e"
        )
        digests = {
            RunConfig(data_item="energy", **change).digest()
            for change in ({}, {"train_fraction": 0.5}, {"landscape_sha256": "ef"})
        }
        assert len(digests) == 3

    def test_llm_endpoint_is_outside_the_digest(self):
        # A run may be resumed against another endpoint, and checkpoints
        # written before the field existed stay resumable.
        assert RunConfig(data_item="energy", llm_endpoint="http://x").digest() == (
            "c5eb4b9c97209071b196929795595e7442ae8a98ee83cba0d6ac094015d18be8"
        )

    def test_resume_of_completed_run_is_noop(self, tmp_path):
        config, schema, evaluator, records = self.run_setup(tmp_path, "done")
        finished = evolve(config, schema, evaluator, records)
        doc = json.loads(Path(config.checkpoint_path).read_text(encoding="utf-8"))
        resumed_run = EvolutionRun.resume(doc, schema, evaluator, records)
        before = copy.deepcopy(resumed_run.ledger.to_json_obj())
        result = resumed_run.run()
        assert result.completed
        assert resumed_run.ledger.to_json_obj() == before  # nothing re-evaluated
        assert [s.to_json_obj() for s in result.per_generation_log] == [
            s.to_json_obj() for s in finished.per_generation_log
        ]

    def test_corrupt_checkpoint_rejected(self):
        with pytest.raises(Exception) as exc_info:
            EvolutionRun.resume({"format": "clear-ga/checkpoint/1"}, None, None, [])
        assert "corrupt" in str(exc_info.value) or "checkpoint" in str(exc_info.value)

    def test_genotype_rows_that_are_not_chromosome_lists_refused(self, tmp_path):
        config, schema, evaluator, records = self.run_setup(tmp_path, "rows")
        evolve(config, schema, evaluator, records, stop_after_generation=2)
        doc = load_checkpoint_file(config.checkpoint_path)
        assert doc["genotypes"]
        for row in doc["genotypes"]:
            row["chromosomes"] = 5
        with pytest.raises(CheckpointError, match="corrupt checkpoint document"):
            EvolutionRun.resume(doc, schema, evaluator, records)
        for rows in ([["c0_0"]], [["c0_0"], "c1_1"], [{"c0_0": 0}, []]):
            doc = load_checkpoint_file(config.checkpoint_path)
            doc["genotypes"][-1]["chromosomes"] = rows
            with pytest.raises(CheckpointError, match="corrupt checkpoint document"):
                EvolutionRun.resume(doc, schema, evaluator, records)

    def paused_document(self, tmp_path, name):
        """A 10-generation run paused after generation 3, and its checkpoint as loaded."""
        config, schema, evaluator, records = self.run_setup(tmp_path, name)
        evolve(config, schema, evaluator, records, stop_after_generation=3)
        return load_checkpoint_file(config.checkpoint_path), schema, evaluator, records

    @staticmethod
    def drop_best_genotype(doc):
        best = min(doc["ledger"], key=lambda row: row["worst_error"])["key"]
        doc["genotypes"] = [row for row in doc["genotypes"] if row["key"] != best]

    @staticmethod
    def swap_two_genotypes(doc):
        rows = doc["genotypes"]
        rows[0], rows[-1] = rows[-1], rows[0]

    @staticmethod
    def rename_a_genotype(doc):
        doc["genotypes"][1]["key"] = '[["c0_0"],["c1_2"],["renamed"]]'

    @pytest.mark.parametrize("damage", ["drop_best_genotype", "swap_two_genotypes",
                                        "rename_a_genotype"])
    def test_genotype_rows_that_do_not_join_the_ledger_refused(self, tmp_path, damage):
        doc, schema, evaluator, records = self.paused_document(tmp_path, damage)
        assert len(doc["genotypes"]) == len(doc["ledger"]) > 2
        getattr(self, damage)(doc)
        with pytest.raises(CheckpointError, match="corrupt checkpoint document: ledger and genotype"):
            EvolutionRun.resume(doc, schema, evaluator, records)

    @pytest.mark.parametrize(
        "column, value",
        [
            ("worst_error", "5"),
            ("worst_error", True),
            ("worst_error", -1.0),
            ("worst_error", float("nan")),
            ("worst_error", float("inf")),
            pytest.param("worst_error", 10**400, id="worst_error-10**400"),
            ("evaluations", 1.5),
            ("evaluations", 0),
            ("evaluations", True),
            ("first_seen_generation", -1),
            ("first_seen_generation", 2.0),
            ("first_seen_generation", None),
        ],
    )
    def test_ledger_values_record_cannot_keep_refused(self, tmp_path, column, value):
        doc, schema, evaluator, records = self.paused_document(tmp_path, "column")
        doc["ledger"][len(doc["ledger"]) // 2][column] = value
        with pytest.raises(CheckpointError, match=f"corrupt checkpoint document: a ledger {column}"):
            EvolutionRun.resume(doc, schema, evaluator, records)

    @pytest.mark.parametrize("value", ["3", 3.0, -1, True, None])
    def test_generation_that_is_not_a_count_refused(self, tmp_path, value):
        doc, schema, evaluator, records = self.paused_document(tmp_path, "generation")
        doc["generation"] = value
        with pytest.raises(CheckpointError, match="corrupt checkpoint document: generation"):
            EvolutionRun.resume(doc, schema, evaluator, records)

    @pytest.mark.parametrize("value", [5, 1])
    def test_generation_the_log_does_not_end_at_refused(self, tmp_path, value):
        doc, schema, evaluator, records = self.paused_document(tmp_path, "ahead")
        assert [row["generation"] for row in doc["log"]] == [0, 1, 2, 3]
        doc["generation"] = value
        with pytest.raises(CheckpointError,
                           match=f"corrupt checkpoint document: generation {value} is not"):
            EvolutionRun.resume(doc, schema, evaluator, records)

    @staticmethod
    def relabel_the_last_row(log):
        log[-1]["generation"] = 7

    @staticmethod
    def drop_a_middle_row(log):
        del log[2]

    @staticmethod
    def swap_two_rows(log):
        log[1], log[2] = log[2], log[1]

    @staticmethod
    def start_at_one(log):
        for row in log:
            row["generation"] += 1

    @pytest.mark.parametrize("damage", ["relabel_the_last_row", "drop_a_middle_row",
                                        "swap_two_rows", "start_at_one"])
    def test_log_rows_not_numbered_in_order_refused(self, tmp_path, damage):
        doc, schema, evaluator, records = self.paused_document(tmp_path, damage)
        getattr(self, damage)(doc["log"])
        with pytest.raises(CheckpointError,
                           match="corrupt checkpoint document: log rows are not numbered"):
            EvolutionRun.resume(doc, schema, evaluator, records)

    @staticmethod
    def ledger_worst(doc, member):
        key = canonical_key(Genotype(member["chromosomes"]))
        return next(row["worst_error"] for row in doc["ledger"] if row["key"] == key)

    @pytest.mark.parametrize("value", ["5", 0.0, None, float("nan")])
    def test_recorded_error_other_than_the_ledgers_refused(self, tmp_path, value):
        doc, schema, evaluator, records = self.paused_document(tmp_path, "error")
        member = doc["population"][len(doc["population"]) // 2]
        assert member["recorded_error"] == self.ledger_worst(doc, member) > 0.0
        member["recorded_error"] = value
        with pytest.raises(CheckpointError,
                           match="corrupt checkpoint document: a member's recorded_error"):
            EvolutionRun.resume(doc, schema, evaluator, records)

    @pytest.mark.parametrize("value", ["no", False, 1])
    def test_evaluated_other_than_whether_the_log_has_a_row_refused(self, tmp_path, value):
        doc, schema, evaluator, records = self.paused_document(tmp_path, "evaluated")
        assert doc["evaluated"] is True and doc["log"]
        doc["evaluated"] = value
        with pytest.raises(CheckpointError, match=f"corrupt checkpoint document: evaluated "
                                                  f"{value!r} is not whether the log has a row"):
            EvolutionRun.resume(doc, schema, evaluator, records)

    @staticmethod
    def score_every_member_99(row):
        row["errors"] = [99.0] * 8

    @staticmethod
    def claim_a_best_ever_of_one_half(row):
        row["best_ever_error"] = 0.5

    @staticmethod
    def drop_the_parent_pool_size(row):
        row["parent_pool_size"] = None

    @pytest.mark.parametrize("damage", ["score_every_member_99", "claim_a_best_ever_of_one_half",
                                        "drop_the_parent_pool_size"])
    def test_last_log_row_other_than_the_state_gives_refused(self, tmp_path, damage):
        doc, schema, evaluator, records = self.paused_document(tmp_path, damage)
        row = doc["log"][-1]
        assert len(row["errors"]) == 8 and row["best_ever_error"] != 0.5
        assert row["parent_pool_size"] == 3
        getattr(self, damage)(row)
        with pytest.raises(CheckpointError, match="corrupt checkpoint document: the last log row "
                                                  "is not the one the members, ledger and config"):
            EvolutionRun.resume(doc, schema, evaluator, records)

    def test_member_whose_key_the_ledger_lacks_refused(self, tmp_path):
        doc, schema, evaluator, records = self.paused_document(tmp_path, "unrecorded")
        keys = {row["key"] for row in doc["ledger"]}
        # Every cue subset of each of the two three-cue categories.
        firsts, seconds = (
            [[cue for bit, cue in enumerate(category.cues) if mask >> bit & 1] for mask in range(8)]
            for category in schema.categories
        )
        unrecorded = next(
            [first, second] for first in firsts for second in seconds
            if canonical_key(Genotype([first, second])) not in keys
        )
        doc["population"][-1] = {"chromosomes": unrecorded, "recorded_error": 1.0}
        with pytest.raises(CheckpointError, match="corrupt checkpoint document: a member's "
                                                  "genotype key is not in the ledger"):
            EvolutionRun.resume(doc, schema, evaluator, records)

    @staticmethod
    def add_a_cue_the_schema_lacks(population):
        population[0]["chromosomes"][1].append("zzz")

    @staticmethod
    def drop_a_chromosome(population):
        population[0]["chromosomes"].pop()

    @staticmethod
    def keep_three_members(population):
        del population[3:]

    @pytest.mark.parametrize(
        "damage, problem",
        [
            ("add_a_cue_the_schema_lacks", "chromosome 1: cue 'zzz' not in category 'cat1'"),
            ("drop_a_chromosome", "genotype has 1 chromosomes, schema has 2 categories"),
            ("keep_three_members", "population has 3 members, not population_size 8"),
        ],
        ids=["add_a_cue_the_schema_lacks", "drop_a_chromosome", "keep_three_members"],
    )
    def test_population_no_run_writes_refused(self, tmp_path, damage, problem):
        doc, schema, evaluator, records = self.paused_document(tmp_path, damage)
        getattr(self, damage)(doc["population"])
        with pytest.raises(CheckpointError, match=f"corrupt checkpoint document: {problem}"):
            EvolutionRun.resume(doc, schema, evaluator, records)

    def test_fixed_mode_member_of_two_cues_refused(self, tmp_path):
        config, schema, evaluator, records = self.run_setup(tmp_path, "fixed", mode=Mode.FIXED)
        evolve(config, schema, evaluator, records, stop_after_generation=3)
        doc = load_checkpoint_file(config.checkpoint_path)
        doc["population"][0]["chromosomes"][0] = ["c0_0", "c0_1"]
        with pytest.raises(CheckpointError, match="corrupt checkpoint document: chromosome 0: "
                                                  "fixed-length genotype must hold exactly 1 cue"):
            EvolutionRun.resume(doc, schema, evaluator, records)

    @pytest.mark.parametrize("value", [3.0, "3", -1, True, None])
    def test_log_row_generation_that_is_not_a_count_refused(self, tmp_path, value):
        doc, schema, evaluator, records = self.paused_document(tmp_path, "row-generation")
        doc["log"][-1]["generation"] = value
        problem = f"generation {value!r} is not an integer >= 0"
        with pytest.raises(CheckpointError, match=f"corrupt checkpoint document: {problem}"):
            EvolutionRun.resume(doc, schema, evaluator, records)
        with pytest.raises(ValueError, match=problem):
            engine.GenerationStats.from_json_obj(doc["log"][-1])

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("errors", ["x"], "errors must be numbers"),
            ("errors", [], "errors must be a non-empty list"),
            ("errors", [1.0, float("inf")], "errors must be finite"),
            ("best_ever_error", "1.0", "best_ever_error '1.0' is not a finite number"),
            ("perfect", "no", "perfect 'no' is not a bool"),
            ("perfect", 0, "perfect 0 is not a bool"),
            ("mean_cue_count", "x", "mean_cue_count 'x' is not a finite number >= 0"),
            ("mean_cue_count", -0.5, "mean_cue_count -0.5 is not a finite number >= 0"),
            ("mean_cue_count", float("nan"), "mean_cue_count nan is not a finite number >= 0"),
            ("chromosome_mean_cue_counts", "abc",
             "chromosome_mean_cue_counts must be a non-empty list of finite numbers >= 0"),
            ("chromosome_mean_cue_counts", [],
             "chromosome_mean_cue_counts must be a non-empty list of finite numbers >= 0"),
            ("chromosome_mean_cue_counts", [1.0, float("inf")],
             "chromosome_mean_cue_counts must be a non-empty list of finite numbers >= 0"),
            ("parent_pool_size", True, "parent_pool_size True is not null or an integer >= 1"),
            ("parent_pool_size", 0, "parent_pool_size 0 is not null or an integer >= 1"),
            ("parent_pool_size", "3", "parent_pool_size '3' is not null or an integer >= 1"),
        ],
    )
    def test_log_rows_report_cannot_read_refused(self, tmp_path, field, value, problem):
        doc, schema, evaluator, records = self.paused_document(tmp_path, "row")
        doc["log"][-1][field] = value
        with pytest.raises(CheckpointError, match=f"corrupt checkpoint document: {problem}"):
            EvolutionRun.resume(doc, schema, evaluator, records)
        # report refuses the same row, in the same words.
        with pytest.raises(ValueError, match=problem):
            engine.GenerationStats.from_json_obj(doc["log"][-1])

    @pytest.mark.parametrize("row", [5, [1], None])
    def test_log_row_that_is_not_an_object_refused(self, tmp_path, row):
        doc, schema, evaluator, records = self.paused_document(tmp_path, "object")
        doc["log"][-1] = row
        with pytest.raises(CheckpointError, match="corrupt checkpoint document: .* not an object"):
            EvolutionRun.resume(doc, schema, evaluator, records)

    def test_hard_failure_aborts_with_resumable_state(self, tmp_path):
        config, schema, evaluator, records = self.run_setup(tmp_path, "abort")
        population = config.population_size
        flaky = FlakyEvaluator(evaluator, fail_from_eval=population * 3 + 2)
        with pytest.raises(RunAborted) as exc_info:
            evolve(config, schema, flaky, records)
        assert exc_info.value.checkpoint_path == config.checkpoint_path
        doc = load_checkpoint_file(config.checkpoint_path)
        resumed = EvolutionRun.resume(doc, schema, evaluator, records).run()
        assert resumed.completed

        config_ref, _, _, _ = self.run_setup(tmp_path, "abort-ref")
        reference = evolve(config_ref, schema, evaluator, records)
        assert [s.to_json_obj() for s in resumed.per_generation_log] == [
            s.to_json_obj() for s in reference.per_generation_log
        ]


class WorseningEvaluator:
    """Estimates drift further from the truth with every re-evaluation of a genotype."""

    def evaluate(self, request: EvaluationRequest):
        return float(request.building.truth.energy_kwh_m2) + 10.0 * (request.eval_counter + 1)


class CueCountEvaluator:
    """Error falls with every cue, so the best genotypes hold several cues a
    chromosome, in whatever order they were bred; zero is out of reach."""

    def evaluate(self, request: EvaluationRequest):
        return float(request.building.truth.energy_kwh_m2) + 13 - request.genotype.cue_count()


class TestCheckpointWrites:
    """The checkpoint on disk equals the reference serialization: loaded, after
    every generation, and byte for byte at a pause and at the end."""

    def make_run(self, tmp_path, name, evaluator=None, **overrides):
        values = dict(
            generations=9, seed=17, checkpoint_path=str(tmp_path / f"{name}.checkpoint.json"),
            log_path=str(tmp_path / f"{name}.log.jsonl"),
        )
        values.update(overrides)
        schema = build_schema(category_sizes=(4, 4, 4))
        if evaluator is None:
            evaluator = OracleEvaluator(make_landscape(noise=0.7, seed=3, base=8.0))
        records = [build_record(), build_record("b2")]
        return EvolutionRun(make_config(**values), schema, evaluator, records), schema, records

    def checked_run(self, run, written: list[int], files: dict | None = None, **kwargs):
        """Run, asserting after every generation that the checkpoint loads as
        ``checkpoint_obj``, and when the run returns that the file holds it;
        ``files``, if given, maps each generation to the file's bytes then."""

        def check(stats, population):
            assert load_checkpoint_file(run.config.checkpoint_path) == as_loaded(
                run.checkpoint_obj()
            )
            written.append(stats.generation)
            if files is not None:
                files[stats.generation] = Path(run.config.checkpoint_path).read_bytes()

        result = run.run(on_generation=check, **kwargs)
        expected = json.dumps(run.checkpoint_obj()) + "\n"
        assert Path(run.config.checkpoint_path).read_bytes() == expected.encode("utf-8")
        return result

    @pytest.mark.parametrize("mode", [Mode.FIXED, Mode.VARIABLE])
    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_bytes_equal_reference_after_every_generation(self, tmp_path, mode, concurrency):
        run, _, _ = self.make_run(tmp_path, "run", mode=mode, evaluation_concurrency=concurrency)
        written: list[int] = []
        result = self.checked_run(run, written)
        assert result.completed
        assert written == list(range(10))

    def test_bytes_equal_reference_across_two_resumes(self, tmp_path):
        full, _, _ = self.make_run(tmp_path, "full")
        full.run()
        run, schema, records = self.make_run(tmp_path, "paused")
        evaluator = run.evaluator
        written: list[int] = []
        for stop in (3, 6, None):
            if stop != 3:
                doc = json.loads(Path(run.config.checkpoint_path).read_text(encoding="utf-8"))
                run = EvolutionRun.resume(doc, schema, evaluator, records)
            result = self.checked_run(run, written, stop_after_generation=stop)
        assert result.completed
        assert written == list(range(10))
        paused = Path(run.config.checkpoint_path).read_text(encoding="utf-8")
        uninterrupted = Path(full.config.checkpoint_path).read_text(encoding="utf-8")
        assert paused.replace("paused", "full") == uninterrupted

    def test_same_run_appends_after_its_own_pause_snapshot(self, tmp_path):
        run, _, _ = self.make_run(tmp_path, "run")
        written: list[int] = []
        assert not self.checked_run(run, written, stop_after_generation=3).completed
        paused = Path(run.config.checkpoint_path).read_bytes()
        files: dict[int, bytes] = {}
        assert self.checked_run(run, written, files).completed
        assert written == list(range(10))
        # Generation 4 went on as one record after the pause snapshot.
        assert files[4].startswith(paused) and files[4].count(b"\n") == 2

    @pytest.mark.parametrize("mode", [Mode.FIXED, Mode.VARIABLE])
    def test_resume_from_the_in_memory_checkpoint_equals_the_uninterrupted_run(
        self, tmp_path, mode
    ):
        full, _, _ = self.make_run(tmp_path, "full", mode=mode)
        full.run()
        run, schema, records = self.make_run(tmp_path, "part", mode=mode)
        assert not run.run(stop_after_generation=3).completed
        doc = run.checkpoint_obj()  # the run's tuples, never encoded
        assert isinstance(doc["genotypes"][0]["chromosomes"], tuple)
        assert EvolutionRun.resume(doc, schema, run.evaluator, records).run().completed
        for name in ("checkpoint.json", "log.jsonl"):
            part = (tmp_path / f"part.{name}").read_text(encoding="utf-8")
            assert part.replace("part", "full") == (tmp_path / f"full.{name}").read_text(
                encoding="utf-8"
            )

    def test_reevaluated_elite_shows_new_worst_error(self, tmp_path):
        run, _, _ = self.make_run(tmp_path, "worse", evaluator=WorseningEvaluator(), generations=4)
        snapshots: list[tuple[list[str], dict[str, dict]]] = []

        def capture(stats, population):
            doc = load_checkpoint_file(run.config.checkpoint_path)
            ranked = sorted(population, key=lambda m: m.recorded_error)
            elites = [canonical_key(m.genotype) for m in ranked[: run.config.elites]]
            snapshots.append((elites, {row["key"]: row for row in doc["ledger"]}))

        run.run(on_generation=capture)
        assert len(snapshots) == 5
        for (elites, before), (_, after) in zip(snapshots, snapshots[1:]):
            for key in elites:
                assert after[key]["worst_error"] > before[key]["worst_error"]
                assert after[key]["evaluations"] > before[key]["evaluations"]
        final = snapshots[-1][1]
        for key, entry in run.ledger.entries.items():
            assert final[key]["worst_error"] == entry.worst_error
            assert final[key]["evaluations"] == entry.evaluations

    def test_key_of_genotype_rebuilt_from_checkpoint_equals_original(self, tmp_path):
        run, schema, records = self.make_run(tmp_path, "keys")
        run.run(stop_after_generation=2)
        doc = json.loads(Path(run.config.checkpoint_path).read_text(encoding="utf-8"))
        resumed = EvolutionRun.resume(doc, schema, run.evaluator, records)
        assert [canonical_key(m.genotype) for m in resumed.population] == [
            canonical_key(m.genotype) for m in run.population
        ]
        for key, entry in resumed.ledger.entries.items():
            assert canonical_key(Genotype(entry.chromosomes)) == key == canonical_key(
                Genotype(run.ledger.entries[key].chromosomes)
            )
        shuffled = Genotype((("c0_2", "c0_0"), (), ("c2_1",)))
        rebuilt = Genotype(tuple(tuple(ch) for ch in json.loads(json.dumps(shuffled.chromosomes))))
        assert canonical_key(rebuilt) == canonical_key(shuffled) == '[["c0_0","c0_2"],[],["c2_1"]]'

    def test_resumed_best_genotype_keeps_first_seen_cue_order(self, tmp_path):
        full, schema, records = self.make_run(tmp_path, "full", evaluator=CueCountEvaluator())
        first_seen: dict[str, Genotype] = {}

        def archive(stats, population):
            for member in population:
                first_seen.setdefault(canonical_key(member.genotype), member.genotype)

        expected = full.run(on_generation=archive).best_genotype
        assert expected == first_seen[canonical_key(expected)]
        # An order the canonical key would lose, so the check below can fail.
        assert expected.chromosomes != tuple(tuple(sorted(ch)) for ch in expected.chromosomes)

        run, _, _ = self.make_run(tmp_path, "paused", evaluator=full.evaluator)
        assert not run.run(stop_after_generation=4).completed
        doc = load_checkpoint_file(run.config.checkpoint_path)
        resumed = EvolutionRun.resume(doc, schema, run.evaluator, records).run()
        assert resumed.completed
        assert resumed.best_genotype == expected

    @pytest.mark.parametrize("pause", [True, False])
    def test_checkpoint_of_resumed_run_equals_loaded_document(self, tmp_path, pause):
        run, schema, records = self.make_run(tmp_path, "run")
        if pause:
            run.run(stop_after_generation=4)
        else:
            with pytest.raises(Interrupt):
                run.run(on_generation=interrupt_at(4))  # leaves four records after the snapshot
        doc = load_checkpoint_file(run.config.checkpoint_path)
        expected = copy.deepcopy(doc)
        resumed = EvolutionRun.resume(doc, schema, run.evaluator, records)
        assert as_loaded(resumed.checkpoint_obj()) == expected


class Interrupt(Exception):
    """Stops a run from ``on_generation``, as a crash right after a commit would."""


def interrupt_at(generation: int):
    def on_generation(stats, population):
        if stats.generation == generation:
            raise Interrupt

    return on_generation


class TestJournal:
    """Generations between a run's first commit and its last are appended to
    the checkpoint file, one record line each after the snapshot line."""

    make_run = TestCheckpointWrites.make_run

    def test_torn_last_line_is_ignored_then_cut_off(self, tmp_path):
        full, _, _ = self.make_run(tmp_path, "full")
        full.run()
        run, schema, records = self.make_run(tmp_path, "part")
        path = Path(run.config.checkpoint_path)
        with pytest.raises(Interrupt):
            run.run(on_generation=interrupt_at(3))
        intact = path.read_bytes()
        snapshot, *journal = intact.splitlines()
        assert json.loads(snapshot)["generation"] == 0
        assert len(journal) == 3  # generations 1 to 3
        last = journal[-1]
        path.write_bytes(intact + last[: len(last) // 2])

        doc = load_checkpoint_file(path)
        assert doc == as_loaded(run.checkpoint_obj())
        resumed = EvolutionRun.resume(doc, schema, run.evaluator, records)
        with pytest.raises(Interrupt):
            resumed.run(on_generation=interrupt_at(5))
        # The resumed run appended to the file it was loaded from, torn line cut off.
        appended = path.read_bytes()
        assert appended.startswith(intact) and appended.count(b"\n") == 6
        assert all(json.loads(line) for line in appended.splitlines())
        assert load_checkpoint_file(path) == as_loaded(resumed.checkpoint_obj())

        EvolutionRun.resume(load_checkpoint_file(path), schema, run.evaluator, records).run()
        uninterrupted = Path(full.config.checkpoint_path).read_text(encoding="utf-8")
        assert path.read_text(encoding="utf-8").replace("part", "full") == uninterrupted
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "full.checkpoint.json", "full.log.jsonl", "part.checkpoint.json", "part.log.jsonl",
        ]

    def test_snapshot_of_a_new_run_drops_the_old_runs_records(self, tmp_path):
        old, schema, records = self.make_run(tmp_path, "run", seed=5)
        path = Path(old.config.checkpoint_path)
        with pytest.raises(Interrupt):
            old.run(on_generation=interrupt_at(3))
        assert path.read_bytes().count(b"\n") == 4  # the snapshot and generations 1 to 3

        # A fresh run into the same directory: its first snapshot replaces the file.
        run, _, _ = self.make_run(tmp_path, "run")
        with pytest.raises(Interrupt):
            run.run(on_generation=interrupt_at(1))
        assert path.read_bytes().count(b"\n") == 2  # the snapshot and generation 1
        doc = load_checkpoint_file(path)
        assert doc == as_loaded(run.checkpoint_obj())

        resumed = EvolutionRun.resume(doc, schema, run.evaluator, records)
        with pytest.raises(Interrupt):
            resumed.run(on_generation=interrupt_at(4))
        assert load_checkpoint_file(path) == as_loaded(resumed.checkpoint_obj())

    def test_resumed_run_appends_only_to_the_file_it_loaded(self, tmp_path):
        run, schema, records = self.make_run(tmp_path, "run")
        path = Path(run.config.checkpoint_path)
        with pytest.raises(Interrupt):
            run.run(on_generation=interrupt_at(3))
        copied = tmp_path / "copied.json"
        copied.write_bytes(path.read_bytes())
        doc = load_checkpoint_file(path)
        # The loaded file loses its records before the resumed run's first commit.
        path.write_bytes(path.read_bytes().splitlines(keepends=True)[0])
        resumed = EvolutionRun.resume(doc, schema, run.evaluator, records)
        with pytest.raises(Interrupt):
            resumed.run(on_generation=interrupt_at(4))
        assert load_checkpoint_file(path) == as_loaded(resumed.checkpoint_obj())

        # Loaded from a copy, while the run's own path holds another run's longer file.
        other, _, _ = self.make_run(tmp_path, "run", seed=5)
        with pytest.raises(Interrupt):
            other.run(on_generation=interrupt_at(6))
        resumed = EvolutionRun.resume(load_checkpoint_file(copied), schema, run.evaluator, records)
        with pytest.raises(Interrupt):
            resumed.run(on_generation=interrupt_at(4))
        assert load_checkpoint_file(path) == as_loaded(resumed.checkpoint_obj())

    def test_journal_closed_when_run_returns_pauses_or_raises(self, tmp_path, monkeypatch):
        opened = []

        class RecordingPath(type(Path())):
            def open(self, *args, **kwargs):
                fh = super().open(*args, **kwargs)
                opened.append(fh)
                return fh

        def all_closed(stats, population):
            # No handle is held between commits, so none is open while the
            # callback runs.
            assert opened and all(fh.closed for fh in opened), stats.generation

        def interrupted(stats, population):
            all_closed(stats, population)
            interrupt_at(4)(stats, population)

        monkeypatch.setattr(engine, "Path", RecordingPath)
        for name, kwargs in [
            ("returns", {"on_generation": all_closed}),
            ("pauses", {"on_generation": all_closed, "stop_after_generation": 4}),
            ("raises", {"on_generation": interrupted}),
        ]:
            run, _, _ = self.make_run(tmp_path, name)
            try:
                run.run(**kwargs)
            except Interrupt:
                pass
            journals = [fh for fh in opened if fh.mode == "ab"]
            assert journals and all(fh.closed for fh in opened), name
            opened.clear()


class TestRunLog:
    def test_log_file_structure(self, tmp_path):
        log_path = tmp_path / "run.log.jsonl"
        config = make_config(generations=3, seed=2, log_path=str(log_path))
        schema = build_schema(category_sizes=(3, 3))
        # base above the total benefit keeps zero error unreachable, so the
        # run cannot end at generation 0 via the perfect-fitness rule
        evaluator = OracleEvaluator(make_landscape(noise=0.5, base=8.0))
        evolve(config, schema, evaluator, [build_record()])
        lines = log_path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "config"
        assert header["config"]["population_size"] == config.population_size
        assert header["evaluator"]["backend"] == "oracle"
        rows = [json.loads(line) for line in lines[1:]]
        assert all(row["type"] == "generation" for row in rows)
        assert [row["generation"] for row in rows] == list(range(4))
        assert rows[0]["parent_pool_size"] is None
        assert all(row["parent_pool_size"] == 3 for row in rows[1:])

    def test_generation_rows_identical_across_concurrency(self, tmp_path):
        # the config header echoes the worker count, but every generation
        # record must be byte-identical whatever the fan-out
        row_texts = []
        for concurrency in (1, 8):
            log_path = tmp_path / f"c{concurrency}.jsonl"
            config = make_config(
                generations=5, seed=31, log_path=str(log_path),
                evaluation_concurrency=concurrency,
            )
            schema = build_schema(category_sizes=(3, 3))
            evaluator = OracleEvaluator(make_landscape(noise=1.1, seed=9, base=8.0))
            evolve(config, schema, evaluator, [build_record(), build_record("b2")])
            lines = log_path.read_text(encoding="utf-8").splitlines()
            row_texts.append(lines[1:])
        assert row_texts[0] == row_texts[1]

    def test_identical_logs_across_reruns(self, tmp_path):
        # identical args, same output path: the rewritten file must not change
        log_path = tmp_path / "run.jsonl"
        texts = []
        for _ in range(2):
            config = make_config(generations=4, seed=21, log_path=str(log_path))
            schema = build_schema(category_sizes=(3, 3))
            evaluator = OracleEvaluator(make_landscape(noise=0.9, seed=6))
            evolve(config, schema, evaluator, [build_record()])
            texts.append(log_path.read_text(encoding="utf-8"))
        assert texts[0] == texts[1]

    def test_same_run_continued_after_a_pause_logs_the_uninterrupted_rows(self, tmp_path):
        schema = build_schema(category_sizes=(3, 3))
        evaluator = OracleEvaluator(make_landscape(noise=0.9, seed=6, base=8.0))
        rows = {}
        for name in ("full", "paused"):
            log_path = tmp_path / f"{name}.jsonl"
            config = make_config(generations=8, seed=21, log_path=str(log_path))
            run = EvolutionRun(config, schema, evaluator, [build_record()])
            if name == "paused":
                assert not run.run(stop_after_generation=3).completed
            assert run.run().completed
            rows[name] = log_path.read_text(encoding="utf-8").splitlines()[1:]
        assert rows["paused"] == rows["full"]
        assert len(rows["full"]) == 9
        assert json.loads(rows["paused"][4])["parent_pool_size"] == 3


class OffByOneEvaluator:
    """One unit off the truth, so no run ends early on a perfect score."""

    def evaluate(self, request: EvaluationRequest):
        return float(request.building.truth.energy_kwh_m2) + 1.0


class BarrierEvaluator(OffByOneEvaluator):
    """Answers only once ``parties`` calls are in flight together."""

    def __init__(self, parties: int):
        self.barrier = threading.Barrier(parties, timeout=2)

    def evaluate(self, request: EvaluationRequest):
        self.barrier.wait()
        return super().evaluate(request)


class HardFailOnBuilding(OffByOneEvaluator):
    """Once armed, hard-fails on one building and takes ``delay_s`` on the others.

    Records the building of every call it starts, and the pool thread of each.
    """

    def __init__(self, building_id: str, armed: bool = True, delay_s: float = 0.0):
        self.building_id = building_id
        self.armed = armed
        self.delay_s = delay_s
        self.started: list[str] = []
        self.threads: set[str] = set()
        self._lock = threading.Lock()

    def arm(self) -> None:
        with self._lock:
            self.armed = True
            self.started.clear()

    def evaluate(self, request: EvaluationRequest):
        with self._lock:
            self.started.append(request.building.id)
            self.threads.add(threading.current_thread().name)
            armed = self.armed
        if armed and request.building.id == self.building_id:
            raise BackendHardFailure("endpoint revoked the credentials")
        if armed:
            time.sleep(self.delay_s)
        return super().evaluate(request)


class ScriptedModel:
    """Fake vision model for ``RecordingTransport``, answering from (prompt, images).

    A fifth of the pairs never parse, another fifth answer with a thousands
    separator (which the parser refuses) on their first send only, and the
    rest give an energy figure at once.
    """

    def __init__(self):
        self._sends: Counter = Counter()
        self.answers: Counter = Counter()
        self._lock = threading.Lock()

    def __call__(self, prompt, images) -> str:
        pair = prompt + "|" + "|".join(str(image) for image in images)
        digest = hashlib.sha256(pair.encode("utf-8")).digest()
        kind = ("dead", "flaky")[digest[0] % 5] if digest[0] % 5 < 2 else "good"
        with self._lock:
            self._sends[pair] += 1
            if kind == "flaky" and self._sends[pair] > 1:
                kind = "good"
            self.answers[kind] += 1
        if kind == "dead":
            return "I cannot tell from these photos."
        if kind == "flaky":
            return "### 1,200 kWh/m2 ###"
        return f"### {60 + digest[1]} kWh/m2 ###"


OVER_RANGE = f"### {'9' * 400} kWh/m2 ###"


class TestOverRangeAnswers:
    """An answer past the float range is a parse failure: it is resent, and
    at worst charged the failure penalty, never logged as an infinite error."""

    def llm_run(self, tmp_path, answer):
        config = make_config(
            generations=3, retry_limit=1, log_path=str(tmp_path / "run.log.jsonl"),
            checkpoint_path=str(tmp_path / "checkpoint.json"),
        )
        records = [build_record("b1"), build_record("b2", energy_kwh_m2=90.0)]
        transport = RecordingTransport(answer)
        result = evolve(config, build_schema(), LlmEvaluator(transport, retry_limit=1), records)
        _, rows = load_run_log(config.log_path)
        assert [row.to_json_obj() for row in rows] == [
            row.to_json_obj() for row in result.per_generation_log
        ]
        assert "Infinity" not in Path(config.checkpoint_path).read_text(encoding="utf-8")
        return result, len(transport.calls)

    def test_over_range_answer_is_resent(self, tmp_path):
        answers = iter([OVER_RANGE])
        result, sends = self.llm_run(tmp_path, lambda prompt, images: next(answers, "### 120 ###"))
        pairs = len(result.per_generation_log) * 8 * 2  # generations x members x buildings
        assert sends == pairs + 1
        # Every pair answered 120: b1 scores 0 and b2 scores 30.
        assert {e for row in result.per_generation_log for e in row.errors} == {30.0}

    def test_always_over_range_model_is_charged_the_penalty(self, tmp_path):
        result, sends = self.llm_run(tmp_path, lambda prompt, images: OVER_RANGE)
        penalty = 2 * failure_penalty(DataItem.ENERGY)
        assert {e for row in result.per_generation_log for e in row.errors} == {penalty}
        assert sends == len(result.per_generation_log) * 8 * 2 * 2  # two attempts a pair


NINES = "9" * 308


class TestOverflowingErrors:
    """Answers that parse, each with a finite building error, whose sum over a
    member's buildings passes the float range: the member's error is held at
    the largest float, and nothing infinite reaches the log or the checkpoint."""

    @pytest.mark.parametrize(
        "item, answer",
        [(DataItem.ENERGY, NINES), (DataItem.WINDOWS_UVALUE, f"{NINES}-{'8' * 308}")],
        ids=["energy", "uvalue-range"],
    )
    def test_member_error_is_held_at_the_largest_float(self, tmp_path, item, answer):
        config = make_config(
            data_item=item, generations=2, log_path=str(tmp_path / "run.log.jsonl"),
            checkpoint_path=str(tmp_path / "checkpoint.json"),
        )
        records = [build_record("b1"), build_record("b2", energy_kwh_m2=90.0)]
        transport = RecordingTransport(lambda prompt, images: f"### {answer} ###")
        result = evolve(config, build_schema(item), LlmEvaluator(transport), records)
        assert {e for row in result.per_generation_log for e in row.errors} == {sys.float_info.max}
        assert result.best_recorded_error == sys.float_info.max
        log_rows = Path(config.log_path).read_text(encoding="utf-8").splitlines()[1:]
        assert [json.loads(row) for row in log_rows] == [
            row.to_json_obj() for row in result.per_generation_log
        ]
        for path in (config.log_path, config.checkpoint_path):
            assert "Infinity" not in Path(path).read_text(encoding="utf-8")

    def test_report_reads_a_log_of_held_errors(self, tmp_path, capsys):
        log_path = tmp_path / "run.log.jsonl"
        config = make_config(generations=1, log_path=str(log_path))
        records = [build_record("b1"), build_record("b2", energy_kwh_m2=90.0)]
        transport = RecordingTransport(lambda prompt, images: f"### {NINES} ###")
        evolve(config, build_schema(), LlmEvaluator(transport), records)
        assert main(["report", "--log", str(log_path), "--out-dir", str(tmp_path)]) == 0
        with (tmp_path / "energy_variable_s1_series.csv").open(encoding="utf-8") as fh:
            series = list(csv.DictReader(fh))
        assert [row["mean_error"] for row in series] == [repr(sys.float_info.max)] * 2
        assert [row["fitness_cv"] for row in series] == ["0.0"] * 2

    def test_ledger_refuses_an_error_that_is_not_finite(self):
        for error in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                FitnessLedger().record("k", error, 0, ONE)


class TestPairDispatch:
    """Evaluation runs one (member, building) pair per pool task, in one pool per run;
    an evaluator that scores whole batches is called on the run's thread instead."""

    def test_pairs_of_one_member_run_in_parallel(self):
        # Two members and four buildings make eight pairs per generation; the
        # barrier opens only when all eight are in flight at once.
        config = make_config(population_size=2, elites=1, generations=2, evaluation_concurrency=8)
        records = [build_record(f"b{i}") for i in range(4)]
        result = evolve(config, build_schema(), BarrierEvaluator(8), records)
        assert result.completed
        assert len(result.per_generation_log) == 3

    def test_hard_failure_cancels_pairs_not_started(self, tmp_path):
        config = make_config(
            population_size=6, generations=3, evaluation_concurrency=2,
            checkpoint_path=str(tmp_path / "checkpoint.json"),
        )
        records = [build_record(f"b{i}") for i in range(20)]
        evaluator = HardFailOnBuilding("b0", armed=False, delay_s=0.2)
        with pytest.raises(RunAborted) as exc_info:
            evolve(config, build_schema(), evaluator, records,
                   on_generation=lambda stats, population: evaluator.arm())
        assert exc_info.value.checkpoint_path == config.checkpoint_path
        failed_at = evaluator.started.index("b0")
        assert len(evaluator.started) - failed_at - 1 <= config.evaluation_concurrency

    @pytest.mark.parametrize(
        "estimate", [True, "120", YearRange(1990, 1990)], ids=["bool", "text", "year-range"]
    )
    def test_pair_estimate_of_the_wrong_variant_stops_the_run(self, estimate):
        # building_error's check stays on the pair path: an energy estimate
        # that is not a ValueRange or a number is the run's ValueError.
        class WrongVariant:
            def evaluate(self, request):
                return estimate

        with pytest.raises(ValueError) as exc_info:
            evolve(make_config(generations=1), build_schema(), WrongVariant(),
                   [build_record("b1")])
        assert str(exc_info.value) == (
            f"energy estimate must be ValueRange or int or float, got {estimate!r}"
        )

    def test_split_evaluator_is_scored_on_the_run_thread(self):
        # An evaluator offering evaluate_batch gets one call per generation, for
        # every member, on the thread that runs the loop, and no pool is made for it.
        calls: list[int] = []

        class SplitOnly(OracleEvaluator):
            def evaluate_batch(self, jobs, *args):
                calls.append(threading.get_ident())
                assert len(jobs) == config.population_size
                return super().evaluate_batch(jobs, *args)

            def evaluate(self, request):
                raise AssertionError("scored pair by pair")

        before = threading.active_count()
        during: list[int] = []
        config = make_config(generations=3, evaluation_concurrency=3)
        records = [build_record(f"b{i}") for i in range(4)]
        result = evolve(config, build_schema(), SplitOnly(make_landscape(noise=0.5)), records,
                        lambda stats, population: during.append(threading.active_count()))
        assert result.completed
        assert set(calls) == {threading.get_ident()}
        assert len(calls) == len(result.per_generation_log)
        assert during == [before] * len(result.per_generation_log)

    @staticmethod
    def scripted_llm_run(work: Path, concurrency: int) -> tuple[list[str], int, Counter]:
        """Run log and checkpoint texts, with the worker count blanked, sends and answers."""
        config = make_config(
            population_size=6, generations=5, seed=4, retry_limit=1,
            evaluation_concurrency=concurrency,
            checkpoint_path="checkpoint.json", log_path="run.log.jsonl",
        )
        records = [
            build_record(f"b{i}", region=f"region{i}", energy_kwh_m2=80.0 + 40 * i)
            for i in range(5)
        ]
        model = ScriptedModel()
        transport = RecordingTransport(model)
        evolve(config, build_schema(), LlmEvaluator(transport, retry_limit=1), records)
        texts = []
        for name in ("run.log.jsonl", "checkpoint.json"):
            text = (work / name).read_text(encoding="utf-8")
            setting = f'"evaluation_concurrency": {concurrency}'
            assert text.count(setting) == 1
            texts.append(text.replace(setting, '"evaluation_concurrency": 0'))
        return texts, len(transport.calls), model.answers

    def test_llm_path_identical_at_any_concurrency(self, tmp_path, monkeypatch):
        outputs = []
        # A short switch interval makes the pool threads interleave more.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for concurrency in (1, 3, 32):
                # Relative paths keep the configs equal but for the worker count.
                work = tmp_path / f"c{concurrency}"
                work.mkdir()
                monkeypatch.chdir(work)
                outputs.append(self.scripted_llm_run(work, concurrency))
        finally:
            sys.setswitchinterval(interval)
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]
        assert outputs[0][2]["dead"] > 0 and outputs[0][2]["flaky"] > 0

    def test_pool_threads_end_with_each_run(self, tmp_path):
        before = threading.active_count()
        records = [build_record(f"b{i}") for i in range(3)]
        during: list[int] = []

        def count_threads(stats, population):
            during.append(threading.active_count())

        completed = HardFailOnBuilding("b0", armed=False)
        config = make_config(generations=6, evaluation_concurrency=4)
        assert evolve(config, build_schema(), completed, records, count_threads).completed
        assert threading.active_count() == before
        assert max(during) > before
        # Every generation used the same pool.
        assert len(completed.threads) <= config.evaluation_concurrency

        config = make_config(generations=6, evaluation_concurrency=4)
        paused = evolve(config, build_schema(), OffByOneEvaluator(), records, count_threads,
                        stop_after_generation=2)
        assert not paused.completed
        assert threading.active_count() == before

        with pytest.raises(RunAborted):
            evolve(config, build_schema(), HardFailOnBuilding("b1"), records, count_threads)
        assert threading.active_count() == before
