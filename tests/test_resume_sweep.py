"""Resume equivalence over drawn configurations.

A fixed draw seed gives a spread of run configurations: every data item,
both modes, small schemas, populations, building lists and generation
counts, noise 0, 0.3 and 0.7, and three evaluators (the oracle's batch path,
a pair-only wrapper of the oracle, and an LLM evaluator over a stateless fake
model that answers a fifth of prompts unparseably). Each configuration runs
uninterrupted, as a chain of pauses, and from a crash point, and every way
must end in the same checkpoint bytes, log bytes, best genotype and best
error:

- the chain pauses at 1-3 drawn generations and resumes each pause through
  :func:`load_checkpoint_file` at the other concurrency, which the config
  digest allows; each pause is also resumed once from the in-memory
  :meth:`EvolutionRun.checkpoint_obj`, in a directory of its own;
- the crash point is the uninterrupted run's checkpoint file as it stood
  after a drawn generation's commit, put back once the run has ended and
  resumed to the end. A pause writes the whole snapshot, so only this path
  replays journal records.

A failing configuration is printed; ``CONFIGS[i]`` replays it alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random

import pytest

from clear_ga import engine
from clear_ga.backends import (
    FunctionTransport,
    LlmEvaluator,
    OracleEvaluator,
    PlantedCue,
    PlantedLandscape,
)
from clear_ga.dataset import IMAGE_SUBSETS
from clear_ga.engine import EvolutionRun, Mode, RunConfig, load_checkpoint_file
from clear_ga.fitness import HeatingClass, WindowClass, YearRange
from clear_ga.prompts import HEATING_ANSWER_OPTIONS, WINDOWS_ANSWER_OPTIONS
from clear_ga.schema import DataItem

from conftest import build_record, build_schema

DRAW_SEED = 20251031
CONFIG_COUNT = 150


@dataclass(frozen=True)
class Drawn:
    """One drawn configuration; its records and landscape are drawn from
    ``Random(index)``, so its index replays the run."""

    item: DataItem
    mode: Mode
    category_sizes: tuple[int, ...]
    buildings: int
    population: int
    elites: int
    parent_fraction: float
    mutation_ops: int
    generations: int
    seed: int
    noise: float
    slack: float  # base error above the total benefit; 0 lets the optimum reach error 0
    evaluator: str  # "oracle", "pairs" or "llm"
    concurrency: int  # of the uninterrupted run and the chain's last segment
    pauses: tuple[int, ...]
    crash_after: int


def draw(rng: Random) -> Drawn:
    population = rng.randint(2, 6)
    generations = rng.randint(0, 4)
    evaluator = rng.choice(("oracle", "pairs", "llm"))
    stops = range(generations + 1)  # 0 and the last included
    return Drawn(
        item=rng.choice(list(DataItem)),
        mode=rng.choice(list(Mode)),
        category_sizes=tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 5))),
        buildings=rng.randint(1, 4),
        population=population,
        elites=rng.randint(0, population - 1),
        parent_fraction=rng.choice((0.01, round(rng.uniform(0.01, 1.0), 3), 1.0)),
        mutation_ops=rng.randint(0, 3),
        generations=generations,
        seed=rng.randrange(1000),
        noise=rng.choice((0.0, 0.3, 0.7)),
        slack=rng.choice((0.0, 0.0, 0.5, 3.0)),
        evaluator=evaluator,
        concurrency=1 if evaluator == "oracle" else rng.choice((1, 3)),
        pauses=tuple(sorted(rng.sample(stops, min(rng.randint(1, 3), len(stops))))),
        crash_after=rng.choice(stops),
    )


_draws = Random(DRAW_SEED)
CONFIGS = [draw(_draws) for _ in range(CONFIG_COUNT)]


def other(concurrency: int) -> int:
    return 3 if concurrency == 1 else 1


def records_for(drawn: Drawn, rng: Random):
    """Buildings with drawn truths and one image each, so the fake model's
    answer differs by building as well as by prompt."""
    return [
        replace(
            build_record(
                f"b{i}",
                age=YearRange(*[rng.randint(1900, 2020)] * 2),
                lighting_pct=float(rng.randint(0, 100)),
                heating=rng.choice(list(HeatingClass)),
                windows=rng.choice(list(WindowClass)),
                energy_kwh_m2=float(rng.randint(40, 300)),
            ),
            image_sets={subset: (Path(f"b{i}_{subset}.jpg"),) for subset in IMAGE_SUBSETS},
        )
        for i in range(drawn.buildings)
    ]


def answer_for(item: DataItem):
    """A stateless fake model: the answer is a function of (prompt, images)."""
    heating = [text for text, _ in HEATING_ANSWER_OPTIONS]
    windows = [text for text, _ in WINDOWS_ANSWER_OPTIONS]
    answers = {
        DataItem.BUILDING_AGE: lambda d: str(1900 + d % 121),
        DataItem.LIGHTING: lambda d: f"{d % 101}%",
        DataItem.HEATING: lambda d: heating[d % len(heating)],
        DataItem.WINDOWS: lambda d: windows[d % len(windows)],
        DataItem.WINDOWS_UVALUE: lambda d: f"{0.8 + d % 40 / 10:.1f}",
        DataItem.ENERGY: lambda d: f"{40 + d} kWh/m2",
    }[item]

    def answer(prompt, images):
        pair = prompt + "|" + "|".join(map(str, images))
        digest = hashlib.sha256(pair.encode("utf-8")).digest()
        if digest[0] % 5 == 0:
            return "I cannot tell from these photos."
        return f"reasoning...\n### {answers(digest[1])} ###"

    return answer


class PairsOnly:
    """The oracle without its batch call, so the engine scores pair by pair."""

    def __init__(self, inner: OracleEvaluator):
        self.inner = inner

    def evaluate(self, request):
        return self.inner.evaluate(request)


def evaluator_for(drawn: Drawn, schema, rng: Random):
    if drawn.evaluator == "llm":
        return LlmEvaluator(FunctionTransport(answer_for(drawn.item)), retry_limit=1)
    cues = [(index, cue) for index, c in enumerate(schema.categories) for cue in c.cues]
    planted = tuple(
        PlantedCue(index, cue, round(rng.uniform(1.0, 4.0), 2))
        for index, cue in rng.sample(cues, rng.randint(0, len(cues)))
    )
    total = sum(p.benefit for p in planted)
    landscape = PlantedLandscape(planted, 0.5, total + drawn.slack, drawn.noise, drawn.seed)
    oracle = OracleEvaluator(landscape)
    return oracle if drawn.evaluator == "oracle" else PairsOnly(oracle)


def outputs(directory: Path, result) -> tuple:
    """The run's files with its directory written as one placeholder, and its best."""
    files = (
        (directory / name).read_text(encoding="utf-8").replace(str(directory), "<run>")
        for name in ("checkpoint.json", "run.log.jsonl")
    )
    return (*files, result.best_genotype, result.best_recorded_error)


@pytest.mark.parametrize("index", range(CONFIG_COUNT))
def test_paused_and_crashed_runs_end_as_the_uninterrupted_one(tmp_path, monkeypatch, index):
    # Durability is test_crash's subject; here an fsync only costs time.
    monkeypatch.setattr(engine.os, "fsync", lambda fd: None)
    drawn = CONFIGS[index]
    rng = Random(index)
    schema = build_schema(item=drawn.item, category_sizes=drawn.category_sizes)
    records = records_for(drawn, rng)
    evaluator = evaluator_for(drawn, schema, rng)

    def config(directory: Path, concurrency: int) -> RunConfig:
        directory.mkdir()
        return RunConfig(
            data_item=drawn.item, mode=drawn.mode, population_size=drawn.population,
            generations=drawn.generations, parent_fraction=drawn.parent_fraction,
            elites=drawn.elites, seed=drawn.seed, mutation_ops_per_child=drawn.mutation_ops,
            evaluation_concurrency=concurrency,
            checkpoint_path=str(directory / "checkpoint.json"),
            log_path=str(directory / "run.log.jsonl"),
        )

    def resumed(doc: dict, directory: Path, concurrency: int) -> EvolutionRun:
        directory.mkdir(exist_ok=True)
        doc["config"] = {**doc["config"], "evaluation_concurrency": concurrency,
                         "checkpoint_path": str(directory / "checkpoint.json"),
                         "log_path": str(directory / "run.log.jsonl")}
        return EvolutionRun.resume(doc, schema, evaluator, records)

    # Uninterrupted, keeping the checkpoint file as it stood after the commit
    # of the crash generation, or of a perfect one that ended the run before it.
    full_dir = tmp_path / "full"
    full = EvolutionRun(config(full_dir, drawn.concurrency), schema, evaluator, records)
    crash_copy: list[bytes] = []

    def keep_crash_point(stats, population):
        if stats.generation == drawn.crash_after or stats.perfect:
            crash_copy.append((full_dir / "checkpoint.json").read_bytes())

    result = full.run(on_generation=keep_crash_point)
    expected = outputs(full_dir, result)
    message = f"CONFIGS[{index}] = {drawn!r}"

    # The chain of pauses. A pause at or past the last generation never takes
    # effect. Each resume switches concurrency, so the chain starts where its
    # last segment runs at the uninterrupted run's; each pause is also resumed
    # from memory, to the end.
    pauses = [stop for stop in drawn.pauses if stop < result.per_generation_log[-1].generation]
    concurrency = drawn.concurrency if len(pauses) % 2 == 0 else other(drawn.concurrency)
    chain_dir = tmp_path / "chain"
    run = EvolutionRun(config(chain_dir, concurrency), schema, evaluator, records)
    for stop in pauses:
        assert not run.run(stop_after_generation=stop).completed, f"{message}, pause {stop}"
        branch_dir = tmp_path / f"memory{stop}"
        branch = resumed(run.checkpoint_obj(), branch_dir, drawn.concurrency)
        assert outputs(branch_dir, branch.run()) == expected, f"{message}, memory resume {stop}"
        concurrency = other(concurrency)
        run = resumed(load_checkpoint_file(chain_dir / "checkpoint.json"), chain_dir, concurrency)
    assert outputs(chain_dir, run.run()) == expected, f"{message}, pause chain"

    # The crash point, put back in place of the finished file.
    (full_dir / "checkpoint.json").write_bytes(crash_copy[0])
    crashed = EvolutionRun.resume(
        load_checkpoint_file(full_dir / "checkpoint.json"), schema, evaluator, records
    )
    assert outputs(full_dir, crashed.run()) == expected, f"{message}, crash point"
