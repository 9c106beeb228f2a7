"""Pinned oracle behaviour: the exact noise stream, its agreement with
``random.gauss`` on this interpreter, the categorical read-outs, determinism at
any concurrency, and a landscape that scoring leaves unchanged.

The noise values are literals on purpose, so a change to the stream (the
hashed material, the seeding, or the draw) shows up here instead of being
compared against a second copy of the same code.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from pathlib import Path
from random import Random

import pytest

from clear_ga.backends import (
    EvaluationRequest,
    OracleEvaluator,
    PlantedCue,
    PlantedLandscape,
    landscape_from_json_obj,
    landscape_to_json_obj,
)
from clear_ga.engine import EvolutionRun, RunConfig
from clear_ga.fitness import HeatingClass, WindowClass
from clear_ga.items import item_spec
from clear_ga.schema import DataItem, Genotype

from conftest import build_record, build_schema


def flat_landscape(noise: float, seed: int) -> PlantedLandscape:
    return PlantedLandscape(planted=(), distractor_penalty=1.0, base_error=0.0,
                            noise_scale=noise, seed=seed)


def noisy_landscape() -> PlantedLandscape:
    return PlantedLandscape(
        planted=(PlantedCue(0, "c0_1", 3.0), PlantedCue(1, "c1_2", 2.5),
                 PlantedCue(1, "c1_0", 1.75), PlantedCue(2, "c2_3", 2.25)),
        distractor_penalty=1.0,
        base_error=12.0,
        noise_scale=0.7,
        seed=9,
    )


# (seed, building id, eval counter, canonical key, noise scale, noise)
NOISE_PINS = [
    (0, "b1", 0, '[["c0_0"],["c1_1"]]', 1.0, -0.8818509880290409),
    (5, "b17", 3, '[["c0_0","c0_2"],[]]', 2.0, 1.3071119444160575),
    (123456789, "bldg-042", 41, "[[],[],[]]", 0.3, 0.24641635510880722),
    (7, "b3", 2, '[["fenêtre à guillotine"],["暖房"]]', 0.5, 0.07200461607418308),
    (2**40 + 3, "é", 0, '[["a"]]', 10.0, -6.11927948597385),
]


@pytest.mark.parametrize("seed, building, counter, key, scale, expected", NOISE_PINS)
def test_noise_stream_is_pinned(seed, building, counter, key, scale, expected):
    assert flat_landscape(scale, seed).noise(key, building, counter) == expected


def test_noise_is_the_first_gauss_draw_of_the_hashed_seed():
    rng = Random(2024)
    cues = ["c0_0", "sash windows", "暖房", "fenêtre", "x"]
    for _ in range(200):
        seed = rng.randrange(2**48)
        building = f"b{rng.randrange(10_000)}"
        counter = rng.randrange(1_000)
        key = str([rng.sample(cues, rng.randint(0, 3)) for _ in range(rng.randint(1, 4))])
        scale = rng.choice([0.01, 0.3, 1.0, 7.5])
        material = f"{seed}|{building}|{counter}|{key}"
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        expected = Random(int.from_bytes(digest[:8], "big")).gauss(0.0, scale)
        assert flat_landscape(scale, seed).noise(key, building, counter) == expected


READOUT_SCORES = (0.0, 0.999, 1.0, 1.999, 2.0, 50.0)
# (item, truth): the class read out at each of READOUT_SCORES.
H, W = HeatingClass, WindowClass
READOUT_PINS = {
    ("heating", H.UNDERFLOOR): [H.UNDERFLOOR] * 2 + [H.WARM_AIR] * 2 + [H.WATER_RADIATORS] * 2,
    ("heating", H.WARM_AIR): [H.WARM_AIR] * 2 + [H.UNDERFLOOR] * 2 + [H.WATER_RADIATORS] * 2,
    ("heating", H.WATER_RADIATORS): [H.WATER_RADIATORS] * 4 + [H.UNDERFLOOR] * 2,
    ("heating", H.ELECTRIC_PANEL):
        [H.ELECTRIC_PANEL] * 2 + [H.ELECTRIC_STORAGE] * 2 + [H.UNDERFLOOR] * 2,
    ("heating", H.ELECTRIC_STORAGE):
        [H.ELECTRIC_STORAGE] * 2 + [H.ELECTRIC_PANEL] * 2 + [H.UNDERFLOOR] * 2,
    ("windows", W.SINGLE): [W.SINGLE] * 2 + [W.DOUBLE] * 2 + [W.HIGH_EFFICIENCY] * 2,
    ("windows", W.DOUBLE): [W.DOUBLE] * 2 + [W.SINGLE] * 4,
    ("windows", W.HIGH_EFFICIENCY): [W.HIGH_EFFICIENCY] * 2 + [W.DOUBLE] * 2 + [W.SINGLE] * 2,
}


def test_categorical_readouts_are_pinned():
    assert {(item, truth) for item, truth in READOUT_PINS} == (
        {("heating", h) for h in HeatingClass} | {("windows", w) for w in WindowClass}
    )
    for (item, truth), expected in READOUT_PINS.items():
        readout = item_spec(item).oracle_readout
        assert [readout(truth, score) for score in READOUT_SCORES] == expected, (item, truth)


def test_zero_noise_scale_draws_nothing():
    assert flat_landscape(0.0, 3).noise('[["a"]]', "b1", 4) == 0.0


def _run_bytes(tmp_path: Path, concurrency: int) -> tuple[bytes, str]:
    """Generation rows and checkpoint text of one small variable-mode oracle run."""
    config = RunConfig(
        data_item=DataItem.ENERGY,
        population_size=10,
        generations=8,
        seed=17,
        evaluation_concurrency=concurrency,
        checkpoint_path=str(tmp_path / "checkpoint.json"),
        log_path=str(tmp_path / "run.log.jsonl"),
    )
    schema = build_schema(category_sizes=(4, 4, 4))
    training = [build_record(f"b{i}", energy_kwh_m2=40.0 + 17 * i) for i in range(12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        EvolutionRun(config, schema, OracleEvaluator(noisy_landscape()), training).run()
    finally:
        sys.setswitchinterval(interval)
    rows = b"".join((tmp_path / "run.log.jsonl").read_bytes().splitlines(keepends=True)[1:])
    checkpoint = (tmp_path / "checkpoint.json").read_text(encoding="utf-8")
    # The concurrency is recorded in the config; nothing else may differ.
    return rows, checkpoint.replace(f'"evaluation_concurrency": {concurrency}', "")


def test_run_identical_at_concurrency_one_and_eight(tmp_path):
    serial = _run_bytes(tmp_path, 1)
    parallel = _run_bytes(tmp_path, 8)
    assert serial[0].count(b"\n") == 9
    assert parallel == serial


def test_scoring_leaves_the_landscape_unchanged():
    land = noisy_landscape()
    schema = build_schema(category_sizes=(4, 4, 4))
    rng = Random(5)
    for counter in range(40):
        genotype = Genotype(tuple(
            tuple(rng.sample(c.cues, rng.randint(0, len(c.cues)))) for c in schema.categories
        ))
        for i in range(3):
            land.latent_scores(genotype, [f"b{i}"], counter)
    fresh = landscape_from_json_obj(landscape_to_json_obj(noisy_landscape()))
    assert land == fresh
    assert hash(land) == hash(fresh)
    assert repr(land) == repr(fresh)
    assert land.describe() == fresh.describe()
    assert landscape_to_json_obj(land) == landscape_to_json_obj(fresh)


# The energy estimates of one genotype on buildings b0..b7 (truth 100 kWh/m2)
# at eval counter 3 on noisy_landscape(): its noise-free 5.75 plus each draw.
THREADED_ESTIMATES = [
    107.77511709025895, 106.2820717780841, 106.30155827077671, 105.81894712239259,
    105.27704607888721, 104.65139817046635, 105.82788200707654, 104.94536739780987,
]


def test_one_landscape_scored_from_eight_threads_at_once():
    # The landscape fills its per-building noise heads on first use, so the
    # threads race to fill them; every thread must still read the pinned stream.
    evaluator = OracleEvaluator(noisy_landscape())
    genotype = Genotype((("c0_1",), ("c1_2", "c1_0"), ("c2_0",)))
    requests = [
        EvaluationRequest(genotype, build_record(f"b{i}", energy_kwh_m2=100.0), DataItem.ENERGY, 3)
        for i in range(8)
    ]
    start = threading.Barrier(8)
    results = {}

    def score(shift: int) -> None:
        order = list(range(shift, 8)) + list(range(shift))  # each thread starts elsewhere
        start.wait(timeout=10)
        estimates = [None] * 8
        for _ in range(20):
            for i in order:
                estimates[i] = evaluator.evaluate(requests[i])
        results[shift] = estimates

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=score, args=(shift,)) for shift in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {shift: THREADED_ESTIMATES for shift in range(8)}
