"""Deterministic planted-cue landscape: an offline stand-in estimator.

The landscape plants a known-optimal set of cues with per-cue benefit
weights. Every cue present in a genotype either earns its benefit (planted)
or costs the distractor penalty, on top of a base error; seeded Gaussian
noise emulates estimator inconsistency. The resulting latent score is read
out as an estimate of the requested data item such that the building error
reproduces the score: exactly for energy and U-value, rounded to whole years
for age, capped at the farther end of the 0..100 scale for lighting, and
quantized for categorical items. Because the latent score ignores the data
item, the categorical windows read-out and the continuous U-value read-out
expose the same noise stream through two encodings.

The latent score is a function of the genotype's canonical key, building id
and eval counter alone, and scoring keeps nothing between calls: the
landscape is a plain frozen value, so any number of threads or runs may score
one landscape. Scoring is written once, for a batch of (genotype, eval
counter) jobs on a list of buildings (:meth:`OracleEvaluator.evaluate_batch`,
:meth:`PlantedLandscape.latent_rows`, :meth:`PlantedLandscape._draw_rows`):
the item spec, the truths, the building ids, their noise heads and one
generator are found once per call, each job's key, noise-free score and eval
counter's part of the noise material once per job, and each building costs
only its hash, reseed, draws, clamp and read-out. ``evaluate``,
``latent_scores`` and ``noise`` are that code on one job or one building.
"""

from __future__ import annotations

import _random
import hashlib
import json
import struct
from dataclasses import dataclass
from functools import cached_property
from math import cos, inf, log, sqrt, tau
from pathlib import Path
from typing import Sequence

from ..dataset import BuildingRecord
from ..fitness import DataEstimate
from ..items import item_spec
from ..schema import DataItem, Genotype, canonical_key, checked
from .base import EvaluationRequest

# A digest's first 8 bytes as a big-endian unsigned integer, in a 1-tuple.
_first_word = struct.Struct(">Q").unpack_from


@dataclass(frozen=True)
class PlantedCue:
    category: int
    cue: str
    benefit: float


@dataclass(frozen=True)
class PlantedLandscape:
    """Synthetic fitness landscape with a unique zero-noise optimum.

    Construction guarantees the optimum is exactly the planted set: every
    benefit exceeds the distractor penalty, the penalty is positive, and the
    base error covers the total benefit so the clamp at zero cannot create
    ties around the optimum.
    """

    planted: tuple[PlantedCue, ...]
    distractor_penalty: float
    base_error: float
    noise_scale: float
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "planted", tuple(self.planted))
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        if self.distractor_penalty <= 0:
            raise ValueError("distractor_penalty must be > 0")
        seen = set()
        for p in self.planted:
            if p.category < 0:
                raise ValueError(f"planted cue {p.cue!r}: category index must be >= 0")
            if p.benefit <= self.distractor_penalty:
                raise ValueError(
                    f"planted cue {p.cue!r}: benefit {p.benefit} must exceed "
                    f"distractor penalty {self.distractor_penalty}"
                )
            if (p.category, p.cue) in seen:
                raise ValueError(f"planted cue {p.cue!r} repeated in category {p.category}")
            seen.add((p.category, p.cue))
        if self.base_error < self.total_benefit:
            raise ValueError(
                f"base_error {self.base_error} must cover the total benefit "
                f"{self.total_benefit} so the optimum stays unique under clamping"
            )

    @cached_property
    def benefits(self) -> dict[tuple[int, str], float]:
        return {(p.category, p.cue): p.benefit for p in self.planted}

    @property
    def total_benefit(self) -> float:
        return sum(p.benefit for p in self.planted)

    def _draw_rows(
        self, jobs: Sequence[tuple[float, str, int]], building_ids: Sequence[str], floor: float
    ) -> list[list[float]]:
        """For each (offset, genotype key, eval counter) job, ``offset`` plus each
        building's noise draw, raised to ``floor``: the noise stream, written once.

        A draw is the first ``random.gauss(0, noise_scale)`` draw of a generator
        seeded with the first 8 bytes (big-endian) of the sha256 of
        ``"{seed}|{building_id}|{eval_counter}|{genotype_key}"``. The building
        heads are found once per call and each job's tail once per job, so a
        building costs its hash, reseed, draws and clamp alone.
        """
        if self.noise_scale == 0:
            return [[max(offset, floor)] * len(building_ids) for offset, _, _ in jobs]
        heads = [f"{self.seed}|{building_id}".encode("utf-8") for building_id in building_ids]
        # Every draw reseeds the generator, so its first state never matters.
        stream = _random.Random.__new__(_random.Random)
        seed, random, scale, sha256 = stream.seed, stream.random, self.noise_scale, hashlib.sha256
        rows = []
        for offset, genotype_key, eval_counter in jobs:
            tail = f"|{eval_counter}|{genotype_key}".encode("utf-8")
            row: list[float] = []
            append = row.append
            for head in heads:
                seed(_first_word(sha256(head + tail).digest())[0])
                # random.gauss(offset, scale)'s first Box-Muller draw, operation for
                # operation: offset + gauss(0, scale) to the bit for any offset but -0.0.
                score = offset + cos(random() * tau) * sqrt(-2.0 * log(1.0 - random())) * scale
                append(score if score >= floor else floor)  # max(score, floor), inlined
            rows.append(row)
        return rows

    def noise(self, genotype_key: str, building_id: str, eval_counter: int) -> float:
        """The noise draw of one building: :meth:`_draw_rows` at offset 0.0, unclamped."""
        return self._draw_rows([(0.0, genotype_key, eval_counter)], (building_id,), -inf)[0][0]

    def noise_free_score(self, genotype: Genotype) -> float:
        """Base error, less the planted benefits, plus the distractor penalties.

        Benefits are summed in canonical-key order (chromosome by chromosome,
        cues sorted; a chromosome of fewer than two cues is its own order), so
        genotypes with one key score alike to the last bit.
        """
        gain = 0.0
        distractors = 0
        benefits = self.benefits
        for index, chromosome in enumerate(genotype.chromosomes):
            for cue in chromosome if len(chromosome) < 2 else sorted(chromosome):
                benefit = benefits.get((index, cue))
                if benefit is None:
                    distractors += 1
                else:
                    gain += benefit
        return self.base_error - gain + self.distractor_penalty * distractors

    def latent_rows(
        self, jobs: Sequence[tuple[Genotype, int]], building_ids: Sequence[str]
    ) -> list[list[float]]:
        """For each (genotype, eval counter) job, the clamped-at-zero error the
        genotype earns on each building; the key and noise-free score are found
        once per job."""
        keyed = [
            (self.noise_free_score(genotype), canonical_key(genotype), eval_counter)
            for genotype, eval_counter in jobs
        ]
        return self._draw_rows(keyed, building_ids, 0.0)

    def latent_scores(
        self, genotype: Genotype, building_ids: Sequence[str], eval_counter: int
    ) -> list[float]:
        """The :meth:`latent_rows` row of one job."""
        return self.latent_rows([(genotype, eval_counter)], building_ids)[0]

    def describe(self) -> dict:
        return {
            "backend": "oracle",
            "seed": self.seed,
            "base_error": self.base_error,
            "distractor_penalty": self.distractor_penalty,
            "noise_scale": self.noise_scale,
            "planted_cues": len(self.planted),
        }


class OracleEvaluator:
    """Evaluator backed by a planted landscape; a pure function of the request."""

    def __init__(self, landscape: PlantedLandscape):
        self.landscape = landscape

    def evaluate_batch(
        self,
        jobs: Sequence[tuple[Genotype, int]],
        buildings: Sequence[BuildingRecord],
        item: DataItem,
    ) -> list[list[DataEstimate]]:
        """Each (genotype, eval counter) job's estimate of the item on each
        building, in job and then building order: each building's latent score
        read out (``ItemSpec.oracle_readout``). The item spec, the truths and the
        building ids are found once per call."""
        spec = item_spec(item)
        truths = []
        for building in buildings:
            actual = spec.truth_of(building.truth)
            if actual is None:
                raise ValueError(
                    f"building {building.id!r} has no ground truth for {DataItem(item).value}"
                )
            truths.append(actual)
        readout = spec.oracle_readout
        rows = self.landscape.latent_rows(jobs, [b.id for b in buildings])
        # Read out in place, so a generation's scores are not all held beside its estimates.
        for index, scores in enumerate(rows):
            rows[index] = list(map(readout, truths, scores))
        return rows

    def evaluate(self, request: EvaluationRequest) -> DataEstimate:
        """The :meth:`evaluate_batch` estimate of one job on one building."""
        job = (request.genotype, request.eval_counter)
        return self.evaluate_batch([job], (request.building,), request.data_item)[0][0]

    def describe(self) -> dict:
        return self.landscape.describe()


def landscape_to_json_obj(landscape: PlantedLandscape) -> dict:
    return {
        "seed": landscape.seed,
        "base_error": landscape.base_error,
        "distractor_penalty": landscape.distractor_penalty,
        "noise_scale": landscape.noise_scale,
        "planted": [
            {"category": p.category, "cue": p.cue, "benefit": p.benefit}
            for p in landscape.planted
        ],
    }


def landscape_digest(landscape: PlantedLandscape) -> str:
    """Content hash of a landscape, used to guard checkpoint resumption."""
    canonical = json.dumps(landscape_to_json_obj(landscape), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def landscape_from_json_obj(obj: object) -> PlantedLandscape:
    if not isinstance(obj, dict):
        raise ValueError("landscape document must be a JSON object")
    try:
        planted = tuple(
            PlantedCue(
                category=checked(p["category"], f"planted[{i}].category", "int"),
                cue=checked(p["cue"], f"planted[{i}].cue", "str"),
                benefit=float(checked(p["benefit"], f"planted[{i}].benefit", "finite float")),
            )
            for i, p in enumerate(obj.get("planted", []))
        )
        penalty = float(checked(obj["distractor_penalty"], "distractor_penalty", "finite float"))
        base = float(checked(obj["base_error"], "base_error", "finite float"))
        noise = float(checked(obj.get("noise_scale", 0.0), "noise_scale", "finite float"))
        seed = checked(obj.get("seed", 0), "seed", "int")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid landscape document: {exc}") from None
    # Outside the try: a landscape's own rules refuse in their own words.
    return PlantedLandscape(planted, penalty, base, noise, seed)


def load_landscape_file(path: str | Path) -> PlantedLandscape:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"landscape file {path} is not valid JSON: {exc}") from None
    return landscape_from_json_obj(obj)

