"""Evaluation backend contract shared by the oracle and the vision-LLM client."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from ..dataset import BuildingRecord
from ..fitness import DataEstimate
from ..schema import DataItem, Genotype


@dataclass(frozen=True)
class EvaluationRequest:
    """One estimation task: score this genotype's cues on this building.

    ``eval_counter`` distinguishes repeated evaluations of the same genotype
    so that deterministic noisy backends stay reproducible; the engine sources
    it from the fitness ledger's per-key evaluation count.
    """

    genotype: Genotype
    building: BuildingRecord
    data_item: DataItem
    eval_counter: int = 0


class EvaluationFailure(RuntimeError):
    """Permanent per-building failure; the caller applies the failure penalty."""


class BackendHardFailure(RuntimeError):
    """Unrecoverable backend failure; the run should checkpoint and abort."""


@runtime_checkable
class Evaluator(Protocol):
    """Anything that can turn an evaluation request into a typed estimate.

    Implementations must tolerate concurrent calls; deterministic backends
    must be a pure function of (genotype key, building id, eval counter, seed).

    An evaluator may also offer ``evaluate_batch(jobs, buildings, item) ->
    list[list[DataEstimate]]``, where ``jobs`` lists (genotype, eval counter)
    pairs: one row per job, in job order, of the estimates ``evaluate`` gives
    for each building, in building order. :func:`clear_ga.engine.evaluate_genotype`,
    which scores every run, ablation and probe, then makes one such call for
    all its jobs on its caller's thread, with no thread pool, so it must be
    cheap enough not to need overlap. It cannot fail one pair alone, so an
    evaluator that raises :class:`EvaluationFailure` should not offer it.
    """

    def evaluate(self, request: EvaluationRequest) -> DataEstimate: ...
