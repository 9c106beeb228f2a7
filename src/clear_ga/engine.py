"""The generational loop: evaluation dispatch, worst-of ledger, selection,
elitism, reproduction, termination, and checkpoint/resume.

Every member is re-evaluated every generation, elites included; the ledger
keeps the worst error ever recorded per genotype key, which penalizes
solutions that only look good under a lucky draw of estimator noise.
:func:`evaluate_genotype` scores runs, ablations and probes alike. An
evaluator that offers ``evaluate_split`` (the oracle) gets one call per
genotype on the caller's thread; any other, one call per (genotype, building)
pair, over the run's thread pool above concurrency 1, where a hard failure
cancels the pairs not yet started. The loop is deterministic given the seed
and a deterministic evaluator: the random stream is consumed only by
initialization and reproduction, never by evaluation, eval counters are
assigned per member before dispatch, and each member's errors are summed in
building order, so results are identical at any evaluation concurrency and
on either path.

A checkpoint is one file, ``checkpoint.json``, in the snapshot-and-log design
of Mohan et al. ("ARIES", TODS 1992). Its first line, the snapshot, is the
whole run state as one JSON document; it is written to a temp file, fsynced
and renamed into place, and its directory fsynced, at a run's first commit,
at a pause and at the end. Each generation in between appends one fsynced
record line after it, holding only what changed, so a commit costs one small
append instead of a rewrite that grows with the ledger. One rename replaces
the snapshot and its records together, so the records in the file always
extend the snapshot they follow. The run's commit mark records the path and
length it last committed, or loaded, and how many ledger keys and log rows
the file then holds; a record carries the genotypes and log rows past those
counts, and the ledger rows of the population's keys. It is written by
reopening the file at that length, cutting off a torn last line, and
appending; no handle is held between commits.
:func:`load_checkpoint_file` replays the complete records onto the snapshot,
and a run resumed from the same path appends after them. A fresh run and a
resumed one take and check their inputs in one method; a resumed run draws
nothing, as its state is the document's. The ledger is the one source of the
members' errors and the log of the generation and of ``evaluated``: each of
these restated fields is derived once, by one method the writer and the
resume share, and a resume reads the document's copies only to refuse a
document whose copies do not encode to the same JSON text; it derives the
last log row again and refuses a stored one that differs the same way. It
refuses any other document no run writes too: ledger and genotype rows that
do not join, ledger values ``record`` would not keep, log rows ``report``
would not read, and a population the config and schema rule out.

Every line the engine writes, snapshot, record and run-log line alike, holds
the bytes ``json.dumps`` writes with its defaults: one encoder writes them all,
and it skips only the cycle check, as each line encodes a tree built for it.
The ledger is the run's one table of genotype keys, with each key's first-seen
genotype; it keeps its best key as it records, so no best-ever error scans it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import sys
from collections import Counter
from concurrent.futures import FIRST_EXCEPTION, Executor, ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial
from itertools import chain, islice
from operator import eq, itemgetter
from pathlib import Path
from random import Random
from typing import Callable, Iterable, Sequence

from .backends.base import BackendHardFailure, EvaluationFailure, EvaluationRequest, Evaluator
from .dataset import BuildingRecord, require_truth
from .fitness import DataEstimate, aggregate_fitness
from .genome import crossover_fixed, crossover_variable, mutate_fixed, mutate_variable
from .items import building_error, failure_penalty
from .schema import (CueSchema, DataItem, Genotype, canonical_key, checked, random_genotype,
                     validate_genotype)

log = logging.getLogger(__name__)

CHECKPOINT_FORMAT = "clear-ga/checkpoint/1"

# ``json.dumps`` with its defaults, less the cycle check: the engine encodes
# only trees it has just built, which hold no cycle, so the output is the same.
_encode = json.JSONEncoder(check_circular=False).encode


class Mode(str, Enum):
    FIXED = "fixed"
    VARIABLE = "variable"


class CheckpointError(ValueError):
    """Raised for unreadable or structurally invalid checkpoint documents."""


class ConfigMismatchError(CheckpointError):
    """Resume inputs do not match what the checkpoint was written with."""


class RunAborted(RuntimeError):
    """The evaluator hard-failed; ``checkpoint_path`` names the resumable state."""

    def __init__(self, message: str, checkpoint_path: str | None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


@dataclass
class RunConfig:
    """Hyperparameters, data item, backend choice, seed, LLM endpoint, and output paths."""

    data_item: DataItem
    mode: Mode = Mode.VARIABLE
    population_size: int = 15
    generations: int = 20
    parent_fraction: float = 0.33
    elites: int = 2
    seed: int = 0
    mutation_ops_per_child: int = 1
    evaluation_concurrency: int = 1
    retry_limit: int = 3
    current_year: int = 2025
    train_fraction: float = 0.6
    backend: str = "oracle"
    llm_model: str = "gpt-4o"
    llm_endpoint: str | None = None
    llm_min_interval: float = 0.0
    schema_path: str | None = None
    dataset_path: str | None = None
    landscape_path: str | None = None
    checkpoint_path: str | None = None
    log_path: str | None = None
    schema_sha256: str = ""
    dataset_sha256: str = ""
    landscape_sha256: str = ""

    def __post_init__(self) -> None:
        self.data_item = DataItem(self.data_item)
        self.mode = Mode(self.mode)
        for field in fields(self)[2:]:  # past data_item and mode, each annotation is a JSON kind
            checked(getattr(self, field.name), field.name, field.type)
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 0 < self.parent_fraction <= 1:
            raise ValueError("parent_fraction must be in (0, 1]")
        if not 0 <= self.elites < self.population_size:
            raise ValueError("elites must be in [0, population_size)")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.mutation_ops_per_child < 0:
            raise ValueError("mutation_ops_per_child must be >= 0")
        if self.evaluation_concurrency < 1:
            raise ValueError("evaluation_concurrency must be >= 1")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if not 0 <= self.llm_min_interval <= sys.float_info.max:  # NaN fails both comparisons
            raise ValueError("llm_min_interval must be a finite number >= 0")
        if self.backend not in ("oracle", "llm"):
            raise ValueError(f"backend must be 'oracle' or 'llm', got {self.backend!r}")

    # Fields that define the run's semantics; anything else (paths, worker
    # counts, the LLM endpoint) may change between checkpoint and resume
    # without altering the result.
    _SEMANTIC_FIELDS = (
        "data_item",
        "mode",
        "population_size",
        "generations",
        "parent_fraction",
        "elites",
        "seed",
        "mutation_ops_per_child",
        "current_year",
        "schema_sha256",
        "dataset_sha256",
    )
    # Semantic fields added later, with their defaults. Each is hashed only
    # when it differs from its default, so runs that never set it keep their
    # digests and their checkpoints stay resumable.
    _LATER_SEMANTIC_FIELDS = {"train_fraction": 0.6, "landscape_sha256": ""}

    def digest(self) -> str:
        payload = {name: getattr(self, name) for name in self._SEMANTIC_FIELDS}
        for name, default in self._LATER_SEMANTIC_FIELDS.items():
            if getattr(self, name) != default:
                payload[name] = getattr(self, name)
        payload["data_item"] = self.data_item.value
        payload["mode"] = self.mode.value
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_json_obj(self) -> dict:
        obj = {field.name: getattr(self, field.name) for field in fields(self)}
        obj["data_item"] = self.data_item.value
        obj["mode"] = self.mode.value
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise CheckpointError(f"unknown config fields: {sorted(unknown)}")
        return cls(**obj)


def _is_column(values: list, types: set, least: int) -> bool:
    """Whether ``values`` is a non-empty list of ``types`` (a bool is neither an int
    nor a float), each >= ``least`` >= 0 and finite; values >= 0 are when their sum is."""
    if not (values and set(map(type, values)) <= types and min(values) >= least):
        return False
    try:
        if sum(values) <= sys.float_info.max:  # NaN makes the sum NaN
            return True
    except OverflowError:  # a float and an integer past the float range
        pass
    # Finite values whose sum passes the float range; NaN is unequal to itself.
    return all(map(eq, values, values)) and max(values) <= sys.float_info.max


@dataclass(slots=True)
class LedgerEntry:
    """A key's worst-of record, and its first-seen genotype as chromosome lists."""

    worst_error: float
    evaluations: int
    first_seen_generation: int
    chromosomes: list[list[str]]  # never mutated in place


class FitnessLedger:
    """Worst-of fitness cache and first-seen genotype per canonical genotype key.

    ``record`` merges with max, so applying the same multiset of records in
    any order yields the same ledger; that property is what makes concurrent
    evaluation order-irrelevant. ``record`` itself is not thread-safe: the
    engine merges a generation's results serially once they are all in.

    The best key is kept as ``record`` runs. Merging can only raise a key's
    error, so only a new key with a strictly lower error can take over, and
    only raising the best key itself calls for a scan of the ledger, made at
    the next :meth:`best_key`. ``entries`` must change through ``record``
    alone.
    """

    def __init__(self) -> None:
        self.entries: dict[str, LedgerEntry] = {}
        # The key best_key returns; None when it is not known yet.
        self._best: str | None = None

    def record(self, key: str, error: float, generation: int, genotype: Genotype) -> LedgerEntry:
        if not 0 <= error <= sys.float_info.max:  # NaN fails both comparisons
            raise ValueError(f"error must be a finite number >= 0, got {error!r}")
        entries = self.entries
        entry = entries.get(key)
        if entry is None:
            best = self._best
            chromosomes = [list(ch) for ch in genotype.chromosomes]
            entry = entries[key] = LedgerEntry(error, 1, generation, chromosomes)
            if len(entries) == 1 or best is not None and error < entries[best].worst_error:
                self._best = key
        else:
            if error > entry.worst_error:
                entry.worst_error = error
                if key == self._best:
                    self._best = None
            entry.evaluations += 1
            entry.first_seen_generation = min(entry.first_seen_generation, generation)
        return entry

    def worst(self, key: str) -> float:
        return self.entries[key].worst_error

    def evaluations(self, key: str) -> int:
        entry = self.entries.get(key)
        return entry.evaluations if entry else 0

    def best_key(self) -> str:
        """Key with the lowest worst-of error; earliest-recorded wins ties."""
        if self._best is None:
            if not self.entries:
                raise ValueError("ledger is empty")
            self._best = min(self.entries.items(), key=lambda item: item[1].worst_error)[0]
        return self._best

    @staticmethod
    def _entry_obj(key: str, e: LedgerEntry) -> dict:
        return {
            "key": key,
            "worst_error": e.worst_error,
            "evaluations": e.evaluations,
            "first_seen_generation": e.first_seen_generation,
        }

    def to_json_obj(self, keys: Iterable[str] | None = None, genotypes_from: int = 0) -> tuple:
        """Format 1's ledger rows of ``keys``, or of all, and its genotype rows from an index."""
        entries, genotypes = self.entries, islice(self.entries.items(), genotypes_from, None)
        rows = [self._entry_obj(key, entries[key]) for key in (entries if keys is None else keys)]
        return rows, [{"key": key, "chromosomes": e.chromosomes} for key, e in genotypes]

    @classmethod
    def from_json_obj(cls, rows: list, genotypes: list, categories: int) -> "FitnessLedger":
        """The ledger ``to_json_obj`` wrote, its two lists joined by position and
        checked in bulk: ValueError unless they name the same keys in order and
        hold only values ``record`` keeps, TypeError unless each genotype is
        ``categories`` lists, which it adopts."""
        chromosomes = [g["chromosomes"] for g in genotypes]
        if not (
            set(map(type, chromosomes)) <= {list} and set(map(len, chromosomes)) <= {categories}
            and set(map(type, chain.from_iterable(chromosomes))) <= {list}
        ):
            raise TypeError(f"a genotype's chromosomes are not {categories} lists")
        worst, evaluations, first_seen = (
            list(map(itemgetter(name), rows))
            for name in ("worst_error", "evaluations", "first_seen_generation")
        )
        # The values record keeps, a column at a time; a ledger of no rows has none.
        if rows and not _is_column(worst, {int, float}, 0):
            raise ValueError("a ledger worst_error is not a finite number >= 0")
        for name, column, least in (("evaluations", evaluations, 1),
                                    ("first_seen_generation", first_seen, 0)):
            if rows and not _is_column(column, {int}, least):
                raise ValueError(f"a ledger {name} is not an integer >= {least}")
        ledger = cls()
        adopted = map(LedgerEntry, worst, evaluations, first_seen, chromosomes)
        ledger.entries = entries = dict(zip(map(itemgetter("key"), rows), adopted))
        if len(entries) != len(rows) or list(entries) != [g["key"] for g in genotypes]:
            raise ValueError("ledger and genotype rows do not name the same keys in order")
        # The key best_key would scan for: the first of the least error.
        ledger._best = rows[worst.index(min(worst))]["key"] if rows else None
        return ledger


@dataclass
class Member:
    genotype: Genotype
    recorded_error: float | None = None


@dataclass
class GenerationStats:
    """One machine-readable run-log row: the data behind fitness/cue-count plots."""

    generation: int
    errors: list[float]
    best_error: float
    best_ever_error: float
    mean_cue_count: float
    chromosome_mean_cue_counts: list[float]
    parent_pool_size: int | None
    perfect: bool

    def to_json_obj(self) -> dict:
        return {**vars(self), "type": "generation"}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GenerationStats":
        """The logged row ``obj``; raises TypeError for a row that is not an
        object of these fields and ValueError for values no run writes, the
        rows that neither ``report`` nor ``resume`` can read."""
        if not isinstance(obj, dict):
            raise TypeError(f"{obj!r} is not an object")
        fields = dict(obj)
        fields.pop("type", None)
        row = cls(**fields)
        errors = row.errors
        if not isinstance(errors, list) or not errors:
            raise ValueError("errors must be a non-empty list")
        if not _is_column(errors, {int, float}, 0):
            if not set(map(type, errors)) <= {int, float}:
                raise ValueError("errors must be numbers")
            raise ValueError("errors must be finite and >= 0")
        for name in ("best_error", "best_ever_error"):
            value = getattr(row, name)
            # a JSON number, not a bool, within the float range
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                raise ValueError(f"{name} {value!r} is not a finite number")
        value = row.mean_cue_count
        if type(value) not in (int, float) or not 0 <= value <= sys.float_info.max:
            raise ValueError(f"mean_cue_count {value!r} is not a finite number >= 0")
        counts = row.chromosome_mean_cue_counts
        if not isinstance(counts, list) or not _is_column(counts, {int, float}, 0):
            raise ValueError("chromosome_mean_cue_counts must be a non-empty list of finite "
                             "numbers >= 0")
        value = row.parent_pool_size
        if value is not None and (type(value) is not int or value < 1):
            raise ValueError(f"parent_pool_size {value!r} is not null or an integer >= 1")
        if type(row.perfect) is not bool:
            raise ValueError(f"perfect {row.perfect!r} is not a bool")
        if type(row.generation) is not int or row.generation < 0:
            raise ValueError(f"generation {row.generation!r} is not an integer >= 0")
        return row


@dataclass
class RunResult:
    best_genotype: Genotype
    best_recorded_error: float
    per_generation_log: list[GenerationStats]
    completed: bool


def _estimate(evaluator: Evaluator, request: EvaluationRequest) -> DataEstimate | EvaluationFailure:
    try:
        return evaluator.evaluate(request)
    except EvaluationFailure as exc:
        return exc


def evaluate_genotype(
    jobs: Sequence[tuple[Genotype, int]],
    buildings: Sequence[BuildingRecord],
    item: DataItem,
    evaluator: Evaluator,
    executor: Executor | None = None,
) -> list[list[DataEstimate | EvaluationFailure]]:
    """Each (genotype, eval counter) job's estimates on ``buildings``, in order,
    with a permanently failed pair's :class:`EvaluationFailure` in its place:
    from one ``evaluate_split`` call per job where the evaluator offers it,
    else pair by pair, over ``executor`` if given (see :func:`_map_until_failure`)."""
    evaluate_split = getattr(evaluator, "evaluate_split", None)
    if evaluate_split is not None:
        return [evaluate_split(genotype, buildings, item, counter) for genotype, counter in jobs]
    requests = [EvaluationRequest(g, b, item, counter) for g, counter in jobs for b in buildings]
    estimates = _map_until_failure(partial(_estimate, evaluator), requests, executor)
    n = len(buildings)
    return [estimates[i * n:(i + 1) * n] for i in range(len(jobs))]


def _map_until_failure(fn: Callable, items: list, executor: Executor | None) -> list:
    """``list(map(fn, items))``, spread over ``executor`` when there is one; the
    first exception cancels the calls not yet started and is re-raised."""
    if executor is None:
        return list(map(fn, items))
    futures = [executor.submit(fn, item) for item in items]
    done, running = wait(futures, return_when=FIRST_EXCEPTION)
    for future in running:
        future.cancel()
    if running:
        raise next(f.exception() for f in futures if f in done and f.exception())
    return [future.result() for future in futures]


def parent_pool_size(population_size: int, parent_fraction: float) -> int:
    return math.ceil(parent_fraction * population_size)


def select_parents(population: Sequence[Member], parent_fraction: float) -> list[Member]:
    """Best ceil(fraction * N) members, ranked by recorded error, ties stable."""
    if any(m.recorded_error is None for m in population):
        raise ValueError("population must be evaluated before selection")
    ranked = sorted(population, key=lambda m: m.recorded_error)
    pool = ranked[: parent_pool_size(len(population), parent_fraction)]
    if not pool:
        raise ValueError("parent pool is empty")
    return pool


def next_generation(
    population: Sequence[Member],
    schema: CueSchema,
    config: RunConfig,
    rng: Random,
) -> tuple[list[Member], int]:
    """Elites copied verbatim plus crossover+mutation offspring; returns (members, pool size)."""
    ranked = sorted(population, key=lambda m: m.recorded_error)
    elites = [Member(m.genotype) for m in ranked[: config.elites]]
    pool = select_parents(population, config.parent_fraction)
    if config.mode is Mode.FIXED:
        crossover, mutate = crossover_fixed, mutate_fixed
    else:
        crossover, mutate = crossover_variable, mutate_variable
    offspring: list[Member] = []
    for _ in range(config.population_size - config.elites):
        first = rng.randrange(len(pool))
        second = rng.randrange(len(pool))
        while len(pool) >= 2 and second == first:
            second = rng.randrange(len(pool))
        child = crossover(pool[first].genotype, pool[second].genotype, rng)
        for _ in range(config.mutation_ops_per_child):
            child = mutate(child, schema, rng)
        offspring.append(Member(child))
    return elites + offspring, len(pool)


def _fsync_directory(path: Path) -> None:
    """Make the entries of the directory holding ``path`` durable, so a file
    created, renamed or removed there stays so after a crash."""
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_file_durably(path: Path, data: bytes) -> None:
    """Replace the file at ``path`` with ``data``.

    The bytes go to a temp file, which is fsynced before the rename, so after
    a crash the path holds either the old file or the new one; the directory
    is fsynced after the rename, so it is not undone once this returns.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_directory(path)


def _append_line(path: Path, length: int, obj: dict) -> int:
    """Cut the file at ``path`` back to ``length`` bytes, so a torn last line
    goes, then append ``obj`` as one fsynced JSON line; returns the new length."""
    data = (_encode(obj) + "\n").encode("utf-8")
    with path.open("ab") as fh:
        fh.truncate(length)
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    return length + len(data)


def checkpoint_config(checkpoint: dict) -> RunConfig:
    """The config a checkpoint document was written with.

    Raises :class:`CheckpointError` for a document that is not a checkpoint
    or whose config record is malformed, and :class:`ConfigMismatchError`
    if that record does not match the stored digest.
    """
    if not isinstance(checkpoint, dict) or checkpoint.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"not a {CHECKPOINT_FORMAT} document")
    try:
        config = RunConfig.from_json_obj(checkpoint["config"])
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint document: {exc}") from None
    if config.digest() != checkpoint.get("digest"):
        raise ConfigMismatchError(
            "checkpoint digest does not match its config; refusing to resume"
        )
    return config


OnGeneration = Callable[[GenerationStats, list[Member]], None]

# Why resume refuses a stored copy of each field EvolutionRun._restated derives.
_RESTATED_REFUSALS = (
    "generation {copy!r} is not the log's last, {derived}",
    "evaluated {copy!r} is not whether the log has a row, {derived}",
    "a member's recorded_error is not its key's worst in the ledger",
)


class EvolutionRun:
    """State of one run; construct fresh or via :meth:`resume`, then call :meth:`run`."""

    def __init__(self, config: RunConfig, schema: CueSchema, evaluator: Evaluator,
                 training: Sequence[BuildingRecord]):
        self._take_inputs(config, schema, evaluator, training)
        self.rng = Random(config.seed)
        self.generation = 0
        self.population = [
            Member(random_genotype(schema, self.rng)) for _ in range(config.population_size)
        ]
        self.ledger = FitnessLedger()
        self.log_rows: list[GenerationStats] = []
        # (path, length, ledger keys, log rows): the checkpoint file this run
        # last committed to or was loaded from, and how many bytes, keys and log
        # rows it holds; the next record goes there while it holds those bytes.
        self._committed: tuple[Path, int, int, int] | None = None

    def _take_inputs(self, config: RunConfig, schema: CueSchema, evaluator: Evaluator,
                     training: Sequence[BuildingRecord]) -> None:
        """Check and keep the run's inputs, for a fresh run and a resumed one alike."""
        if schema.data_item is not config.data_item:
            raise ValueError(
                f"schema is for {schema.data_item.value!r}, run wants {config.data_item.value!r}"
            )
        self.training = list(training)
        if not self.training:
            raise ValueError("training split is empty")
        require_truth(self.training, config.data_item)
        self.config, self.schema, self.evaluator = config, schema, evaluator

    # -- persistence -----------------------------------------------------

    def _state(self, ledger_keys: Iterable[str], genotypes_from: int, log_from: int) -> dict:
        """The run state, with the ledger entries of ``ledger_keys``, and the
        genotypes and log rows from those indices on."""
        ledger, genotypes = self.ledger.to_json_obj(ledger_keys, genotypes_from)
        generation, evaluated, errors = self._restated()
        version, internal, gauss_next = self.rng.getstate()
        return {
            "config": self.config.to_json_obj(),
            "generation": generation,
            "evaluated": evaluated,
            "population": [
                {"chromosomes": list(map(list, m.genotype.chromosomes)), "recorded_error": error}
                for m, error in zip(self.population, errors)
            ],
            "ledger": ledger,
            "genotypes": genotypes,
            "rng_state": [version, list(internal), gauss_next],
            "log": [row.to_json_obj() for row in self.log_rows[log_from:]],
        }

    def _restated(self) -> tuple[int, bool, list[float | None]]:
        """The fields a checkpoint restates: the last log row's generation, or 0
        for an empty log, whether the log has a row, and the members' errors."""
        rows, errors = self.log_rows, [m.recorded_error for m in self.population]
        return rows[-1].generation if rows else 0, bool(rows), errors

    def checkpoint_obj(self) -> dict:
        """Snapshot between generations; resuming from it reproduces the run exactly."""
        return {
            "format": CHECKPOINT_FORMAT,
            "digest": self.config.digest(),
            **self._state(self.ledger.entries, 0, 0),
        }

    def _holds_commit(self, path: Path) -> bool:
        """Whether ``path`` is the file this run last committed to or was
        loaded from, and still holds at least what was committed or loaded."""
        if self._committed is None:
            return False
        marked, length, _, _ = self._committed
        try:
            same = marked == path or marked.resolve() == path.resolve()
            return same and path.stat().st_size >= length
        except OSError:
            return False

    def write_checkpoint(self, journal: bool = False) -> None:
        """Commit the run's state to its checkpoint path.

        With ``journal``, one record of what changed since the previous commit
        is appended to the checkpoint file, if it is the file this run last
        committed to or was loaded from and still holds that. The record holds
        the config, since a resumed run may write to other paths or at another
        concurrency than its snapshot names, and the ledger entries of the
        population's keys in member order: a journaled commit directly follows
        an evaluation, so those are the entries it recorded. Otherwise the
        snapshot replaces the file whole. :meth:`run` passes ``journal`` for
        every generation but a pause and the last.
        """
        if not self.config.checkpoint_path:
            return
        path = Path(self.config.checkpoint_path)
        if journal and self._holds_commit(path):
            _, length, genotypes, log_rows = self._committed
            keys = dict.fromkeys(canonical_key(m.genotype) for m in self.population)
            record = self._state(keys, genotypes, log_rows)
            length = _append_line(path, length, record)
        else:
            data = (_encode(self.checkpoint_obj()) + "\n").encode("utf-8")
            write_file_durably(path, data)
            length = len(data)
        self._committed = (path, length, len(self.ledger.entries), len(self.log_rows))

    @classmethod
    def resume(
        cls,
        checkpoint: dict,
        schema: CueSchema,
        evaluator: Evaluator,
        training: Sequence[BuildingRecord],
        schema_sha256: str = "",
        dataset_sha256: str = "",
        landscape_sha256: str = "",
    ) -> "EvolutionRun":
        """Rebuild run state from a checkpoint document.

        The inputs are taken once, by the method a fresh run takes them with,
        and no fresh state is drawn: every field of the state is the
        document's. Members are built from their chromosomes, each member's
        error is its key's worst-of error in the ledger once the log has a
        row, and the generation is the last log row's, or 0 for an empty log.
        Each field the document restates, ``generation``, ``evaluated`` and
        each member's ``recorded_error``, is derived once, by
        :meth:`_restated`, which the writer uses too. Refuses to continue if
        the stored digest does not match the stored config (tampering) or if
        the caller-supplied schema/dataset/landscape hashes differ from the
        ones the run started with, and raises :class:`CheckpointError` for
        rows no run writes (see :meth:`FitnessLedger.from_json_obj` and
        :meth:`GenerationStats.from_json_obj`), for log rows not numbered 0,
        1, ... in order, for a stored copy of a restated field that does not
        encode to the derived one, for a last log row other than the one the
        members, ledger and config give, for a member key the ledger lacks,
        and for a population whose size or genotypes the config and schema
        rule out. A schema for another data item is the constructor's
        ValueError. The run adopts the document's genotype rows as they are,
        so the caller must not mutate the document afterwards.
        """
        config = checkpoint_config(checkpoint)
        given = {"schema": schema_sha256, "dataset": dataset_sha256, "landscape": landscape_sha256}
        for name, digest in given.items():
            stored = getattr(config, f"{name}_sha256")
            if digest and stored and digest != stored:
                raise ConfigMismatchError(f"{name} file differs from the checkpointed run")
        run = cls.__new__(cls)
        run._take_inputs(config, schema, evaluator, training)
        try:
            version, internal, gauss_next = checkpoint["rng_state"]
            run.rng = Random.__new__(Random)  # not seeded: setstate sets its whole state
            run.rng.setstate((version, tuple(internal), gauss_next))
            run.population = [Member(Genotype(m["chromosomes"])) for m in checkpoint["population"]]
            if len(run.population) != config.population_size:
                raise ValueError(f"population has {len(run.population)} members, not "
                                 f"population_size {config.population_size}")
            for member in run.population:
                validate_genotype(member.genotype, schema, config.mode.value)
            run.ledger = FitnessLedger.from_json_obj(
                checkpoint["ledger"], checkpoint["genotypes"], schema.category_count
            )
            run.log_rows = [GenerationStats.from_json_obj(row) for row in checkpoint["log"]]
            if [row.generation for row in run.log_rows] != list(range(len(run.log_rows))):
                raise ValueError("log rows are not numbered 0, 1, ... in order")
            if run.log_rows:
                if any(canonical_key(m.genotype) not in run.ledger.entries for m in run.population):
                    raise ValueError("a member's genotype key is not in the ledger")
                run._take_errors()
            errors = [m["recorded_error"] for m in checkpoint["population"]]
            derived = run._restated()
            stored = (checkpoint["generation"], checkpoint["evaluated"], errors)
            for refusal, copy, value in zip(_RESTATED_REFUSALS, stored, derived):
                if _encode(copy) != _encode(value):
                    raise ValueError(refusal.format(copy=copy, derived=value))
            run.generation = derived[0]
            if run.log_rows:
                row = run._collect_stats().to_json_obj()
                if _encode(row) != _encode(checkpoint["log"][-1]):
                    raise ValueError("the last log row is not the one the members, ledger "
                                     "and config give")
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"corrupt checkpoint document: {exc}") from None
        run._committed = (
            (checkpoint.path, checkpoint.length, len(run.ledger.entries), len(run.log_rows))
            if isinstance(checkpoint, CheckpointDocument) else None
        )
        return run

    # -- run log ----------------------------------------------------------

    def _config_log_line(self) -> str:
        describe = getattr(self.evaluator, "describe", None)
        record = {
            "type": "config",
            "config": self.config.to_json_obj(),
            "digest": self.config.digest(),
            "evaluator": describe() if callable(describe) else {},
        }
        return _encode(record) + "\n"

    def _start_log(self) -> None:
        """(Re)write the log header plus any rows already in memory.

        Rewriting at every :meth:`run` call guarantees the file is
        byte-identical to an uninterrupted run even if the previous process
        died mid-write.
        """
        if not self.config.log_path:
            return
        path = Path(self.config.log_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(self._config_log_line())
            for row in self.log_rows:
                fh.write(_encode(row.to_json_obj()) + "\n")

    def _append_log_row(self) -> None:
        """Append the newest of ``log_rows`` to the run log."""
        if not self.config.log_path:
            return
        with Path(self.config.log_path).open("ab") as fh:
            fh.write((_encode(self.log_rows[-1].to_json_obj()) + "\n").encode("utf-8"))

    # -- the loop ----------------------------------------------------------

    def _evaluate_population(self, executor: Executor | None) -> None:
        item, buildings = self.config.data_item, self.training
        keys = [canonical_key(m.genotype) for m in self.population]
        # Pre-assigning counters keeps noisy-backend draws identical no matter
        # how evaluations interleave across worker threads.
        pending: Counter[str] = Counter()
        jobs = []
        for member, key in zip(self.population, keys):
            jobs.append((member.genotype, self.ledger.evaluations(key) + pending[key]))
            pending[key] += 1
        results = evaluate_genotype(jobs, buildings, item, self.evaluator, executor)
        for member, key, estimates in zip(self.population, keys, results):
            errors = []
            for estimate, building in zip(estimates, buildings):
                if isinstance(estimate, EvaluationFailure):
                    log.warning(
                        "building %s: estimate unavailable, charging failure penalty", building.id
                    )
                    errors.append(failure_penalty(item))
                else:
                    errors.append(building_error(item, estimate, building.truth))
            # Summed in building order, so floats do not depend on completion order.
            self.ledger.record(key, aggregate_fitness(errors), self.generation, member.genotype)
        self._take_errors()

    def _take_errors(self) -> None:
        """Set each member's recorded error to its key's worst-of error in the ledger."""
        for member in self.population:
            member.recorded_error = self.ledger.worst(canonical_key(member.genotype))

    def _collect_stats(self) -> GenerationStats:
        pool = parent_pool_size(self.config.population_size, self.config.parent_fraction)
        errors = [m.recorded_error for m in self.population]
        counts = [m.genotype.cue_count() for m in self.population]
        per_chromosome = [
            sum(map(len, column)) / len(self.population)
            for column in zip(*(m.genotype.chromosomes for m in self.population))
        ]
        best = min(errors)
        return GenerationStats(
            generation=self.generation,
            errors=errors,
            best_error=best,
            best_ever_error=self.ledger.entries[self.ledger.best_key()].worst_error,
            mean_cue_count=sum(counts) / len(counts),
            chromosome_mean_cue_counts=per_chromosome,
            parent_pool_size=pool if self.generation else None,  # none bred the first
            perfect=best == 0,
        )

    def _step_evaluate(self, on_generation: OnGeneration | None, executor: Executor | None,
                       stop: int | None) -> None:
        self._evaluate_population(executor)
        stats = self._collect_stats()
        self.log_rows.append(stats)
        self._append_log_row()
        # A pause and the end write the snapshot whole; generations between journal.
        self.write_checkpoint(journal=not (self.finished or self._pausing(stop)))
        if on_generation is not None:
            on_generation(stats, self.population)
        log.info(
            "generation %d: best %.4g, best-ever %.4g, mean cues %.2f",
            stats.generation, stats.best_error, stats.best_ever_error, stats.mean_cue_count,
        )

    def _pausing(self, stop_after_generation: int | None) -> bool:
        return stop_after_generation is not None and self.generation >= stop_after_generation

    @property
    def finished(self) -> bool:
        """True when the run has already met a termination condition."""
        return bool(self.log_rows) and (
            self.log_rows[-1].perfect or self.generation >= self.config.generations
        )

    def result(self, completed: bool = True) -> RunResult:
        """The run's best genotype and log so far."""
        best_key = self.ledger.best_key()
        return RunResult(
            best_genotype=Genotype(self.ledger.entries[best_key].chromosomes),
            best_recorded_error=self.ledger.worst(best_key),
            per_generation_log=list(self.log_rows),
            completed=completed,
        )

    def run(
        self,
        on_generation: OnGeneration | None = None,
        stop_after_generation: int | None = None,
    ) -> RunResult:
        """Run to termination: perfect fitness or the configured generation count.

        ``stop_after_generation`` pauses the run after that generation's
        evaluation and checkpoint, returning a partial result that a later
        :meth:`resume` continues exactly; useful for budget-limited sessions.
        """
        if stop_after_generation is not None and stop_after_generation < 0:
            raise ValueError(f"stop_after_generation must be >= 0, got {stop_after_generation}")
        self._start_log()
        concurrency = self.config.evaluation_concurrency
        # One pool serves every generation's pairs. It starts no thread until a
        # pair is submitted, and an evaluator that scores whole splits submits none.
        try:
            with ThreadPoolExecutor(concurrency) if concurrency > 1 else nullcontext() as executor:
                if not self.log_rows:
                    self._step_evaluate(on_generation, executor, stop_after_generation)
                while not self.finished:
                    if self._pausing(stop_after_generation):
                        return self.result(completed=False)
                    self.population, _ = next_generation(
                        self.population, self.schema, self.config, self.rng
                    )
                    self.generation += 1
                    self._step_evaluate(on_generation, executor, stop_after_generation)
            return self.result(completed=True)
        except BackendHardFailure as exc:
            path = self.config.checkpoint_path
            written = path if path and Path(path).exists() else None
            log.error("evaluator hard failure at generation %d: %s", self.generation, exc)
            raise RunAborted(
                f"evaluator hard failure at generation {self.generation}: {exc}", written
            ) from exc


def evolve(
    config: RunConfig,
    schema: CueSchema,
    evaluator: Evaluator,
    training: Sequence[BuildingRecord],
    on_generation: OnGeneration | None = None,
    stop_after_generation: int | None = None,
) -> RunResult:
    """Convenience wrapper: build an :class:`EvolutionRun` and run it."""
    run = EvolutionRun(config, schema, evaluator, training)
    return run.run(on_generation=on_generation, stop_after_generation=stop_after_generation)


class CheckpointDocument(dict):
    """A checkpoint document as :func:`load_checkpoint_file` read it.

    ``path`` is the file it was read from and ``length`` the bytes of its
    snapshot line and the records replayed onto it, so a run resumed from the
    same path appends after them.
    """

    def __init__(self, doc: dict, path: Path, length: int):
        super().__init__(doc)
        self.path = path
        self.length = length


def _replay_journal(doc: dict, journal: bytes) -> int:
    """Apply the complete records of ``journal``, the lines after a snapshot,
    to ``doc``; returns the bytes they span.

    A record is complete when its line ends in a newline and parses; the
    first that does not ends the journal.
    """
    lines = journal.split(b"\n")[:-1]  # the last piece follows the last newline
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except ValueError:
            break
    try:
        # Each key keeps its first position and takes its latest row.
        ledger = {row["key"]: row for row in doc["ledger"]}
        for record in records:
            ledger.update((row["key"], row) for row in record["ledger"])
            doc["genotypes"] += record["genotypes"]
            doc["log"] += record["log"]
            for name in ("config", "generation", "evaluated", "population", "rng_state"):
                doc[name] = record[name]
        doc["ledger"] = list(ledger.values())
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"corrupt checkpoint record: {exc}") from None
    return sum(len(line) + 1 for line in lines[: len(records)])


def load_checkpoint_file(path: str | Path) -> dict:
    """The checkpoint at ``path``: its first line, the snapshot, with the
    complete records after it replayed."""
    path = Path(path)
    try:
        data = path.read_bytes()
        end = data.find(b"\n") + 1 or len(data)
        doc = json.loads(data if end == len(data) else data[:end])
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        return doc
    if end < len(data):
        end += _replay_journal(doc, data[end:])
    return CheckpointDocument(doc, path, end)
