"""Span recorder for the traced run, and the per-layer metrics derived from it.

Spans are recorded only from the benchmark's own code: wrappers installed
over the module-level names the engine, the oracle and the LLM backend call,
a delegating evaluator, the fake transport function and the run's
``on_generation`` callback. Each span has a name, start, end, parent and the
id of the generation it belongs to. Spans stay in memory, in flat arrays,
until the run ends.
"""

from __future__ import annotations

import json
import statistics
import threading
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

GENERATION = "engine.generation"


class Recorder:
    """Thread-safe span store; a span's id is its index in the arrays."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.generation = array("i")
        self.start = array("d")
        self.end = array("d")
        self._generation_id = 0
        self._generation_span = -1

    def _add(self, name: str, parent: int) -> int:
        start = perf_counter()
        with self._lock:
            code = self._codes.get(name)
            if code is None:
                code = self._codes[name] = len(self.names)
                self.names.append(name)
            span = len(self.start)
            self.name.append(code)
            self.parent.append(parent)
            self.generation.append(self._generation_id)
            self.start.append(start)
            self.end.append(0.0)
        return span

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # Pool threads start with an empty stack: their spans belong to the
        # generation the main thread is in.
        span = self._add(name, stack[-1] if stack else self._generation_span)
        stack.append(span)
        return span

    def finish(self, span: int) -> None:
        end = perf_counter()
        self._local.stack.pop()
        with self._lock:
            self.end[span] = end

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield
        finally:
            self.finish(span)

    def open_generation(self) -> None:
        """Start the span that the next ``on_generation`` callback closes."""
        self._generation_id += 1
        self._generation_span = self._add(GENERATION, -1)

    def close_generation(self, keep: bool) -> None:
        """End the open generation span; an unkept one (a pause) is dropped."""
        span = self._generation_span
        if span < 0:
            return
        with self._lock:
            self.end[span] = perf_counter() if keep else -1.0
        self._generation_span = -1

    def write(self, path: Path) -> None:
        """Write finished spans as columns; times are seconds from the first span."""
        keep = [i for i in range(len(self.start)) if self.end[i] > 0]
        origin = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "columns": ["id", "name", "parent", "generation", "start_s", "end_s"],
            "spans": [
                [i, self.name[i], self.parent[i], self.generation[i],
                 self.start[i] - origin, self.end[i] - origin]
                for i in keep
            ],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def wrap(recorder: Recorder, name: str, fn):
    def traced(*args, **kwargs):
        span = recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.finish(span)

    traced.__wrapped__ = fn
    return traced


def install(recorder: Recorder) -> None:
    """Replace the names the program calls between its layers with timed wrappers."""
    from clear_ga import engine
    from clear_ga.backends import llm, oracle

    targets = [
        (engine, "next_generation", "engine.next_generation"),
        (engine, "evaluate_genotype", "engine.evaluate_genotype"),
        (engine.EvolutionRun, "write_checkpoint", "engine.write_checkpoint"),
        (engine, "canonical_key", "schema.canonical_key"),
        (oracle, "canonical_key", "schema.canonical_key"),
        (engine, "crossover_fixed", "genome.crossover"),
        (engine, "crossover_variable", "genome.crossover"),
        (engine, "mutate_fixed", "genome.mutate"),
        (engine, "mutate_variable", "genome.mutate"),
        (engine, "building_error", "fitness.building_error"),
        (oracle.PlantedLandscape, "noise", "oracle.noise"),
        (llm, "build_evaluation_prompt", "prompts.build_evaluation_prompt"),
        (llm, "extract_delimited", "parsing.extract_delimited"),
        (llm, "parse_estimate", "parsing.parse_estimate"),
    ]
    for owner, attr, name in targets:
        setattr(owner, attr, wrap(recorder, name, getattr(owner, attr)))


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total


_SELF_TIMED = ("engine.evaluate_genotype", "engine.generation", "llm.evaluate")


def summarize(recorder: Recorder) -> dict:
    """Per-name calls and total time, and self time of the spans that have children.

    Self time is a span's duration minus the part of it that its child
    spans cover; children in pool threads may overlap, so their union counts.
    """
    names = recorder.names
    calls: Counter[str] = Counter()
    total: defaultdict[str, float] = defaultdict(float)
    intervals: dict[str, list[tuple[float, float]]] = {
        "engine.evaluate_genotype": [], "llm.send": [],
    }
    children: dict[int, list[tuple[float, float]]] = {}
    self_parents = {names.index(n) for n in _SELF_TIMED if n in names}
    for i in range(len(recorder.start)):
        start, end = recorder.start[i], recorder.end[i]
        if end <= 0:
            continue
        name = names[recorder.name[i]]
        calls[name] += 1
        total[name] += end - start
        if name in intervals:
            intervals[name].append((start, end))
        parent = recorder.parent[i]
        if parent >= 0 and recorder.name[parent] in self_parents:
            children.setdefault(parent, []).append((start, end))
    self_time = {n: 0.0 for n in _SELF_TIMED}
    for i in range(len(recorder.start)):
        if recorder.end[i] <= 0 or recorder.name[i] not in self_parents:
            continue
        start, end = recorder.start[i], recorder.end[i]
        covered = _union(
            [(max(s, start), min(e, end)) for s, e in children.get(i, []) if e > start and s < end]
        )
        self_time[names[recorder.name[i]]] += (end - start) - covered
    return {"calls": calls, "total": total, "self": self_time, "intervals": intervals}


def layer_metrics(summary: dict, counts: dict, concurrency: int) -> dict:
    """The per-layer metrics of one traced run; ``counts`` holds the ones spans cannot give."""
    calls, total, self_time = summary["calls"], summary["total"], summary["self"]
    # Wall time during which at least one member was being evaluated.
    evaluate_wall = _union(summary["intervals"]["engine.evaluate_genotype"])
    sends_ms = [1000 * (end - start) for start, end in summary["intervals"]["llm.send"]]
    inflight = total["llm.send"] / evaluate_wall if evaluate_wall else 0.0
    return {
        "engine.evaluate_s": evaluate_wall,
        "engine.evaluate_genotype.self_s": self_time["engine.evaluate_genotype"],
        "engine.reproduce_s": total["engine.next_generation"],
        "engine.generation.self_s": self_time["engine.generation"],
        "engine.checkpoint_s": total["engine.write_checkpoint"],
        "engine.checkpoint_bytes": counts["checkpoint_bytes"],
        "engine.resume_s": total["engine.resume"] / max(calls["engine.resume"], 1),
        "engine.ledger.entries": counts["ledger_entries"],
        "engine.ledger.reeval_share": counts["reeval_share"],
        "schema.canonical_key.calls": calls["schema.canonical_key"],
        "schema.canonical_key_s": total["schema.canonical_key"],
        "schema.canonical_key.calls_per_eval": (
            calls["schema.canonical_key"] / counts["evaluations"]
        ),
        "oracle.evaluate.calls": calls["oracle.evaluate"],
        "oracle.evaluate_s": total["oracle.evaluate"],
        "oracle.noise_s": total["oracle.noise"],
        "fitness.building_error_s": total["fitness.building_error"],
        "genome.crossover.calls": calls["genome.crossover"],
        "genome.mutate.calls": calls["genome.mutate"],
        "genome.ops_s": total["genome.crossover"] + total["genome.mutate"],
        "llm.send.calls": calls["llm.send"],
        "llm.retries": counts["retries"],
        "llm.penalties": counts["penalties"],
        "llm.send_ms.p50": statistics.median(sends_ms) if sends_ms else 0.0,
        "llm.send_ms.p90": quantile(sends_ms, 0.9) if sends_ms else 0.0,
        "llm.evaluate.self_s": self_time["llm.evaluate"],
        "llm.inflight.mean": inflight,
        "llm.overlap_share": inflight / concurrency,
        "prompts.build_s": total["prompts.build_evaluation_prompt"],
        "parsing.parse_s": total["parsing.extract_delimited"] + total["parsing.parse_estimate"],
        # Per report, like report_s.p50.
        "analysis.load_run_log_s": total["analysis.load_run_log"] / calls["analysis.load_run_log"],
        "analysis.summarize_s": total["analysis.summarize"] / calls["analysis.summarize"],
    }


def quantile(values: list[float], q: float) -> float:
    """The q-th quantile (q in 0.01 steps) by linear interpolation between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
