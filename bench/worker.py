"""One workload run in a fresh process; ``run.py`` spawns it and reads its output.

Protocol: the worker prints ``ready`` on its own line once ``EvolutionRun``
is constructed (the parent's set-up clock stops there), then one JSON object
with its timings, counts and output digest as its last line. A failed
correctness check prints a message to standard error and exits 1. It also
times the host-speed reference loop (bench/speed.py) right after every
generation and right before every resume and report sample, outside the
timed intervals, and reports those times next to the ones they belong to.

Modes:
    timed      the workload as configured: checkpoints, pauses, latency.
    reference  the same inputs, uninterrupted, without a checkpoint file, at
               the workload's reference concurrency and with no transport
               latency; its outputs are what every timed run must reproduce.
               It writes its final checkpoint once the run is over.
    setup      the set-up alone: it stops at ``ready``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import resource
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from random import Random

import inputs
import spans
import speed
import transport

ROOT = Path(__file__).resolve().parent.parent
CURRENT_YEAR = 2025


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class CountingEvaluator:
    """Delegates to the program's evaluator; counts permanent failures, and
    records a span per call when given a recorder."""

    def __init__(self, inner, span_name: str, recorder: spans.Recorder | None):
        from clear_ga.backends import EvaluationFailure

        self.inner = inner
        self.span_name = span_name
        self.recorder = recorder
        self.failure_type = EvaluationFailure
        self.failures = 0
        self._lock = threading.Lock()

    def evaluate(self, request):
        span = self.recorder.begin(self.span_name) if self.recorder else None
        try:
            return self.inner.evaluate(request)
        except self.failure_type:
            with self._lock:
                self.failures += 1
            raise
        finally:
            if span is not None:
                self.recorder.finish(span)

    def describe(self) -> dict:
        return self.inner.describe()


def log_digest(path: Path) -> str:
    """sha256 of the run log's generation rows; the header line names output paths."""
    lines = path.read_bytes().splitlines(keepends=True)
    check(json.loads(lines[0]).get("type") == "config", "run log does not start with its config")
    return hashlib.sha256(b"".join(lines[1:])).hexdigest()


def state_digest(path: Path) -> str:
    """sha256 of a checkpoint without its config record, which names output paths.

    The run log holds errors only; this covers the genotypes, the ledger and
    the random state as well, so a resumed run must retrace them exactly.
    """
    state = json.loads(path.read_text(encoding="utf-8"))
    del state["config"]
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--mode", choices=["timed", "reference", "setup"], default="timed")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--samples-from", type=Path, default=None,
                        help="the reference run's directory, for resume and report samples")
    args = parser.parse_args(argv)

    import_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import clear_ga  # noqa: F401  (the import is what import_s times)
    from clear_ga import analysis
    from clear_ga.backends import (
        FunctionTransport, LlmEvaluator, OracleEvaluator, load_landscape_file,
    )
    from clear_ga.dataset import load_manifest, manifest_digest, split_records
    from clear_ga.engine import EvolutionRun, RunConfig, load_checkpoint_file
    from clear_ga.schema import load_schema_file, schema_digest

    import_s = time.perf_counter() - import_start
    check(
        Path(clear_ga.__file__).resolve().is_relative_to(ROOT / "src"),
        f"imported clear_ga from {clear_ga.__file__}, not from this checkout",
    )
    # As the CLI does: warnings (failure penalties) go to standard error.
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    settings = inputs.workload_settings(args.workload, args.scale)
    timed = args.mode != "reference"
    recorder = spans.Recorder() if args.trace else None
    if recorder:
        spans.install(recorder)
    setup: dict[str, float] = {"import_s": import_s}

    def timed_call(name: str, fn, *fn_args, **fn_kwargs):
        start = time.perf_counter()
        value = fn(*fn_args, **fn_kwargs)
        setup[name] = time.perf_counter() - start
        return value

    # --- set-up, as cli._run_one does it ---------------------------------
    generated = inputs.write_inputs(settings, args.seed, args.work)
    paths = generated["paths"]
    schema = timed_call("schema.load_schema_file_s", load_schema_file, paths["schema"])
    schema_sha = schema_digest(schema)
    dataset_sha = manifest_digest(paths["manifest"])
    records = timed_call(
        "dataset.load_manifest_s", load_manifest, paths["manifest"], current_year=CURRENT_YEAR
    )
    training, _ = timed_call(
        "dataset.split_records_s", split_records, records, settings["item"], Random(args.seed),
        train_fraction=settings["train_fraction"],
    )
    check(
        len(training) == settings["buildings"],
        f"training split has {len(training)} buildings, expected {settings['buildings']}",
    )
    model = None
    if settings["backend"] == "oracle":
        evaluator = OracleEvaluator(load_landscape_file(paths["landscape"]))
        if recorder:
            evaluator = CountingEvaluator(evaluator, "oracle.evaluate", recorder)
    else:
        latency = settings["latency_ms"] / 1000 if timed else 0.0
        model = transport.FakeVisionModel(generated["truth_by_image"], args.seed, latency)
        send = spans.wrap(recorder, "llm.send", model) if recorder else model
        evaluator = CountingEvaluator(
            LlmEvaluator(
                FunctionTransport(send),
                retry_limit=settings["retry_limit"],
                current_year=CURRENT_YEAR,
            ),
            "llm.evaluate",
            recorder,
        )
    config = RunConfig(
        data_item=settings["item"],
        mode=settings["mode"],
        population_size=settings["population"],
        generations=settings["generations"],
        seed=args.seed,
        evaluation_concurrency=(
            settings["concurrency"] if timed else settings["reference_concurrency"]
        ),
        retry_limit=settings["retry_limit"],
        current_year=CURRENT_YEAR,
        backend=settings["backend"],
        schema_path=str(paths["schema"]),
        dataset_path=str(paths["manifest"]),
        landscape_path=str(paths["landscape"]) if "landscape" in paths else None,
        checkpoint_path=str(args.work / "checkpoint.json") if timed else None,
        log_path=str(args.work / "run.log.jsonl"),
        schema_sha256=schema_sha,
        dataset_sha256=dataset_sha,
    )
    run = EvolutionRun(config, schema, evaluator, training)
    print("ready", flush=True)
    if args.mode == "setup":
        print("{}", flush=True)
        return 0

    # --- the run ------------------------------------------------------------
    # Resume and report samples resume the reference run's final checkpoint
    # and report over its log, which hold the same run as this one's (the
    # digest check confirms it). They are taken every few generations
    # while the run goes on, so that they spread over the measurement as the
    # generations do, and their time is left out of run_s and the generation
    # times. Each starts after a full collection: otherwise whether the run's
    # own heap is collected inside a sample depends on the seed, not on the
    # code measured.
    label = f"{settings['item']}_{settings['mode']}_s{args.seed}"
    pause_every = settings["pause_every"] if timed else 0
    sample_every = settings["sample_every"] if args.samples_from else 0
    generation_s: list[float] = []
    generation_reference_s: list[float] = []
    resume_s: list[float] = []
    resume_reference_s: list[float] = []
    report_s: list[float] = []
    report_reference_s: list[float] = []
    clock = [0.0]
    sampling = {"wall": 0.0, "cpu": 0.0}

    def span(name: str):
        return recorder.span(name) if recorder else nullcontext()

    def resume(path):
        with span("engine.resume"):
            return EvolutionRun.resume(
                load_checkpoint_file(path), schema, evaluator, training,
                schema_sha256=schema_sha, dataset_sha256=dataset_sha,
            )

    def report(log_path: Path):
        with span("analysis.load_run_log"):
            header, logged = analysis.load_run_log(log_path)
        with span("analysis.summarize"):
            analysis.summarize([(label, logged)])
        text = analysis.render_text_summary(label, logged)
        check(header is not None and text.startswith(f"run {label}:"), "report is malformed")
        return logged

    def take_samples() -> None:
        gc.collect()
        resume_reference_s.append(speed.time_reference())
        start = time.perf_counter()
        resumed = resume(args.samples_from / "checkpoint.json")
        resume_s.append(time.perf_counter() - start)
        check(resumed.finished, "resuming a final checkpoint does not give a finished run")
        del resumed
        gc.collect()
        report_reference_s.append(speed.time_reference())
        start = time.perf_counter()
        report(args.samples_from / "run.log.jsonl")
        report_s.append(time.perf_counter() - start)

    def on_generation(stats, population) -> None:
        now = time.perf_counter()
        generation_s.append(now - clock[0])
        if recorder:
            recorder.close_generation(keep=True)
        cpu = time.process_time()
        generation_reference_s.append(speed.time_reference())
        if sample_every and stats.generation and stats.generation % sample_every == 0:
            take_samples()
        sampling["cpu"] += time.process_time() - cpu
        sampling["wall"] += time.perf_counter() - now
        now = time.perf_counter()
        if recorder:
            recorder.open_generation()
        clock[0] = now

    cpu_start = time.process_time()
    run_start = time.perf_counter()
    stop = pause_every or None
    while True:
        clock[0] = time.perf_counter()
        if recorder:
            recorder.open_generation()
        result = run.run(on_generation=on_generation, stop_after_generation=stop)
        if recorder:
            recorder.close_generation(keep=False)
        if result.completed:
            break
        check(pause_every and run.generation == stop, f"run paused at generation {run.generation}")
        run = resume(config.checkpoint_path)
        stop += pause_every
    run_s = time.perf_counter() - run_start - sampling["wall"]
    cpu_s = time.process_time() - cpu_start - sampling["cpu"]

    # --- what the run left behind -------------------------------------------
    rows = result.per_generation_log
    check(
        len(rows) == settings["generations"] + 1 and rows[-1].generation == settings["generations"],
        f"run stopped after {len(rows)} generation rows, expected {settings['generations'] + 1}",
    )
    check(not any(row.perfect for row in rows), "a generation reached a perfect score")
    log_path = Path(config.log_path)
    check(report(log_path) == rows, "run log rows differ from the run's in-memory log")
    if timed:
        check(resume(config.checkpoint_path).finished, "the final checkpoint is not a finished run")
    else:
        # The samples of the timed runs resume this one.
        run.config.checkpoint_path = str(args.work / "checkpoint.json")
        run.write_checkpoint()
    evaluations = settings["population"] * settings["buildings"] * len(rows)
    ledger_evaluations = sum(e.evaluations for e in run.ledger.entries.values())
    check(ledger_evaluations == settings["population"] * len(rows), "ledger lost evaluations")
    counts = {
        "evaluations": evaluations,
        "penalties": getattr(evaluator, "failures", 0),
        "sends": model.sends if model else 0,
        "retries": model.sends - evaluations if model else 0,
        "flaky_hits": model.flaky_hits if model else 0,
        "dead_sends": model.dead_sends if model else 0,
        "ledger_entries": len(run.ledger.entries),
        "reeval_share": 1 - len(run.ledger.entries) / ledger_evaluations,
        "checkpoint_bytes": os.path.getsize(run.config.checkpoint_path),
    }
    output = {
        "setup": setup,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "generation_s": generation_s,
        "resume_s": resume_s,
        "report_s": report_s,
        "generation_reference_s": generation_reference_s,
        "resume_reference_s": resume_reference_s,
        "report_reference_s": report_reference_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": log_digest(log_path),
        "state_digest": state_digest(Path(run.config.checkpoint_path)),
        "best_error": result.best_recorded_error,
        "counts": counts,
    }
    if recorder:
        output["layers"] = spans.layer_metrics(
            spans.summarize(recorder), counts, config.evaluation_concurrency
        )
        recorder.write(args.work / "spans.json")
    print(json.dumps(output), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        sys.exit(1)
