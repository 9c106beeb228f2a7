"""clear-ga benchmark: one workload, its end-to-end or per-layer metrics, checked.

Usage (from the repository root):

    python3 bench/run.py --workload oracle-evolve --seed 1 --seconds 30 --trace 0

Workloads, their sizes and the layer map are in bench/spec.json; metric
names, units and bounds are in BENCHMARK.json. Inputs are generated from
``--seed``. Every run of the workload happens in a fresh process
(bench/worker.py), one at a time, started from this process's only thread.

First an untimed reference run of the same inputs (uninterrupted, no
checkpoint file, another concurrency, no transport latency) fixes what the
outputs must be. Then timed runs repeat for ``--seconds`` (at least three
runs and 100 generations), and each must reproduce the reference's run-log
digest, final state digest, best error and, on llm-wait, its send, retry and
penalty counts; seeds pinned in bench/gate.json must also reproduce the
recorded values. A mismatch exits 1 without a result.

``--trace 0`` reports every end-to-end metric over the timed runs, as
medians. The host's CPU speed swings, so CPU-bound times are scaled to a
nominal host speed by reference times measured with them (bench/speed.py);
the table also gives each as measured. Set-up is timed in ``SETUPS_PER_RUN``
set-up-only processes before each untraced run.
``--trace 1`` alternates untraced and traced runs, prints the per-layer table,
writes the last traced run's spans to .bench_work/spans-<workload>-s<seed>.json
and reports every per-layer metric. The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import spans
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
MIN_RUNS = 3
SETUPS_PER_RUN = 3  # set-up-only processes started before each untraced run
MIN_GENERATIONS = 100  # gen_s.p90 wants at least ten samples beyond it
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """A run failed or produced a wrong output."""


def run_worker(workload: str, seed: int, scale: str, mode: str, trace: int, work: Path,
               samples_from: Path | None = None):
    """Run one workload, or its set-up alone, in a fresh process; returns
    (set-up seconds, its output)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--scale", scale, "--mode", mode, "--trace", str(trace), "--work", str(work),
    ]
    if samples_from is not None:
        cmd += ["--samples-from", str(samples_from)]
    work.mkdir(parents=True, exist_ok=True)
    with open(work / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, _ = proc.communicate()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        err.seek(0)
        stderr_tail = err.read().decode("utf-8", "replace").strip().splitlines()[-5:]
    if proc.returncode != 0 or ready != b"ready\n":
        raise BenchError(
            f"{mode} run of {workload} (seed {seed}) exited {proc.returncode}: "
            + " | ".join(stderr_tail)
        )
    return setup_s, json.loads(out.decode("utf-8").splitlines()[-1])


def expected_outputs(output: dict) -> dict:
    """What a run of the same workload and seed must reproduce exactly."""
    counts = output["counts"]
    return {
        "digest": output["digest"],
        "state_digest": output["state_digest"],
        "best_error": output["best_error"],
        "sends": counts["sends"],
        "retries": counts["retries"],
        "penalties": counts["penalties"],
    }


def verify(output: dict, expected: dict, settings: dict, what: str) -> None:
    """Raise BenchError unless the run reproduced the expected outputs exactly."""
    counts = output["counts"]
    actual = expected_outputs(output)
    wrong = [f"{k} {actual[k]!r} != {v!r}" for k, v in expected.items() if actual[k] != v]
    # The evaluator's retry policy, checked against what the fake model saw:
    # a pair that never parses costs retry_limit + 1 sends and one penalty,
    # a pair whose first answer is unparseable costs one retry.
    attempts = settings["retry_limit"] + 1
    if counts["dead_sends"] != counts["penalties"] * attempts:
        wrong.append(f"{counts['dead_sends']} sends of unparseable pairs for "
                     f"{counts['penalties']} penalties at {attempts} attempts each")
    if counts["retries"] != counts["flaky_hits"] + counts["penalties"] * (attempts - 1):
        wrong.append(f"{counts['retries']} retries for {counts['flaky_hits']} flaky first "
                     f"answers and {counts['penalties']} penalties")
    if wrong:
        raise BenchError(f"{what}: " + "; ".join(wrong))


def measure_setups(workload: str, seed: int, scale: str, work: Path,
                   count: int) -> list[tuple[float, list[float]]]:
    """``count`` set-up-only processes, each timed between two interpreter
    starts; returns (set-up seconds, the two interpreter starts' seconds)."""
    setups = []
    before = speed.time_interpreter_start()
    for _ in range(count):
        setup_s, _ = run_worker(workload, seed, scale, "setup", 0, work)
        shutil.rmtree(work)
        after = speed.time_interpreter_start()
        setups.append((setup_s, [before, after]))
        before = after
    return setups


def end_to_end(runs: list[tuple[float, dict]], setups: list[tuple[float, list[float]]],
               scale_run: bool, scaled: bool = True) -> tuple[dict, dict]:
    """Medians over untraced runs and set-up-only processes; returns (metrics,
    sample counts).

    Set-up, resume and report times are CPU-bound on every workload and are
    scaled to nominal host speed by the reference times measured with them
    (bench/speed.py). Run and generation times are scaled where
    ``scale_run``; not on a workload whose time is mostly waiting, which does
    not follow the CPU's speed. ``scaled=False`` gives every time as measured.
    """
    def nominal(seconds: float, reference_s: list[float], applies: bool = True,
                nominal_s: float = speed.NOMINAL_S) -> float:
        return speed.at_nominal(seconds, reference_s, nominal_s) if scaled and applies else seconds

    def paired(out: dict, name: str, applies: bool = True) -> list[float]:
        return [nominal(t, [r], applies)
                for t, r in zip(out[f"{name}_s"], out[f"{name}_reference_s"], strict=True)]

    outputs = [out for _, out in runs]
    run_s = [nominal(out["run_s"], out["generation_reference_s"], scale_run) for out in outputs]
    generation_s = [g for out in outputs for g in paired(out, "generation", scale_run)]
    resume_s = [r for out in outputs for r in paired(out, "resume")]
    report_s = [r for out in outputs for r in paired(out, "report")]
    metrics = {
        "setup_s": statistics.median(
            nominal(setup, starts, nominal_s=speed.NOMINAL_START_S) for setup, starts in setups
        ),
        "run_s": statistics.median(run_s),
        "evals_per_s": statistics.median(
            out["counts"]["evaluations"] / s for out, s in zip(outputs, run_s)
        ),
        "gen_s.p50": statistics.median(generation_s),
        "gen_s.p90": spans.quantile(generation_s, 0.9),
        "resume_s.p50": statistics.median(resume_s),
        "report_s.p50": statistics.median(report_s),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in outputs),
    }
    samples = {"runs": len(runs), "setups": len(setups),
               "generations": len(generation_s), "resumes": len(resume_s),
               "reports": len(report_s)}
    return metrics, samples


def per_layer(untraced: list[tuple[float, dict]], traced: list[tuple[float, dict]]) -> dict:
    """Medians over traced runs, plus the ratios that need the untraced runs."""
    outputs = [out for _, out in traced]
    metrics = {
        name: statistics.median(out["layers"][name] for out in outputs)
        for name in outputs[0]["layers"]
    }
    for name in outputs[0]["setup"]:
        metrics[name] = statistics.median(out["setup"][name] for out in outputs)
    counts = outputs[0]["counts"]
    metrics["failed_share"] = counts["penalties"] / counts["evaluations"]
    metrics["proc.cpu_share"] = statistics.median(
        out["cpu_s"] / out["run_s"] for _, out in untraced
    )
    metrics["trace.overhead_share"] = (
        statistics.median(out["run_s"] for out in outputs)
        / statistics.median(out["run_s"] for _, out in untraced)
        - 1
    )
    return metrics


def print_layer_table(metrics: dict, units: dict, layers: list[dict], run_s: float) -> None:
    """One row per metric, grouped by layer; times also as a share of the traced run_s."""
    print(f"{'layer':<22} {'metric':<36} {'value':>12} {'unit':<6} {'/run_s':>7}  moves")
    for layer in layers:
        for name in layer["metrics"]:
            value, unit = metrics[name], units[name]
            share = f"{value / run_s:7.1%}" if unit == "s" and layer["moves"] != ["setup_s"] else ""
            print(f"{layer['layer']:<22} {name:<36} {value:>12.6g} {unit:<6} {share:>7}  "
                  f"{', '.join(layer['moves'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed runs last")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: the smoke-test size")
    parser.add_argument("--gate", type=Path, default=BENCH / "gate.json",
                        help="pinned expected outputs per scale, workload and seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "clear_ga" / "__init__.py").is_file():
        print(f"error: no clear_ga sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads(inputs.SPEC.read_text(encoding="utf-8"))
    settings = inputs.workload_settings(args.workload, args.scale)
    pinned = json.loads(args.gate.read_text(encoding="utf-8"))
    pinned = pinned.get(args.scale, {}).get(args.workload, {}).get(str(args.seed))

    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    print(json.dumps({"machine": {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "scale": args.scale,
                      "settings": settings}))
    try:
        _, reference = run_worker(args.workload, args.seed, args.scale, "reference", 0,
                                  work / "reference")
        expected = expected_outputs(reference)
        verify(reference, pinned or {}, settings,
               "reference run" + (" against bench/gate.json" if pinned else ""))
        untraced, traced, setups = [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            trace = args.trace and len(untraced) > len(traced)
            rep_dir = work / f"run{len(untraced) + len(traced)}"
            started = time.perf_counter()
            if not trace:
                setups += measure_setups(args.workload, args.seed, args.scale, work / "setup",
                                         SETUPS_PER_RUN)
            setup_s, output = run_worker(args.workload, args.seed, args.scale, "timed",
                                         int(trace), rep_dir, work / "reference")
            verify(output, expected, settings, f"timed run {rep_dir.name} against the reference")
            if trace:
                traced.append((setup_s, output))
                os.replace(rep_dir / "spans.json",
                           WORK / f"spans-{args.workload}-s{args.seed}.json")
            else:
                untraced.append((setup_s, output))
            shutil.rmtree(rep_dir)
            if args.trace:
                enough = min(len(untraced), len(traced)) >= MIN_RUNS
            else:
                enough = len(untraced) >= MIN_RUNS and sum(
                    len(out["generation_s"]) for _, out in untraced) >= MIN_GENERATIONS
            if enough and time.perf_counter() + (time.perf_counter() - started) > deadline:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"gate": "pinned and reference" if pinned else "reference",
                      "expected": expected}))
    scale_run = settings["scale_run_times"]
    metrics, samples = end_to_end(untraced, setups, scale_run)
    samples["reference_ms"] = {
        "interpreter_start": 1000 * statistics.median(s for _, starts in setups for s in starts),
        "loop_by_run": [1000 * statistics.fmean(out["generation_reference_s"])
                        for _, out in untraced],
    }
    if args.trace:
        metrics = per_layer(untraced, traced)
        samples["traced_runs"] = len(traced)
        print_layer_table(metrics, units, spec["layers"], statistics.median(
            out["run_s"] for _, out in traced))
    else:
        measured, _ = end_to_end(untraced, setups, scale_run, scaled=False)
        print(f"{'metric':<14} {'value':>14} {'unit':<6} {'as measured':>14}")
        for name, value in metrics.items():
            print(f"{name:<14} {value:>14.6g} {units[name]:<6} {measured[name]:>14.6g}")
    print(json.dumps({"samples": samples, "counts": reference["counts"]}))
    if set(metrics) != set(units):
        raise AssertionError(f"metrics {sorted(metrics)} are not BENCHMARK.json's {sorted(units)}")
    result = {
        "correct": True,
        "attempted": len(untraced) + len(traced),
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
