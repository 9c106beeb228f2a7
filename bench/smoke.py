"""Smoke test of the benchmark itself, at the tiny size; exits 0 when every check passes.

    python3 bench/smoke.py

Checks that every workload runs in both modes and prints every metric that
BENCHMARK.json names, with its unit; that the gate rejects a wrong pinned
digest; and that the command fails without a result where the program's
sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work" / "smoke"
SEED = 1


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", str(SEED), "--seconds", "1", "--scale", "tiny",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> dict | None:
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{workload} --trace {trace}"
            code, lines = bench("--workload", workload, "--trace", str(trace))
            result = result_of(lines)
            if code != 0 or result is None:
                failures.append(f"{what}: exit {code}, no result")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{what}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{what}: correct {result['correct']}, attempted "
                                f"{result['attempted']}, failed {result['failed']}")
            expected = {m["name"]: m["unit"] for m in benchmark[kind]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                failures.append(f"{what}: metrics {printed} differ from {expected}")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                if not isinstance(value, (int, float)) or (kind == "end_to_end" and value <= 0):
                    failures.append(f"{what}: {name} = {value!r}")
            print(f"ok   {what}: {len(printed)} metrics", flush=True)

    WORK.mkdir(parents=True, exist_ok=True)
    try:
        gate = json.loads((BENCH / "gate.json").read_text(encoding="utf-8"))
        gate["tiny"]["oracle-evolve"][str(SEED)]["digest"] = "0" * 64
        tampered = WORK / "gate.json"
        tampered.write_text(json.dumps(gate), encoding="utf-8")
        code, lines = bench("--workload", "oracle-evolve", "--gate", str(tampered))
        if code == 0 or result_of(lines) is not None:
            failures.append(f"a wrong pinned digest was accepted (exit {code})")
        else:
            print(f"ok   wrong pinned digest rejected (exit {code})")

        lonely = WORK / "lonely"
        shutil.copytree(BENCH, lonely / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", lonely)
        code, lines = bench("--workload", "oracle-evolve", "--trace", "0", cwd=lonely)
        if code == 0 or result_of(lines) is not None:
            failures.append(f"the command succeeded without the program's sources (exit {code})")
        else:
            print(f"ok   no sources: exit {code} without a result")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
