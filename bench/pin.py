"""Recompute bench/gate.json: the outputs that reference runs of pinned seeds must give.

    python3 bench/pin.py --seeds 0..31

A timed run of a pinned seed must reproduce the recorded run-log digest,
best error and send, retry and penalty counts, or the benchmark fails. Re-pin
only for a change that is meant to alter the program's outputs, and say so;
a change that claims a speed-up leaves gate.json as it is.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil

import inputs
from run import BENCH, WORK, expected_outputs, run_worker


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0..31", help="inclusive range A..B")
    args = parser.parse_args()
    match = re.fullmatch(r"(\d+)\.\.(\d+)", args.seeds)
    if not match:
        parser.error("--seeds must look like A..B")
    seeds = range(int(match.group(1)), int(match.group(2)) + 1)
    workloads = json.loads(inputs.SPEC.read_text(encoding="utf-8"))["workloads"]
    path = BENCH / "gate.json"
    gate = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    try:
        for scale in ("full", "tiny"):
            for workload in workloads:
                pinned = gate.setdefault(scale, {}).setdefault(workload, {})
                for seed in seeds:
                    _, reference = run_worker(
                        workload, seed, scale, "reference", 0, WORK / "pin" / f"{workload}-{seed}"
                    )
                    pinned[str(seed)] = expected_outputs(reference)
                    print(scale, workload, seed, pinned[str(seed)]["digest"][:16], flush=True)
    finally:
        shutil.rmtree(WORK / "pin", ignore_errors=True)
    path.write_text(json.dumps(gate, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
