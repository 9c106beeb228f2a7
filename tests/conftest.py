"""Shared test fixtures and the acceptance-suite result printer."""

from __future__ import annotations

import json
import threading
from pathlib import Path

from clear_ga.dataset import IMAGE_SUBSETS, BuildingRecord
from clear_ga.fitness import GroundTruth, HeatingClass, WindowClass, YearRange
from clear_ga.schema import CueCategory, CueSchema, DataItem


def build_schema(
    item: DataItem = DataItem.ENERGY,
    category_sizes: tuple[int, ...] = (3, 3),
    region: str = "UK",
) -> CueSchema:
    categories = tuple(
        CueCategory(name=f"cat{i}", cues=tuple(f"c{i}_{j}" for j in range(size)))
        for i, size in enumerate(category_sizes)
    )
    return CueSchema(data_item=item, region=region, categories=categories)


def build_record(building_id: str = "b1", region: str = "UK", **truth) -> BuildingRecord:
    fields = dict(
        age=YearRange(2014, 2014),
        lighting_pct=86.0,
        heating=HeatingClass.WATER_RADIATORS,
        windows=WindowClass.DOUBLE,
        energy_kwh_m2=120.0,
    )
    fields.update(truth)
    return BuildingRecord(
        id=building_id,
        region=region,
        image_sets={subset: () for subset in IMAGE_SUBSETS},
        truth=GroundTruth(**fields),
    )


def write_manifest(path: Path, entries: list[dict]) -> Path:
    path.write_text(json.dumps(entries, indent=2), encoding="utf-8")
    return path


class RecordingTransport:
    """Transport that records each send in ``calls`` and answers it with
    ``answer(prompt, images)``."""

    def __init__(self, answer):
        self.answer = answer
        self.calls = []
        self._lock = threading.Lock()

    def send(self, prompt, images):
        with self._lock:
            self.calls.append((prompt, tuple(images)))
        return self.answer(prompt, images)

    def sends(self, fragment):
        return sum(fragment in prompt for prompt, _ in self.calls)


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    outcome = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {outcome}", flush=True)
