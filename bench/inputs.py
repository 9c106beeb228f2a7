"""Seeded input generator: schema, landscape and manifest files for one workload.

Standard library only, so the benchmark can write its inputs before it
imports the program. The same (workload settings, seed) always yields
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random

_WORDS = (
    "brick", "sash", "render", "cornice", "radiator", "vent", "lintel", "gable",
    "parquet", "skirting", "dado", "bay", "spandrel", "coping", "soffit", "fascia",
)

# Stratum value ranges per data item, in the order of the settings' "strata"
# counts; they follow the era, band and class boundaries that
# dataset.split_records stratifies on.
_ENERGY_BANDS = ((40, 99), (100, 200), (201, 420))
_AGE_BANDS = ((1820, 1899), (1900, 1969), (1970, 2023))
_WINDOW_CLASSES = ("single", "double", "high_efficiency")


SPEC = Path(__file__).resolve().parent / "spec.json"


def workload_settings(name: str, scale: str) -> dict:
    """A workload's settings from spec.json, with the tiny overrides applied for ``tiny``."""
    workloads = json.loads(SPEC.read_text(encoding="utf-8"))["workloads"]
    if name not in workloads:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(workloads)}")
    settings = dict(workloads[name]["settings"])
    if scale == "tiny":
        settings.update(workloads[name]["tiny"])
    return settings


def _schema(item: str, settings: dict, rng: Random) -> dict:
    categories = []
    for i in range(settings["categories"]):
        word = _WORDS[i % len(_WORDS)]
        cues = [f"{word} feature {i}-{j}" for j in range(settings["cues"])]
        rng.shuffle(cues)
        categories.append({"name": f"{word} group {i}", "cues": cues})
    return {"data_item": item, "region": "UK", "categories": categories}


def _landscape(schema: dict, settings: dict, rng: Random) -> dict:
    planted = [
        {"category": i, "cue": rng.choice(c["cues"]), "benefit": round(rng.uniform(2.0, 4.0), 3)}
        for i, c in enumerate(schema["categories"])
    ]
    total = sum(p["benefit"] for p in planted)
    return {
        "seed": rng.randrange(2**31),
        # The margin above the total benefit keeps every building's score far
        # from zero, so no run can stop early on a perfect generation.
        "base_error": round(total + settings["margin"], 3),
        "distractor_penalty": 1.0,
        "noise_scale": settings["noise"],
        "planted": planted,
    }


def _truth(item: str, stratum: int, rng: Random) -> dict:
    if item == "energy":
        low, high = _ENERGY_BANDS[stratum]
        return {"energy_kwh_m2": rng.randint(low, high)}
    if item == "building_age":
        low, high = _AGE_BANDS[stratum]
        return {"age": str(rng.randint(low, high))}
    if item in ("windows", "windows_uvalue"):
        return {"windows": _WINDOW_CLASSES[stratum]}
    raise ValueError(f"no generator for data item {item!r}")


def write_inputs(settings: dict, seed: int, out_dir: Path) -> dict:
    """Write schema.json, manifest.json and, for the oracle, landscape.json.

    Returns the file paths plus ``truth_by_image`` (image file name to true
    year), which the fake vision transport uses to "see" each building.
    """
    rng = Random(f"clear-ga-bench|{settings['item']}|{seed}")
    item = settings["item"]
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = _schema(item, settings, rng)
    paths = {"schema": out_dir / "schema.json", "manifest": out_dir / "manifest.json"}
    paths["schema"].write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")
    if settings["backend"] == "oracle":
        paths["landscape"] = out_dir / "landscape.json"
        landscape = _landscape(schema, settings, rng)
        paths["landscape"].write_text(json.dumps(landscape, indent=2) + "\n", encoding="utf-8")

    entries = []
    truth_by_image = {}
    for stratum, size in enumerate(settings["strata"]):
        for _ in range(size):
            building_id = f"b{len(entries):03d}"
            entry = {"id": building_id, "region": "UK", "truth": _truth(item, stratum, rng)}
            if settings["backend"] == "llm":
                image = f"{building_id}.jpg"
                (out_dir / "images").mkdir(exist_ok=True)
                (out_dir / "images" / image).write_bytes(b"\xff\xd8 placeholder \xff\xd9")
                entry["image_sets"] = {"building": [f"images/{image}"]}
                truth_by_image[image] = int(entry["truth"]["age"])
            entries.append(entry)
    rng.shuffle(entries)
    paths["manifest"].write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
    return {"paths": paths, "truth_by_image": truth_by_image}
