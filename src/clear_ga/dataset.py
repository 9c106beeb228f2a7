"""Ground-truth dataset manifests: loading, cleaning, and train/test splitting.

A manifest is a JSON array of building records. Each record points at the
image files for the four per-item subsets and carries the confirmed values
used to score estimates. Textual age forms are cleaned to year ranges at
load time so everything downstream works with typed values.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from random import Random

from .fitness import GroundTruth, HeatingClass, WindowClass
from .items import ITEMS, item_spec
from .parsing import ParseError, parse_age
from .schema import DataItem

IMAGE_SUBSETS = tuple(dict.fromkeys(spec.image_subset for spec in ITEMS.values()))


class DatasetError(ValueError):
    """Raised for unreadable or invalid manifest content."""


@dataclass(frozen=True)
class BuildingRecord:
    """One dwelling: id, grouped image references, and confirmed values."""

    id: str
    region: str
    image_sets: dict[str, tuple[Path, ...]]
    truth: GroundTruth


_HEATING_ALIASES = {
    "underfloor": HeatingClass.UNDERFLOOR,
    "underfloor heating": HeatingClass.UNDERFLOOR,
    "warm air": HeatingClass.WARM_AIR,
    "warm air from vents": HeatingClass.WARM_AIR,
    "water radiators": HeatingClass.WATER_RADIATORS,
    "water rads": HeatingClass.WATER_RADIATORS,
    "electric panel": HeatingClass.ELECTRIC_PANEL,
    "electric panels": HeatingClass.ELECTRIC_PANEL,
    "electric heaters": HeatingClass.ELECTRIC_PANEL,
    "electric storage": HeatingClass.ELECTRIC_STORAGE,
    "electric storage heaters": HeatingClass.ELECTRIC_STORAGE,
}

_WINDOW_ALIASES = {
    "single": WindowClass.SINGLE,
    "single glazed": WindowClass.SINGLE,
    "double": WindowClass.DOUBLE,
    "double glazed": WindowClass.DOUBLE,
    "high efficiency": WindowClass.HIGH_EFFICIENCY,
    "triple glazed": WindowClass.HIGH_EFFICIENCY,
    "high efficiency double or triple glazed": WindowClass.HIGH_EFFICIENCY,
}


def _parse_class(value: object, aliases: dict, where: str):
    if isinstance(value, str):
        key = " ".join(value.lower().replace("_", " ").split())
        if key in aliases:
            return aliases[key]
    raise DatasetError(f"{where}: unrecognized value {value!r}")


def _parse_truth(raw: object, where: str, current_year: int) -> GroundTruth:
    if not isinstance(raw, dict):
        raise DatasetError(f"{where}: truth must be an object")
    age = None
    if (raw_age := raw.get("age")) is not None:
        if isinstance(raw_age, bool) or not isinstance(raw_age, (int, str)):
            raise DatasetError(f"{where}.age: must be a whole year or a text form")
        try:
            age = parse_age(raw_age, current_year)
        except ParseError as exc:
            raise DatasetError(f"{where}.age: {exc}") from None
    lighting = raw.get("lighting_pct")
    if lighting is not None:
        if type(lighting) not in (int, float) or not 0 <= lighting <= 100:  # a bool is no number
            raise DatasetError(f"{where}.lighting_pct: must be a number in 0..100")
        lighting = float(lighting)
    heating = raw.get("heating")
    if heating is not None:
        heating = _parse_class(heating, _HEATING_ALIASES, f"{where}.heating")
    windows = raw.get("windows")
    if windows is not None:
        windows = _parse_class(windows, _WINDOW_ALIASES, f"{where}.windows")
    energy = raw.get("energy_kwh_m2")
    if energy is not None:
        if type(energy) not in (int, float) or not 0 < energy < math.inf:
            raise DatasetError(f"{where}.energy_kwh_m2: must be a positive finite number")
        energy = float(energy)
    return GroundTruth(
        age=age, lighting_pct=lighting, heating=heating, windows=windows, energy_kwh_m2=energy
    )


def _parse_image_sets(raw: object, where: str, base_dir: Path) -> dict[str, tuple[Path, ...]]:
    sets: dict[str, tuple[Path, ...]] = {subset: () for subset in IMAGE_SUBSETS}
    if raw is None:
        return sets
    if not isinstance(raw, dict):
        raise DatasetError(f"{where}: image_sets must be an object")
    for subset, paths in raw.items():
        if subset not in IMAGE_SUBSETS:
            raise DatasetError(f"{where}: unknown image subset {subset!r}")
        if not isinstance(paths, list) or not all(isinstance(p, str) for p in paths):
            raise DatasetError(f"{where}.{subset}: must be an array of file paths")
        resolved = []
        for p in paths:
            candidate = Path(p)
            if not candidate.is_absolute():
                candidate = base_dir / candidate
            if not candidate.is_file():
                raise DatasetError(f"{where}.{subset}: image file not found: {p}")
            resolved.append(candidate)
        sets[subset] = tuple(resolved)
    return sets


def load_manifest(path: str | Path, current_year: int) -> list[BuildingRecord]:
    """Load and clean a dataset manifest; image paths resolve relative to the file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DatasetError(f"cannot read manifest {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DatasetError(f"manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, list) or not raw:
        raise DatasetError(f"manifest {path} must be a non-empty JSON array")
    records = []
    seen_ids: set[str] = set()
    for i, entry in enumerate(raw):
        where = f"buildings[{i}]"
        if not isinstance(entry, dict):
            raise DatasetError(f"{where}: must be an object")
        building_id = entry.get("id")
        if not isinstance(building_id, str) or not building_id:
            raise DatasetError(f"{where}.id: must be a non-empty string")
        if building_id in seen_ids:
            raise DatasetError(f"{where}.id: duplicate building id {building_id!r}")
        seen_ids.add(building_id)
        region = entry.get("region", "UK")
        if not isinstance(region, str) or not region:
            raise DatasetError(f"{where}.region: must be a non-empty string")
        records.append(
            BuildingRecord(
                id=building_id,
                region=region,
                image_sets=_parse_image_sets(entry.get("image_sets"), where, path.parent),
                truth=_parse_truth(entry.get("truth", {}), f"{where}.truth", current_year),
            )
        )
    return records


def manifest_digest(path: str | Path) -> str:
    """Content hash of the manifest file, used to guard checkpoint resumption."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def require_truth(records: list[BuildingRecord], item: DataItem) -> None:
    """Ensure every record carries the ground-truth field the item needs."""
    item = DataItem(item)
    field = ITEMS[item].truth_field
    for record in records:
        if getattr(record.truth, field) is None:
            raise DatasetError(f"building {record.id!r} has no truth.{field} for item {item.value}")


def split_records(
    records: list[BuildingRecord],
    item: DataItem,
    rng: Random,
    train_fraction: float = 0.6,
) -> tuple[list[BuildingRecord], list[BuildingRecord]]:
    """Stratified train/test split keeping value distributions similar.

    Records are grouped by the item's truth value; each group is shuffled and
    split at ``train_fraction``, with any group of two or more records
    guaranteed to land on both sides so rare values stay represented.
    Singleton groups go to training.
    """
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    spec = item_spec(item)
    require_truth(records, item)
    strata: dict[str, list[BuildingRecord]] = {}
    for record in records:
        strata.setdefault(spec.stratum(spec.truth_of(record.truth)), []).append(record)
    train: list[BuildingRecord] = []
    test: list[BuildingRecord] = []
    for key in sorted(strata):
        group = list(strata[key])
        rng.shuffle(group)
        if len(group) == 1:
            train.extend(group)
            continue
        n_train = round(train_fraction * len(group))
        n_train = max(1, min(len(group) - 1, n_train))
        train.extend(group[:n_train])
        test.extend(group[n_train:])
    order = {record.id: i for i, record in enumerate(records)}
    train.sort(key=lambda r: order[r.id])
    test.sort(key=lambda r: order[r.id])
    return train, test
