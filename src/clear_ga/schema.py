"""Cue search space: schemas, genotypes, and prompt rendering.

A cue schema defines the space the genetic algorithm explores: an ordered
list of categories, each holding the cue labels that may appear in the
matching chromosome of a genotype. A genotype always carries one chromosome
per category. Fixed-length runs keep exactly one cue in every chromosome;
variable-length runs allow anything from zero cues up to the full category.

Cue labels are plain strings, trimmed of surrounding whitespace and compared
case-sensitively. All values here are immutable once built and safe to share
across evaluation workers.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from random import Random
from typing import Iterable

Cue = str


class DataItem(str, Enum):
    """The extraction targets a run can optimize for."""

    BUILDING_AGE = "building_age"
    LIGHTING = "lighting"
    HEATING = "heating"
    WINDOWS = "windows"
    WINDOWS_UVALUE = "windows_uvalue"
    ENERGY = "energy"


class SchemaError(ValueError):
    """Raised for malformed schema documents or invalid cue structures."""


# Each kind of JSON value a document may hold, keyed by the annotation it fills:
# the types json.loads gives it (a bool is neither an integer nor a number), its name.
_JSON_VALUE_TYPES = {
    "int": ((int,), "a JSON integer"),
    "float": ((int, float), "a JSON number"),
    "finite float": ((int, float), "a finite JSON number"),
    "str": ((str,), "a JSON string"),
    "str | None": ((str, type(None)), "a JSON string or null"),
    "dict": ((dict,), "a JSON object"),
}


def checked(value, name: str, kind: str):
    """``value`` if it is a JSON value of ``kind``, else ValueError: the rule every
    reader of a setting refuses by. A finite float is within the float range."""
    types, noun = _JSON_VALUE_TYPES[kind]
    if type(value) not in types or kind == "finite float" and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} {value!r} is not {noun}")
    return value


def _clean_label(label: object, where: str) -> str:
    if not isinstance(label, str):
        raise SchemaError(f"{where}: cue label must be a string, got {type(label).__name__}")
    cleaned = label.strip()
    if not cleaned:
        raise SchemaError(f"{where}: cue label is empty after trimming")
    return cleaned


@dataclass(frozen=True)
class CueCategory:
    """One named group of allowed cues; backs one chromosome position."""

    name: str
    cues: tuple[Cue, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cues", tuple(self.cues))
        if not self.name.strip():
            raise SchemaError("category name is empty")
        if not self.cues:
            raise SchemaError(f"category {self.name!r} has no cues")
        seen: set[str] = set()
        for label in self.cues:
            cleaned = _clean_label(label, f"category {self.name!r}")
            if cleaned != label:
                raise SchemaError(f"category {self.name!r}: cue {label!r} is not trimmed")
            if cleaned in seen:
                raise SchemaError(f"category {self.name!r}: duplicate cue {cleaned!r}")
            seen.add(cleaned)

    @cached_property
    def cue_set(self) -> frozenset[Cue]:
        """The cues as a set, built on first use; validate_genotype checks cues against it."""
        return frozenset(self.cues)


@dataclass(frozen=True)
class CueSchema:
    """The full search space for one data item."""

    data_item: DataItem
    region: str
    categories: tuple[CueCategory, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "data_item", DataItem(self.data_item))
        object.__setattr__(self, "categories", tuple(self.categories))
        if not self.categories:
            raise SchemaError("schema has no categories")
        names = [c.name for c in self.categories]
        if len(set(names)) != len(names):
            dupe = next(n for n in names if names.count(n) > 1)
            raise SchemaError(f"duplicate category name {dupe!r}")

    @property
    def category_count(self) -> int:
        return len(self.categories)


@dataclass(frozen=True)
class Genotype:
    """One individual: an ordered list of cues per schema category.

    Within-chromosome order is preserved for storage and rendering but is
    deliberately ignored by :func:`canonical_key`, so two genotypes holding
    the same cue sets per position are one solution for caching purposes.
    """

    chromosomes: tuple[tuple[Cue, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "chromosomes", tuple(map(tuple, self.chromosomes)))

    def cue_count(self) -> int:
        return sum(map(len, self.chromosomes))

    def iter_cues(self) -> Iterable[tuple[int, Cue]]:
        for index, chromosome in enumerate(self.chromosomes):
            for cue in chromosome:
                yield index, cue


def validate_genotype(genotype: Genotype, schema: CueSchema, mode: str | None = None) -> None:
    """Check a genotype against its schema; raises SchemaError on violation.

    ``mode`` may be ``"fixed"`` (exactly one cue per chromosome) or
    ``"variable"``; ``None`` skips the cardinality check.
    """
    if len(genotype.chromosomes) != schema.category_count:
        raise SchemaError(
            f"genotype has {len(genotype.chromosomes)} chromosomes, "
            f"schema has {schema.category_count} categories"
        )
    for index, (chromosome, category) in enumerate(zip(genotype.chromosomes, schema.categories)):
        allowed = category.cue_set
        seen: set[str] = set()
        for cue in chromosome:
            if cue not in allowed:
                raise SchemaError(f"chromosome {index}: cue {cue!r} not in category {category.name!r}")
            if cue in seen:
                raise SchemaError(f"chromosome {index}: duplicate cue {cue!r}")
            seen.add(cue)
        if mode == "fixed" and len(chromosome) != 1:
            raise SchemaError(f"chromosome {index}: fixed-length genotype must hold exactly 1 cue")


def random_genotype(schema: CueSchema, rng: Random) -> Genotype:
    """Draw one cue uniformly per category: the shared initialization for both modes."""
    return Genotype(tuple((rng.choice(category.cues),) for category in schema.categories))


# ``json.dumps`` with these settings, less its per-call encoder construction
# and cycle check: a key encodes a list of lists built for it.
_encode_key = json.JSONEncoder(
    ensure_ascii=False, separators=(",", ":"), check_circular=False
).encode


def canonical_key(genotype: Genotype) -> str:
    """Stable identity of a genotype for fitness caching.

    Equal for two genotypes iff every chromosome holds the same set of cue
    labels; within-chromosome order is ignored, chromosome position is not.
    The key is a JSON rendering, so it is stable across processes and safe
    to use in checkpoint files. It is computed once per genotype instance and
    kept on it; the memo is not a dataclass field, so equality, hashing and
    ``repr`` ignore it.
    """
    key = genotype.__dict__.get("_canonical_key")
    if key is None:
        key = _encode_key([sorted(chromosome) for chromosome in genotype.chromosomes])
        object.__setattr__(genotype, "_canonical_key", key)
    return key


def render_cue_list(genotype: Genotype) -> str:
    """Concatenate all cue labels in chromosome order for prompt insertion."""
    return ", ".join(cue for _, cue in genotype.iter_cues())


def schema_from_json_obj(obj: object) -> CueSchema:
    if not isinstance(obj, dict):
        raise SchemaError("schema document must be a JSON object")
    try:
        item = DataItem(obj["data_item"])
    except KeyError:
        raise SchemaError("missing field 'data_item'") from None
    except ValueError:
        valid = ", ".join(i.value for i in DataItem)
        raise SchemaError(f"data_item: {obj['data_item']!r} is not one of {valid}") from None
    region = obj.get("region")
    if not isinstance(region, str):
        raise SchemaError("region: must be a string")
    raw_categories = obj.get("categories")
    if not isinstance(raw_categories, list) or not raw_categories:
        raise SchemaError("categories: must be a non-empty array")
    categories = []
    for i, raw in enumerate(raw_categories):
        where = f"categories[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{where}: must be an object")
        name = raw.get("name")
        if not isinstance(name, str) or not name.strip():
            raise SchemaError(f"{where}.name: must be a non-empty string")
        cues = raw.get("cues")
        if not isinstance(cues, list) or not cues:
            raise SchemaError(f"{where}.cues: must be a non-empty array")
        labels = [_clean_label(c, f"{where}.cues[{j}]") for j, c in enumerate(cues)]
        try:
            categories.append(CueCategory(name=name.strip(), cues=tuple(labels)))
        except SchemaError as exc:
            raise SchemaError(f"{where}: {exc}") from None
    return CueSchema(data_item=item, region=region, categories=tuple(categories))


def load_schema(document: str) -> CueSchema:
    """Parse a schema document (JSON text); order of categories and cues is preserved."""
    try:
        obj = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema document is not valid JSON: {exc}") from None
    return schema_from_json_obj(obj)


def load_schema_file(path: str | Path) -> CueSchema:
    return load_schema(Path(path).read_text(encoding="utf-8"))


def schema_to_json_obj(schema: CueSchema) -> dict:
    return {
        "data_item": schema.data_item.value,
        "region": schema.region,
        "categories": [{"name": c.name, "cues": list(c.cues)} for c in schema.categories],
    }


def schema_to_json(schema: CueSchema) -> str:
    return json.dumps(schema_to_json_obj(schema), ensure_ascii=False, indent=2) + "\n"


def save_schema(schema: CueSchema, path: str | Path) -> None:
    Path(path).write_text(schema_to_json(schema), encoding="utf-8")


def schema_digest(schema: CueSchema) -> str:
    """Content hash of a schema, used to guard checkpoint resumption."""
    canonical = json.dumps(schema_to_json_obj(schema), ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
