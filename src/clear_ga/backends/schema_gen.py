"""Automated construction of a cue schema from training buildings.

Pipeline: group the training set by the data item's value (via the LLM for
building age, via fixed value bands otherwise), pick one representative
building per group, ask the estimator to list candidate visual features for
each representative, then have it deduplicate, cluster, and format the pool
into categories of cues.
"""

from __future__ import annotations

import ast
import logging
import re
from random import Random
from typing import Sequence

from ..dataset import BuildingRecord
from ..items import ITEMS
from ..prompts import (
    AGE_CLUSTERING_TEMPLATE,
    DEDUP_CLUSTER_TEMPLATE,
    FEATURE_EXTRACTION_TEMPLATE,
    FORMATTING_TEMPLATE,
)
from ..schema import CueCategory, CueSchema, DataItem, SchemaError
from .llm import Transport, TransportError

log = logging.getLogger(__name__)

REPRESENTATIVE_GROUPS = 3
DEFAULT_CLUSTER_TARGET = 8


class SchemaGenerationError(RuntimeError):
    """A pipeline step failed; ``raw_response`` holds the offending LLM output."""

    def __init__(self, message: str, raw_response: str | None = None):
        super().__init__(message)
        self.raw_response = raw_response


def _send_with_retries(transport: Transport, prompt: str, images: Sequence, retry_limit: int) -> str:
    last: Exception | None = None
    for _ in range(retry_limit + 1):
        try:
            return transport.send(prompt, images)
        except TransportError as exc:
            last = exc
    raise SchemaGenerationError(f"transport failed after {retry_limit + 1} attempts: {last}")


def _extract_array_literal(text: str) -> object:
    """Pull the first balanced [...] block out of free text and parse it."""
    start = text.find("[")
    if start < 0:
        raise ValueError("no array literal found")
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "[":
            depth += 1
        elif text[i] == "]":
            depth -= 1
            if depth == 0:
                return ast.literal_eval(text[start : i + 1])
    raise ValueError("unbalanced array literal")


_BULLET = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s*")


def _parse_feature_list(text: str) -> list[str]:
    """Read one feature per line, tolerating bullets, numbering, and quotes."""
    features = []
    for line in text.splitlines():
        cleaned = _BULLET.sub("", line).strip().strip('"').strip("'").strip()
        if not cleaned or cleaned.endswith(":"):
            continue
        features.append(cleaned)
    return features


def _age_rows(training: list[BuildingRecord]) -> str:
    rows = []
    for record in training:
        age = record.truth.age
        rows.append(f"{record.id}, {age.start}" if age.is_exact else f"{record.id}, {age.start}-{age.end}")
    return "\n".join(rows)


def _age_groups(
    training: list[BuildingRecord], transport: Transport, retry_limit: int
) -> list[list[BuildingRecord]]:
    prompt = AGE_CLUSTERING_TEMPLATE.format(rows=_age_rows(training))
    by_id = {record.id: record for record in training}
    raw = ""
    for _ in range(retry_limit + 1):
        raw = _send_with_retries(transport, prompt, (), retry_limit)
        try:
            arrays = _extract_array_literal(raw)
            groups = [
                [by_id[str(i)] for i in era if str(i) in by_id]
                for era in arrays
                if isinstance(era, (list, tuple))
            ]
            groups = [g for g in groups if g]
            if groups:
                return groups
        except (ValueError, SyntaxError) as exc:
            log.debug("era grouping response unusable: %s", exc)
    raise SchemaGenerationError("could not parse era grouping response", raw_response=raw)


def _pick_representatives(
    groups: list[list[BuildingRecord]], training: list[BuildingRecord], rng: Random
) -> list[BuildingRecord]:
    chosen = [rng.choice(group) for group in groups if group]
    remaining = [r for r in training if all(r.id != c.id for c in chosen)]
    while len(chosen) < min(REPRESENTATIVE_GROUPS, len(training)) and remaining:
        extra = rng.choice(remaining)
        chosen.append(extra)
        remaining = [r for r in remaining if r.id != extra.id]
    return chosen


# Heading formats chat models actually emit, most distinctive first; a tier
# is trusted only when it yields exactly one heading per cluster.
_HEADING_TIERS = (
    re.compile(r"^\s*(?:\d+[.)]\s*)?\*\*(.+?)\*\*:?\s*$"),  # **Name** / 3. **Name**:
    re.compile(r"^\s*#+\s*(.+?):?\s*$"),                    # ## Name
    re.compile(r"^\s*\d+[.)]\s*([^:]{2,60}?):?\s*$"),       # 1. Name / 1) Name:
    re.compile(r"^\s*([A-Za-z][^:]{2,60}?):\s*$"),          # Name:
)


def _cluster_names(cluster_text: str, count: int) -> list[str]:
    """Best-effort recovery of cluster headings from the clustering response."""
    for pattern in _HEADING_TIERS:
        names: list[str] = []
        for line in cluster_text.splitlines():
            m = pattern.match(line)
            if m:
                name = m.group(1).strip().strip("*").strip()
                if name and name not in names:
                    names.append(name)
        if len(names) == count:
            return names
    return [f"category_{i + 1}" for i in range(count)]


def generate_schema(
    training: list[BuildingRecord],
    item: DataItem,
    transport: Transport,
    rng: Random,
    region: str | None = None,
    cluster_target: int = DEFAULT_CLUSTER_TARGET,
    retry_limit: int = 2,
) -> CueSchema:
    """Run the full cue-generation pipeline and return a validated schema."""
    if not training:
        raise ValueError("training set is empty")
    item = DataItem(item)
    spec = ITEMS[item]
    region = region or training[0].region

    if spec.schema_group is None:
        groups = _age_groups(training, transport, retry_limit)
    else:
        by_group: dict[str, list[BuildingRecord]] = {}
        for record in training:
            by_group.setdefault(spec.schema_group(spec.truth_of(record.truth)), []).append(record)
        groups = [by_group[key] for key in sorted(by_group)]
    representatives = _pick_representatives(groups, training, rng)
    log.info("extracting features from %d representative buildings", len(representatives))

    extraction_prompt = FEATURE_EXTRACTION_TEMPLATE.format(
        extraction_prompt=spec.extraction_prompt, region=region
    )
    features: list[str] = []
    for rep in representatives:
        images = rep.image_sets[spec.image_subset]
        text = _send_with_retries(transport, extraction_prompt, images, retry_limit)
        found = _parse_feature_list(text)
        if not found:
            raise SchemaGenerationError(
                f"no features parsed from response for building {rep.id!r}", raw_response=text
            )
        features.extend(found)
    log.info("collected %d raw features", len(features))

    cluster_prompt = DEDUP_CLUSTER_TEMPLATE.format(
        raw_feature_list=", ".join(features), cluster_target=cluster_target
    )
    cluster_text = _send_with_retries(transport, cluster_prompt, (), retry_limit)

    formatting_prompt = FORMATTING_TEMPLATE.format(categories=cluster_text)
    formatted = ""
    arrays: list[list[str]] | None = None
    for _ in range(retry_limit + 1):
        formatted = _send_with_retries(transport, formatting_prompt, (), retry_limit)
        try:
            candidate = _extract_array_literal(formatted)
            if isinstance(candidate, (list, tuple)) and candidate:
                arrays = [
                    [str(cue) for cue in group]
                    for group in candidate
                    if isinstance(group, (list, tuple)) and group
                ]
                if arrays:
                    break
        except (ValueError, SyntaxError) as exc:
            log.debug("formatting response unusable: %s", exc)
        arrays = None
    if not arrays:
        raise SchemaGenerationError("could not parse formatted cue arrays", raw_response=formatted)

    names = _cluster_names(cluster_text, len(arrays))
    categories = []
    used_names: set[str] = set()
    for name, cues in zip(names, arrays):
        if name in used_names:
            name = f"{name}_{len(used_names) + 1}"
        used_names.add(name)
        deduped: list[str] = []
        for cue in cues:
            cleaned = cue.strip()
            if cleaned and cleaned not in deduped:
                deduped.append(cleaned)
        if deduped:
            categories.append(CueCategory(name=name, cues=tuple(deduped)))
    try:
        schema = CueSchema(data_item=item, region=region, categories=tuple(categories))
    except SchemaError as exc:
        raise SchemaGenerationError(f"generated schema invalid: {exc}", raw_response=formatted)
    log.info(
        "generated schema: %d categories, %d cues",
        schema.category_count,
        sum(len(c.cues) for c in schema.categories),
    )
    return schema
