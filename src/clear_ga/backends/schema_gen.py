"""Automated construction of a cue schema from training buildings.

Pipeline: group the training set by the data item's value (via the LLM for
building age, via fixed value bands otherwise), pick one representative
building per group, ask the estimator to list candidate visual features for
each representative, then have it deduplicate, cluster, and format the pool
into categories of cues. Every step goes through :func:`send_parsed` with
its own parser, so each sends at most ``retry_limit + 1`` prompts.
"""

from __future__ import annotations

import ast
import logging
import re
from random import Random
from typing import Callable, Sequence, TypeVar

from ..dataset import BuildingRecord
from ..items import ITEMS
from ..parsing import ParseError
from ..prompts import (
    AGE_CLUSTERING_TEMPLATE,
    DEDUP_CLUSTER_TEMPLATE,
    FEATURE_EXTRACTION_TEMPLATE,
    FORMATTING_TEMPLATE,
)
from ..schema import CueCategory, CueSchema, DataItem, SchemaError
from .llm import Transport, TransportError, send_parsed

log = logging.getLogger(__name__)

REPRESENTATIVE_GROUPS = 3
DEFAULT_CLUSTER_TARGET = 8
T = TypeVar("T")


class SchemaGenerationError(RuntimeError):
    """A pipeline step failed; ``raw_response`` holds the offending LLM output."""

    def __init__(self, message: str, raw_response: str | None = None):
        super().__init__(message)
        self.raw_response = raw_response


def _ask(
    transport: Transport, prompt: str, images: Sequence, parse: Callable[[str], T],
    retry_limit: int, unusable: str = "",
) -> T:
    """One pipeline step through :func:`send_parsed`. Its failure becomes a
    ``SchemaGenerationError`` carrying the last answer received, if any."""
    answers: list[str] = []

    def keep(text: str) -> T:
        answers.append(text)
        return parse(text)

    try:
        return send_parsed(transport, prompt, images, keep, retry_limit)
    except TransportError as exc:
        message = f"transport failed after {retry_limit + 1} attempts: {exc}"
    except ParseError:
        message = unusable
    raise SchemaGenerationError(message, answers[-1] if answers else None)


def _parse_groups(text: str) -> list[list]:
    """The non-empty arrays inside the first balanced [...] block of free text."""
    start = text.find("[")
    if start < 0:
        raise ParseError("no array literal found")
    depth = 0
    for end in range(start, len(text)):
        if text[end] == "[":
            depth += 1
        elif text[end] == "]":
            depth -= 1
            if depth == 0:
                break
    else:
        raise ParseError("unbalanced array literal")
    try:
        literal = ast.literal_eval(text[start : end + 1])
    except (ValueError, SyntaxError, TypeError) as exc:
        raise ParseError(f"unreadable array literal: {exc}") from None
    groups = [list(group) for group in literal if isinstance(group, (list, tuple)) and group]
    if not groups:
        raise ParseError("no non-empty arrays")
    return groups


_BULLET = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s*")


def _parse_feature_list(text: str) -> list[str]:
    """Read one feature per line, tolerating bullets, numbering, and quotes."""
    cleaned = (_BULLET.sub("", s).strip().strip('"').strip("'").strip() for s in text.splitlines())
    features = [feature for feature in cleaned if feature and not feature.endswith(":")]
    if not features:
        raise ParseError("no features listed")
    return features


def _age_groups(
    training: list[BuildingRecord], transport: Transport, retry_limit: int
) -> list[list[BuildingRecord]]:
    by_id = {record.id: record for record in training}
    rows = "\n".join(
        f"{r.id}, {r.truth.age.start}" + ("" if r.truth.age.is_exact else f"-{r.truth.age.end}")
        for r in training
    )

    def parse(text: str) -> list[list[BuildingRecord]]:
        groups = [[by_id[str(i)] for i in era if str(i) in by_id] for era in _parse_groups(text)]
        if not any(groups):
            raise ParseError("no era names a training building")
        return [g for g in groups if g]

    prompt = AGE_CLUSTERING_TEMPLATE.format(rows=rows)
    return _ask(transport, prompt, (), parse, retry_limit, "could not parse era grouping response")


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
    if cluster_target < 1:
        raise ValueError("cluster_target must be >= 1")
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
        features.extend(_ask(
            transport, extraction_prompt, rep.image_sets[spec.image_subset],
            _parse_feature_list, retry_limit,
            f"no features parsed from response for building {rep.id!r}",
        ))
    log.info("collected %d raw features", len(features))

    cluster_prompt = DEDUP_CLUSTER_TEMPLATE.format(
        raw_feature_list=", ".join(features), cluster_target=cluster_target
    )
    cluster_text = _ask(transport, cluster_prompt, (), str, retry_limit)

    formatting_prompt = FORMATTING_TEMPLATE.format(categories=cluster_text)
    # The answer itself is kept too, for an error raised after parsing.
    formatted, arrays = _ask(
        transport, formatting_prompt, (),
        lambda text: (text, [[str(cue) for cue in group] for group in _parse_groups(text)]),
        retry_limit, "could not parse formatted cue arrays",
    )

    names = _cluster_names(cluster_text, len(arrays))
    categories = []
    for name, cues in zip(names, arrays):
        deduped = tuple(dict.fromkeys(cue.strip() for cue in cues if cue.strip()))
        if deduped:
            categories.append(CueCategory(name=name, cues=deduped))
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
