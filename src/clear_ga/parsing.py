"""Extraction and normalization of estimator answers.

Responses are free text; the final answer is fenced between ``###`` markers
and then parsed per data item. Parsers are deterministic, tolerate casing
and whitespace noise, and refuse anything they cannot map onto the answer
vocabulary rather than guessing.
"""

from __future__ import annotations

import math
import re
from typing import Sequence, TypeVar

from .fitness import ValueRange, YearRange
from .prompts import LIGHTING_ANSWER_OPTIONS

T = TypeVar("T")

# Floor year used when cleaning open-ended "before Y" answers.
EARLIEST_YEAR = 1000


class ParseError(ValueError):
    """Raised when an estimator answer cannot be turned into a typed estimate."""


def extract_delimited(text: str) -> str:
    """Return the payload between the last complete ``###`` pair, trimmed.

    Chain-of-thought responses may restate the option list before the final
    answer, so when several complete pairs exist the last one wins.
    """
    parts = text.split("###")
    complete_pairs = (len(parts) - 1) // 2
    if complete_pairs < 1:
        raise ParseError("no complete ###...### pair in response")
    return parts[2 * complete_pairs - 1].strip()


def _collapse(text: str) -> str:
    return " ".join(text.lower().split())


_EXACT_YEAR = re.compile(r"^(\d{3,4})$")
_YEAR_SPAN = re.compile(r"^(\d{3,4})\s*[-–]\s*(\d{3,4})$")
_YEAR_TO_NOW = re.compile(r"^(\d{3,4})\s*[-–]\s*now$")
_BEFORE_YEAR = re.compile(r"^before\s+(\d{3,4})$")
_CENTURY = re.compile(r"^(\d{1,2})(?:st|nd|rd|th)\s+century$")


def parse_age(payload: str | int, current_year: int) -> YearRange:
    """Clean an age answer into a year range.

    Accepted forms: an exact year ("2014"), a span ("2007-2011"), an open
    start ("before 1900" cleans to 1000-1899), a century ("19th century"
    cleans to 1801-1900), and "2020-now" whose upper bound is the run's
    configured current year, not the wall clock. Unrecognized wording is
    rejected rather than guessed.
    """
    if isinstance(payload, int):
        return YearRange(payload, payload)
    norm = _collapse(payload)
    if m := _EXACT_YEAR.match(norm):
        year = int(m.group(1))
        return YearRange(year, year)
    if m := _YEAR_SPAN.match(norm):
        start, end = int(m.group(1)), int(m.group(2))
        if start > end:
            start, end = end, start
        return YearRange(start, end)
    if m := _YEAR_TO_NOW.match(norm):
        return YearRange(int(m.group(1)), current_year)
    if m := _BEFORE_YEAR.match(norm):
        year = int(m.group(1))
        if year <= EARLIEST_YEAR:
            raise ParseError(f"cannot clean {payload!r}: bound precedes year {EARLIEST_YEAR}")
        return YearRange(EARLIEST_YEAR, year - 1)
    if m := _CENTURY.match(norm):
        n = int(m.group(1))
        if n < 1:
            raise ParseError(f"cannot clean {payload!r}")
        return YearRange((n - 1) * 100 + 1, n * 100)
    raise ParseError(f"unrecognized age answer {payload!r}")


_LIGHTING_OPTION = re.compile(r"^low energy in (\d{1,3})\s*%$")
_BARE_PERCENT = re.compile(r"^(\d{1,3}(?:\.\d+)?)\s*%$")


def parse_lighting(payload: str) -> float:
    """Map a lighting answer to a low-energy percentage.

    Understands the answer options ("no low energy lighting", "low energy in
    20%" ... "low energy in 100%") plus bare percentages like "86%" so that
    ground-truth strings can reuse the same parser.
    """
    norm = _collapse(payload)
    if norm == "no low energy lighting":
        return 0.0
    if m := _LIGHTING_OPTION.match(norm):
        pct = int(m.group(1))
        if f"low energy in {pct}%" in LIGHTING_ANSWER_OPTIONS:
            return float(pct)
        raise ParseError(f"{payload!r} is not one of the lighting options")
    if m := _BARE_PERCENT.match(norm):
        pct = float(m.group(1))
        if 0 <= pct <= 100:
            return pct
        raise ParseError(f"percentage {payload!r} out of range")
    raise ParseError(f"unrecognized lighting answer {payload!r}")


_LEADING_INDEX = re.compile(r"^\(\d+\)\s*")
_PUNCTUATION = re.compile(r"[^a-z0-9%\s]+")


def _normalize_option(text: str) -> str:
    t = _LEADING_INDEX.sub("", text.strip().lower())
    t = _PUNCTUATION.sub(" ", t)
    return " ".join(t.split())


def parse_categorical(payload: str, options: Sequence[tuple[str, T]]) -> T:
    """Match a payload against an answer option list.

    Comparison is on a normalized form (lowercase, collapsed whitespace,
    punctuation and any leading "(k)" numbering stripped). An exact match
    wins; otherwise a substring match is accepted only when it identifies
    exactly one option. Invented options are rejected.
    """
    if not options:
        raise ValueError("options must be non-empty")
    norm_payload = _normalize_option(payload)
    if not norm_payload:
        raise ParseError("empty answer")
    normalized = [(_normalize_option(text), value) for text, value in options]
    exact = [value for text, value in normalized if text == norm_payload]
    if len(exact) == 1:
        return exact[0]
    partial = [
        value
        for text, value in normalized
        if text in norm_payload or norm_payload in text
    ]
    if len(partial) == 1:
        return partial[0]
    if not partial:
        raise ParseError(f"{payload!r} matches none of the answer options")
    raise ParseError(f"{payload!r} is ambiguous between {len(partial)} answer options")


_UNIT_TOKENS = re.compile(r"\bk?wh?(?:\s*/\s*m\s*\^?\s*2)?\b|\bm\s*\^?\s*2\b|\bu-?values?\b|[:=]")
_NUMBER = r"-?\d+(?:\.\d+)?"
_DIGIT_COMMA_DIGIT = re.compile(r"\d,\d")
_POINT_OR_SPAN = re.compile(rf"({_NUMBER})(?:\s*-\s*({_NUMBER}))?")
# An en dash and a minus sign read as a hyphen: a sign before a number, or a span.
_DASHES = str.maketrans("–−", "--")


def parse_numeric(payload: str) -> ValueRange:
    """Parse a numeric answer into a point or range, ignoring unit text.

    A point value is returned as a degenerate range (start == end). Reversed
    spans are normalized rather than rejected. Negative numbers (signed with a
    hyphen, an en dash or a minus sign), and a comma between digits (a
    thousands separator or a decimal comma), are rejected, and so is a number
    past the float range, which would read as infinity.
    """
    norm = _UNIT_TOKENS.sub(" ", payload.lower().translate(_DASHES))
    norm = " ".join(norm.split())
    if _DIGIT_COMMA_DIGIT.search(norm):
        raise ParseError(f"ambiguous digit grouping in {payload!r}")
    m = _POINT_OR_SPAN.fullmatch(norm) or _POINT_OR_SPAN.search(norm)
    if m is None:
        raise ParseError(f"no number found in {payload!r}")
    start = float(m.group(1))
    end = float(m.group(2)) if m.group(2) is not None else start
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ParseError(f"number past the float range in {payload!r}")
    if start > end:
        start, end = end, start
    if start < 0:
        raise ParseError(f"negative number in {payload!r}")
    return ValueRange(start, end)


def parse_uvalue(payload: str) -> float:
    """Parse a U-value answer; a range answer is read as its midpoint."""
    value = parse_numeric(payload)
    estimate = value.start if value.is_point else value.midpoint
    if estimate <= 0:
        raise ParseError(f"U-value answer {payload!r} must be positive")
    return estimate
