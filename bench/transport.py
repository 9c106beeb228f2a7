"""Fake vision model behind ``FunctionTransport`` for the ``llm-wait`` workload.

Every send sleeps a fixed latency, then answers deterministically from the
(prompt, image names) pair, so answers are the same at any concurrency, in any
work directory. The answer is one of the age options the prompt itself lists
("before 1900", "1900-1930", ..., "2020-now"), which makes ``parse_age`` walk
its "before Y", span and "Y-now" forms. The chosen era is the building's true
era with a probability that rises with the helpful cues in the prompt's cue
list, and one or two eras off otherwise. Buildings of the oldest era always
read too new, so no genotype scores perfectly.

A fixed share of pairs answers unparseably on its first send ever (the
evaluator retries it), and a smaller share never parses (the evaluator
charges the failure penalty).
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from pathlib import Path
from typing import Sequence

# Byte thresholds out of 256 on the pair digest.
FLAKY_BELOW = 15  # about 5.9% of pairs: first answer unparseable
DEAD_BELOW = 2  # about 0.8% of pairs: never parseable

_OPTIONS = re.compile(r"select one of these options: ([^\n]*)")
_CUES = re.compile(r"following features: ([^\n]*)")


def _era_index(year: int, options: list[str]) -> int:
    for index, option in enumerate(options):
        low, _, high = option.partition("-")
        if option.startswith("before "):
            if year < int(option.split()[1]):
                return index
        elif low.isdigit() and (high == "now" or year < int(high)):
            return index
    return len(options) - 1


class FakeVisionModel:
    """Callable for ``FunctionTransport``; counts what it was asked, thread-safely."""

    def __init__(self, truth_by_image: dict[str, int], seed: int, latency_s: float):
        self.truth_by_image = truth_by_image
        self.seed = seed
        self.latency_s = latency_s
        self._lock = threading.Lock()
        self._seen: set[bytes] = set()
        self.sends = 0
        self.flaky_hits = 0  # first sends of flaky pairs
        self.dead_sends = 0

    def _cue_weight(self, cue: str) -> int:
        digest = hashlib.sha256(f"{self.seed}|{cue}".encode("utf-8")).digest()
        return (-1, 0, 0, 1, 2)[digest[0] % 5]

    def __call__(self, prompt: str, images: Sequence[Path]) -> str:
        if self.latency_s:
            time.sleep(self.latency_s)
        names = [Path(p).name for p in images]
        digest = hashlib.sha256("|".join([prompt, *names]).encode("utf-8")).digest()
        with self._lock:
            first = digest not in self._seen
            self._seen.add(digest)
            self.sends += 1
            dead = digest[1] < DEAD_BELOW
            flaky_first = not dead and digest[0] < FLAKY_BELOW and first
            self.dead_sends += dead
            self.flaky_hits += flaky_first
        if dead:
            return "Judging by the features listed, the answer is ###unknown###"
        options = _OPTIONS.search(prompt).group(1).rstrip(".").split(", ")
        truth = _era_index(self.truth_by_image[names[0]], options)
        cues = _CUES.search(prompt).group(1).split(", ")
        quality = sum(self._cue_weight(c) for c in cues)
        p_right = min(0.95, max(0.05, 0.35 + 0.05 * quality))
        if int.from_bytes(digest[2:6], "big") / 2**32 < p_right:
            era = truth
        else:
            offset = (1, 2, -1, -2)[digest[6] % 4]
            era = min(max(truth + offset, 0), len(options) - 1)
        # Buildings of the oldest era always read at least one era too new: an
        # error floor no cue removes, so no run stops early on a perfect score.
        if truth == 0:
            era = max(era, 1)
        if flaky_first:
            return f"It looks like {options[era]}, but I cannot commit to one option."
        return f"Features checked one by one.\n###{options[era]}###"
