"""Vision-LLM evaluation backend speaking a chat-completion wire format.

The transport is a narrow, swappable interface (send one prompt plus image
files, get response text back) so offline runs and tests can substitute a
scripted function for the HTTP client. Parsing and the retry policy live
here; callers only ever see a typed estimate, a permanent per-building
failure, or a hard abort.

Environment:
    CLEAR_LLM_API_KEY   bearer token for the chat-completions endpoint
    CLEAR_LLM_ENDPOINT  base URL override (default https://api.openai.com/v1)
"""

from __future__ import annotations

import base64
import logging
import mimetypes
import os
import threading
import time
from pathlib import Path
from typing import Callable, Protocol, Sequence, TypeVar

from ..fitness import DataEstimate
from ..items import ITEMS, build_evaluation_prompt, parse_estimate
from ..parsing import ParseError, extract_delimited
from ..schema import DataItem, render_cue_list
from .base import BackendHardFailure, EvaluationFailure, EvaluationRequest

log = logging.getLogger(__name__)

DEFAULT_ENDPOINT = "https://api.openai.com/v1"
API_KEY_ENV = "CLEAR_LLM_API_KEY"
ENDPOINT_ENV = "CLEAR_LLM_ENDPOINT"
T = TypeVar("T")


class TransportError(RuntimeError):
    """Transient transport problem; :func:`send_parsed` retries it."""


class AuthenticationError(RuntimeError):
    """Credential problem; retrying cannot help."""


class Transport(Protocol):
    def send(self, prompt: str, images: Sequence[Path]) -> str: ...


def send_parsed(
    transport: Transport, prompt: str, images: Sequence[Path], parse: Callable[[str], T],
    retry_limit: int,
) -> T:
    """Return ``parse`` of the answer to ``prompt``. A ``TransportError`` or a
    ``ParseError`` resends the whole prompt, up to ``retry_limit + 1`` sends in
    all, then re-raises; an ``AuthenticationError`` is never retried."""
    if retry_limit < 0:
        raise ValueError("retry_limit must be >= 0")
    for attempt in range(retry_limit):
        try:
            return parse(transport.send(prompt, images))
        except (TransportError, ParseError) as exc:
            log.debug("attempt %d/%d failed: %s", attempt + 1, retry_limit + 1, exc)
    return parse(transport.send(prompt, images))


def _encode_image(path: Path) -> dict:
    mime = mimetypes.guess_type(path.name)[0] or "image/jpeg"
    data = base64.b64encode(path.read_bytes()).decode("ascii")
    return {"type": "image_url", "image_url": {"url": f"data:{mime};base64,{data}"}}


class HttpTransport:
    """Chat-completion HTTP client with an optional request-rate ceiling.

    Sampling parameters are left at provider defaults; the model name and
    endpoint are echoed into the run log via :meth:`describe`.
    """

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
        model: str = "gpt-4o",
        min_request_interval: float = 0.0,
        timeout: float = 120.0,
    ):
        self.endpoint = (endpoint or os.environ.get(ENDPOINT_ENV) or DEFAULT_ENDPOINT).rstrip("/")
        self.api_key = api_key or os.environ.get(API_KEY_ENV)
        if not self.api_key:
            raise AuthenticationError(
                f"no API key: set {API_KEY_ENV} or pass api_key explicitly"
            )
        self.model = model
        self.min_request_interval = min_request_interval
        self.timeout = timeout
        self._lock = threading.Lock()
        self._last_request = 0.0

    def _throttle(self) -> None:
        if self.min_request_interval <= 0:
            return
        with self._lock:
            wait = self._last_request + self.min_request_interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_request = time.monotonic()

    def send(self, prompt: str, images: Sequence[Path]) -> str:
        # Imported on first use: it costs more start-up time than the rest of the package.
        import requests

        self._throttle()
        content: list[dict] = [{"type": "text", "text": prompt}]
        content.extend(_encode_image(Path(p)) for p in images)
        payload = {"model": self.model, "messages": [{"role": "user", "content": content}]}
        try:
            response = requests.post(
                f"{self.endpoint}/chat/completions",
                json=payload,
                headers={"Authorization": f"Bearer {self.api_key}"},
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise TransportError(f"request failed: {exc}") from None
        if response.status_code in (401, 403):
            raise AuthenticationError(
                f"endpoint rejected credentials (HTTP {response.status_code}); "
                f"check {API_KEY_ENV}"
            )
        if response.status_code != 200:
            raise TransportError(f"HTTP {response.status_code}: {response.text[:200]}")
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion response: {exc}") from None
        if not isinstance(content, str):  # null for a refusal or a content filter
            raise TransportError(f"malformed completion response: content {content!r}")
        return content

    def describe(self) -> dict:
        return {
            "backend": "llm",
            "endpoint": self.endpoint,
            "model": self.model,
            "sampling": "provider defaults",
            "min_request_interval": self.min_request_interval,
        }


class FunctionTransport:
    """Transport backed by a plain callable; used in tests and offline dry runs."""

    def __init__(self, fn: Callable[[str, Sequence[Path]], str]):
        self.fn = fn

    def send(self, prompt: str, images: Sequence[Path]) -> str:
        return self.fn(prompt, images)

    def describe(self) -> dict:
        return {"backend": "llm", "transport": "function"}


class LlmEvaluator:
    """Assembles the evaluation prompt, sends it with the item's image subset,
    and parses the delimited answer; resends the full prompt on parse or
    transport trouble up to the retry limit."""

    def __init__(self, transport: Transport, retry_limit: int = 3, current_year: int = 2025):
        if retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        self.transport = transport
        self.retry_limit = retry_limit
        self.current_year = current_year

    def evaluate(self, request: EvaluationRequest) -> DataEstimate:
        item = DataItem(request.data_item)
        cue_list = render_cue_list(request.genotype)
        prompt = build_evaluation_prompt(item, request.building.region, cue_list)
        images = request.building.image_sets.get(ITEMS[item].image_subset, ())
        try:
            return send_parsed(
                self.transport, prompt, images,
                lambda text: parse_estimate(item, extract_delimited(text), self.current_year),
                self.retry_limit,
            )
        except AuthenticationError as exc:
            raise BackendHardFailure(str(exc)) from exc
        except (TransportError, ParseError) as exc:
            raise EvaluationFailure(
                f"no usable answer for building {request.building.id!r} "
                f"after {self.retry_limit + 1} attempts: {exc}"
            ) from exc

    def describe(self) -> dict:
        base = {"backend": "llm", "retry_limit": self.retry_limit}
        describe = getattr(self.transport, "describe", None)
        if callable(describe):
            base.update(describe())
        return base
