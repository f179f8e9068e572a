"""HTTP clients for the two optional external services.

Both speak the common JSON-over-POST wire shapes: an embeddings endpoint
taking {"model", "input": [...]} and a chat-completion endpoint taking
{"model", "messages": [...]}, each with bearer-token auth. Requests retry
transient failures with exponential backoff; the number of in-flight
requests is bounded by the caller.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass

import requests

from .errors import ServiceUnreachable

log = logging.getLogger(__name__)

DEFAULT_TIMEOUT_S = 60.0
MAX_RETRIES = 3
BACKOFF_BASE_S = 0.5


@dataclass(frozen=True)
class ServiceConfig:
    """Endpoint location and credentials for one external service."""

    url: str
    model: str
    api_key: str = ""
    timeout_s: float = DEFAULT_TIMEOUT_S

    @classmethod
    def from_env(cls, prefix: str) -> "ServiceConfig":
        """Read <PREFIX>_URL / <PREFIX>_MODEL / <PREFIX>_KEY from the environment."""
        url = os.environ.get(f"{prefix}_URL", "")
        if not url:
            raise KeyError(f"{prefix}_URL is not set")
        return cls(
            url=url,
            model=os.environ.get(f"{prefix}_MODEL", ""),
            api_key=os.environ.get(f"{prefix}_KEY", ""),
        )


def _retry_after_s(reply: requests.Response) -> float:
    """A Retry-After header given in whole seconds, else 0 (absent or an HTTP date)."""
    value = reply.headers.get("Retry-After", "").strip()
    return float(value) if value.isdigit() else 0.0


def post_json(config: ServiceConfig, payload: dict) -> dict:
    """POST a JSON payload and return the decoded JSON reply.

    Makes up to ``MAX_RETRIES`` attempts on connection errors, timeouts, 429
    and 5xx replies, backing off exponentially between attempts (never after
    the last), then raises ServiceUnreachable. A reply's Retry-After, in
    seconds and capped at ``config.timeout_s``, lengthens the next wait when
    it exceeds the backoff. Non-JSON replies and other non-200 status codes
    are not retried and raise ValueError.
    """
    headers = {"Content-Type": "application/json"}
    if config.api_key:
        headers["Authorization"] = f"Bearer {config.api_key}"

    last_error: Exception | None = None
    retry_after = 0.0
    for attempt in range(MAX_RETRIES):
        if attempt:
            time.sleep(max(BACKOFF_BASE_S * (2 ** (attempt - 1)), min(retry_after, config.timeout_s)))
        try:
            reply = requests.post(
                config.url, json=payload, headers=headers, timeout=config.timeout_s
            )
        except requests.RequestException as exc:
            last_error = exc
            retry_after = 0.0
            log.warning("request to %s failed (%s), attempt %d", config.url, exc, attempt + 1)
            continue
        if reply.status_code == 429 or reply.status_code >= 500:
            last_error = ServiceUnreachable(f"{config.url} returned {reply.status_code}")
            retry_after = _retry_after_s(reply)
            continue
        if reply.status_code != 200:
            raise ValueError(f"{config.url} returned status {reply.status_code}: {reply.text[:200]}")
        try:
            return reply.json()
        except ValueError as exc:
            raise ValueError(f"{config.url} returned non-JSON body") from exc

    raise ServiceUnreachable(f"{config.url} unreachable after {MAX_RETRIES} attempts: {last_error}")


class ChatCompletionClient:
    """Minimal chat-completion client used for triple extraction and answer generation."""

    def __init__(self, config: ServiceConfig):
        self.config = config

    def complete(self, messages: list[dict[str, str]]) -> str:
        """Send a message list, return the assistant text of the first choice."""
        reply = post_json(self.config, {"model": self.config.model, "messages": messages})
        try:
            return reply["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ValueError(f"malformed chat reply from {self.config.url}") from exc
