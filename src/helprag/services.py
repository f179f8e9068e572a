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


def post_json(config: ServiceConfig, payload: dict, max_retries: int = MAX_RETRIES) -> dict:
    """POST a JSON payload and return the decoded JSON reply.

    Makes up to ``max_retries`` attempts on connection errors, timeouts, and
    5xx replies, backing off exponentially between attempts (never after the
    last), then raises ServiceUnreachable. Non-JSON replies and 4xx status
    codes are not retried and raise ValueError.
    """
    headers = {"Content-Type": "application/json"}
    if config.api_key:
        headers["Authorization"] = f"Bearer {config.api_key}"

    last_error: Exception | None = None
    for attempt in range(max_retries):
        if attempt:
            time.sleep(BACKOFF_BASE_S * (2 ** (attempt - 1)))
        try:
            reply = requests.post(
                config.url, json=payload, headers=headers, timeout=config.timeout_s
            )
        except requests.RequestException as exc:
            last_error = exc
            log.warning("request to %s failed (%s), attempt %d", config.url, exc, attempt + 1)
            continue
        if reply.status_code >= 500:
            last_error = ServiceUnreachable(f"{config.url} returned {reply.status_code}")
            continue
        if reply.status_code != 200:
            raise ValueError(f"{config.url} returned status {reply.status_code}: {reply.text[:200]}")
        try:
            return reply.json()
        except ValueError as exc:
            raise ValueError(f"{config.url} returned non-JSON body") from exc

    raise ServiceUnreachable(f"{config.url} unreachable after {max_retries} attempts: {last_error}")


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
