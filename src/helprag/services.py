"""HTTP clients for the two optional external services.

Both speak the common JSON-over-POST wire shapes: an embeddings endpoint
taking {"model", "input": [...]} and a chat-completion endpoint taking
{"model", "messages": [...]}, each with bearer-token auth. Requests go
through the standard library's urllib.request and retry transient failures
with exponential backoff; the number of in-flight requests is bounded by
the caller. The HTTP stack (http.client, urllib.request, ssl) loads on a
service's first request, not on import, so callers import this module at
the top and a query that calls no service never loads it.
"""

from __future__ import annotations

import json
import logging
import os
import time
import urllib.parse
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidParams, ServiceReplyError, ServiceUnreachable

if TYPE_CHECKING:
    import http.client
    import urllib.request

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

    def __post_init__(self) -> None:
        # urlopen would also open file:, data: and ftp: URLs
        if urllib.parse.urlsplit(self.url).scheme not in ("http", "https"):
            raise InvalidParams(f"service URL {self.url!r} is not an http:// or https:// URL")

    @classmethod
    def from_env(cls, prefix: str) -> "ServiceConfig":
        """Read <PREFIX>_URL / <PREFIX>_MODEL / <PREFIX>_KEY from the environment.

        Raises InvalidParams when <PREFIX>_URL is unset or empty.
        """
        url = os.environ.get(f"{prefix}_URL", "")
        if not url:
            raise InvalidParams(f"missing configuration: {prefix}_URL is not set")
        return cls(
            url=url,
            model=os.environ.get(f"{prefix}_MODEL", ""),
            api_key=os.environ.get(f"{prefix}_KEY", ""),
        )


def _send(
    request: urllib.request.Request, timeout_s: float
) -> tuple[int, http.client.HTTPMessage, bytes]:
    """One exchange: (status, reply headers, body), for every status code."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as reply:
            return reply.status, reply.headers, reply.read()
    except urllib.error.HTTPError as exc:
        # urlopen raises 4xx and 5xx replies; the error carries the reply
        with exc:
            return exc.code, exc.headers, exc.read()


def _retry_after_s(headers: http.client.HTTPMessage) -> float:
    """A Retry-After header given in whole seconds, else 0 (absent, an HTTP date or malformed)."""
    value = headers.get("Retry-After", "").strip()
    # str.isdigit() also accepts non-ASCII digits such as "²", which float() rejects
    return float(value) if value.isascii() and value.isdigit() else 0.0


def post_json(config: ServiceConfig, payload: dict) -> dict:
    """POST a JSON payload and return the decoded JSON reply.

    Makes up to ``MAX_RETRIES`` attempts on connection errors, timeouts,
    dropped connections, 429 and 5xx replies, backing off exponentially
    between attempts (never after the last), then raises ServiceUnreachable.
    A reply's Retry-After, in seconds and capped at ``config.timeout_s``,
    lengthens the next wait when it exceeds the backoff. Non-JSON replies and
    other non-200 status codes are not retried and raise ServiceReplyError.
    """
    import http.client  # the HTTP stack loads on the first request
    import urllib.request

    headers = {"Content-Type": "application/json"}
    if config.api_key:
        headers["Authorization"] = f"Bearer {config.api_key}"
    request = urllib.request.Request(
        config.url, data=json.dumps(payload).encode("utf-8"), headers=headers, method="POST"
    )

    last_error: Exception | None = None
    retry_after = 0.0
    for attempt in range(MAX_RETRIES):
        if attempt:
            time.sleep(max(BACKOFF_BASE_S * (2 ** (attempt - 1)), min(retry_after, config.timeout_s)))
        try:
            status, reply_headers, body = _send(request, config.timeout_s)
        except (OSError, http.client.HTTPException) as exc:
            # URLError: connect refused or timed out; TimeoutError: read timed out;
            # RemoteDisconnected, IncompleteRead: the connection dropped mid-reply
            last_error = exc
            retry_after = 0.0
            log.warning("request to %s failed (%s), attempt %d", config.url, exc, attempt + 1)
            continue
        if status == 429 or status >= 500:
            last_error = ServiceUnreachable(f"{config.url} returned {status}")
            retry_after = _retry_after_s(reply_headers)
            continue
        if status != 200:
            text = body.decode("utf-8", errors="replace")
            raise ServiceReplyError(f"{config.url} returned status {status}: {text[:200]}", status)
        try:
            return json.loads(body)
        except ValueError as exc:
            raise ServiceReplyError(f"{config.url} returned non-JSON body") from exc

    raise ServiceUnreachable(f"{config.url} unreachable after {MAX_RETRIES} attempts: {last_error}")


class ChatCompletionClient:
    """Minimal chat-completion client used for triple extraction and answer generation."""

    def __init__(self, config: ServiceConfig):
        self.config = config

    def complete(self, messages: list[dict[str, str]]) -> str:
        """Send a message list, return the assistant text of the first choice."""
        reply = post_json(self.config, {"model": self.config.model, "messages": messages})
        try:
            content = reply["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ServiceReplyError(f"malformed chat reply from {self.config.url}") from exc
        if not isinstance(content, str):
            raise ServiceReplyError(f"chat reply from {self.config.url} has no text content")
        return content
