"""Exception hierarchy shared across the retrieval engine."""

from __future__ import annotations


class HelpRagError(Exception):
    """Base class for all engine errors."""


class EmptyField(HelpRagError):
    """A triplet field is empty after canonicalization."""


class EmptyHyperNode(HelpRagError):
    """Serialization requested for an empty triplet set."""


class EmptyGraph(HelpRagError):
    """Seed selection requested on a graph with no triplets."""


class ZeroVector(HelpRagError):
    """Raw embedding has zero norm, or a non-finite one, and cannot be normalized.

    ``row`` is the offending row's position in the rows being normalized, when known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class EncoderFailure(HelpRagError):
    """Encoder backend failed (unreachable service, malformed reply, missing fixture entry)."""


class EncoderMismatch(HelpRagError):
    """Supplied encoder does not match the one recorded in an index bundle."""


class ParseError(HelpRagError):
    """A corpus or fixture line failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, message: str = ""):
        self.line = line
        super().__init__(f"line {line}: {message}" if message else f"line {line}")


class DuplicateId(HelpRagError):
    """Duplicate record id in an input file."""


class ServiceUnreachable(HelpRagError):
    """An external HTTP service could not be reached after retries."""


class ServiceReplyError(HelpRagError):
    """An external HTTP service replied with a status or body the client cannot use.

    ``status`` is the HTTP status of a reply refused for its status, else None.
    """

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class VersionMismatch(HelpRagError):
    """Index bundle was written by an incompatible schema version."""


class CorruptFile(HelpRagError):
    """Index bundle file failed magic, size, count, or hash verification."""


class InvalidParams(HelpRagError):
    """Configuration values violate their declared constraints."""
