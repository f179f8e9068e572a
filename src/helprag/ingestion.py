"""Corpus loading, triple extraction, embedding precompute, and persistence.

Corpora are JSON-lines files with optional precomputed triples, so desk-scale
runs never need an extraction service. An index bundle is a directory of a
string table, an int32 file of each passage's name-id rows, two embedding
files in a fixed binary layout, and a manifest whose content hash makes
load-time corruption detectable. The triplet catalog is not stored: it is
derived from the rows, and the bundle version pins that derivation.
Round-trips are bit-exact: loading a saved bundle reproduces the in-memory
graph and unit vectors of a fresh build.
"""

from __future__ import annotations

import hashlib
import json
import logging
import operator
import os
import struct
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .encoding import Encoder, encode_rows, serialize_rows, unit_rows
from .errors import (
    CorruptFile,
    DuplicateId,
    EmptyField,
    EncoderFailure,
    InvalidParams,
    ParseError,
    ServiceReplyError,
    ServiceUnreachable,
    VersionMismatch,
    ZeroVector,
)
from .kg import KnowledgeGraph, PassageTable, TripleToPassageIndex, build_index, canonical_field
from .services import ChatCompletionClient, ServiceConfig

log = logging.getLogger(__name__)

INDEX_VERSION = 3
EMBEDDING_MAGIC = b"HELPIDX1"

STRINGS_FILE = "strings.json"
ROWS_FILE = "rows.i32"
PASSAGE_EMB_FILE = "passage_embeddings.bin"
TRIPLET_EMB_FILE = "triplet_embeddings.bin"
MANIFEST_FILE = "manifest.json"
# the files the content hash covers, in hashing order
HASHED_FILES = (STRINGS_FILE, ROWS_FILE, PASSAGE_EMB_FILE, TRIPLET_EMB_FILE)
# the string tables of STRINGS_FILE, in the order build_index takes them
_STRING_TABLES = ("names", "passage_ids", "texts")

EXTRACTION_PROMPT = """\
Extract factual knowledge triples from the passage below.
Reply with a JSON array only, no prose. Each element must be a three-string
array [subject, relation, object] stating one fact from the passage.
Reply with [] if the passage contains no extractable facts.

Passage:
{text}
"""

EXTRACTION_PROMPT_SHA256 = hashlib.sha256(EXTRACTION_PROMPT.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CorpusRecord:
    """One input passage; ``triples`` is None until extraction has run."""

    id: str
    text: str
    triples: tuple[tuple[str, str, str], ...] | None = None


@dataclass(frozen=True, eq=False)
class EmbeddingStore:
    """Float32 passage and triplet embedding rows plus cached unit views.

    Rows are the quantized output of the encoder backend; the float64 unit
    matrices used for scoring are derived on first access and identically
    whether the rows came from a fresh encode or from a bundle on disk, whose
    rows are read-only. :func:`unit_rows` rejects a zero row there.
    """

    passage_rows: np.ndarray
    triplet_rows: np.ndarray
    encoder_id: str

    @property
    def dim(self) -> int:
        return int(self.passage_rows.shape[1])

    @cached_property
    def passage_units(self) -> np.ndarray:
        return unit_rows(self.passage_rows)

    @cached_property
    def triplet_units(self) -> np.ndarray:
        return unit_rows(self.triplet_rows)


def load_corpus(path: str | Path) -> list[CorpusRecord]:
    """Parse a JSONL corpus; rejects malformed lines and duplicate ids."""
    return _parse_corpus(Path(path).read_text(encoding="utf-8"))


def jsonl_objects(text: str) -> Iterator[tuple[int, object]]:
    """(1-based line number, parsed value) of every non-blank JSON-lines line.

    Raises ParseError naming the line when one is not valid JSON.
    """
    # lines end at "\n" only: json.dumps(ensure_ascii=False) leaves U+0085 and
    # U+2028 raw inside strings, where str.splitlines() would break a line
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(lineno, f"invalid JSON: {exc.msg}") from exc
        yield lineno, obj


def _parse_corpus(text: str) -> list[CorpusRecord]:
    records: list[CorpusRecord] = []
    seen: set[str] = set()
    for lineno, obj in jsonl_objects(text):
        records.append(_record_from_obj(obj, lineno))
        if records[-1].id in seen:
            raise DuplicateId(f"duplicate passage id {records[-1].id!r} at line {lineno}")
        seen.add(records[-1].id)
    return records


def _record_from_obj(obj: object, lineno: int) -> CorpusRecord:
    if not isinstance(obj, dict):
        raise ParseError(lineno, "expected a JSON object")
    pid = obj.get("id")
    text = obj.get("text")
    if not isinstance(pid, str) or not pid:
        raise ParseError(lineno, "'id' must be a non-empty string")
    if not isinstance(text, str) or not text:
        raise ParseError(lineno, "'text' must be a non-empty string")
    raw_triples = obj.get("triples")
    if raw_triples is None:
        return CorpusRecord(pid, text, None)
    if not isinstance(raw_triples, list):
        raise ParseError(lineno, "'triples' must be a list")
    triples = []
    for item in raw_triples:
        if not (isinstance(item, list) and len(item) == 3 and all(isinstance(f, str) for f in item)):
            raise ParseError(lineno, f"bad triple entry {item!r}")
        triples.append((item[0], item[1], item[2]))
    return CorpusRecord(pid, text, tuple(triples))


def _parse_triple_reply(reply: str) -> list[tuple[str, str, str]] | None:
    """Pull a [subject, relation, object] array out of a model reply, or None."""
    candidates = [reply]
    start, end = reply.find("["), reply.rfind("]")
    if start != -1 and end > start:
        candidates.append(reply[start : end + 1])
    for text in candidates:
        try:
            parsed = json.loads(text)
        except json.JSONDecodeError:
            continue
        if not isinstance(parsed, list):
            continue
        if all(isinstance(t, list) and len(t) == 3 and all(isinstance(f, str) for f in t) for t in parsed):
            return [(t[0], t[1], t[2]) for t in parsed]
    return None


def extract_triples(
    records: list[CorpusRecord], service: ServiceConfig
) -> list[CorpusRecord]:
    """Fill in missing triples via the chat-completion extraction service.

    Records already carrying triples pass through unchanged; ids and text are
    never modified. A record whose replies cannot be parsed after one retry
    keeps an empty triple list and logs a warning. Until the service has
    answered once, ServiceUnreachable and a ServiceReplyError for an HTTP
    status (such as 401 for a wrong key) propagate; such failures later in
    the run degrade to per-record soft failures.
    """
    client = ChatCompletionClient(service)
    out: list[CorpusRecord] = []
    reached_service = False
    for record in records:
        if record.triples is not None:
            out.append(record)
            continue
        triples: list[tuple[str, str, str]] | None = None
        prompt = EXTRACTION_PROMPT.format(text=record.text)
        for attempt in range(2):
            try:
                reply = client.complete([{"role": "user", "content": prompt}])
            except ServiceUnreachable:
                if not reached_service:
                    raise
                log.warning("extraction service dropped out on record %s", record.id)
                break
            except ServiceReplyError as exc:
                if exc.status is not None and not reached_service:
                    raise
                reached_service = True
                continue
            reached_service = True
            triples = _parse_triple_reply(reply)
            if triples is not None:
                break
            log.warning(
                "unparseable extraction reply for record %s (attempt %d)", record.id, attempt + 1
            )
        if triples is None:
            log.warning("no triples extracted for record %s; keeping it empty", record.id)
            triples = []
        kept = tuple(t for t in triples if all(map(canonical_field, t)))
        if len(kept) < len(triples):
            dropped = len(triples) - len(kept)
            log.warning("record %s: dropped %d extracted triple(s) with a blank field", record.id, dropped)
        out.append(replace(record, triples=kept))
    return out


def build_and_embed(records: list[CorpusRecord], encoder: Encoder) -> KnowledgeGraph:
    """Canonicalize, index, and embed a corpus; returns the graph with vectors.

    Every passage text and every unique triplet serialization is encoded
    exactly once; triplet rows follow catalog order, passage rows follow
    sorted passage-id order. Each batch passes :func:`encode_rows`' checks
    and :func:`_nonzero_rows`'. Raises InvalidParams for a record with no
    triples, DuplicateId for a repeated id, EmptyField when a triple field
    canonicalizes to nothing, EncoderFailure when the encoder returns the
    wrong number or width of rows, and ZeroVector for a zero row.
    """
    for record in records:
        if record.triples is None:
            raise InvalidParams(
                f"record {record.id!r} has no triples; give them in the corpus or run `helprag index --extract`"
            )
    texts, index = _index_records(records)
    if texts:
        passage_rows = _nonzero_rows(encoder, texts)
    else:
        try:
            dim = encoder.dim
        except EncoderFailure as exc:  # a remote encoder learns its dim from its first reply
            raise InvalidParams(
                f"empty corpus: encoder {encoder.encoder_id} has no text to learn its dimension from"
            ) from exc
        passage_rows = np.empty((0, dim), dtype=np.float32)
    # each singleton's serialization, rendered as expansion renders its candidates
    singletons = np.arange(index.triplet_rows.shape[0])[:, None]
    triplet_rows = _nonzero_rows(encoder, serialize_rows(index, singletons))
    store = EmbeddingStore(passage_rows, triplet_rows, encoder.encoder_id)
    return KnowledgeGraph(PassageTable(index, texts), index, store)


def _nonzero_rows(encoder: Encoder, texts: Sequence[str]) -> np.ndarray:
    """:func:`encode_rows`, and ZeroVector at once for a zero row, which would fail every query."""
    rows = encode_rows(encoder, texts)
    if not rows.any(axis=1).all():
        raise ZeroVector("cannot normalize a zero row")
    return rows


def _index_records(records: list[CorpusRecord]) -> tuple[tuple[str, ...], TripleToPassageIndex]:
    """Passage texts in sorted id order, and the index of the extracted records.

    Each distinct raw field is canonicalized once.
    """
    by_id: dict[str, CorpusRecord] = {}
    for record in records:
        if record.id in by_id:
            raise DuplicateId(f"duplicate passage id {record.id!r}")
        by_id[record.id] = record
    ordered = [by_id[pid] for pid in sorted(by_id)]
    raw = [f for record in ordered for triple in record.triples for f in triple]
    canonical = {f: canonical_field(f) for f in set(raw)}
    if not all(canonical.values()):
        pid, triple = next((r.id, t) for r in ordered for t in r.triples if not all(map(canonical.get, t)))
        raise EmptyField(f"record {pid!r}: a field of {list(triple)!r} is empty after canonicalization")
    names = sorted(set(canonical.values()))
    name_ids = dict(zip(names, range(len(names))))
    rows = np.array([name_ids[canonical[f]] for f in raw], dtype=np.int32).reshape(-1, 3)
    offsets = np.cumsum([0] + [len(r.triples) for r in ordered], dtype=np.int32)
    index = build_index(tuple(names), tuple(r.id for r in ordered), offsets, rows)
    return tuple(r.text for r in ordered), index


# --- bundle persistence -------------------------------------------------------


def _write_atomic(path: Path, *chunks: bytes | np.ndarray) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)


def _embedding_chunks(rows: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Header and rows of an embedding file; the rows are written without a copy."""
    header = EMBEDDING_MAGIC + struct.pack("<I", rows.shape[1]) + struct.pack("<Q", rows.shape[0])
    return header, np.ascontiguousarray(rows, dtype="<f4").reshape(-1).view(np.uint8)


def _read_embedding_bytes(raw: np.ndarray, name: str) -> np.ndarray:
    """The rows of an embedding file: a read-only view over the bytes ``raw``, not a copy."""
    header = raw[:20].tobytes()
    if header[:8] != EMBEDDING_MAGIC:
        raise CorruptFile(f"{name}: bad magic")
    if len(header) < 20:
        raise CorruptFile(f"{name}: truncated header")
    dim, count = struct.unpack("<IQ", header[8:])
    if len(raw) != 20 + 4 * dim * count:
        raise CorruptFile(f"{name}: payload size does not match header")
    return raw[20:].view("<f4").reshape(count, dim)


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def save_index(bundle_dir: str | Path, graph: KnowledgeGraph) -> dict:
    """Persist a graph and its embeddings as an index bundle; returns the manifest."""
    store = graph.embeddings
    index = graph.index
    bundle = Path(bundle_dir)
    bundle.mkdir(parents=True, exist_ok=True)

    tables = dict(zip(_STRING_TABLES, (index.names, index.passage_ids, graph.passages.texts)))
    # each passage's (head, relation, tail) name-id rows in given order, after the offsets
    rows = index.triplet_rows[index.passage_triplets].reshape(-1)
    payloads = {
        STRINGS_FILE: ((_dumps(tables) + "\n").encode("utf-8"),),
        ROWS_FILE: (np.concatenate([index.passage_offsets, rows]).astype("<i4").tobytes(),),
        PASSAGE_EMB_FILE: _embedding_chunks(store.passage_rows),
        TRIPLET_EMB_FILE: _embedding_chunks(store.triplet_rows),
    }
    digest = hashlib.sha256()
    for name in HASHED_FILES:
        for chunk in payloads[name]:
            digest.update(chunk)
        _write_atomic(bundle / name, *payloads[name])

    manifest = {
        "version": INDEX_VERSION,
        "encoder_id": store.encoder_id,
        "dim": store.dim,
        "counts": {"passages": len(index.passage_ids), "triplets": index.triplet_rows.shape[0]},
        "content_hash": digest.hexdigest(),
        "extraction_prompt_sha256": EXTRACTION_PROMPT_SHA256,
    }
    _write_atomic(bundle / MANIFEST_FILE, (_dumps(manifest) + "\n").encode("utf-8"))
    return manifest


def _strictly_ascending(table: Sequence[str]) -> bool:
    return all(map(operator.lt, table, table[1:]))


def _read_file(path: Path) -> np.ndarray:
    """A file's bytes as a read-only uint8 array, read once and not memory-mapped.

    numpy asks for huge pages for a large buffer, so the 102 MB triplet file
    of a 100k-triplet bundle reads faster than through ``Path.read_bytes``.
    """
    buffer = np.fromfile(path, dtype=np.uint8)
    buffer.flags.writeable = False
    return buffer


def _json_object(raw: bytes | np.ndarray, name: str) -> dict:
    """The bundle file ``name``'s bytes parsed as UTF-8 JSON holding an object, else CorruptFile."""
    try:
        doc = json.loads(str(raw, "utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise CorruptFile(f"{name} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptFile(f"{name} is not a JSON object")
    return doc


def _read_strings(raw: np.ndarray) -> tuple[tuple[str, ...], ...]:
    """The string tables, each checked: non-empty strings, names and ids sorted and unique."""
    doc = _json_object(raw, STRINGS_FILE)
    tables = []
    for key in _STRING_TABLES:
        table = doc.get(key)
        if not isinstance(table, list) or not all(isinstance(s, str) and s for s in table):
            raise CorruptFile(f"{STRINGS_FILE}: {key!r} is not a list of non-empty strings")
        tables.append(tuple(table))
    names, passage_ids, texts = tables
    if not _strictly_ascending(names) or any(canonical_field(s) != s for s in names):
        raise CorruptFile(f"{STRINGS_FILE}: names are not sorted, unique and canonical")
    if not _strictly_ascending(passage_ids):
        raise CorruptFile(f"{STRINGS_FILE}: passage ids are not sorted and unique")
    if len(texts) != len(passage_ids):
        raise CorruptFile(f"{STRINGS_FILE}: {len(texts)} texts for {len(passage_ids)} passage ids")
    return names, passage_ids, texts


def _read_rows(raw: np.ndarray, n_passages: int, n_names: int) -> tuple[np.ndarray, np.ndarray]:
    """Passage offsets and (head, relation, tail) name-id rows: read-only views over the bytes ``raw``."""
    if len(raw) % 4:
        raise CorruptFile(f"{ROWS_FILE}: size is not a whole number of int32 values")
    values = raw.view("<i4")
    offsets, flat = values[: n_passages + 1], values[n_passages + 1 :]
    if (
        offsets.shape[0] != n_passages + 1
        or offsets[0] != 0
        or np.any(offsets[1:] < offsets[:-1])
        or 3 * int(offsets[-1]) != flat.shape[0]
    ):
        raise CorruptFile(f"{ROWS_FILE}: passage offsets do not rise from 0 to the row count")
    if flat.size and (flat.min() < 0 or flat.max() >= n_names):
        raise CorruptFile(f"{ROWS_FILE}: a name id is out of range")
    return offsets, flat.reshape(-1, 3)


def load_index(bundle_dir: str | Path) -> KnowledgeGraph:
    """Load a bundle, verifying version, content hash, and internal consistency.

    Each file is read once into a read-only uint8 buffer (:func:`_read_file`),
    no memory map, and the graph is parsed from the buffers that were hashed, never re-read
    from disk. Its catalog is derived from the stored rows by the same
    :func:`build_index` a fresh build runs. Every malformed table raises
    CorruptFile: see :func:`_read_strings` and :func:`_read_rows`.
    Consistency also covers the embedding row counts against the manifest,
    the passages and the catalog, and the manifest's dim against both
    embedding files. Embedding rows are read-only views over the verified
    buffers.
    """
    bundle = Path(bundle_dir)
    manifest = _json_object((bundle / MANIFEST_FILE).read_bytes(), MANIFEST_FILE)
    if manifest.get("version") != INDEX_VERSION:
        raise VersionMismatch(
            f"bundle version {manifest.get('version')!r}, this reader supports {INDEX_VERSION}; "
            "rebuild the bundle with `helprag index`"
        )
    counts = manifest.get("counts", {})
    if not isinstance(counts, dict):
        raise CorruptFile("manifest 'counts' is not a JSON object")

    payloads = {}
    digest = hashlib.sha256()
    for name in HASHED_FILES:
        path = bundle / name
        if not path.exists():
            raise CorruptFile(f"missing bundle file {name}")
        payloads[name] = _read_file(path)
        digest.update(payloads[name])
    if digest.hexdigest() != manifest.get("content_hash"):
        raise CorruptFile("content hash mismatch; bundle files were modified or truncated")

    names, passage_ids, texts = _read_strings(payloads[STRINGS_FILE])
    offsets, rows = _read_rows(payloads[ROWS_FILE], len(passage_ids), len(names))
    index = build_index(names, passage_ids, offsets, rows)

    passage_rows = _read_embedding_bytes(payloads[PASSAGE_EMB_FILE], PASSAGE_EMB_FILE)
    triplet_rows = _read_embedding_bytes(payloads[TRIPLET_EMB_FILE], TRIPLET_EMB_FILE)
    if passage_rows.shape[0] != counts.get("passages") or passage_rows.shape[0] != len(passage_ids):
        raise CorruptFile("passage embedding count disagrees with manifest or passages")
    if triplet_rows.shape[0] != counts.get("triplets") or triplet_rows.shape[0] != index.triplet_rows.shape[0]:
        raise CorruptFile("triplet embedding count disagrees with manifest or catalog")
    dims = (manifest.get("dim"), passage_rows.shape[1], triplet_rows.shape[1])
    if len(set(dims)) != 1:
        raise CorruptFile(f"embedding dims disagree (manifest, passage file, triplet file): {dims}")

    store = EmbeddingStore(passage_rows, triplet_rows, manifest.get("encoder_id", ""))
    return KnowledgeGraph(PassageTable(index, texts), index, store)
