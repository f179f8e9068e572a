"""Corpus loading, triple extraction, embedding precompute, and persistence.

Corpora are JSON-lines files with optional precomputed triples, so desk-scale
runs never need an extraction service. An index bundle is a directory of a
string table, an int32 file of each passage's name-id rows, two embedding
files in a fixed binary layout, and a manifest whose content hash makes
load-time corruption detectable. The triplet catalog is not stored: it is
derived from the rows, and the bundle version pins that derivation.

A graph holds each embedding matrix in one form at a time
(:class:`EmbeddingStore`): a fresh build keeps the encoder's float32 rows
until the first query needs float64 unit rows, and a bundle streams
straight into unit rows. Float32 rows are rebuilt, exactly, only to save.
Round-trips are bit-exact: loading a saved bundle reproduces the in-memory
graph and unit vectors of a fresh build, and saving it again reproduces
the bundle's bytes.
"""

from __future__ import annotations

import hashlib
import json
import logging
import operator
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .encoding import Encoder, encode_rows, serialize_rows, unit_rows_into
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


# rows per float32 block: a fresh graph holds its rows in blocks of this many,
# and a bundle's rows are read, hashed and rebuilt to save this many at a time.
# numpy asks for huge pages only for buffers of 4 MiB or more, and a 4 MiB
# block seldom covers a whole aligned 2 MiB page; at 256 dims a block is 8 MiB
ROW_BLOCK = 8192


class EmbeddingStore:
    """A graph's passage and triplet embeddings, each held in one form at a time.

    A fresh build holds the encoder's float32 rows in blocks of
    :data:`ROW_BLOCK` rows, so a graph that is only saved never holds more.
    The first read of :attr:`passage_units` or :attr:`triplet_units`
    converts both matrices once, under a lock, into the float64 unit rows
    that scoring reads and each row's float64 norm
    (:func:`unit_rows_into`). It converts newest block first and drops each
    block as it goes: the newest block lies at the top of the heap, where
    the allocator can hand it back. A loaded graph holds units and norms
    from the start (:func:`load_index`).

    Only saving needs float32 rows again: :meth:`row_blocks` rebuilds each
    block as ``float32(unit * norm)``, the original row bit for bit. For a
    finite float32 row the division and the multiplication move each value
    by at most 2**-52 relative, under half a float32 ulp; that holds for
    subnormals and signed zeros too.
    """

    KINDS = ("passage", "triplet")

    def __init__(
        self,
        encoder_id: str,
        dim: int,
        *,
        blocks: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
        units: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
    ):
        """Either the float32 row ``blocks`` of each kind, which the store takes over, or the
        (unit rows, norms) ``units`` of each kind, in :data:`KINDS` order."""
        self.encoder_id = encoder_id
        self.dim = dim
        self._blocks = blocks
        self._units = units
        self._lock = threading.Lock()

    @property
    def passage_units(self) -> np.ndarray:
        return self._unit_matrices()[0][0]

    @property
    def triplet_units(self) -> np.ndarray:
        return self._unit_matrices()[1][0]

    def row_blocks(self, kind: str) -> tuple[int, Iterator[np.ndarray]]:
        """The row count and the float32 row blocks, in order, of ``kind`` in :data:`KINDS`.

        Held blocks are yielded as they are; converted ones are rebuilt one
        block at a time.
        """
        which = self.KINDS.index(kind)
        with self._lock:  # a conversion in another thread finishes first
            if self._blocks is not None:
                blocks = list(self._blocks[which])
                return sum(map(len, blocks)), iter(blocks)
            units, norms = self._units[which]
        return units.shape[0], _rebuilt_rows(units, norms)

    def _unit_matrices(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        units = self._units
        if units is None:
            with self._lock:
                if self._units is None:
                    self._units = self._convert()
                    self._blocks = None
                units = self._units
        return units

    def _convert(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The (unit rows, norms) of each kind, from the held blocks; the triplet blocks came last."""
        triplets = _units_of(self._blocks[1], self.dim)
        return _units_of(self._blocks[0], self.dim), triplets


def _units_of(blocks: list[np.ndarray], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only unit rows and norms of float32 row blocks, each block removed from ``blocks`` once converted."""
    hi = sum(map(len, blocks))
    units, norms = np.empty((hi, dim)), np.empty(hi)
    while blocks:
        block = blocks.pop()
        lo = hi - len(block)
        unit_rows_into(block, units[lo:hi], norms[lo:hi])
        hi = lo
    units.flags.writeable = norms.flags.writeable = False
    return units, norms


def _rebuilt_rows(units: np.ndarray, norms: np.ndarray) -> Iterator[np.ndarray]:
    """``float32(unit * norm)`` for blocks of :data:`ROW_BLOCK` rows: the rows the units came from."""
    for lo in range(0, units.shape[0], ROW_BLOCK):
        block = units[lo : lo + ROW_BLOCK]
        rows = np.empty(block.shape, dtype=np.float32)
        np.multiply(block, norms[lo : lo + ROW_BLOCK, None], out=rows, casting="unsafe")
        yield rows


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
    and :func:`_usable_rows`'. Raises InvalidParams for a record with no
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
    passage_blocks = [_usable_rows(encoder, texts[lo : lo + ROW_BLOCK]) for lo in range(0, len(texts), ROW_BLOCK)]
    try:
        dim = encoder.dim
    except EncoderFailure as exc:  # a remote encoder learns its dim from its first reply
        raise InvalidParams(
            f"empty corpus: encoder {encoder.encoder_id} has no text to learn its dimension from"
        ) from exc
    # each singleton's serialization, rendered as expansion renders its candidates
    singletons = np.arange(index.triplet_rows.shape[0])[:, None]
    triplet_blocks = [
        _usable_rows(encoder, serialize_rows(index, singletons[lo : lo + ROW_BLOCK]))
        for lo in range(0, singletons.shape[0], ROW_BLOCK)
    ]
    store = EmbeddingStore(encoder.encoder_id, dim, blocks=(passage_blocks, triplet_blocks))
    return KnowledgeGraph(PassageTable(index, texts), index, store)


def _usable_rows(encoder: Encoder, texts: Sequence[str]) -> np.ndarray:
    """:func:`encode_rows`, checked at once for what would fail the conversion to unit rows.

    ZeroVector for a zero row, EncoderFailure for a non-finite value.
    """
    rows = encode_rows(encoder, texts)
    if not np.isfinite(rows).all():
        raise EncoderFailure(f"encoder {encoder.encoder_id} returned a non-finite value")
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


def _write_atomic(path: Path, chunks: Iterable[bytes | np.ndarray], digest=None) -> None:
    """Write ``chunks`` to ``path`` through a temporary file, adding each to ``digest`` if given."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            if digest is not None:
                digest.update(chunk)
            fh.write(chunk)
    os.replace(tmp, path)


def _embedding_chunks(store: EmbeddingStore, kind: str) -> Iterator[bytes | np.ndarray]:
    """Header and row blocks of an embedding file; held blocks are written without a copy."""
    count, blocks = store.row_blocks(kind)
    yield EMBEDDING_MAGIC + struct.pack("<IQ", store.dim, count)
    for block in blocks:
        yield np.ascontiguousarray(block, dtype="<f4").reshape(-1).view(np.uint8)


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
        PASSAGE_EMB_FILE: _embedding_chunks(store, "passage"),
        TRIPLET_EMB_FILE: _embedding_chunks(store, "triplet"),
    }
    digest = hashlib.sha256()
    for name in HASHED_FILES:
        _write_atomic(bundle / name, payloads[name], digest)

    manifest = {
        "version": INDEX_VERSION,
        "encoder_id": store.encoder_id,
        "dim": store.dim,
        "counts": {"passages": len(index.passage_ids), "triplets": index.triplet_rows.shape[0]},
        "content_hash": digest.hexdigest(),
        "extraction_prompt_sha256": EXTRACTION_PROMPT_SHA256,
    }
    _write_atomic(bundle / MANIFEST_FILE, [(_dumps(manifest) + "\n").encode("utf-8")])
    return manifest


def _strictly_ascending(table: Sequence[str]) -> bool:
    return all(map(operator.lt, table, table[1:]))


def _read_file(path: Path) -> np.ndarray:
    """A file's bytes as a read-only uint8 array, read once and not memory-mapped.

    numpy asks for huge pages for a large buffer, so a large string table or
    rows file reads faster than through ``Path.read_bytes``.
    """
    buffer = np.fromfile(path, dtype=np.uint8)
    buffer.flags.writeable = False
    return buffer


def _read_units(path: Path, name: str, digest) -> tuple[np.ndarray, np.ndarray]:
    """An embedding file's read-only unit rows and row norms, read once, :data:`ROW_BLOCK` rows at a time.

    Each block is read into one reused buffer, added to ``digest`` on a
    second thread while this one normalizes it into the units
    (:func:`unit_rows_into`), so no float32 copy of the file is held.
    Raises CorruptFile naming the file for a bad header or a size that
    disagrees with it, and naming the row for a zero or non-finite row or
    for a file that shrinks or grows while it is read.
    """
    with open(path, "rb") as fh, ThreadPoolExecutor(max_workers=1) as hasher:
        header = fh.read(20)
        digest.update(header)
        if header[:8] != EMBEDDING_MAGIC:
            raise CorruptFile(f"{name}: bad magic")
        if len(header) < 20:
            raise CorruptFile(f"{name}: truncated header")
        dim, count = struct.unpack("<IQ", header[8:])
        if os.fstat(fh.fileno()).st_size != 20 + 4 * dim * count or (count and not dim):
            raise CorruptFile(f"{name}: payload size does not match header")
        units, norms = np.empty((count, dim)), np.empty(count)
        buffer = np.empty(min(count, ROW_BLOCK) * dim, dtype="<f4")
        for lo in range(0, count, ROW_BLOCK):
            rows = buffer[: min(ROW_BLOCK, count - lo) * dim]
            read = fh.readinto(rows)
            if read < rows.nbytes:
                raise CorruptFile(f"{name}: the file shrank while it was read, at row {lo + read // (4 * dim)}")
            hashed = hasher.submit(digest.update, rows)  # both release the GIL, so they overlap
            rows = rows.reshape(-1, dim)
            try:
                unit_rows_into(rows, units[lo : lo + len(rows)], norms[lo : lo + len(rows)])
            except ZeroVector as exc:
                raise CorruptFile(f"{name}: row {lo + exc.row}: {exc}") from exc
            finally:
                hashed.result()  # before the next read overwrites the buffer
        if fh.read(1):
            raise CorruptFile(f"{name}: the file grew while it was read, past row {count}")
    units.flags.writeable = norms.flags.writeable = False
    return units, norms


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

    Every file is read once, with no memory map, and the graph is parsed
    from the bytes that were hashed, never re-read from disk. The string
    table and the rows are read whole into read-only buffers
    (:func:`_read_file`). Each embedding file streams through the one
    SHA-256, in :data:`HASHED_FILES` order, and straight into its float64
    unit rows and norms (:func:`_read_units`); the loaded graph holds no
    float32 copy, and a zero or non-finite row fails here, not at the first
    query. The catalog is derived from the stored rows by the same
    :func:`build_index` a fresh build runs. Every malformed table raises
    CorruptFile: see :func:`_read_strings` and :func:`_read_rows`.
    Consistency also covers the embedding row counts against the manifest,
    the passages and the catalog, and the manifest's dim against both
    embedding files.
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
        if name in (PASSAGE_EMB_FILE, TRIPLET_EMB_FILE):
            payloads[name] = _read_units(path, name, digest)
        else:
            payloads[name] = _read_file(path)
            digest.update(payloads[name])
    if digest.hexdigest() != manifest.get("content_hash"):
        raise CorruptFile("content hash mismatch; bundle files were modified or truncated")

    names, passage_ids, texts = _read_strings(payloads[STRINGS_FILE])
    offsets, rows = _read_rows(payloads[ROWS_FILE], len(passage_ids), len(names))
    index = build_index(names, passage_ids, offsets, rows)

    passages, triplets = payloads[PASSAGE_EMB_FILE], payloads[TRIPLET_EMB_FILE]
    if passages[0].shape[0] != counts.get("passages") or passages[0].shape[0] != len(passage_ids):
        raise CorruptFile("passage embedding count disagrees with manifest or passages")
    if triplets[0].shape[0] != counts.get("triplets") or triplets[0].shape[0] != index.triplet_rows.shape[0]:
        raise CorruptFile("triplet embedding count disagrees with manifest or catalog")
    dims = (manifest.get("dim"), passages[0].shape[1], triplets[0].shape[1])
    if len(set(dims)) != 1:
        raise CorruptFile(f"embedding dims disagree (manifest, passage file, triplet file): {dims}")

    store = EmbeddingStore(manifest.get("encoder_id", ""), dims[0], units=(passages, triplets))
    return KnowledgeGraph(PassageTable(index, texts), index, store)
