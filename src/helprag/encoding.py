"""Text-to-unit-vector encoding and the vector primitives built on it.

A hypernode (set of triplets) is serialized to one canonical string, mapped
to a raw embedding by a pluggable encoder backend, and L2-normalized. Three
backends are provided: a deterministic character-3-gram feature-hashing
encoder for offline tests, an oracle encoder backed by an explicit
string-to-vector table, and a client for a remote embeddings service.

All backends emit finite float32 rows that were normalized in float64 and
then quantized; callers re-normalize in float64 via :func:`unit_rows`.
Routing every vector through the float32 quantization step makes the
in-memory unit vectors bit-identical to the ones reconstructed from a
persisted index.

Expansion renders texts into one :class:`TextBatch`, a UTF-8 buffer with
the offsets of its texts, by gathering name bytes (:func:`serialize_rows`);
no ``str`` is built per candidate. The hash encoder hashes every byte
position of a chunk of that buffer at once, yet each row has the bits of
hashing its text alone: bit-built signs, floor-divide buckets and integer
counts are exact, and so is the squared norm below ``2**53`` (see
:class:`HashEncoder`). Its one counting step, :meth:`HashEncoder.gram_counts`,
also serves :meth:`HashEncoder.path_counts`, which composes the counts of
paths from those of their triplets, each with the joins beside it. Each
such piece is counted once per index and dimension, the first time a
batch needs it, and kept in the index's :class:`PieceCounts`. The other
backends read the batch as strings.

Expansion's prune does not build a float64 unit row for every candidate.
It ranks float32 rows by :func:`screen_distances`, whose error
:func:`screen_error` bounds, and runs :func:`unit_rows` and the exact
distances only for the :func:`screen_pool`: the rows that can still reach
the beam. For the hash encoder, on paths of three or more triplets, the
screened rows are the composed gram counts, one chunk at a time, so only
the pool is rendered and encoded. Both float64 steps reduce each row on
its own, so a row's bits do not depend on which rows share its matrix.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EmptyHyperNode, EncoderFailure, InvalidParams, ServiceReplyError, ServiceUnreachable, ZeroVector
from .kg import TRIPLET_JOIN, TripleToPassageIndex, Triplet, distinct
from .services import ServiceConfig, post_json

# per segment of a triplet's piece (join, head, relation, tail, join): each takes its
# whole entry of the index's text bytes, but the tail drops its space
_TAIL_SPACE = np.array([0, 0, 0, 1, 0])
# the (head, relation, tail) order of Triplet's dataclass comparison, as a C-level key
_TRIPLET_FIELDS = attrgetter("head", "relation", "tail")


def serialize_hypernode(triplets: Iterable[Triplet]) -> str:
    """Render a triplet set as one canonical string.

    Triplets are sorted by (head, relation, tail) and rendered as
    "head relation tail", joined by "; ". The output is invariant under
    input order, so equal sets always serialize identically.
    """
    ordered = sorted(triplets, key=_TRIPLET_FIELDS)
    if not ordered:
        raise EmptyHyperNode("cannot serialize an empty triplet set")
    return TRIPLET_JOIN.join(t.as_text() for t in ordered)


class TextBatch(Sequence[str]):
    """Texts held as one UTF-8 buffer: text i is ``data[offsets[i] : offsets[i + 1]]``.

    Indexing decodes one text, and a slice is a list of decoded texts.
    :meth:`HashEncoder.encode_batch` hashes the buffer itself.
    """

    def __init__(self, data: np.ndarray, offsets: np.ndarray):
        self.data = data  # uint8
        self.offsets = offsets  # int64, ascending, one more than the texts

    @classmethod
    def of(cls, texts: Sequence[str]) -> "TextBatch":
        """``texts`` as a batch, each encoded once; a batch is returned as it is."""
        if isinstance(texts, TextBatch):
            return texts
        encoded = [text.encode("utf-8") for text in texts]
        offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded)), out=offsets[1:])
        return cls(np.frombuffer(b"".join(encoded), dtype=np.uint8), offsets)

    @property
    def lengths(self) -> np.ndarray:
        """Each text's length in bytes."""
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # bounds and negative indices as a list has them
        lo, hi = self.offsets[i : i + 2].tolist()
        return self.data[lo:hi].tobytes().decode("utf-8")

    def __iter__(self) -> Iterator[str]:
        data, offsets = self.data.tobytes(), self.offsets.tolist()
        return (data[lo:hi].decode("utf-8") for lo, hi in zip(offsets, offsets[1:]))


def serialize_rows(index: "TripleToPassageIndex", rows: np.ndarray) -> TextBatch:
    """:func:`serialize_hypernode` of each row of catalog ids, as one batch.

    Each row holds the ascending catalog ids of one triplet set, all rows
    of one width. Catalog order is (head, relation, tail) order, so the
    text is the row's triplets in row order, each with the join before it
    from the second on (:func:`_pieces`).
    """
    n, width = rows.shape
    entries, lengths = _pieces(index, rows.ravel(), np.tile(np.arange(width) > 0, n), 0)
    return _gather_texts(index, entries.reshape(n, width * 5), lengths.reshape(n, width * 5))


def _pieces(index: "TripleToPassageIndex", tids: np.ndarray, before, after) -> tuple[np.ndarray, np.ndarray]:
    """Each triplet's text with the join before it and/or after it, as segments for :func:`_gather_texts`.

    Five segments per triplet, each an entry of the index's text bytes: the
    join, head, relation, tail and join. Head and relation keep the space
    that follows them and the tail drops its; the first join has length 0
    where ``before`` is 0, the last where ``after`` is.
    """
    _, _, spans = index.text_bytes
    entries = np.empty((tids.shape[0], 5), dtype=np.int64)
    entries[:, [0, 4]] = spans.shape[0] - 1  # the join
    entries[:, 1:4] = index.triplet_rows[tids]
    lengths = spans[entries] - _TAIL_SPACE
    lengths[:, 0] *= before
    lengths[:, 4] *= after
    return entries, lengths


def _gather_texts(index: "TripleToPassageIndex", entries: np.ndarray, lengths: np.ndarray) -> TextBatch:
    """Text i joins, for each j, the first ``lengths[i, j]`` bytes of entry ``entries[i, j]``.

    The entries are those of the index's text bytes (``index.text_bytes``).
    """
    data, starts, _ = index.text_bytes
    lengths = lengths.ravel()
    ends = np.cumsum(lengths)
    # byte p of a segment is data[start + (p - out_start)]; int32 positions halve
    # the largest temporaries whenever every position fits
    size = max(int(ends[-1]) if ends.size else 0, data.shape[0])
    dtype = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    shifts = starts[entries].ravel() - (ends - lengths)
    gather = np.repeat(shifts.astype(dtype), lengths)
    gather += np.arange(gather.shape[0], dtype=dtype)
    per_text = entries.shape[1]
    return TextBatch(data.take(gather), np.concatenate([[0], ends[per_text - 1 :: per_text]]))


# --- unit-vector primitives -------------------------------------------------


_UNIT_BLOCK = 128


def unit_rows_into(rows: np.ndarray, units: np.ndarray, norms: np.ndarray) -> None:
    """Normalize ``rows`` into the float64 ``units``, writing each row's norm to ``norms``.

    One pass per block of :data:`_UNIT_BLOCK` rows: cast the block into
    ``units``, take its :func:`row_norms`, check them, and divide in place.
    Each row is reduced on its own, so its bits do not depend on the rows
    beside it. Raises ZeroVector, whose ``row`` counts from the first of
    ``rows``, for the first row that is zero or not finite.
    """
    for lo in range(0, rows.shape[0], _UNIT_BLOCK):
        block = units[lo : lo + _UNIT_BLOCK]
        block[...] = rows[lo : lo + _UNIT_BLOCK]
        block_norms = norms[lo : lo + _UNIT_BLOCK]
        block_norms[...] = row_norms(block)
        usable = (block_norms > 0.0) & (block_norms < np.inf)  # False for NaN too
        if not usable.all():
            bad = int(np.argmin(usable))
            kind = "zero" if block_norms[bad] == 0.0 else "non-finite"
            raise ZeroVector(f"cannot normalize a {kind} row", lo + bad)
        block /= block_norms[:, None]


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """The float64 unit rows of a 2-D ``matrix`` (:func:`unit_rows_into`)."""
    out = np.empty(matrix.shape, dtype=np.float64)
    unit_rows_into(matrix, out, np.empty(matrix.shape[0]))
    return out


_ROW_BLOCK = 512


def row_norms(rows: np.ndarray, center: np.ndarray | float = 0.0) -> np.ndarray:
    """Euclidean norm of each row of ``rows - center``.

    Bit-identical to ``np.linalg.norm(rows - center, axis=1)``: the same
    squares and the same per-row reduction. Works in blocks of rows, so no
    temporary is the size of ``rows``.
    """
    out = np.empty(rows.shape[0])
    for lo in range(0, rows.shape[0], _ROW_BLOCK):
        block = rows[lo : lo + _ROW_BLOCK] - center
        block *= block
        np.sqrt(np.add.reduce(block, axis=1), out=out[lo : lo + _ROW_BLOCK])
    return out


def smallest_k(values: np.ndarray, k: int, tie_key: Callable[[int], object]) -> list[int]:
    """Indices of the k smallest values, ordered by (value, tie_key(index)).

    Gives the order of a full sort by that key. ``np.partition`` finds the
    k-th smallest value, and only the rows at or below it, which include
    every row tied with it, are sorted by the full key.
    """
    if k < values.shape[0]:
        kth = np.partition(values, k - 1)[k - 1]
        pool = np.flatnonzero(values <= kth).tolist()
    else:
        pool = range(values.shape[0])
    return sorted(pool, key=lambda i: (values[i], tie_key(i)))[:k]


# float32 unit roundoff
_F32_UNIT = 2.0**-24
# the smallest float32 squared row norm the screen trusts: above it, what float32
# underflow loses is far below one unit roundoff of the norm
_SCREEN_MIN_SQUARE = 2.0**-100


def screen_distances(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Approximate squared distance from each row's unit vector to the unit ``query``.

    ``A = 2 - 2 (r . q32) / |r|``, where ``q32`` is the query quantized to
    float32 and the dot product and the squared norm are reduced in float32
    (two ``einsum`` calls), so no float64 copy of ``rows`` is made. The
    dot product is not a BLAS ``sgemv``: :func:`screen_error` holds for any
    summation order, and a threaded gemv can stall for whole scheduler
    ticks. :func:`screen_error` bounds ``|A - d^2|`` against the exact
    ``row_norms(unit_rows(rows), query) ** 2``. A row whose float32 squared
    norm lies outside ``[2**-100, inf)`` reads NaN: there underflow or
    overflow break that bound.
    """
    rows = rows.astype(np.float32, copy=False)  # the bound is for float32 arithmetic
    square = np.einsum("ij,ij->i", rows, rows)
    with np.errstate(divide="ignore", invalid="ignore"):  # such rows are set to NaN below
        approx = 2.0 - 2.0 * np.einsum("ij,j->i", rows, query.astype(np.float32)) / np.sqrt(
            square.astype(np.float64)
        )
    approx[~((square >= _SCREEN_MIN_SQUARE) & (square < np.inf))] = np.nan
    return approx


def screen_error(dim: int) -> float:
    """The bound ``eps = 4 (dim + 2) u`` on ``|A - d^2|``, with ``u = 2**-24``.

    Take a float32 row ``r`` of ``dim`` entries, the float64 unit query
    ``q`` and ``c``, the exact cosine between them. Then:

    - quantizing ``q`` to float32 moves ``r . q`` by at most ``u |r|``;
    - the float32 dot product of ``dim`` terms, summed in any order, errs
      by at most ``dim u |r|``;
    - the float32 squared norm errs by at most ``dim u |r|^2``, so its
      root errs by ``dim u |r| / 2``.

    So the screen's cosine is within ``(1.5 dim + 1) u`` of ``c``, and
    ``|A - (2 - 2c)| <= (3 dim + 2) u``. The exact ``d^2`` is ``2 - 2c`` up
    to float64 roundoff, about ``dim 2**-52``. That, and the second-order
    terms of the float32 errors, fit in the remaining ``(dim + 6) u`` while
    ``dim u`` is small (``dim`` up to ``2**20``).
    """
    return 4 * (dim + 2) * _F32_UNIT


def screen_pool(approx: np.ndarray, k: int, dim: int) -> np.ndarray:
    """Ascending indices of the rows whose exact distance can be among the k smallest.

    ``approx`` holds each row's :func:`screen_distances` value ``A`` for
    rows of ``dim`` entries. The pool is ``{i : A_i <= A_(k) + 2 eps}``:
    ``A_(k)`` is the k-th smallest ``A``, and ``eps`` twice
    :func:`screen_error` for margin. It holds every row whose exact
    ``d^2`` is at most ``D_k^2``, the k-th smallest: the k rows with the
    smallest ``A`` have ``d^2 <= A_(k) + eps``, so ``D_k^2 <= A_(k) + eps``,
    and a row with ``d^2 <= D_k^2`` has ``A <= d^2 + eps <= A_(k) + 2 eps``.
    So :func:`smallest_k` over the pool's exact distances returns the rows,
    in the order, that it would return over every row. When ``k >=
    len(approx)``, or when any ``A`` is not finite, the pool is every row.

    The screened rows may also be the hash encoder's integer gram counts
    (:meth:`HashEncoder.path_counts`), screened for the rows it would
    encode: each count row divided by its norm and rounded once to
    float32. Rounding moves each entry of the unit row ``v`` by at most
    ``u |v_j|`` (``u = 2**-24``), so the encoded row's direction is within
    ``2u`` of ``v`` and its exact ``d^2`` within ``4u`` of ``v``'s. The
    argument above then holds with ``eps + 4u``, and the margin covers it:
    ``2 (eps + 4u) <= 4 eps``, since ``eps >= 16u``.
    """
    n = approx.shape[0]
    if k < n and np.isfinite(approx).all():
        kth = np.partition(approx, k - 1)[k - 1]
        return np.flatnonzero(approx <= kth + 4 * screen_error(dim))
    return np.arange(n)


# --- encoder backends --------------------------------------------------------


class Encoder(ABC):
    """Batch text-to-vector backend with a declared output dimension.

    Implementations must be deterministic within one configuration: the same
    input text always yields the identical vector.
    """

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @property
    @abstractmethod
    def encoder_id(self) -> str:
        """Stable identifier recorded in index manifests."""

    @abstractmethod
    def encode_batch(self, texts: TextBatch) -> np.ndarray:
        """Return a float32 (len(texts), dim) matrix of finite, near-unit rows."""


def encode_rows(encoder: Encoder, texts: Sequence[str]) -> np.ndarray:
    """Encode texts to the backend's float32 rows in one batch, order-preserving.

    The one place texts cross into a backend: they are held as one
    :class:`TextBatch` (a batch is used as it is), so the hash encoder reads
    them without decoding. Checks that every text is non-empty and that the
    backend returned one row of the encoder's dimension per text. A zero row
    is left to :func:`unit_rows`, which each caller's path runs once.
    """
    batch = TextBatch.of(texts)
    if not batch.lengths.all():
        raise ValueError("texts must be non-empty strings")
    if not len(batch):
        return np.empty((0, encoder.dim), dtype=np.float32)
    rows = encoder.encode_batch(batch)
    if rows.shape != (len(batch), encoder.dim):
        raise EncoderFailure(
            f"backend returned shape {rows.shape}, expected {(len(batch), encoder.dim)}"
        )
    return rows


def encode(encoder: Encoder, texts: Sequence[str]) -> np.ndarray:
    """Encode texts to exact float64 unit vectors, order-preserving."""
    return unit_rows(encode_rows(encoder, texts))


_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_GRAM_WIDTH = 3
# the float64 sign bit, and the bits of 1.0: OR-ed together they make -1.0 or +1.0
_SIGN_BIT = np.uint64(1 << 63)
_ONE_BITS = np.uint64(0x3FF0000000000000)
# texts hashed per bincount. Bounds the per-gram arrays and the float64 count
# matrix, small enough that a chunk's arrays stay in cache
HASH_CHUNK_TEXTS = 512
_HASH_ID_PREFIX = "hash-fnv1a-3gram-"


def _chunks(batch: TextBatch) -> Iterator[tuple[int, TextBatch]]:
    """Each run of :data:`HASH_CHUNK_TEXTS` texts of a batch, with its start, as a batch on the same buffer."""
    for lo in range(0, len(batch), HASH_CHUNK_TEXTS):
        yield lo, TextBatch(batch.data, batch.offsets[lo : lo + HASH_CHUNK_TEXTS + 1])


def _fnv1a_gram_hashes(data: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """64-bit FNV-1a hash of every 3-byte window of each UTF-8 text, in one pass.

    Text i is ``data[offsets[i] : offsets[i + 1]]``. Returns ``(rows,
    hashes)``: gram ``g`` belongs to text ``rows[g]``, and the grams of one
    text follow in window order. A text shorter than the window hashes as a
    single whole-text gram.

    The texts' bytes are laid out one after another, an empty text as one
    zero byte so that every text has a position, and each round runs over
    the whole buffer at once: round ``c`` XORs in the bytes ``c`` positions
    on. Position ``p`` then holds the hash of the window at ``p``. The last
    two positions of each text, whose windows run into the next text, are
    dropped, and a text of ``n < 3`` bytes keeps its first position, reset
    to the hash after ``n`` rounds.
    """
    lengths = np.diff(offsets)
    spans = np.maximum(lengths, 1)
    ends = np.cumsum(spans)
    starts = ends - spans
    size = int(ends[-1])
    lo, hi = offsets[0], offsets[-1]
    # pad bytes keep the last rounds' slices inside the buffer
    laid = np.zeros(size + _GRAM_WIDTH - 1, dtype=np.uint64)
    if size == hi - lo:
        laid[:size] = data[lo:hi]
    else:  # some text is empty: its position stays zero, and the texts after it shift
        laid[np.arange(lo, hi) + np.repeat(starts - offsets[:-1], lengths)] = data[lo:hi]
    short = lengths < _GRAM_WIDTH
    first = starts[short]
    h = laid[:size] ^ _FNV_OFFSET
    h *= _FNV_PRIME
    # after[n]: each short text's hash after n rounds
    after = [np.full(first.size, _FNV_OFFSET), h[first]]
    for col in range(1, _GRAM_WIDTH):
        h ^= laid[col : col + size]
        h *= _FNV_PRIME
        after.append(h[first])
    h[first] = np.choose(lengths[short], after)
    keep = np.ones(size, dtype=bool)
    for back in range(1, _GRAM_WIDTH):
        keep[ends[lengths > back] - back] = False
    rows = np.repeat(np.arange(lengths.shape[0]), np.maximum(lengths - (_GRAM_WIDTH - 1), 1))
    return rows, h[keep]


def _signed_cells(rows: np.ndarray, hashes: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat count cell ``rows * dim + hashes % dim`` and sign weight of each gram.

    The weight is -1.0 when the hash's top bit is set, else +1.0, built from
    bits: the top bit OR-ed into the bits of 1.0. The bucket is ``h - (h //
    dim) * dim``, which equals ``h % dim`` for unsigned integers. Overwrites
    ``rows`` and ``hashes``; the cells are a view of ``hashes``.
    """
    signs = hashes & _SIGN_BIT
    signs |= _ONE_BITS
    udim = np.uint64(dim)
    quotient = hashes // udim
    quotient *= udim
    hashes -= quotient
    cells = hashes.view(np.int64)
    rows *= dim
    cells += rows
    return cells, signs.view(np.float64)


class HashEncoder(Encoder):
    """Deterministic signed feature hashing over character 3-grams.

    Each 3-gram's FNV-1a 64-bit hash selects a bucket (modulo the dimension)
    and a sign (top bit); bucket counts are accumulated and L2-normalized.
    Identical across runs and platforms.

    Every step is exact, so each row has the bits of the per-text reference
    ``(counts / sqrt(sum(c * c))).astype(float32)``: the signs are -1.0 or
    +1.0 built from bits, the bucket is an integer floor-divide remainder,
    and the counts are integers summed in float64. So are their squares and
    every partial sum of the squared norm while they stay below ``2**53``,
    which holds for any text under ~9e7 bytes; the norm is then one
    correctly rounded square root, and each quotient is rounded once, from
    float64 to float32.

    It hashes the UTF-8 buffer of the :class:`TextBatch` it is handed, so a
    batch that expansion rendered is never decoded.
    """

    def __init__(self, dim: int = 256):
        if dim < 2:
            raise InvalidParams("hash encoder dimension must be >= 2")
        self._dim = dim

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def encoder_id(self) -> str:
        return f"{_HASH_ID_PREFIX}{self._dim}"

    def gram_counts(self, batch: TextBatch) -> np.ndarray:
        """Signed 3-gram counts of each text: a float64 ``(len(batch), dim)`` matrix of integers.

        The one counting step: :meth:`encode_batch` normalizes its rows and
        :meth:`path_counts` composes path counts from them. One ``bincount``
        of the signed grams of the whole batch.
        """
        n, dim = len(batch), self._dim
        if not n:
            return np.zeros((0, dim))
        cells, signs = _signed_cells(*_fnv1a_gram_hashes(batch.data, batch.offsets), dim)
        return np.bincount(cells, weights=signs, minlength=n * dim).reshape(n, dim)

    def encode_batch(self, batch: TextBatch) -> np.ndarray:
        """Normalize each text's :meth:`gram_counts`, in chunks of :data:`HASH_CHUNK_TEXTS` texts."""
        out = np.empty((len(batch), self._dim), dtype=np.float32)
        for lo, chunk in _chunks(batch):
            raw = self.gram_counts(chunk)
            norms = np.sqrt(np.einsum("ij,ij->i", raw, raw))
            zero = np.flatnonzero(norms == 0.0)
            if zero.size:
                raise ZeroVector(f"hash embedding of {chunk[int(zero[0])]!r} cancelled to zero")
            np.divide(raw, norms[:, None], out=out[lo : lo + len(chunk)], casting="unsafe")
        return out

    def path_counts(self, index: "TripleToPassageIndex", rows: np.ndarray) -> np.ndarray:
        """:meth:`gram_counts` of ``serialize_rows(index, rows)`` as float32, with no path rendered.

        A path's text is its triplets' texts joined by :data:`TRIPLET_JOIN`.
        Every triplet text has at least 5 bytes, so each 3-byte window of a
        path lies in one piece: a triplet's text with the join before it
        when it has a left neighbour and the join after it when it has a
        right one (``"t1; "``, ``"; t2; "``, ``"; t3"``). A window across a
        join holds at most 2 bytes of the text on either side, so it is
        one of the two last windows of the piece before the join or of the
        two first of the piece after it. So a path's counts are the sum of
        its pieces' counts. Each piece is rendered and counted once per
        index and dimension, by the first batch that needs it, and kept in
        the index's :class:`PieceCounts`; each row gathers its pieces'
        integer rows and sums them in an integer type that holds the sum,
        which float32 then holds exactly for any path text under ``2**24``
        bytes.
        """
        memo = index._piece_counts.get(self._dim)
        if memo is None:
            memo = index._piece_counts.setdefault(self._dim, PieceCounts(index, self._dim))
        # a piece is keyed 4 tid + 2 (join before) + (join after)
        keys = rows * 4
        keys[:, 1:] += 2
        keys[:, :-1] += 1
        slots = memo.slots_of(index, keys, self)
        counts = memo.rows.take(slots[:, 0], axis=0).astype(_int_holding(rows.shape[1] * memo.bound), copy=False)
        for column in slots.T[1:]:
            counts += memo.rows.take(column, axis=0)
        return counts.astype(np.float32)


def _int_holding(bound: int) -> np.dtype:
    """The narrowest signed integer dtype that holds every integer of magnitude up to ``bound``."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= bound)


class PieceCounts:
    """The gram counts of one index's triplet pieces at one dimension, each counted on first use.

    A piece is keyed ``4 tid + 2 (join before) + (join after)``, as
    :func:`_pieces` renders it, and ``slots[key]`` is its row of ``rows``,
    -1 until it is counted. Rows are stored in first-use order in one arena
    reserved with ``np.empty`` at one row per key, so only the pages of the
    rows counted so far are resident. Its dtype is the narrowest signed
    integer that holds ``bound``, the gram count of the longest piece, which
    no count of a piece exceeds in magnitude.

    Its :class:`TripleToPassageIndex` holds it, and
    :meth:`HashEncoder.path_counts` fills it. Concurrent queries may share
    an index, so pieces are counted under a lock; a row below ``filled`` is
    never rewritten and its slot is set after it, so gathers take no lock.
    """

    def __init__(self, index: "TripleToPassageIndex", dim: int):
        _, _, spans = index.text_bytes
        # a piece's bytes: its triplet's three entries, less the tail's space, and two joins
        longest = int(spans[index.triplet_rows].sum(axis=1).max(initial=0)) - 1 + 2 * int(spans[-1])
        self.bound = max(longest - (_GRAM_WIDTH - 1), 1)
        keys = 4 * index.triplet_rows.shape[0]
        self.rows = np.empty((keys, dim), dtype=_int_holding(self.bound))
        self.slots = np.full(keys, -1, dtype=np.intp)
        self.filled = 0
        self._lock = threading.Lock()

    def slots_of(self, index: "TripleToPassageIndex", keys: np.ndarray, encoder: HashEncoder) -> np.ndarray:
        """The slots of the pieces ``keys``; ``encoder`` first counts those not yet counted."""
        slots = self.slots[keys]
        if (slots < 0).any():
            with self._lock:
                new = distinct(keys[self.slots[keys] < 0])  # another query may have counted some since
                entries, lengths = _pieces(index, new >> 2, new >> 1 & 1, new & 1)
                start = self.filled
                for lo, chunk in _chunks(_gather_texts(index, entries, lengths)):
                    self.rows[start + lo : start + lo + len(chunk)] = encoder.gram_counts(chunk)
                self.slots[new] = np.arange(start, start + new.shape[0])
                self.filled = start + new.shape[0]
            slots = self.slots[keys]
        return slots


def hash_twin(encoder: Encoder) -> HashEncoder | None:
    """A :class:`HashEncoder` when ``encoder``'s rows are the hash encoder's, else None.

    Keyed by ``encoder_id``, which binds a bundle to its encoder, so an
    encoder that delegates to the hash encoder and forwards its id is one
    too. The id is read first: a remote encoder knows its dimension only
    after its first reply.
    """
    ident = encoder.encoder_id
    if ident.startswith(_HASH_ID_PREFIX) and ident == f"{_HASH_ID_PREFIX}{encoder.dim}":
        return HashEncoder(encoder.dim)
    return None


# entries normalized together, in two scratch blocks that each table reuses
_ORACLE_BLOCK = 32
# the exact types most of an oracle table's numbers have; bool is an int, and JSON also holds strings and null
_NUMBER_TYPES = {int, float}
_NUMBER_CLASSES = (int, float, np.integer, np.floating)


def _numbers(values: Iterable) -> bool:
    """Whether each value is a real number: an int or float that is not a bool, or a numpy int or float scalar."""
    types = set(map(type, values))
    return types <= _NUMBER_TYPES or all(issubclass(t, _NUMBER_CLASSES) and t is not bool for t in types)


def _not_a_number(text: str) -> InvalidParams:
    return InvalidParams(f"oracle entry for {text!r} holds a value that is not a number")


class OracleEncoder(Encoder):
    """Exact string-to-vector table for construction-verified fixtures.

    The table maps each known text to a raw vector; unknown texts raise
    EncoderFailure. Each entry is either a dense list of ints and floats (or
    a numeric array) or a sparse ``{"i": [indices], "v": [values]}`` pair;
    fixture files are JSON ``{"dim": D, "vectors": {...}}``.

    Entries are taken :data:`_ORACLE_BLOCK` at a time in sorted text order
    and checked one by one. A float64 scratch block takes a block's raw
    values, one ``ddot`` per row gives the norm ``np.linalg.norm`` gives,
    and the quotients fill a float32 scratch block, whose rows are copied
    out. So each row has the bits of ``(raw / norm).astype(np.float32)`` for
    its entry alone, and the first bad entry in text order decides the
    error. Each row is its own array of ``4 * dim`` bytes, which fits the
    heap's free pages where a whole block's array often does not, and
    nothing table-sized is held but the rows.
    """

    def __init__(self, dim: int, vectors: Mapping[str, Sequence[float] | np.ndarray | dict]):
        # a JSON table may hold any value here; bool is an int, and 2.5 must not become 2
        if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
            raise InvalidParams(f"oracle dimension must be an integer >= 1, got {dim!r}")
        if not isinstance(vectors, Mapping):
            raise InvalidParams(f"oracle vectors must map texts to vectors, got {type(vectors).__name__}")
        self._dim = dim
        self._rows: dict[str, np.ndarray] = {}
        digest = hashlib.sha256()
        texts = sorted(vectors)
        blocks = None  # the scratch blocks, made once some entry has passed its checks
        for start in range(0, len(texts), _ORACLE_BLOCK):
            block = texts[start : start + _ORACLE_BLOCK]
            checked: list[np.ndarray | tuple[list[int], list[float]]] = []
            failure = None
            for text in block:
                try:
                    checked.append(self._checked(text, vectors[text]))
                except InvalidParams as exc:
                    failure = exc  # the entries before it are normalized first: one of them may fail first
                    break
            if checked:
                if blocks is None:
                    size = min(_ORACLE_BLOCK, len(texts))
                    blocks = np.zeros((size, dim)), np.zeros((size, dim), dtype=np.float32)
                self._add_block(block[: len(checked)], checked, *blocks, digest)
            if failure is not None:
                raise failure
        self._table_hash = digest.hexdigest()[:16]

    def _checked(self, text: str, entry) -> np.ndarray | tuple[list[int], list[float]]:
        """A dense entry's float64 row, or a sparse entry's indices and values, each index an int in [0, dim) once."""
        if isinstance(entry, dict):
            if not {"i", "v"} <= entry.keys():
                raise InvalidParams(f'sparse oracle entry for {text!r} needs "i" and "v"')
            indices, values = entry["i"], entry["v"]
            # checked in Python: on a few items each, numpy calls would cost more than the checks
            if not isinstance(indices, list) or not isinstance(values, list) or len(indices) != len(values):
                raise InvalidParams(f"sparse oracle entry for {text!r} needs a list of values, one per index")
            if indices and not (set(map(type, indices)) == {int} and min(indices) >= 0 and max(indices) < self._dim):
                raise InvalidParams(f"sparse oracle entry for {text!r} needs int indices in [0, {self._dim})")
            if len(set(indices)) != len(indices):
                raise InvalidParams(f"sparse oracle entry for {text!r} repeats an index")
            if not _numbers(values):
                raise _not_a_number(text)
            try:
                return indices, list(map(float, values))  # an int float64 cannot hold overflows, as in numpy
            except OverflowError as exc:
                raise _not_a_number(text) from exc
        if isinstance(entry, np.ndarray) and entry.dtype.kind not in "iuf":
            raise _not_a_number(text)
        try:
            raw = np.asarray(entry, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise _not_a_number(text) from exc
        if raw.shape != (self._dim,):
            raise InvalidParams(f"oracle entry for {text!r} has shape {raw.shape}")
        # numpy reads "1.0" and True as numbers: a list's values are checked after it has the shape
        if not isinstance(entry, np.ndarray) and not _numbers(entry):
            raise _not_a_number(text)
        return raw

    def _add_block(
        self, texts: list[str], checked: list, scratch: np.ndarray, units: np.ndarray, digest
    ) -> None:
        """Normalize and keep a block of checked entries in text order; both scratch blocks are left zero."""
        lens, cols, values, dense = [], [], [], []
        for r, entry in enumerate(checked):
            if isinstance(entry, np.ndarray):
                scratch[r] = entry
                dense.append(r)
                entry = [], []
            lens.append(len(entry[0]))
            cols += entry[0]
            values += entry[1]
        n = len(texts)
        rows = np.repeat(np.arange(n), lens)
        cells = rows * self._dim + np.asarray(cols, dtype=np.intp)  # sparse values' offsets in the flat block
        flat = scratch.reshape(-1)
        flat[cells] = values
        raw = scratch[:n]
        # one ddot per row, the call np.linalg.norm makes on a single row
        norms = np.sqrt(np.matmul(raw[:, None, :], raw[:, :, None]).ravel())
        # a NaN or Infinity value makes the norm non-finite: two checks per block
        if not (np.isfinite(norms).all() and norms.all()):
            for text, norm in zip(texts, norms):
                if not math.isfinite(norm):
                    raise InvalidParams(f"oracle entry for {text!r} has a non-finite norm")
                if norm == 0.0:
                    raise ZeroVector(f"oracle entry for {text!r} is a zero vector")
                text.encode("utf-8")  # a text that UTF-8 cannot encode fails before a later entry, as below
        # each quotient is rounded to float32 once; a sparse row's other values stay 0.0, as 0.0 / norm is
        flat_units = units.reshape(-1)
        flat_units[cells] = flat[cells] / norms[rows]
        if dense:
            units[dense] = raw[dense] / norms[dense, None]
        for text, row in zip(texts, units):
            row = self._rows[text] = row.copy()
            digest.update(text.encode("utf-8") + b"\x00")
            digest.update(row)
        flat[cells] = flat_units[cells] = 0.0
        if dense:
            raw[dense] = units[dense] = 0.0

    @classmethod
    def from_table(cls, spec: dict) -> "OracleEncoder":
        """Build from a {"dim": D, "vectors": {...}} table with dense or sparse entries."""
        if not isinstance(spec, dict) or not {"dim", "vectors"} <= spec.keys():
            raise InvalidParams('an oracle table is an object with "dim" and "vectors"')
        return cls(spec["dim"], spec["vectors"])

    @classmethod
    def from_file(cls, path: str | Path) -> "OracleEncoder":
        try:
            with open(path, encoding="utf-8") as fh:
                table = json.load(fh)
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
            raise InvalidParams(f"oracle table {str(path)!r} is not UTF-8 JSON: {exc}") from exc
        return cls.from_table(table)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def encoder_id(self) -> str:
        return f"oracle-{self._table_hash}"

    def encode_batch(self, texts: TextBatch) -> np.ndarray:
        out = np.empty((len(texts), self._dim), dtype=np.float32)
        for i, text in enumerate(texts):
            row = self._rows.get(text)
            if row is None:
                raise EncoderFailure(f"text not in oracle table: {text[:80]!r}")
            out[i] = row
        return out


REMOTE_BATCH_SIZE = 64
REMOTE_IN_FLIGHT = 4


class RemoteEncoder(Encoder):
    """Client for an embeddings web service.

    Sends ``{"model": ..., "input": [texts]}`` with bearer auth and expects
    ``{"data": [{"index": i, "embedding": [...]}, ...]}``. Texts are chunked
    into batches of :data:`REMOTE_BATCH_SIZE` with at most
    :data:`REMOTE_IN_FLIGHT` requests in flight; transient failures retry
    with exponential backoff inside :func:`helprag.services.post_json`. The
    dimension is learned from the first reply.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self._dim: int | None = None

    @property
    def dim(self) -> int:
        if self._dim is None:
            raise EncoderFailure("remote encoder dimension unknown before first reply")
        return self._dim

    @property
    def encoder_id(self) -> str:
        return f"remote-{self.config.model}"

    def _request_chunk(self, chunk: list[str]) -> np.ndarray:
        try:
            reply = post_json(self.config, {"model": self.config.model, "input": chunk})
        except (ServiceUnreachable, ServiceReplyError) as exc:
            raise EncoderFailure(str(exc)) from exc
        try:
            data = sorted(reply["data"], key=lambda item: item["index"])
            indices = [item["index"] for item in data]
            # ragged rows or a non-numeric value make these raise ValueError
            raw = np.stack([np.asarray(item["embedding"], dtype=np.float64) for item in data])
        except (KeyError, TypeError, ValueError) as exc:
            raise EncoderFailure(f"malformed embeddings reply from {self.config.url}") from exc
        if indices != list(range(len(chunk))) or raw.ndim != 2:
            raise EncoderFailure(f"embeddings reply shape mismatch from {self.config.url}")
        if not np.isfinite(raw).all():
            raise EncoderFailure(f"non-finite value in embeddings reply from {self.config.url}")
        return raw

    def encode_batch(self, texts: TextBatch) -> np.ndarray:
        chunks = [texts[i : i + REMOTE_BATCH_SIZE] for i in range(0, len(texts), REMOTE_BATCH_SIZE)]
        if len(chunks) == 1:
            raw_chunks = [self._request_chunk(chunks[0])]
        else:
            with ThreadPoolExecutor(max_workers=REMOTE_IN_FLIGHT) as pool:
                raw_chunks = list(pool.map(self._request_chunk, chunks))
        # every chunk at the dimension learned so far, or at the first chunk's; a failed batch learns none
        dim = raw_chunks[0].shape[1] if self._dim is None else self._dim
        for chunk in raw_chunks:
            if chunk.shape[1] != dim:
                raise EncoderFailure(f"remote replied dim {chunk.shape[1]}, expected {dim}")
        try:
            units = unit_rows(np.concatenate(raw_chunks, axis=0))
        except ZeroVector as exc:  # a zero row, or one whose squares underflow, is the service's fault
            raise EncoderFailure(f"zero embedding in reply from {self.config.url}") from exc
        self._dim = dim
        return units.astype(np.float32)


def encoder_from_spec(spec: str) -> Encoder:
    """Build an encoder from a CLI spec: 'hash', 'oracle:<file>', or 'remote'."""
    if spec == "hash":
        return HashEncoder()
    if spec.startswith("oracle:"):
        path = spec.split(":", 1)[1]
        if not path:
            raise InvalidParams("oracle encoder needs a fixture path: oracle:<file>")
        return OracleEncoder.from_file(path)
    if spec == "remote":
        return RemoteEncoder(ServiceConfig.from_env("HELP_EMBED"))
    raise InvalidParams(f"unknown encoder spec {spec!r} (use hash | oracle:<file> | remote)")
