"""Knowledge graph over extracted triples, held as integer ids and arrays.

Canonical entity and relation names live in one sorted string table, so a
name's id rises with its string order. A triplet is a row of three name
ids; the catalog is the sorted set of unique rows, in :class:`Triplet`'s
(head, relation, tail) order. Passages, provenance and adjacency are
read-only CSR arrays over those ids, kept in no second form; queries gather
from them with :func:`csr_gather`. :class:`Triplet` and :class:`Passage`
objects are built only when read; concurrent queries may share the graph.
"""

from __future__ import annotations

import bisect
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .errors import EmptyField

if TYPE_CHECKING:
    from .encoding import PieceCounts
    from .ingestion import EmbeddingStore


# separates the triplets of a set in its serialization, each rendered by Triplet.as_text
TRIPLET_JOIN = "; "


@dataclass(frozen=True, order=True)
class Triplet:
    """One canonical fact; compares and sorts by (head, relation, tail)."""

    head: str
    relation: str
    tail: str

    def as_text(self) -> str:
        return f"{self.head} {self.relation} {self.tail}"


@dataclass(frozen=True)
class Passage:
    """A corpus chunk plus the triplets extracted from it (possibly none)."""

    id: str
    text: str
    triplets: tuple[Triplet, ...]


def canonical_field(raw: str) -> str:
    """One field trimmed, whitespace runs collapsed to one space, and lowercased."""
    # split() trims and collapses any whitespace runs, including tabs/newlines
    return " ".join(raw.split()).lower()


def canonicalize_triplet(raw_head: str, raw_relation: str, raw_tail: str) -> Triplet:
    """Trim, collapse internal whitespace, and lowercase all three fields.

    Idempotent by construction. Raises EmptyField if any field ends up empty.
    """
    head = canonical_field(raw_head)
    relation = canonical_field(raw_relation)
    tail = canonical_field(raw_tail)
    for name, value in (("head", head), ("relation", relation), ("tail", tail)):
        if not value:
            raise EmptyField(f"{name} is empty after canonicalization")
    return Triplet(head, relation, tail)


def _lookup(table: Sequence[str], value: str) -> int | None:
    """Position of ``value`` in a sorted table of unique strings, or None."""
    i = bisect.bisect_left(table, value)
    return i if i < len(table) and table[i] == value else None


@dataclass(frozen=True, eq=False)
class TripleToPassageIndex:
    """Catalog, provenance and adjacency as integer arrays; built by :func:`build_index`.

    Triplet ids are catalog positions and passage indices are positions in
    the sorted ``passage_ids``. The provenance weight of every triplet of
    passage p is 1/|unique triplets of p|, held as the count in
    ``passage_counts``. Adjacency is undirected: a triplet is listed under
    both its head and its tail entity.
    """

    names: tuple[str, ...]  # sorted unique canonical entity and relation names
    passage_ids: tuple[str, ...]  # sorted
    passage_offsets: np.ndarray  # (P+1,): passage p holds passage_triplets[off[p]:off[p+1]]
    passage_triplets: np.ndarray  # triplet ids per passage, in given order, duplicates kept
    triplet_rows: np.ndarray  # (T, 3) name ids of the catalog, in catalog order
    passage_counts: np.ndarray  # (P,) unique triplets per passage
    provenance_offsets: np.ndarray  # (T+1,) CSR: triplet -> ascending passage indices
    provenance_passages: np.ndarray
    adjacency_offsets: np.ndarray  # (len(names)+1,) CSR: name id -> ascending triplet ids
    adjacency_triplets: np.ndarray
    # built on access and kept: each triplet's object by id
    _triplets: dict[int, Triplet] = field(default_factory=dict, init=False, repr=False)
    # built on the hash encoder's first use and kept: its triplet pieces' gram counts, by dimension
    _piece_counts: dict[int, "PieceCounts"] = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def catalog(self) -> "Catalog":
        """All unique triplets, sorted by (head, relation, tail)."""
        return Catalog(self)

    def triplet(self, tid: int) -> Triplet:
        found = self._triplets.get(tid)
        if found is None:
            head, relation, tail = self.triplet_rows[tid].tolist()
            names = self.names
            found = self._triplets.setdefault(tid, Triplet(names[head], names[relation], names[tail]))
        return found

    def text(self, tid: int) -> str:
        """Triplet ``tid``'s text, as :meth:`Triplet.as_text` renders it."""
        return " ".join(map(self.names.__getitem__, self.triplet_rows[tid].tolist()))

    @cached_property
    def text_bytes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(data, starts, spans)``: the UTF-8 bytes serializations are gathered from.

        Entry i < ``len(names)`` is name i followed by one space, the field
        separator of :meth:`Triplet.as_text`; the last entry is
        :data:`TRIPLET_JOIN`. Entry i is ``data[starts[i] : starts[i] + spans[i]]``.
        """
        encoded = [name.encode("utf-8") + b" " for name in self.names] + [TRIPLET_JOIN.encode("utf-8")]
        spans = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
        return np.frombuffer(b"".join(encoded), dtype=np.uint8), np.cumsum(spans) - spans, spans

    def passage_triplet_ids(self, p: int) -> list[int]:
        lo, hi = self.passage_offsets[p : p + 2].tolist()
        return self.passage_triplets[lo:hi].tolist()


class Catalog(Sequence[Triplet]):
    """The catalog of an index as a sequence of triplets, each built on access."""

    def __init__(self, index: TripleToPassageIndex):
        self._index = index
        self._positions = range(index.triplet_rows.shape[0])

    def __len__(self) -> int:
        return len(self._positions)

    def __iter__(self) -> Iterator[Triplet]:
        return map(self._index.triplet, self._positions)

    def __getitem__(self, i):
        # bounds and negative indices as a tuple has them
        if isinstance(i, slice):
            return tuple(map(self._index.triplet, self._positions[i]))
        return self._index.triplet(self._positions[i])


class PassageTable(Mapping[str, Passage]):
    """Passages by id, in sorted id order; each :class:`Passage` is built on access."""

    def __init__(self, index: TripleToPassageIndex, texts: tuple[str, ...]):
        self.index = index
        self.texts = texts  # in passage_ids order

    def __len__(self) -> int:
        return len(self.index.passage_ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self.index.passage_ids)

    def __getitem__(self, pid: str) -> Passage:
        p = _lookup(self.index.passage_ids, pid) if isinstance(pid, str) else None
        if p is None:
            raise KeyError(pid)
        triplets = tuple(map(self.index.triplet, self.index.passage_triplet_ids(p)))
        return Passage(pid, self.texts[p], triplets)


@dataclass(frozen=True, eq=False)
class KnowledgeGraph:
    """Passage store, its derived triple index, and their precomputed vectors.

    Built by the ingestion layer, from a fresh encode or from a bundle, so
    every graph carries its passage and triplet embeddings; triplet rows
    follow catalog order and passage rows follow ``index.passage_ids``.
    Graphs compare by identity.
    """

    passages: PassageTable
    index: TripleToPassageIndex
    embeddings: "EmbeddingStore"


def _csr_offsets(groups: np.ndarray, size: int) -> np.ndarray:
    """Offsets of a CSR map whose entries, grouped in ascending order, belong to ``groups``."""
    return np.concatenate([[0], np.cumsum(np.bincount(groups, minlength=size))])


def distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values; ``np.unique``'s hash path is far slower on large int arrays."""
    keys = np.sort(keys)
    first = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def build_index(
    names: tuple[str, ...],
    passage_ids: tuple[str, ...],
    offsets: np.ndarray,
    rows: np.ndarray,
) -> TripleToPassageIndex:
    """Derive the triple index from the string tables and each passage's name-id rows.

    ``names`` and ``passage_ids`` are sorted and unique; passage p holds the
    rows ``rows[offsets[p]:offsets[p+1]]`` of (head, relation, tail) name
    ids, in given order with duplicates. Fresh builds and bundle loads both
    derive the index here, with no per-triplet Python object.
    """
    n_names, n_passages = len(names), len(passage_ids)
    wide = rows.astype(np.int64)
    # ids rise with string order, so these keys sort like (head, relation, tail)
    pairs, pair_of = np.unique(wide[:, 0] * n_names + wide[:, 1], return_inverse=True)
    keys, inverse = np.unique(pair_of * n_names + wide[:, 2], return_inverse=True)
    pair, tail = np.divmod(keys, n_names)
    head, relation = np.divmod(pairs[pair], n_names)
    n_triplets = keys.shape[0]
    tids = np.arange(n_triplets)

    owner = np.repeat(np.arange(n_passages), np.diff(offsets))
    # one link per distinct (passage, triplet), ordered by triplet, then passage
    links = distinct(inverse * n_passages + owner)
    link_triplet, link_passage = np.divmod(links, n_passages)
    # one entry under the head and one under the tail, a single one when they are equal
    ends = distinct(np.concatenate([head * n_triplets + tids, tail * n_triplets + tids]))
    end_name, end_triplet = np.divmod(ends, n_triplets)

    arrays = (
        np.asarray(offsets, dtype=np.int32),
        inverse.astype(np.int32),
        np.stack([head, relation, tail], axis=1).astype(np.int32),
        np.bincount(link_passage, minlength=n_passages).astype(np.int32),
        _csr_offsets(link_triplet, n_triplets).astype(np.int32),
        link_passage.astype(np.int32),
        _csr_offsets(end_name, n_names).astype(np.int32),
        end_triplet.astype(np.int32),
    )
    for array in arrays:
        array.flags.writeable = False
    return TripleToPassageIndex(names, passage_ids, *arrays)


def csr_gather(offsets: np.ndarray, values: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(at, gathered)``: the entries of an int array of keys in a CSR map, key by key.

    Key k holds ``values[offsets[k]:offsets[k+1]]``; ``gathered`` joins the
    slices of ``keys[0], keys[1], ...``, a repeated key's each time, and
    ``at[j]`` is the position in ``keys`` of the key of entry j.
    """
    lo = offsets[keys]
    sizes = offsets[keys + 1] - lo
    at = np.repeat(np.arange(sizes.shape[0]), sizes)
    # entry j is values[lo[i] + j - first[i]], first[i] being the position of key i's first entry
    return at, values[np.arange(at.shape[0]) + (lo - np.cumsum(sizes) + sizes)[at]]


def adjacent_triplets(graph: KnowledgeGraph, name_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(at, triplet_ids)``: the triplets each name id heads or tails, by :func:`csr_gather`.

    A name's triplets come in ascending id order; a relation's name id has none.
    """
    return csr_gather(graph.index.adjacency_offsets, graph.index.adjacency_triplets, name_ids)
