"""Knowledge graph over extracted triples.

Holds canonical (head, relation, tail) triplets, the inverted
triple-to-passage provenance index with density-normalized weights, and an
entity adjacency map used by path expansion. After construction the graph is
immutable and safe to share across concurrent queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, ItemsView, Mapping

from .errors import DuplicatePassageId, EmptyField

if TYPE_CHECKING:
    from .ingestion import EmbeddingStore


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


def _canonical_field(raw: str) -> str:
    # split() trims and collapses any whitespace runs, including tabs/newlines
    return " ".join(raw.split()).lower()


def canonicalize_triplet(raw_head: str, raw_relation: str, raw_tail: str) -> Triplet:
    """Trim, collapse internal whitespace, and lowercase all three fields.

    Idempotent by construction. Raises EmptyField if any field ends up empty.
    """
    head = _canonical_field(raw_head)
    relation = _canonical_field(raw_relation)
    tail = _canonical_field(raw_tail)
    for name, value in (("head", head), ("relation", relation), ("tail", tail)):
        if not value:
            raise EmptyField(f"{name} is empty after canonicalization")
    return Triplet(head, relation, tail)


class TripleToPassageIndex:
    """Inverted map triplet -> {(passage id, weight)} plus entity adjacency.

    The weight for every triplet of passage p is exactly 1/|unique triplets
    of p|, stored as a Fraction so the weight law can be checked with exact
    rational comparison. Adjacency is undirected: a triplet is listed under
    both its head and its tail entity.
    """

    def __init__(self) -> None:
        self._provenance: dict[Triplet, dict[str, Fraction]] = {}
        self._adjacency: dict[str, set[Triplet]] = {}
        self._catalog: tuple[Triplet, ...] = ()

    def _add_passage(self, passage: Passage) -> None:
        unique = sorted(set(passage.triplets))
        if not unique:
            return
        weight = Fraction(1, len(unique))
        for triplet in unique:
            self._provenance.setdefault(triplet, {})[passage.id] = weight
            self._adjacency.setdefault(triplet.head, set()).add(triplet)
            self._adjacency.setdefault(triplet.tail, set()).add(triplet)

    def _freeze(self) -> None:
        self._catalog = tuple(sorted(self._provenance))

    @property
    def catalog(self) -> tuple[Triplet, ...]:
        """All unique triplets, sorted by (head, relation, tail)."""
        return self._catalog

    def provenance(self, triplet: Triplet) -> ItemsView[str, Fraction]:
        """Read-only (passage id, weight) pairs of a triplet; empty if unknown."""
        return self._provenance.get(triplet, {}).items()

    def adjacent(self, entity: str) -> frozenset[Triplet]:
        return frozenset(self._adjacency.get(entity, ()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripleToPassageIndex):
            return NotImplemented
        return (
            self._provenance == other._provenance
            and self._adjacency == other._adjacency
            and self._catalog == other._catalog
        )

    def __len__(self) -> int:
        return len(self._catalog)


@dataclass(frozen=True, eq=False)
class KnowledgeGraph:
    """Passage store, its derived triple index, and their precomputed vectors.

    Built by the ingestion layer, from a fresh encode or from a bundle, so
    every graph carries its passage and triplet embeddings; triplet rows
    follow catalog order.
    """

    passages: Mapping[str, Passage]
    index: TripleToPassageIndex
    embeddings: "EmbeddingStore"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return dict(self.passages) == dict(other.passages) and self.index == other.index


def build_index(passages: Iterable[Passage]) -> tuple[dict[str, Passage], TripleToPassageIndex]:
    """Index a corpus; deterministic regardless of input passage order.

    Returns the passages keyed by id in sorted id order, and their triple
    index. Raises DuplicatePassageId when two passages share an id.
    """
    by_id: dict[str, Passage] = {}
    for passage in passages:
        if passage.id in by_id:
            raise DuplicatePassageId(passage.id)
        by_id[passage.id] = passage

    index = TripleToPassageIndex()
    # insertion in sorted id order makes internal dict layout input-order independent
    for pid in sorted(by_id):
        index._add_passage(by_id[pid])
    index._freeze()
    return {pid: by_id[pid] for pid in sorted(by_id)}, index


def adjacent_triplets(graph: KnowledgeGraph, entities: Iterable[str]) -> frozenset[Triplet]:
    """Union of triplets touching any of the given entities (head or tail)."""
    found: set[Triplet] = set()
    for entity in entities:
        found |= graph.index.adjacent(entity)
    return frozenset(found)
