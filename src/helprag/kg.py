"""Knowledge graph over extracted triples.

Holds canonical (head, relation, tail) triplets, the inverted
triple-to-passage provenance index with density-normalized weights, and an
entity adjacency map used by path expansion. After construction the graph is
immutable and safe to share across concurrent queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True)
class TripleToPassageIndex:
    """Inverted map triplet -> {passage id: weight} plus entity adjacency.

    The weight for every triplet of passage p is exactly 1/|unique triplets
    of p|, stored as a Fraction so the weight law can be checked with exact
    rational comparison. Adjacency is undirected: a triplet is listed under
    both its head and its tail entity. Built by :func:`build_index`.
    """

    catalog: tuple[Triplet, ...]  # all unique triplets, sorted by (head, relation, tail)
    weights: Mapping[Triplet, Mapping[str, Fraction]]
    adjacency: Mapping[str, frozenset[Triplet]]

    def provenance(self, triplet: Triplet) -> ItemsView[str, Fraction]:
        """Read-only (passage id, weight) pairs of a triplet; empty if unknown."""
        return self.weights.get(triplet, {}).items()

    def adjacent(self, entity: str) -> frozenset[Triplet]:
        return self.adjacency.get(entity, frozenset())


@dataclass(frozen=True, eq=False)
class KnowledgeGraph:
    """Passage store, its derived triple index, and their precomputed vectors.

    Built by the ingestion layer, from a fresh encode or from a bundle, so
    every graph carries its passage and triplet embeddings; triplet rows
    follow catalog order and passage rows follow :attr:`passage_ids`.
    Graphs compare by identity.
    """

    passages: Mapping[str, Passage]
    index: TripleToPassageIndex
    embeddings: "EmbeddingStore"

    @cached_property
    def passage_ids(self) -> tuple[str, ...]:
        """Passage ids in sorted order, the order of the passage rows."""
        return tuple(self.passages)


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
    by_id = {pid: by_id[pid] for pid in sorted(by_id)}

    weights: dict[Triplet, dict[str, Fraction]] = {}
    adjacency: dict[str, set[Triplet] | frozenset[Triplet]] = {}
    # sorted id order makes every provenance map list its passages by id
    for pid, passage in by_id.items():
        unique = frozenset(passage.triplets)
        if not unique:
            continue
        weight = Fraction(1, len(unique))
        for triplet in unique:
            weights.setdefault(triplet, {})[pid] = weight
            adjacency.setdefault(triplet.head, set()).add(triplet)
            adjacency.setdefault(triplet.tail, set()).add(triplet)
    for entity, found in adjacency.items():
        adjacency[entity] = frozenset(found)
    return by_id, TripleToPassageIndex(tuple(sorted(weights)), weights, adjacency)


def adjacent_triplets(graph: KnowledgeGraph, entities: Iterable[str]) -> frozenset[Triplet]:
    """Union of triplets touching any of the given entities (head or tail)."""
    found: set[Triplet] = set()
    for entity in entities:
        found |= graph.index.adjacent(entity)
    return frozenset(found)
