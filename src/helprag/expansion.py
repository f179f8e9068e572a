"""Iterative hypernode expansion: seed selection, adjacency growth, pruning.

A hypernode is a connected set of triplets treated as one reasoning path.
Retrieval starts from the top-n triplets most cosine-aligned with the query,
grows each path by one adjacent triplet per hop, and keeps the k paths with
smallest Euclidean distance to the query after every hop. Because all
embeddings are unit vectors, cosine ranking and Euclidean-distance ranking
agree, so seed scoring and pruning use one consistent order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .encoding import Encoder, encode, row_norms, serialize_hypernode, smallest_k
from .errors import EmptyGraph, InvalidParams
from .kg import KnowledgeGraph, Triplet, adjacent_triplets


@dataclass(eq=False)
class HyperNode:
    """A reasoning path: triplet set plus cached embedding and query distance.

    ``embedding`` and ``query_distance`` are None on freshly expanded
    candidates and are filled in by :func:`prune`.
    """

    triplets: frozenset[Triplet]
    serialized: str
    entities: frozenset[str]
    embedding: np.ndarray | None = None
    query_distance: float | None = None

    @classmethod
    def from_triplets(
        cls,
        triplets: frozenset[Triplet],
        embedding: np.ndarray | None = None,
        query_distance: float | None = None,
    ) -> "HyperNode":
        entities = frozenset(t.head for t in triplets) | frozenset(t.tail for t in triplets)
        return cls(
            triplets=triplets,
            serialized=serialize_hypernode(triplets),
            entities=entities,
            embedding=embedding,
            query_distance=query_distance,
        )


@dataclass(frozen=True)
class ExpansionConfig:
    """Search-space bounds: hop count, seed count, and beam width."""

    hops: int = 2
    seed_size: int = 3
    beam_size: int = 50

    def __post_init__(self) -> None:
        if self.hops < 1 or self.seed_size < 1 or self.beam_size < 1:
            raise InvalidParams("hops, seed_size, and beam_size must all be >= 1")


def select_seeds(graph: KnowledgeGraph, query_vector: np.ndarray, n: int) -> list[HyperNode]:
    """Top-n catalog triplets by cosine to the query, as singleton hypernodes.

    Scores the triplet vectors precomputed at index time, which are
    bit-identical to encoding each singleton serialization live. Ties break
    by ascending serialized form.
    """
    if n < 1:
        raise InvalidParams("seed count must be >= 1")
    index = graph.index
    if not index.catalog:
        raise EmptyGraph("cannot select seeds from a graph with no triplets")

    rows = graph.embeddings.triplet_units()
    scores = rows @ query_vector

    seeds = []
    for i in smallest_k(-scores, n, lambda i: index.triplet(i).as_text()):
        emb = rows[i]
        seeds.append(
            HyperNode.from_triplets(
                frozenset([index.triplet(i)]),
                embedding=emb,
                query_distance=float(np.linalg.norm(emb - query_vector)),
            )
        )
    return seeds


def expand_candidates(graph: KnowledgeGraph, beam: list[HyperNode]) -> list[HyperNode]:
    """Grow every beam member by one adjacent triplet.

    A member whose entities have no unvisited neighbors is carried forward
    unchanged, so strong short paths survive to the final hop. Candidates
    are deduplicated by triplet set, so distinct sets that render the same
    text are all kept, and returned in serialized order; embeddings of new
    candidates are left unset for :func:`prune`.
    """
    if not beam:
        raise InvalidParams("beam must be non-empty")
    seen: dict[frozenset[Triplet], HyperNode] = {}
    for node in beam:
        fresh = adjacent_triplets(graph, node.entities) - node.triplets
        if not fresh:
            seen.setdefault(node.triplets, node)
            continue
        for nxt in fresh:
            triplets = node.triplets | {nxt}
            if triplets not in seen:
                seen[triplets] = HyperNode(
                    triplets, serialize_hypernode(triplets), node.entities | {nxt.head, nxt.tail}
                )
    # sets that render the same text share one vector, so their relative order changes no batch
    return sorted(seen.values(), key=attrgetter("serialized"))


def prune(
    candidates: list[HyperNode], encoder: Encoder, query_vector: np.ndarray, k: int
) -> list[HyperNode]:
    """Keep the k candidates nearest the query by Euclidean distance.

    Embeds the serializations of candidates without an embedding in one
    batch; carried-forward candidates keep the one they hold. Orders
    ascending by (distance, serialized form, sorted triplets) and returns
    at most k filled-in nodes.
    """
    if not candidates:
        raise InvalidParams("candidate list must be non-empty")
    if k < 1:
        raise InvalidParams("beam width must be >= 1")
    rows = encode(encoder, [c.serialized for c in candidates if c.embedding is None])
    if rows.shape[0] < len(candidates):
        fresh = iter(rows)
        rows = np.stack([next(fresh) if c.embedding is None else c.embedding for c in candidates])
    dists = row_norms(rows, query_vector)
    return [
        replace(candidates[i], embedding=rows[i], query_distance=float(dists[i]))
        # distinct triplet sets may render one text; their sorted triplets still differ
        for i in smallest_k(
            dists, k, lambda i: (candidates[i].serialized, sorted(candidates[i].triplets))
        )
    ]


def run_expansion(
    graph: KnowledgeGraph, encoder: Encoder, query_vector: np.ndarray, config: ExpansionConfig
) -> list[HyperNode]:
    """Full expansion loop; returns the final beam, seeds when hops == 1.

    Seeds and pruning rank against the given query vector; the encoder
    embeds each hop's new candidate paths. An empty graph yields an empty
    list, signalling dense-only fallback downstream.
    """
    if not graph.index.catalog:
        return []
    beam = select_seeds(graph, query_vector, config.seed_size)
    for _ in range(2, config.hops + 1):
        # never empty: a member with nothing to grow into is carried forward
        beam = prune(expand_candidates(graph, beam), encoder, query_vector, config.beam_size)
    return beam
