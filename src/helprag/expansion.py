"""Iterative hypernode expansion: seed selection, adjacency growth, pruning.

A hypernode is a connected set of triplets treated as one reasoning path.
Retrieval starts from the top-n triplets most cosine-aligned with the query,
grows each path by one adjacent triplet per hop, and keeps the k paths with
smallest Euclidean distance to the query after every hop. Because all
embeddings are unit vectors, cosine ranking and Euclidean-distance ranking
agree, so seed scoring and pruning use one consistent order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from .encoding import (
    TRIPLET_JOIN,
    Encoder,
    encode_rows,
    row_norms,
    screen_pool,
    serialize_hypernode,
    smallest_k,
    unit_rows,
)
from .errors import EmptyGraph, InvalidParams
from .kg import KnowledgeGraph, TripleToPassageIndex, Triplet, adjacent_triplets


@dataclass(eq=False, slots=True)
class HyperNode:
    """A reasoning path: triplet set plus cached embedding and query distance.

    Nodes the engine builds hold ``ids``, the ascending catalog ids of their
    triplets in the index they were grown on; :attr:`triplets` builds the
    :class:`Triplet` objects the first time it is read. Nodes made by
    :meth:`from_triplets` hold the triplets and look their ids up in the
    first index that needs them. ``embedding`` and ``query_distance`` are
    None on freshly expanded candidates and are filled in by :func:`prune`.
    """

    ids: tuple[int, ...] | None
    serialized: str
    _index: TripleToPassageIndex | None = field(default=None, repr=False)
    embedding: np.ndarray | None = None
    query_distance: float | None = None
    _triplets: frozenset[Triplet] | None = field(default=None, repr=False)

    @classmethod
    def from_triplets(
        cls,
        triplets: frozenset[Triplet],
        embedding: np.ndarray | None = None,
        query_distance: float | None = None,
    ) -> "HyperNode":
        return cls(None, serialize_hypernode(triplets), None, embedding, query_distance, frozenset(triplets))

    @property
    def triplets(self) -> frozenset[Triplet]:
        if self._triplets is None:
            self._triplets = frozenset(map(self._index.triplet, self.ids))
        return self._triplets

    def ids_in(self, index: TripleToPassageIndex) -> tuple[int, ...]:
        """The ascending catalog ids of the node's triplets in ``index``.

        Raises InvalidParams when the index lacks one of them.
        """
        if self._index is not index:
            ids = [index.triplet_id(t) for t in self.triplets]
            if None in ids:
                raise InvalidParams(f"hypernode {self.serialized!r} holds a triplet the graph lacks")
            self.ids, self._index = tuple(sorted(ids)), index
        return self.ids


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
    for i in smallest_k(-scores, n, index.texts.__getitem__):
        emb = rows[i]
        distance = float(np.linalg.norm(emb - query_vector))
        seeds.append(HyperNode((i,), index.texts[i], index, emb, distance))
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
    index = graph.index
    texts, ends = index.texts, index.ends
    seen: dict[tuple[int, ...], HyperNode] = {}
    for node in beam:
        ids = node.ids_in(index)
        entities = {end for tid in ids for end in ends[tid]}
        fresh = adjacent_triplets(graph, entities).difference(ids)
        if not fresh:
            seen.setdefault(ids, node)
            continue
        # ids are in catalog order, the order serialize_hypernode renders, so growing a
        # node at insertion point i splits both its ids and its text there
        parts = [texts[tid] for tid in ids]
        cuts = [
            (
                ids[:i],
                ids[i:],
                "".join([part + TRIPLET_JOIN for part in parts[:i]]),
                "".join([TRIPLET_JOIN + part for part in parts[i:]]),
            )
            for i in range(len(ids) + 1)
        ]
        for nxt in fresh:
            head, tail, before, after = cuts[bisect_left(ids, nxt)]
            grown = head + (nxt,) + tail
            if grown not in seen:
                seen[grown] = HyperNode(grown, before + texts[nxt] + after, index)
    # sets that render the same text share one vector, so their relative order changes no batch
    return sorted(seen.values(), key=attrgetter("serialized"))


def prune(
    candidates: list[HyperNode], encoder: Encoder, query_vector: np.ndarray, k: int
) -> list[HyperNode]:
    """Keep the k candidates nearest the query by Euclidean distance.

    Embeds the serializations of candidates without an embedding in one
    batch; carried-forward candidates keep the one they hold. The float32
    rows are screened first (:func:`screen_pool`), and exact float64 unit
    rows and distances are computed only for the new candidates that can
    reach the beam, and for the carried ones. Orders ascending by
    (distance, serialized form, sorted triplets) and returns at most k
    filled-in nodes.
    """
    if not candidates:
        raise InvalidParams("candidate list must be non-empty")
    if k < 1:
        raise InvalidParams("beam width must be >= 1")
    fresh = [c for c in candidates if c.embedding is None]
    carried = [c for c in candidates if c.embedding is not None]
    rows = encode_rows(encoder, [c.serialized for c in fresh])
    # carried nodes join the pool unscreened, with the float64 rows they hold. Only
    # the pool is upcast, so the beam's embeddings view a pool-sized matrix
    pool = screen_pool(rows, query_vector, k)
    picked = [fresh[i] for i in pool.tolist()] + carried
    units = np.vstack([unit_rows(rows[pool]), *(c.embedding for c in carried)])
    dists = row_norms(units, query_vector)
    return [
        replace(picked[j], embedding=units[j], query_distance=float(dists[j]))
        # distinct triplet sets may render one text; their sorted triplets still differ
        for j in smallest_k(dists, k, lambda j: (picked[j].serialized, sorted(picked[j].triplets)))
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
