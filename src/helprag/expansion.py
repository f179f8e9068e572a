"""Iterative hypernode expansion: seed selection, adjacency growth, pruning.

A hypernode is a connected set of triplets treated as one reasoning path.
Retrieval starts from the top-n triplets most cosine-aligned with the query,
grows each path by one adjacent triplet per hop, and keeps the k paths with
smallest Euclidean distance to the query after every hop. Because all
embeddings are unit vectors, cosine ranking and Euclidean-distance ranking
agree, so seed scoring and pruning use one consistent order.

A hop's new candidates are one matrix of ascending catalog ids, a row per
path, grown and deduplicated with numpy. :class:`Candidates` renders their
texts only when they are read, and :func:`prune` builds a :class:`HyperNode`
only for each path it keeps; only iterating :class:`Candidates` yields nodes
without an embedding. For the hash encoder, on paths of three or more
triplets, prune screens the candidates by gram counts composed from their
triplets' pieces, which each index counts once and keeps, then renders and
encodes only the pool its screen keeps; on shorter paths, and for other
encoders, it encodes every fresh text and screens those rows. The order of a
hop's candidates (fresh ones by ascending id tuple, then carried ones)
changes no output: prune ranks by a total order, and each encoder row, count
row, screen value and exact distance depends on its own text or row alone.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .encoding import (
    HASH_CHUNK_TEXTS,
    Encoder,
    TextBatch,
    encode_rows,
    hash_twin,
    row_norms,
    screen_distances,
    screen_pool,
    serialize_rows,
    smallest_k,
    unit_rows,
)
from .errors import EmptyGraph, InvalidParams
from .kg import KnowledgeGraph, TripleToPassageIndex, Triplet, adjacent_triplets, distinct


@dataclass(eq=False, slots=True)
class HyperNode:
    """A reasoning path: triplet set plus cached embedding and query distance.

    ``ids`` are the ascending catalog ids of the node's triplets in the
    index it was grown on, ``_index``; :attr:`triplets` builds the
    :class:`Triplet` objects the first time it is read. ``embedding`` and
    ``query_distance`` are None only on the fresh nodes that iterating
    :class:`Candidates` yields; :func:`prune` builds none of those.
    """

    ids: tuple[int, ...]
    serialized: str
    _index: TripleToPassageIndex = field(repr=False)
    embedding: np.ndarray | None = None
    query_distance: float | None = None
    _triplets: frozenset[Triplet] | None = field(default=None, repr=False)

    @property
    def triplets(self) -> frozenset[Triplet]:
        if self._triplets is None:
            self._triplets = frozenset(map(self._index.triplet, self.ids))
        return self._triplets

    def ids_in(self, index: TripleToPassageIndex) -> tuple[int, ...]:
        """The node's ids; raises InvalidParams when it was grown on another index."""
        if self._index is not index:
            raise InvalidParams(f"hypernode {self.serialized!r} was grown on another graph")
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

    rows = graph.embeddings.triplet_units
    scores = rows @ query_vector

    return [
        HyperNode((i,), index.text(i), index, rows[i], float(np.linalg.norm(rows[i] - query_vector)))
        for i in smallest_k(-scores, n, index.text)
    ]


_KEY_LIMIT = 2**63 - 1


def _lex_keys(rows: np.ndarray, radix: int) -> np.ndarray:
    """int64 keys that order the rows of an int64 matrix as tuples do.

    Every value is in ``[0, radix)``, and a row's key appends its values as
    digits in that radix. When the next digit would overflow int64, the
    keys so far are first replaced by their dense ranks, which keep their
    order and are below the row count.
    """
    keys, bound = rows[:, 0], radix  # every key is below the bound
    for column in rows.T[1:]:
        if bound * radix > _KEY_LIMIT:
            distinct, keys = np.unique(keys, return_inverse=True)
            bound = distinct.shape[0]
        keys = keys * radix + column
        bound *= radix
    return keys


def expand_candidates(graph: KnowledgeGraph, beam: Sequence[HyperNode]) -> "Candidates":
    """Grow every beam member by one adjacent triplet.

    A member whose entities have no unvisited neighbors is carried forward
    unchanged, so strong short paths survive to the final hop. Grown sets
    are deduplicated; distinct sets that render the same text are all kept.

    The beam must be one that :func:`select_seeds` or :func:`prune` returns:
    distinct triplet sets, each holding its embedding. A path with no
    unvisited neighbor never gains one, so every member that grows is one
    of the widest, and no grown set equals a carried one. Any other beam,
    or a member grown on another graph's index (:meth:`HyperNode.ids_in`),
    raises InvalidParams.

    One :func:`adjacent_triplets` call gathers every member's neighbours.
    Returns :class:`Candidates`: the grown sets as id rows in ascending
    order, then the carried members in beam order. :func:`prune` renders
    and embeds the grown ones its screen keeps.
    """
    if not beam:
        raise InvalidParams("beam must be non-empty")
    index = graph.index
    n_triplets = index.triplet_rows.shape[0]
    ids = [node.ids_in(index) for node in beam]
    if any(node.embedding is None for node in beam):
        raise InvalidParams("every beam member must hold its embedding")
    if len(set(ids)) < len(ids):
        raise InvalidParams("beam holds a triplet set twice")
    widths = np.fromiter(map(len, ids), dtype=np.int64, count=len(beam))
    flat = np.fromiter(chain.from_iterable(ids), dtype=np.int64, count=int(widths.sum()))
    owner = np.repeat(np.arange(len(beam)), widths)
    # the triplets touching each held triplet's head and tail: ends 2k and 2k + 1 are flat[k]'s
    at, touching = adjacent_triplets(graph, index.triplet_rows[flat][:, ::2].ravel())
    # each member's distinct neighbours, keyed member * n_triplets + id. A triplet is listed
    # under its own head, so each id a member holds is among them; the rest are fresh
    neighbours = distinct(owner[at // 2] * n_triplets + touching)
    fresh = np.ones(neighbours.shape[0], dtype=bool)
    fresh[np.searchsorted(neighbours, owner * n_triplets + flat)] = False
    member, added = np.divmod(neighbours[fresh], n_triplets)
    grows = np.bincount(member, minlength=len(beam)) > 0
    width = int(widths.max())
    if (widths[grows] < width).any():
        raise InvalidParams("a beam member that grows must be one of the widest")

    # a row per fresh neighbour: its member's ids plus the neighbour, sorted. A member
    # that grows holds width ids, the last of them at flat[cumsum(widths) - 1]
    starts = np.cumsum(widths) - width
    rows = np.sort(np.column_stack([flat[starts[member][:, None] + np.arange(width)], added]), axis=1)
    keys = _lex_keys(rows, n_triplets)
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(order.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    carried = [beam[p] for p in np.flatnonzero(~grows).tolist()]
    return Candidates(index, rows[order[first]], carried)


class Candidates:
    """One hop's candidates: the fresh ones, then the carried ones.

    The fresh candidates are held as ``rows``, one per triplet set, of its
    ascending catalog ids on ``index``; their :attr:`texts` are rendered
    the first time they are read, and only iterating builds a fresh node,
    with no embedding, for each row. The carried ones are the nodes
    themselves, with the embeddings they hold.
    """

    def __init__(self, index: TripleToPassageIndex, rows: np.ndarray, carried: list[HyperNode]):
        self.index = index
        self.rows = rows
        self.carried = carried

    @cached_property
    def texts(self) -> TextBatch:
        """The fresh candidates' serializations, in order."""
        return serialize_rows(self.index, self.rows)

    def __len__(self) -> int:
        return self.rows.shape[0] + len(self.carried)

    def __iter__(self) -> Iterator[HyperNode]:
        fresh = (HyperNode(tuple(row), text, self.index) for row, text in zip(self.rows.tolist(), self.texts))
        return chain(fresh, self.carried)


# the fewest triplets per path that prune screens by composed counts: on shorter paths,
# composing and screening the counts costs more than encoding every path
COUNT_SCREEN_WIDTH = 3


def prune(candidates: Candidates, encoder: Encoder, query_vector: np.ndarray, k: int) -> list[HyperNode]:
    """Keep the k candidates nearest the query by Euclidean distance.

    Carried candidates keep the embedding they hold. The fresh candidates
    are screened first (:func:`screen_pool`), and texts, exact float64 unit
    rows and distances are made only for those that can reach the beam, and
    for the carried ones:

    - for the hash encoder, keyed by its ``encoder_id``, on paths of at
      least :data:`COUNT_SCREEN_WIDTH` triplets, the screen reads the
      candidates' gram counts, composed from their triplets' pieces
      (:meth:`HashEncoder.path_counts`) and screened
      :data:`HASH_CHUNK_TEXTS` rows at a time; only the pool is rendered
      and embedded, in one batch, in candidate order;
    - otherwise every fresh text is embedded in one batch, in candidate
      order, and the screen reads those rows.

    Orders ascending by (distance, serialized form, catalog ids) and
    builds only the at most k nodes it returns, embedding and distance set.
    """
    if not candidates:
        raise InvalidParams("candidate list must be non-empty")
    if k < 1:
        raise InvalidParams("beam width must be >= 1")
    index, fresh = candidates.index, candidates.rows
    counter = hash_twin(encoder)
    if counter is None or fresh.shape[1] < COUNT_SCREEN_WIDTH:
        rows = encode_rows(encoder, candidates.texts)
        pool = screen_pool(screen_distances(rows, query_vector), k, rows.shape[1])
        rows, texts = rows[pool], [candidates.texts[i] for i in pool.tolist()]
    else:
        # each chunk's count rows are screened while they are in cache, then dropped
        approx = np.empty(fresh.shape[0])
        for lo in range(0, fresh.shape[0], HASH_CHUNK_TEXTS):
            counts = counter.path_counts(index, fresh[lo : lo + HASH_CHUNK_TEXTS])
            approx[lo : lo + HASH_CHUNK_TEXTS] = screen_distances(counts, query_vector)
        pool = screen_pool(approx, k, counter.dim)
        texts = serialize_rows(index, fresh[pool])
        rows = encode_rows(encoder, texts)
    # carried nodes join the pool unscreened, with the float64 rows they hold. Only
    # the pool is upcast, so the beam's embeddings view a pool-sized matrix
    ids = [*map(tuple, fresh[pool].tolist()), *(c.ids for c in candidates.carried)]
    texts = [*texts, *(c.serialized for c in candidates.carried)]
    units = np.vstack([unit_rows(rows), *(c.embedding for c in candidates.carried)])
    dists = row_norms(units, query_vector)
    return [
        HyperNode(ids[j], texts[j], index, units[j], float(dists[j]))
        # distinct triplet sets may render one text; their ids still differ, and catalog ids
        # follow Triplet order, so they order nodes as their sorted triplets do
        for j in smallest_k(dists, k, lambda j: (texts[j], ids[j]))
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
