"""Path-guided evidence localization and the hybrid retrieval pipeline.

Final hypernodes are grounded back to passages through the provenance index:
each passage accumulates, over every hypernode and every triplet in it, the
provenance weight scaled by exp(-d), where d is the hypernode's distance to
the query. The resulting path channel fills a quota of M context slots; the
remaining slots are backfilled from an exact dense cosine ranking with
deduplication.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .encoding import Encoder, encode, smallest_k
from .errors import EncoderMismatch, InvalidParams
from .expansion import ExpansionConfig, HyperNode, run_expansion
from .kg import KnowledgeGraph, Triplet, csr_gather

PATH_CHANNEL = "path"
DENSE_CHANNEL = "dense"


@dataclass(frozen=True)
class ScoredPassage:
    id: str
    score: float
    channel: str
    supporting_triplets: tuple[Triplet, ...] = ()


@dataclass(frozen=True)
class HybridConfig:
    """Context assembly bounds: path quota and total context size."""

    quota: int = 4
    context_size: int = 5

    def __post_init__(self) -> None:
        if self.quota < 0:
            raise InvalidParams("quota must be >= 0")
        if self.context_size < 1:
            raise InvalidParams("context size must be >= 1")
        if self.quota > self.context_size:
            raise InvalidParams("quota cannot exceed context size")


@dataclass
class RetrievalResult:
    """Full per-query output: final paths, ranked context, and stage timings."""

    query: str
    hypernodes: list[HyperNode]
    passages: list[ScoredPassage]
    timings_ms: dict[str, float] = field(default_factory=dict)


def score_passages(graph: KnowledgeGraph, final_beam: list[HyperNode]) -> list[ScoredPassage]:
    """Accumulate per-passage evidence from every hypernode's triplets.

    Each (hypernode, triplet, provenance entry) combination contributes
    exp(-query_distance) * weight; triplets repeated across hypernodes
    contribute each time, so consensus across paths raises the score.
    Returns only positively scored passages, sorted by descending score
    with passage-id tie-break. A node without a query distance, or grown on
    another graph's index, raises InvalidParams.
    """
    index = graph.index
    tids: list[int] = []
    soft: list[float] = []
    for node in final_beam:
        if node.query_distance is None:
            raise InvalidParams(f"hypernode {node.serialized!r} has no cached query distance")
        ids = node.ids_in(index)
        tids += ids
        soft += [math.exp(-node.query_distance)] * len(ids)
    # every provenance entry of every beam triplet, in beam order
    entry_tids = np.array(tids, dtype=np.int64)
    at, passages = csr_gather(index.provenance_offsets, index.provenance_passages, entry_tids)
    # the weight 1/|unique triplets|, correctly rounded
    terms = np.array(soft)[at] * (1.0 / index.passage_counts[passages])
    # keyed by passage index and triplet id, whose orders are passage-id and Triplet order
    scores: dict[int, float] = {}
    support: dict[int, set[int]] = {}
    # entries run in beam order, so each passage's sum is repeated addition in beam order
    for p, term, tid in zip(passages.tolist(), terms.tolist(), entry_tids[at].tolist()):
        scores[p] = scores.get(p, 0.0) + term
        support.setdefault(p, set()).add(tid)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return [
        ScoredPassage(index.passage_ids[p], score, PATH_CHANNEL, tuple(map(index.triplet, sorted(support[p]))))
        for p, score in ranked
        if score > 0.0
    ]


def dense_rank(graph: KnowledgeGraph, query_vector: np.ndarray, limit: int) -> list[ScoredPassage]:
    """Exact exhaustive cosine ranking of all passage embeddings.

    Scores the passage vectors precomputed at index time. Ties break by
    passage id ascending.
    """
    units = graph.embeddings.passage_units
    ids = graph.index.passage_ids
    scores = units @ query_vector
    # rank by true cosine; reported scores clamp at 0 so all channels stay non-negative
    return [
        ScoredPassage(ids[i], max(0.0, float(scores[i])), DENSE_CHANNEL)
        for i in smallest_k(-scores, limit, ids.__getitem__)
    ]


def hybrid_merge(
    path_ranked: list[ScoredPassage],
    dense_ranked: list[ScoredPassage],
    config: HybridConfig,
) -> list[ScoredPassage]:
    """Take up to the quota from the path channel, then backfill from dense.

    Dense entries duplicating an already taken passage id are skipped; the
    result stops at the context size or when both channels are exhausted.
    Path entries always precede dense entries.
    """
    taken: list[ScoredPassage] = list(path_ranked[: config.quota])
    ids = {p.id for p in taken}
    for candidate in dense_ranked:
        if len(taken) >= config.context_size:
            break
        if candidate.id in ids:
            continue
        taken.append(candidate)
        ids.add(candidate.id)
    return taken[: config.context_size]


def retrieve_result(
    graph: KnowledgeGraph,
    encoder: Encoder,
    query: str,
    expansion: ExpansionConfig | None = None,
    hybrid: HybridConfig | None = None,
) -> RetrievalResult:
    """Run the full pipeline for one query, with per-stage wall-clock timings.

    The query is embedded once and shared by expansion and dense ranking.
    When expansion yields no paths (empty graph) the context is pure dense
    top-K. A graph whose stored vectors came from another encoder raises
    EncoderMismatch before the query is encoded, and so does a query vector
    whose dimension differs from the stored vectors'.
    """
    store = graph.embeddings
    if store.encoder_id != encoder.encoder_id:
        raise EncoderMismatch(
            f"graph was embedded with {store.encoder_id!r}, got {encoder.encoder_id!r}"
        )
    expansion = expansion or ExpansionConfig()
    hybrid = hybrid or HybridConfig()
    started = time.perf_counter()

    query_vector = encode(encoder, [query])[0]
    if query_vector.shape[0] != store.dim:
        raise EncoderMismatch(
            f"graph vectors have dim {store.dim}, the query encoded to dim {query_vector.shape[0]}"
        )

    t0 = time.perf_counter()
    final_beam = run_expansion(graph, encoder, query_vector, expansion)
    t1 = time.perf_counter()
    path_ranked = score_passages(graph, final_beam)
    t2 = time.perf_counter()
    dense_ranked = dense_rank(graph, query_vector, limit=hybrid.context_size + hybrid.quota)
    t3 = time.perf_counter()

    context = hybrid_merge(path_ranked, dense_ranked, hybrid)

    return RetrievalResult(
        query=query,
        hypernodes=final_beam,
        passages=context,
        timings_ms={
            "expansion": (t1 - t0) * 1e3,
            "scoring": (t2 - t1) * 1e3,
            "dense": (t3 - t2) * 1e3,
            "total": (time.perf_counter() - started) * 1e3,
        },
    )
