"""Shared fixtures and corpus builders for the test suite."""

from __future__ import annotations

import bisect
import dataclasses
import math
import os
import random
import sys
from fractions import Fraction

# One OpenBLAS thread for the session, set before numpy loads. With two threads on a
# 2-vCPU host, a process can see every threaded gemv stall for whole scheduler ticks
# (~8 ms instead of ~0.5 ms), which swamps the timed hop sweep of the latency test.
# The variable is read only when OpenBLAS loads, so it takes effect only if numpy
# was not imported before this file; the latency test checks this flag.
BLAS_THREADS_PINNED = "numpy" not in sys.modules
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np
import pytest

from helprag.encoding import Encoder, HashEncoder, OracleEncoder, serialize_hypernode
from helprag.expansion import Candidates, HyperNode
from helprag.ingestion import CorpusRecord
from helprag.kg import KnowledgeGraph, Triplet, canonicalize_triplet


@pytest.fixture(scope="session")
def hash_encoder() -> HashEncoder:
    return HashEncoder()


def passage(pid: str, *triples: tuple[str, str, str], text: str | None = None) -> CorpusRecord:
    return CorpusRecord(pid, text or f"text of {pid}", triples)


def random_corpus(
    rng: random.Random,
    n_passages: int,
    max_triples_per_passage: int = 5,
    entity_pool: int = 30,
    relation_pool: int = 6,
) -> list[CorpusRecord]:
    """Random corpus over a bounded entity pool (dense enough to have adjacency)."""
    entities = [f"e{i}" for i in range(entity_pool)]
    relations = [f"r{i}" for i in range(relation_pool)]
    records = []
    for p in range(n_passages):
        count = rng.randint(0, max_triples_per_passage)
        triples = tuple(
            (rng.choice(entities), rng.choice(relations), rng.choice(entities))
            for _ in range(count)
        )
        records.append(CorpusRecord(f"p{p:04d}", f"passage number {p}", triples))
    return records


def ten_k_triplet_records(rng: random.Random) -> list[CorpusRecord]:
    """10,000 distinct triplets over 400 entities, five to a passage."""
    entities = [f"entity {i:03d}" for i in range(400)]
    relations = ["links to", "supplies", "reports to", "borders", "mentors"]
    triples: set[tuple[str, str, str]] = set()
    while len(triples) < 10_000:
        triples.add((rng.choice(entities), rng.choice(relations), rng.choice(entities)))
    ordered = sorted(triples)
    records = []
    for p in range(0, 10_000, 5):
        chunk = ordered[p : p + 5]
        records.append(
            CorpusRecord(
                f"p{p // 5:05d}",
                f"passage {p // 5} covers {chunk[0][0]} and {chunk[-1][2]}.",
                tuple(chunk),
            )
        )
    return records


def colliding_corpus() -> list[CorpusRecord]:
    """Two paths from (q, links, a) whose texts are both "a b c d; q links a".

    ("a", "b c", "d") and ("a", "b", "c d") are distinct triplets that render
    the same text, so only their triplet sets tell the two paths apart.
    """
    return [
        passage("p0", ("q", "links", "a")),
        passage("p1", ("a", "b c", "d")),
        passage("p2", ("a", "b", "c d")),
    ]


def directional_oracle(query: str, placements: dict[str, float]):
    """Oracle encoder where each text sits at a chosen cosine from the query.

    The query maps to axis 0; a text with placement c maps to
    c*axis0 + sqrt(1-c^2)*axis1, so its cosine with the query is c exactly
    (up to float32 quantization).
    """
    table: dict[str, list[float]] = {query: [1.0, 0.0, 0.0]}
    for text, cos in placements.items():
        table[text] = [cos, math.sqrt(max(0.0, 1.0 - cos * cos)), 0.0]
    return OracleEncoder(3, table)


class RecordingEncoder(Encoder):
    """Delegates to another encoder and records every batch it is handed, as the object it was."""

    def __init__(self, inner: Encoder):
        self.inner = inner
        self.batches: list = []

    @property
    def calls(self) -> list[list[str]]:
        return [list(batch) for batch in self.batches]

    @property
    def texts(self) -> list[str]:
        return [text for call in self.calls for text in call]

    @property
    def dim(self) -> int:
        return self.inner.dim

    @property
    def encoder_id(self) -> str:
        return self.inner.encoder_id

    def encode_batch(self, texts):
        self.batches.append(texts)
        return self.inner.encode_batch(texts)


class RenamedEncoder(RecordingEncoder):
    """A recording encoder under an id of its own, which prune treats as any encoder but the hash one."""

    @property
    def encoder_id(self) -> str:
        return f"renamed-{self.inner.encoder_id}"


def graph_differences(a: KnowledgeGraph, b: KnowledgeGraph) -> list[str]:
    """The parts in which two graphs differ: graphs compare by identity, so tests compare these.

    Covers the passages, the triple index (its string tables and the exact
    bytes, dtype and shape of its id arrays), the encoder id and the exact
    bytes, dtype and shape of both embedding matrices.
    """
    def rows(matrix):
        return matrix.dtype.str, matrix.shape, matrix.tobytes()

    def tables(index):
        values = (getattr(index, f.name) for f in dataclasses.fields(index) if f.init)
        return [rows(v) if isinstance(v, np.ndarray) else v for v in values]

    def embedded(graph, kind):
        return rows(float32_rows(graph.embeddings, kind))

    parts = {
        "passages": (dict(a.passages), dict(b.passages)),
        "index": (tables(a.index), tables(b.index)),
        "encoder_id": (a.embeddings.encoder_id, b.embeddings.encoder_id),
        "passage rows": (embedded(a, "passage"), embedded(b, "passage")),
        "triplet rows": (embedded(a, "triplet"), embedded(b, "triplet")),
    }
    return [name for name, (x, y) in parts.items() if x != y]


def float32_rows(store, kind: str) -> np.ndarray:
    """The float32 rows that saving writes for ``kind`` (``EmbeddingStore.row_blocks``), as one matrix."""
    _, blocks = store.row_blocks(kind)
    return np.concatenate([np.empty((0, store.dim), np.float32), *blocks])


def serialized(*triples: tuple[str, str, str]) -> str:
    return serialize_hypernode([canonicalize_triplet(*t) for t in triples])


def hypernode(
    graph: KnowledgeGraph,
    triplets,
    embedding: np.ndarray | None = None,
    query_distance: float | None = None,
) -> HyperNode:
    """The node of a set of the graph's triplets, as the engine would grow it."""
    return HyperNode(triplet_ids(graph, triplets), serialize_hypernode(triplets), graph.index, embedding, query_distance)


def triplet_ids(graph: KnowledgeGraph, triplets) -> tuple[int, ...]:
    """The ascending ids of a set of the graph's triplets.

    Each triplet's id is its position in ``graph.index.catalog``, the sorted
    contract view that ``tests/oracles.py`` reads.
    """
    catalog = graph.index.catalog
    ids = []
    for triplet in triplets:
        i = bisect.bisect_left(catalog, triplet)
        assert i < len(catalog) and catalog[i] == triplet, f"{triplet} is not in the graph"
        ids.append(i)
    return tuple(sorted(ids))


def candidates_of(graph: KnowledgeGraph, fresh, carried=()) -> Candidates:
    """A hop's :class:`Candidates`: the triplet sets ``fresh``, all of one size, then the ``carried`` nodes."""
    ids = [triplet_ids(graph, triplets) for triplets in fresh]
    rows = np.array(ids, dtype=np.int64).reshape(len(ids), max(map(len, ids), default=1))
    return Candidates(graph.index, rows, list(carried))


def csr_weights(graph: KnowledgeGraph) -> dict[Triplet, dict[str, Fraction]]:
    """Each catalog triplet's provenance, read from the index's CSR arrays.

    Maps passage id to weight 1/count, where count is the passage's entry in
    ``passage_counts``, as an exact Fraction, so tests can check the weight
    law with rational comparison.
    """
    index = graph.index
    weights = {}
    for tid, triplet in enumerate(index.catalog):
        lo, hi = index.provenance_offsets[tid : tid + 2].tolist()
        passages = index.provenance_passages[lo:hi].tolist()
        weights[triplet] = {index.passage_ids[p]: Fraction(1, int(index.passage_counts[p])) for p in passages}
    return weights
