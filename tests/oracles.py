"""Independent brute-force reference implementations for oracle tests.

Everything here is written against the contracts only, deliberately avoiding
the engine's index structures: adjacency comes from linear scans over the
triplet catalog, expansion enumerates candidate sets per hop from scratch,
passage scoring iterates every (hypernode, triplet, passage) combination,
and hash encoding hashes one text at a time with Python integers.
"""

from __future__ import annotations

import math

import numpy as np

from helprag.encoding import encode, serialize_hypernode
from helprag.errors import ZeroVector
from helprag.kg import KnowledgeGraph, Triplet

FNV1A_64_OFFSET = 0xCBF29CE484222325
FNV1A_64_PRIME = 0x100000001B3


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a of a byte string, byte by byte."""
    h = FNV1A_64_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV1A_64_PRIME) % 2**64
    return h


def hash_gram_counts(text: str, dim: int) -> list[int]:
    """The signed 3-gram bucket counts of a text, as HashEncoder documents them.

    Every 3-byte window of the UTF-8 text (the whole text when it is shorter)
    adds -1 when its hash's top bit is set, else +1, to bucket hash % dim.
    """
    data = text.encode("utf-8")
    grams = [data[i : i + 3] for i in range(len(data) - 2)] or [data]
    counts = [0] * dim
    for gram in grams:
        h = fnv1a_64(gram)
        counts[h % dim] += -1 if h >> 63 else 1
    return counts


def hash_encode_text(text: str, dim: int) -> np.ndarray:
    """One float32 row of signed 3-gram feature hashing, as HashEncoder documents it.

    The :func:`hash_gram_counts` are normalized in float64, then quantized.
    """
    counts = hash_gram_counts(text, dim)
    norm = math.sqrt(sum(c * c for c in counts))
    if norm == 0.0:
        raise ZeroVector(f"hash embedding of {text!r} cancelled to zero")
    return (np.asarray(counts, dtype=np.float64) / norm).astype(np.float32)


def scan_adjacent(catalog, entities) -> set[Triplet]:
    """Linear-scan adjacency: every triplet touching any of the entities."""
    wanted = set(entities)
    return {t for t in catalog if t.head in wanted or t.tail in wanted}


def enumerate_candidates(graph: KnowledgeGraph, beam) -> dict[frozenset[Triplet], object]:
    """One hop's candidates, node by node: each triplet set, mapped to the beam member it is.

    A member with no unvisited neighbour is carried as itself when it holds an
    embedding; every other set maps to None. A set reached twice keeps what
    the earliest member gave it.
    """
    catalog = list(graph.index.catalog)
    seen: dict[frozenset[Triplet], object] = {}
    for node in beam:
        entities = {t.head for t in node.triplets} | {t.tail for t in node.triplets}
        fresh = scan_adjacent(catalog, entities) - node.triplets
        if not fresh:
            seen.setdefault(node.triplets, node if node.embedding is not None else None)
        for extra in fresh:
            seen.setdefault(node.triplets | {extra}, None)
    return seen


def brute_force_expansion(
    graph: KnowledgeGraph, encoder, query: str, hops: int, seeds: int, beam: int
) -> list[frozenset[Triplet]]:
    """Re-derive the final beam as a list of triplet sets, one hop at a time."""
    catalog = list(graph.index.catalog)
    if not catalog:
        return []
    query_vec = encode(encoder, [query])[0]

    def ser(ts: frozenset[Triplet]) -> str:
        return serialize_hypernode(ts)

    def embed_sets(sets: list[frozenset[Triplet]]) -> np.ndarray:
        return encode(encoder, [ser(s) for s in sets])

    singles = [frozenset([t]) for t in catalog]
    rows = embed_sets(singles)
    cosines = rows @ query_vec
    ranked = sorted(range(len(singles)), key=lambda i: (-cosines[i], ser(singles[i])))
    current = [singles[i] for i in ranked[:seeds]]

    for _ in range(2, hops + 1):
        candidates: set[frozenset[Triplet]] = set()
        for node in current:
            entities = {t.head for t in node} | {t.tail for t in node}
            fresh = scan_adjacent(catalog, entities) - node
            if not fresh:
                candidates.add(node)
            for extra in fresh:
                candidates.add(node | {extra})
        ordered_sets = list(candidates)  # any order: the ranking below is a total order
        rows = embed_sets(ordered_sets)
        dists = np.linalg.norm(rows - query_vec, axis=1)
        # distinct sets may render one text; their sorted (head, relation, tail) still differ
        ranked = sorted(
            range(len(ordered_sets)),
            key=lambda i: (dists[i], ser(ordered_sets[i]), sorted(ordered_sets[i])),
        )
        current = [ordered_sets[i] for i in ranked[:beam]]
    return current


def brute_force_scores(graph: KnowledgeGraph, final_beam) -> dict[str, float]:
    """Literal double sum over all (hypernode, triplet, passage) combinations."""
    totals: dict[str, float] = {}
    for node in final_beam:
        for triplet in node.triplets:
            for passage in graph.passages.values():
                if triplet in set(passage.triplets):
                    weight = 1.0 / len(set(passage.triplets))
                    totals[passage.id] = totals.get(passage.id, 0.0) + (
                        math.exp(-node.query_distance) * weight
                    )
    return {pid: s for pid, s in totals.items() if s > 0.0}


def sort_rank(ids, scores) -> list[str]:
    """Full ranking by descending score with id tie-break."""
    return [
        pid for pid, _ in sorted(zip(ids, scores), key=lambda item: (-item[1], item[0]))
    ]
