"""Knowledge graph: canonicalization, index weights, adjacency."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import csr_weights, graph_differences, passage, random_corpus
from helprag.errors import DuplicateId, EmptyField
from helprag.ingestion import build_and_embed
from helprag.kg import Triplet, adjacent_triplets, canonicalize_triplet, csr_gather
from oracles import scan_adjacent


def name_ids(graph, names) -> np.ndarray:
    """The ascending name ids of those of the given names that the graph holds."""
    table = {name: i for i, name in enumerate(graph.index.names)}
    return np.array(sorted(table[name] for name in names if name in table), dtype=np.int64)


def adjacent(graph, entities) -> set[Triplet]:
    """``adjacent_triplets`` over the ids of entity names, mapped back to triplets.

    Also checks that each gathered triplet has the name it was gathered for as its head or tail.
    """
    keys = name_ids(graph, entities)
    at, tids = adjacent_triplets(graph, keys)
    triplets = [graph.index.triplet(tid) for tid in tids.tolist()]
    names = [graph.index.names[k] for k in keys[at].tolist()]
    assert all(name in (t.head, t.tail) for name, t in zip(names, triplets))
    return set(triplets)


class TestCanonicalize:
    def test_case_study_seed_triple(self):
        t = canonicalize_triplet(
            "  Princess Elene Of Georgia ", "Mother Of", "Solomon II of Imereti"
        )
        assert t == Triplet("princess elene of georgia", "mother of", "solomon ii of imereti")

    def test_already_canonical_passthrough(self):
        assert canonicalize_triplet("a", "b", "c") == Triplet("a", "b", "c")

    def test_whitespace_only_relation_rejected(self):
        with pytest.raises(EmptyField):
            canonicalize_triplet("x", "  ", "y")

    def test_internal_whitespace_collapsed(self):
        t = canonicalize_triplet("a \t b", "r\n\nr", "c   d")
        assert t == Triplet("a b", "r r", "c d")

    @given(st.tuples(st.text(min_size=1), st.text(min_size=1), st.text(min_size=1)))
    def test_idempotent(self, raw):
        try:
            once = canonicalize_triplet(*raw)
        except EmptyField:
            return
        twice = canonicalize_triplet(once.head, once.relation, once.tail)
        assert once == twice


class TestBuildIndex:
    def test_four_triplets_quarter_weight(self, hash_encoder):
        p = passage("p1", ("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d"), ("d", "r", "e"))
        graph = build_and_embed([p], hash_encoder)
        weights = csr_weights(graph)
        for t in graph.passages["p1"].triplets:
            assert weights[t] == {"p1": Fraction(1, 4)}

    def test_shared_triplet_gets_per_passage_weights(self, hash_encoder):
        shared = ("x", "r", "y")
        p1 = passage("p1", shared, ("a", "r", "b"))
        p2 = passage("p2", shared, ("c", "r", "d"), ("d", "r", "e"), ("e", "r", "f"), ("f", "r", "g"))
        graph = build_and_embed([p1, p2], hash_encoder)
        assert csr_weights(graph)[canonicalize_triplet(*shared)] == {"p1": Fraction(1, 2), "p2": Fraction(1, 5)}

    def test_empty_triplet_list_contributes_nothing(self, hash_encoder):
        graph = build_and_embed(
            [passage("p1", text="no facts here"), passage("p2", ("a", "r", "b"))], hash_encoder
        )
        assert len(graph.index.catalog) == 1
        assert adjacent(graph, {"a"}) == adjacent(graph, {"b"}) == set(graph.index.catalog)

    def test_duplicate_passage_id_rejected(self, hash_encoder):
        with pytest.raises(DuplicateId, match="'p1'"):
            build_and_embed(
                [passage("p1", ("a", "r", "b")), passage("p1", ("c", "r", "d"))], hash_encoder
            )

    def test_duplicate_triplets_within_passage_counted_once(self, hash_encoder):
        p = passage("p1", ("a", "r", "b"), ("a", "r", "b"), ("b", "r", "c"))
        graph = build_and_embed([p], hash_encoder)
        t = canonicalize_triplet("a", "r", "b")
        assert csr_weights(graph)[t] == {"p1": Fraction(1, 2)}

    def test_singleton_passage_weight_is_one(self, hash_encoder):
        graph = build_and_embed([passage("p1", ("a", "r", "b"))], hash_encoder)
        assert csr_weights(graph)[canonicalize_triplet("a", "r", "b")] == {"p1": Fraction(1, 1)}

    def test_unknown_triplet_empty_provenance(self, hash_encoder):
        graph = build_and_embed([passage("p1", ("a", "r", "b"))], hash_encoder)
        # provenance is held for catalog triplets only
        assert canonicalize_triplet("x", "r", "y") not in csr_weights(graph)
        assert list(csr_weights(graph)) == [canonicalize_triplet("a", "r", "b")]


class TestAdjacency:
    def test_chain_middle_entity(self, hash_encoder):
        p = passage("p1", ("a", "r1", "b"), ("b", "r2", "c"), ("c", "r3", "d"))
        graph = build_and_embed([p], hash_encoder)
        assert adjacent(graph, {"b"}) == {
            canonicalize_triplet("a", "r1", "b"),
            canonicalize_triplet("b", "r2", "c"),
        }

    def test_empty_entity_set(self, hash_encoder):
        graph = build_and_embed([passage("p1", ("a", "r", "b"))], hash_encoder)
        at, tids = adjacent_triplets(graph, np.array([], dtype=np.int64))
        assert at.tolist() == tids.tolist() == []

    def test_absent_entity(self, hash_encoder):
        graph = build_and_embed([passage("p1", ("a", "r", "b"))], hash_encoder)
        assert name_ids(graph, {"z"}).tolist() == []
        # a relation name has an id, but no triplet has it as head or tail
        assert adjacent_triplets(graph, name_ids(graph, {"r"}))[1].tolist() == []

    def test_matches_linear_scan_on_random_graphs(self, hash_encoder):
        rng = random.Random(20240811)
        records = random_corpus(rng, n_passages=120, entity_pool=40)  # ~300 triplets
        graph = build_and_embed(records, hash_encoder)
        catalog = graph.index.catalog
        assert len(catalog) <= 500
        entity_names = [f"e{i}" for i in range(50)]  # includes entities absent from graph
        for _ in range(100):
            sample = set(rng.sample(entity_names, rng.randint(0, 6)))
            assert adjacent(graph, sample) == scan_adjacent(catalog, sample)


class TestProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_weight_normalization(self, hash_encoder, seed):
        rng = random.Random(seed)
        graph = build_and_embed(random_corpus(rng, n_passages=20), hash_encoder)
        per_passage_weights: dict[str, set[Fraction]] = {}
        per_passage_sum: dict[str, Fraction] = {}
        for t, provenance in csr_weights(graph).items():
            for pid, w in provenance.items():
                per_passage_weights.setdefault(pid, set()).add(w)
                per_passage_sum[pid] = per_passage_sum.get(pid, Fraction(0)) + w
        for pid, weights in per_passage_weights.items():
            unique = set(graph.passages[pid].triplets)
            assert weights == {Fraction(1, len(unique))}
            assert per_passage_sum[pid] == Fraction(1)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rebuild_deterministic_under_shuffle(self, hash_encoder, seed):
        rng = random.Random(seed)
        records = random_corpus(rng, n_passages=15)
        graph = build_and_embed(records, hash_encoder)
        shuffled = list(records)
        rng.shuffle(shuffled)
        regraph = build_and_embed(shuffled, hash_encoder)
        assert graph_differences(graph, regraph) == []
        assert graph.index.passage_ids == regraph.index.passage_ids

    def test_adjacency_covers_every_catalog_triplet(self, hash_encoder):
        rng = random.Random(7)
        graph = build_and_embed(random_corpus(rng, n_passages=40), hash_encoder)
        for tid, t in enumerate(graph.index.catalog):
            assert tid in adjacent_triplets(graph, name_ids(graph, {t.head}))[1].tolist()
            assert tid in adjacent_triplets(graph, name_ids(graph, {t.tail}))[1].tolist()


# eight keys, each holding up to four values; keys may be empty, repeated or absent from a gather
CSR_GROUPS = st.lists(st.lists(st.integers(0, 99), max_size=4), min_size=8, max_size=8)
CSR_KEYS = st.lists(st.integers(0, 7), max_size=12)


@given(CSR_GROUPS, CSR_KEYS)
@example([[1, 2], [], [3], [], [4, 5, 6], [], [], [7]], [])
@example([[1, 2], [], [3], [], [4, 5, 6], [], [], [7]], [1, 3, 5])
@example([[1, 2], [], [3], [], [4, 5, 6], [], [], [7]], [4, 0, 4, 1, 4])
def test_csr_gather_equals_slicing_key_by_key(groups, keys):
    offsets = np.array([0, *accumulate(map(len, groups))], dtype=np.int32)
    values = np.array([v for group in groups for v in group], dtype=np.int32)
    at, gathered = csr_gather(offsets, values, np.array(keys, dtype=np.int64))
    assert at.tolist() == [i for i, k in enumerate(keys) for _ in range(offsets[k + 1] - offsets[k])]
    assert gathered.tolist() == [v for k in keys for v in values[offsets[k] : offsets[k + 1]].tolist()]
