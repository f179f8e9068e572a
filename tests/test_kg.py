"""Knowledge graph: canonicalization, index weights, adjacency."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_of, passage, random_corpus
from helprag.errors import DuplicatePassageId, EmptyField
from helprag.kg import (
    Passage,
    Triplet,
    adjacent_triplets,
    build_index,
    canonicalize_triplet,
)
from oracles import scan_adjacent


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
    def test_four_triplets_quarter_weight(self):
        p = passage("p1", ("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d"), ("d", "r", "e"))
        graph = graph_of(p)
        for t in p.triplets:
            assert graph.index.provenance(t) == frozenset({("p1", Fraction(1, 4))})

    def test_shared_triplet_gets_per_passage_weights(self):
        shared = ("x", "r", "y")
        p1 = passage("p1", shared, ("a", "r", "b"))
        p2 = passage("p2", shared, ("c", "r", "d"), ("d", "r", "e"), ("e", "r", "f"), ("f", "r", "g"))
        graph = graph_of(p1, p2)
        assert graph.index.provenance(canonicalize_triplet(*shared)) == frozenset(
            {("p1", Fraction(1, 2)), ("p2", Fraction(1, 5))}
        )

    def test_empty_triplet_list_contributes_nothing(self):
        graph = graph_of(Passage("p1", "no facts here", ()), passage("p2", ("a", "r", "b")))
        assert len(graph.index.catalog) == 1
        assert graph.index.adjacent("a") == graph.index.adjacent("b") == set(graph.index.catalog)

    def test_duplicate_passage_id_rejected(self):
        with pytest.raises(DuplicatePassageId):
            graph_of(passage("p1", ("a", "r", "b")), passage("p1", ("c", "r", "d")))

    def test_duplicate_triplets_within_passage_counted_once(self):
        p = passage("p1", ("a", "r", "b"), ("a", "r", "b"), ("b", "r", "c"))
        graph = graph_of(p)
        t = canonicalize_triplet("a", "r", "b")
        assert graph.index.provenance(t) == frozenset({("p1", Fraction(1, 2))})

    def test_singleton_passage_weight_is_one(self):
        graph = graph_of(passage("p1", ("a", "r", "b")))
        assert graph.index.provenance(canonicalize_triplet("a", "r", "b")) == frozenset(
            {("p1", Fraction(1, 1))}
        )

    def test_unknown_triplet_empty_provenance(self):
        graph = graph_of(passage("p1", ("a", "r", "b")))
        assert graph.index.provenance(canonicalize_triplet("x", "r", "y")) == frozenset()


class TestAdjacency:
    def test_chain_middle_entity(self):
        graph = graph_of(passage("p1", ("a", "r1", "b"), ("b", "r2", "c"), ("c", "r3", "d")))
        got = adjacent_triplets(graph, {"b"})
        assert got == {
            canonicalize_triplet("a", "r1", "b"),
            canonicalize_triplet("b", "r2", "c"),
        }

    def test_empty_entity_set(self):
        graph = graph_of(passage("p1", ("a", "r", "b")))
        assert adjacent_triplets(graph, set()) == frozenset()

    def test_absent_entity(self):
        graph = graph_of(passage("p1", ("a", "r", "b")))
        assert adjacent_triplets(graph, {"z"}) == frozenset()

    def test_matches_linear_scan_on_random_graphs(self):
        rng = random.Random(20240811)
        passages = random_corpus(rng, n_passages=120, entity_pool=40)  # ~300 triplets
        graph = build_index(passages)
        catalog = graph.index.catalog
        assert len(catalog) <= 500
        entity_names = [f"e{i}" for i in range(50)]  # includes entities absent from graph
        for _ in range(100):
            sample = set(rng.sample(entity_names, rng.randint(0, 6)))
            assert adjacent_triplets(graph, sample) == scan_adjacent(catalog, sample)


class TestProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_weight_normalization(self, seed):
        rng = random.Random(seed)
        graph = build_index(random_corpus(rng, n_passages=20))
        per_passage_weights: dict[str, set[Fraction]] = {}
        per_passage_sum: dict[str, Fraction] = {}
        for t in graph.index.catalog:
            for pid, w in graph.index.provenance(t):
                per_passage_weights.setdefault(pid, set()).add(w)
                per_passage_sum[pid] = per_passage_sum.get(pid, Fraction(0)) + w
        for pid, weights in per_passage_weights.items():
            unique = set(graph.passages[pid].triplets)
            assert weights == {Fraction(1, len(unique))}
            assert per_passage_sum[pid] == Fraction(1)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rebuild_deterministic_under_shuffle(self, seed):
        rng = random.Random(seed)
        passages = random_corpus(rng, n_passages=15)
        graph = build_index(passages)
        shuffled = list(passages)
        rng.shuffle(shuffled)
        regraph = build_index(shuffled)
        assert graph == regraph
        assert graph.index.catalog == regraph.index.catalog

    def test_adjacency_covers_every_catalog_triplet(self):
        rng = random.Random(7)
        graph = build_index(random_corpus(rng, n_passages=40))
        for t in graph.index.catalog:
            assert t in graph.index.adjacent(t.head)
            assert t in graph.index.adjacent(t.tail)
