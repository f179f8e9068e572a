"""Passage scoring, dense ranking, hybrid merge, and the retrieve pipeline."""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest

from conftest import hypernode, passage, random_corpus
from helprag.encoding import OracleEncoder, encode
from helprag.errors import EncoderMismatch, InvalidParams
from helprag.expansion import ExpansionConfig, HyperNode
from helprag.ingestion import CorpusRecord, build_and_embed
from helprag.kg import canonicalize_triplet
from helprag.localization import (
    DENSE_CHANNEL,
    PATH_CHANNEL,
    HybridConfig,
    ScoredPassage,
    dense_rank,
    hybrid_merge,
    retrieve_result,
    score_passages,
)
from oracles import brute_force_scores, sort_rank


def node_with_distance(graph, dist: float, *triples) -> HyperNode:
    return hypernode(graph, {canonicalize_triplet(*t) for t in triples}, query_distance=dist)


class TestScorePassages:
    def test_single_hypernode_zero_distance(self, hash_encoder):
        graph = build_and_embed([passage("p1", ("a", "r", "b"), ("c", "r", "d"))], hash_encoder)
        scored = score_passages(graph, [node_with_distance(graph, 0.0, ("a", "r", "b"))])
        assert len(scored) == 1
        assert scored[0].id == "p1"
        assert scored[0].score == pytest.approx(0.5, abs=1e-12)
        assert scored[0].channel == PATH_CHANNEL
        assert scored[0].supporting_triplets == (canonicalize_triplet("a", "r", "b"),)

    def test_second_hypernode_adds_soft_matched_weight(self, hash_encoder):
        graph = build_and_embed([passage("p1", ("a", "r", "b"), ("c", "r", "d"))], hash_encoder)
        beam = [
            node_with_distance(graph, 0.0, ("a", "r", "b")),
            node_with_distance(graph, 1.0, ("a", "r", "b")),
        ]
        scored = score_passages(graph, beam)
        assert scored[0].score == pytest.approx(0.5 + math.exp(-1) * 0.5, abs=1e-9)
        assert scored[0].score == pytest.approx(0.6839397, abs=1e-6)

    def test_matches_brute_force_double_sum(self, hash_encoder):
        rng = random.Random(1234)
        for _ in range(50):
            graph = build_and_embed(random_corpus(rng, n_passages=rng.randint(1, 20)), hash_encoder)
            catalog = list(graph.index.catalog)
            if not catalog:
                continue
            beam = []
            for _ in range(rng.randint(1, 10)):
                size = rng.randint(1, min(3, len(catalog)))
                beam.append(hypernode(graph, rng.sample(catalog, size), query_distance=rng.uniform(0.0, 2.0)))
            mine = {p.id: p.score for p in score_passages(graph, beam)}
            reference = brute_force_scores(graph, beam)
            assert mine.keys() == reference.keys()
            for pid, score in mine.items():
                assert score == pytest.approx(reference[pid], rel=1e-9)

    def test_bit_equal_to_sequential_sum_in_beam_order(self, hash_encoder):
        # every node holds a triplet of one anchor passage, so the anchor's score sums one
        # term per node, each scaled by a different distance
        rng = random.Random(2718)
        checked = 0
        while checked < 40:
            graph = build_and_embed(random_corpus(rng, n_passages=rng.randint(2, 15), entity_pool=10), hash_encoder)
            catalog = list(graph.index.catalog)
            anchors = [p for p in graph.passages.values() if p.triplets]
            if not anchors:
                continue
            anchor = rng.choice(anchors)
            beam = [
                hypernode(
                    graph,
                    frozenset([rng.choice(anchor.triplets)] + rng.sample(catalog, rng.randint(0, 2))),
                    query_distance=rng.uniform(0.0, 2.0),
                )
                for _ in range(rng.randint(4, 10))
            ]
            mine = {p.id: p.score for p in score_passages(graph, beam)}
            reference = brute_force_scores(graph, beam)  # one running Python sum per passage
            assert {pid: s.hex() for pid, s in mine.items()} == {pid: s.hex() for pid, s in reference.items()}
            checked += 1

    def test_missing_distance_rejected(self, hash_encoder):
        graph = build_and_embed([passage("p1", ("a", "r", "b"))], hash_encoder)
        bare = hypernode(graph, {canonicalize_triplet("a", "r", "b")})
        with pytest.raises(InvalidParams):
            score_passages(graph, [bare])

    def test_zero_score_passages_excluded(self, hash_encoder):
        graph = build_and_embed(
            [passage("p1", ("a", "r", "b")), passage("p2", ("x", "r", "y"))], hash_encoder
        )
        scored = score_passages(graph, [node_with_distance(graph, 0.0, ("a", "r", "b"))])
        assert [p.id for p in scored] == ["p1"]

    def test_additivity_removing_hypernode_never_raises_scores(self, hash_encoder):
        rng = random.Random(77)
        graph = build_and_embed(random_corpus(rng, n_passages=12), hash_encoder)
        catalog = list(graph.index.catalog)
        beam = [
            hypernode(graph, rng.sample(catalog, rng.randint(1, 3)), query_distance=rng.uniform(0, 2))
            for _ in range(5)
        ]
        full = {p.id: p.score for p in score_passages(graph, beam)}
        reduced = {p.id: p.score for p in score_passages(graph, beam[1:])}
        for pid, score in reduced.items():
            assert score <= full[pid] + 1e-12

    def test_consensus_extra_support_strictly_wins(self, hash_encoder):
        # p1 and p2 share one triplet; p1 additionally holds a second one
        shared = ("s", "r", "t")
        extra = ("u", "r", "v")
        graph = build_and_embed(
            [passage("p1", shared, extra), passage("p2", shared, ("w", "r", "z"))], hash_encoder
        )
        beam = [node_with_distance(graph, 0.3, shared), node_with_distance(graph, 0.7, extra)]
        scored = {p.id: p.score for p in score_passages(graph, beam)}
        assert scored["p1"] > scored["p2"]


class TestDenseRank:
    def _graph(self, encoder):
        records = [
            CorpusRecord(f"p{i}", f"passage body number {i} talks about topic {i}", ())
            for i in range(8)
        ]
        records.append(CorpusRecord("p8", "the quick brown fox", ()))
        return build_and_embed(records, encoder)

    def test_nearest_by_construction_first(self, hash_encoder):
        graph = self._graph(hash_encoder)
        vq = encode(hash_encoder, ["the quick brown fox"])[0]
        ranked = dense_rank(graph, vq, limit=3)
        assert ranked[0].id == "p8"
        assert ranked[0].channel == DENSE_CHANNEL
        assert ranked[0].supporting_triplets == ()

    def test_limit_beyond_corpus_returns_full_ranking(self, hash_encoder):
        graph = self._graph(hash_encoder)
        vq = encode(hash_encoder, ["some query"])[0]
        assert len(dense_rank(graph, vq, limit=100)) == 9

    def test_matches_sort_oracle_on_random_vectors(self, hash_encoder):
        rng = np.random.default_rng(5150)
        ids = tuple(f"p{i:04d}" for i in range(1000))
        units = rng.standard_normal((1000, 16))
        units /= np.linalg.norm(units, axis=1, keepdims=True)

        class FakeStore:
            passage_units = units

        graph = build_and_embed([passage("p1", ("a", "r", "b"))], hash_encoder)
        graph = dataclasses.replace(
            graph, index=dataclasses.replace(graph.index, passage_ids=ids), embeddings=FakeStore()
        )
        vq = rng.standard_normal(16)
        vq /= np.linalg.norm(vq)
        ranked = dense_rank(graph, vq, limit=1000)
        assert [p.id for p in ranked] == sort_rank(ids, units @ vq)


class TestHybridMerge:
    @staticmethod
    def _scored(channel, *ids):
        scores = range(len(ids), 0, -1)
        return [ScoredPassage(i, float(s), channel) for i, s in zip(ids, scores)]

    def test_quota_then_dedup_backfill(self):
        path = self._scored(PATH_CHANNEL, "p1", "p2", "p3", "p4", "p9")
        dense = self._scored(DENSE_CHANNEL, "p1", "p5", "p6", "p7", "p8")
        merged = hybrid_merge(path, dense, HybridConfig(quota=4, context_size=5))
        assert [p.id for p in merged] == ["p1", "p2", "p3", "p4", "p5"]
        assert [p.channel for p in merged] == [PATH_CHANNEL] * 4 + [DENSE_CHANNEL]

    def test_path_shortfall_backfilled(self):
        path = self._scored(PATH_CHANNEL, "p1")
        dense = self._scored(DENSE_CHANNEL, "p1", "p2", "p3", "p4", "p5", "p6")
        merged = hybrid_merge(path, dense, HybridConfig(quota=4, context_size=5))
        assert [p.id for p in merged] == ["p1", "p2", "p3", "p4", "p5"]

    def test_zero_quota_is_pure_dense(self):
        dense = self._scored(DENSE_CHANNEL, "p1", "p2", "p3", "p4", "p5")
        merged = hybrid_merge([], dense, HybridConfig(quota=0, context_size=5))
        assert [p.id for p in merged] == ["p1", "p2", "p3", "p4", "p5"]
        assert all(p.channel == DENSE_CHANNEL for p in merged)

    def test_no_duplicates_and_quota_satisfaction(self):
        path = self._scored(PATH_CHANNEL, "a", "b", "c", "d", "e")
        dense = self._scored(DENSE_CHANNEL, "a", "b", "x", "y", "z", "w")
        merged = hybrid_merge(path, dense, HybridConfig(quota=4, context_size=5))
        ids = [p.id for p in merged]
        assert len(ids) == len(set(ids)) == 5
        assert sum(p.channel == PATH_CHANNEL for p in merged) == 4

    def test_exhaustion_stops_early(self):
        path = self._scored(PATH_CHANNEL, "a")
        dense = self._scored(DENSE_CHANNEL, "a", "b")
        merged = hybrid_merge(path, dense, HybridConfig(quota=4, context_size=5))
        assert [p.id for p in merged] == ["a", "b"]

    def test_config_validation(self):
        with pytest.raises(InvalidParams):
            HybridConfig(quota=6, context_size=5)
        with pytest.raises(InvalidParams):
            HybridConfig(quota=-1)
        assert (HybridConfig().quota, HybridConfig().context_size) == (4, 5)


class TestRetrieve:
    def _records(self):
        chain = [("alpha", "feeds", "beta"), ("beta", "feeds", "gamma")]
        records = [
            CorpusRecord("c1", "alpha feeds beta around here.", (chain[0],)),
            CorpusRecord("c2", "beta feeds gamma these days.", (chain[1],)),
        ]
        records += [
            CorpusRecord(f"d{i}", f"noise document number {i} about nothing", (
                (f"noise{i}", "relates", f"thing{i}"),
            ))
            for i in range(6)
        ]
        return records

    def test_empty_graph_falls_back_to_dense(self, hash_encoder):
        records = [CorpusRecord(f"p{i}", f"text number {i}", ()) for i in range(7)]
        graph = build_and_embed(records, hash_encoder)
        result = retrieve_result(graph, hash_encoder, "anything at all")
        assert result.hypernodes == []
        assert len(result.passages) == 5
        assert all(p.channel == DENSE_CHANNEL for p in result.passages)

    def test_fallback_totality_small_corpus(self, hash_encoder):
        records = [CorpusRecord("only", "just one passage", ())]
        graph = build_and_embed(records, hash_encoder)
        assert [p.id for p in retrieve_result(graph, hash_encoder, "q").passages] == ["only"]

    def test_other_encoder_rejected_before_encoding(self, hash_encoder):
        # a fresh graph, not a bundle; the oracle cannot encode the query, so a
        # check placed after query encoding would raise EncoderFailure instead
        graph = build_and_embed(self._records(), hash_encoder)
        other = OracleEncoder(2, {"unrelated text": [1.0, 0.0]})
        with pytest.raises(EncoderMismatch):
            retrieve_result(graph, other, "what does alpha ultimately feed?")

    def test_returns_full_context_with_channels(self, hash_encoder):
        graph = build_and_embed(self._records(), hash_encoder)
        result = retrieve_result(
            graph, hash_encoder, "what does alpha ultimately feed?",
            ExpansionConfig(), HybridConfig(),
        )
        assert len(result.passages) == 5
        ids = [p.id for p in result.passages]
        assert len(set(ids)) == 5
        assert set(result.timings_ms) == {"expansion", "scoring", "dense", "total"}
        path_picks = [p for p in result.passages if p.channel == PATH_CHANNEL]
        for p in path_picks:
            assert p.supporting_triplets
        dense_start = len(path_picks)
        assert all(p.channel == DENSE_CHANNEL for p in result.passages[dense_start:])
