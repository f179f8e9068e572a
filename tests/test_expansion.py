"""Seed selection, candidate growth, pruning, and the full expansion loop."""

from __future__ import annotations

import random
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    RecordingEncoder,
    RenamedEncoder,
    candidates_of,
    colliding_corpus,
    directional_oracle,
    hypernode,
    passage,
    random_corpus,
    serialized,
    ten_k_triplet_records,
)
import helprag.expansion
from helprag import encoding
from helprag.encoding import (
    HASH_CHUNK_TEXTS,
    HashEncoder,
    Encoder,
    encode,
    row_norms,
    serialize_hypernode,
    serialize_rows,
    smallest_k,
)
from helprag.errors import EmptyGraph, InvalidParams, ZeroVector
from helprag.expansion import (
    COUNT_SCREEN_WIDTH,
    ExpansionConfig,
    HyperNode,
    _lex_keys,
    expand_candidates,
    prune,
    run_expansion,
    select_seeds,
)
from helprag.ingestion import CorpusRecord, build_and_embed, load_index, save_index
from helprag.kg import Triplet, canonicalize_triplet
from helprag.localization import dense_rank, retrieve_result, score_passages
from oracles import brute_force_expansion, enumerate_candidates, hash_encode_text, hash_gram_counts, sort_rank


def beam_sets(beam: list[HyperNode]) -> list[frozenset]:
    return [node.triplets for node in beam]


class TestSelectSeeds:
    def test_top_n_by_cosine(self):
        enc = directional_oracle(
            "the query",
            {
                serialized(("aaa", "r", "a2")): 0.9,
                serialized(("bbb", "r", "b2")): 0.5,
                serialized(("ccc", "r", "c2")): 0.1,
                "text of p1": 0.0,
                "text of p2": 0.0,
                "text of p3": 0.0,
            },
        )
        graph = build_and_embed(
            [
                passage("p1", ("aaa", "r", "a2")),
                passage("p2", ("bbb", "r", "b2")),
                passage("p3", ("ccc", "r", "c2")),
            ],
            enc,
        )
        vq = encode(enc, ["the query"])[0]
        seeds = select_seeds(graph, vq, n=2)
        assert beam_sets(seeds) == [
            frozenset({canonicalize_triplet("aaa", "r", "a2")}),
            frozenset({canonicalize_triplet("bbb", "r", "b2")}),
        ]
        for node in seeds:
            assert node.query_distance == pytest.approx(
                float(np.linalg.norm(node.embedding - vq)), abs=1e-12
            )

    def test_saturation_returns_all(self, hash_encoder):
        graph = build_and_embed([passage("p1", ("a", "r", "b"), ("b", "r", "c"))], hash_encoder)
        vq = encode(hash_encoder, ["query"])[0]
        assert len(select_seeds(graph, vq, n=10)) == 2

    def test_empty_graph_raises(self, hash_encoder):
        graph = build_and_embed([], hash_encoder)
        vq = encode(hash_encoder, ["query"])[0]
        with pytest.raises(EmptyGraph):
            select_seeds(graph, vq, n=1)


class TestExpandCandidates:
    def test_chain_grows_by_one(self, hash_encoder):
        graph = build_and_embed([passage("p1", ("a", "r1", "b"), ("b", "r2", "c"))], hash_encoder)
        seeds = select_seeds(graph, encode(hash_encoder, ["a r1 b"])[0], 1)
        assert beam_sets(seeds) == [frozenset({canonicalize_triplet("a", "r1", "b")})]
        candidates = list(expand_candidates(graph, seeds))
        assert beam_sets(candidates) == [
            frozenset({canonicalize_triplet("a", "r1", "b"), canonicalize_triplet("b", "r2", "c")})
        ]
        assert candidates[0].embedding is None

    def test_isolated_node_carried_forward(self, hash_encoder):
        graph = build_and_embed(
            [passage("p1", ("a", "r", "b")), passage("p2", ("x", "r", "y"))], hash_encoder
        )
        seeds = select_seeds(graph, encode(hash_encoder, ["x r y"])[0], 1)
        assert beam_sets(seeds) == [frozenset({canonicalize_triplet("x", "r", "y")})]
        assert list(expand_candidates(graph, seeds)) == seeds  # the node itself

    def test_same_set_reached_twice_deduplicated(self, hash_encoder):
        t1 = canonicalize_triplet("a", "r", "b")
        t2 = canonicalize_triplet("b", "r", "c")
        graph = build_and_embed([passage("p1", ("a", "r", "b"), ("b", "r", "c"))], hash_encoder)
        seeds = select_seeds(graph, encode(hash_encoder, ["a r b"])[0], 2)
        assert set(beam_sets(seeds)) == {frozenset({t1}), frozenset({t2})}
        assert beam_sets(expand_candidates(graph, seeds)) == [frozenset({t1, t2})]

    def test_sets_rendering_one_text_are_both_kept(self, hash_encoder):
        graph = build_and_embed(colliding_corpus(), hash_encoder)
        seeds = select_seeds(graph, encode(hash_encoder, ["q links a"])[0], 1)
        assert beam_sets(seeds) == [frozenset({canonicalize_triplet("q", "links", "a")})]
        candidates = expand_candidates(graph, seeds)
        assert {c.serialized for c in candidates} == {"a b c d; q links a"}
        assert set(beam_sets(candidates)) == {
            seeds[0].triplets | {canonicalize_triplet("a", "b c", "d")},
            seeds[0].triplets | {canonicalize_triplet("a", "b", "c d")},
        }

    def test_empty_beam_rejected(self, hash_encoder):
        graph = build_and_embed([passage("p1", ("a", "r", "b"))], hash_encoder)
        with pytest.raises(InvalidParams):
            expand_candidates(graph, [])

    # only beams that select_seeds and prune return are taken; each other beam raises

    def test_repeated_set_rejected(self, hash_encoder):
        graph = build_and_embed([passage("p1", ("a", "r", "b"), ("b", "r", "c"))], hash_encoder)
        seeds = select_seeds(graph, encode(hash_encoder, ["a r b"])[0], 2)
        with pytest.raises(InvalidParams, match="twice"):
            expand_candidates(graph, seeds + seeds[:1])
        # an equal set in a node of its own is the same set
        again = hypernode(graph, seeds[1].triplets, seeds[1].embedding, seeds[1].query_distance)
        with pytest.raises(InvalidParams, match="twice"):
            expand_candidates(graph, seeds + [again])

    def test_member_without_embedding_rejected(self, hash_encoder):
        graph = build_and_embed([passage("p1", ("a", "r", "b"), ("b", "r", "c"))], hash_encoder)
        seeds = select_seeds(graph, encode(hash_encoder, ["a r b"])[0], 1)
        bare = hypernode(graph, {canonicalize_triplet("b", "r", "c")})
        for beam in ([bare], seeds + [bare]):
            with pytest.raises(InvalidParams, match="embedding"):
                expand_candidates(graph, beam)

    def test_growing_member_narrower_than_a_carried_one_rejected(self, hash_encoder):
        # odd_corpus's closed pair, grown by the loop, is carried; one of its own
        # triplets, a seed, would grow into the same set
        graph = build_and_embed(odd_corpus(random.Random(1)), hash_encoder)
        catalog = graph.index.catalog
        pair = frozenset(t for t in catalog if t.head in ("u", "v"))
        vq = encode(hash_encoder, [serialize_hypernode(pair)])[0]
        seeds = select_seeds(graph, vq, len(catalog))
        grown = prune(expand_candidates(graph, seeds), hash_encoder, vq, 1)
        assert beam_sets(grown) == [pair]
        assert list(expand_candidates(graph, grown)) == grown
        single = next(s for s in seeds if s.triplets == {min(pair)})
        for beam in (grown + [single], [single] + grown):
            with pytest.raises(InvalidParams, match="widest"):
                expand_candidates(graph, beam)


class TestIdCandidates:
    """Candidates grow as sorted catalog-id tuples; their triplets are built on read."""

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_every_candidate_reads_as_its_triplets(self, hash_encoder, seed, colliding):
        rng = random.Random(seed)
        records = random_corpus(rng, n_passages=rng.randint(1, 25), entity_pool=rng.randint(4, 20))
        if colliding:
            records += colliding_corpus()  # passage ids p0..p2 differ from random_corpus's p0000..
        graph = build_and_embed(records, hash_encoder)
        if not graph.index.catalog:
            return
        index = graph.index
        vq = encode(hash_encoder, [rng.choice(["q links a", f"probe {seed}"])])[0]
        beam = select_seeds(graph, vq, rng.randint(1, 5))
        for _ in range(3):
            candidates = expand_candidates(graph, beam)
            nodes = list(candidates)
            assert len({c.ids for c in nodes}) == len(nodes) == len(candidates)
            # the fresh candidates in ascending id-tuple order, then the carried ones
            fresh = sum(c.embedding is None for c in nodes)
            assert all(c.embedding is None for c in nodes[:fresh])
            assert [c.ids for c in nodes[:fresh]] == sorted(c.ids for c in nodes[:fresh])
            for c in nodes:
                assert c.serialized == serialize_hypernode(c.triplets)
                assert [index.triplet(i) for i in c.ids] == sorted(c.triplets)
            beam = prune(candidates, hash_encoder, vq, rng.randint(1, 10))

    def test_node_grown_on_another_graph_rejected(self, hash_encoder):
        # a second graph from the same records holds equal triplets under equal ids
        records = [passage("p1", ("a", "r", "b"), ("b", "r", "c"))]
        graph, twin = build_and_embed(records, hash_encoder), build_and_embed(records, hash_encoder)
        vq = encode(hash_encoder, ["a r b"])[0]
        stranger = select_seeds(twin, vq, 1)[0]
        assert stranger.ids == select_seeds(graph, vq, 1)[0].ids
        with pytest.raises(InvalidParams, match="another graph"):
            expand_candidates(graph, [stranger])
        with pytest.raises(InvalidParams, match="another graph"):
            score_passages(graph, [stranger])
        # a member from the graph itself does not excuse one from the twin
        with pytest.raises(InvalidParams, match="another graph"):
            expand_candidates(graph, [select_seeds(graph, vq, 1)[0], stranger])

    def test_triplets_built_only_for_pools_beam_and_support(self, hash_encoder, tmp_path, monkeypatch):
        save_index(tmp_path, build_and_embed(ten_k_triplet_records(random.Random(0x10C)), hash_encoder))
        graph = load_index(tmp_path)
        question = "which entity ultimately reports to entity 042?"
        pruned: list[tuple[list[HyperNode], int]] = []
        original_prune = helprag.expansion.prune

        def recording_prune(candidates, encoder, query_vector, k):
            pruned.append((candidates, k))
            return original_prune(candidates, encoder, query_vector, k)

        built = 0
        original_init = Triplet.__init__

        def counting_init(self, *args):
            nonlocal built
            built += 1
            original_init(self, *args)

        monkeypatch.setattr(helprag.expansion, "prune", recording_prune)
        monkeypatch.setattr(Triplet, "__init__", counting_init)
        result = retrieve_result(graph, hash_encoder, question, ExpansionConfig(hops=3))
        monkeypatch.undo()

        # prune breaks ties by catalog ids, so its tie pools build no triplets
        allowed = {t for node in result.hypernodes for t in node.triplets}
        allowed |= {t for p in result.passages for t in p.supporting_triplets}
        assert len(pruned) == 2 and sum(len(c) for c, _ in pruned) > 10 * len(allowed)
        assert 0 < built <= len(allowed)

    def test_prune_builds_only_the_nodes_it_returns(self, hash_encoder, monkeypatch):
        # a random graph plus (x, r, y), which touches nothing else: the query makes it the
        # first seed, so it is carried to every hop. Both of prune's encoder branches run
        records = random_corpus(random.Random(8), n_passages=30, entity_pool=12)
        graph = build_and_embed(records + [passage("lonely", ("x", "r", "y"))], hash_encoder)
        vq = encode(hash_encoder, ["x r y r1"])[0]
        built = 0
        original_init = HyperNode.__init__

        def counting_init(self, *args, **kwargs):
            nonlocal built
            built += 1
            original_init(self, *args, **kwargs)

        for encoder in (hash_encoder, RenamedEncoder(hash_encoder)):
            beam = select_seeds(graph, vq, 3)
            carried_kept = 0
            for _ in range(2):  # hops 2 and 3
                candidates = expand_candidates(graph, beam)
                carried = {node.ids for node in candidates.carried}
                built = 0
                with monkeypatch.context() as patch:
                    patch.setattr(HyperNode, "__init__", counting_init)
                    beam = prune(candidates, encoder, vq, 8)
                assert built == len(beam) and len(candidates) > len(beam)
                assert all(n.embedding is not None and n.query_distance is not None for n in beam)
                carried_kept += sum(node.ids in carried for node in beam)
            assert carried_kept > 0


# names with multi-byte UTF-8 and with the join's ";" in them
ODD_NAMES = ["é", "日本", "🙂 x", "a;b", "c; d", "ß"]


def odd_corpus(rng: random.Random) -> list[CorpusRecord]:
    """A random graph over plain and odd names, a closed pair and a lonely triplet.

    The pair's two triplets touch only each other, so a path holding both is
    carried, and so is a path holding the lonely triplet.
    """
    names = [f"e{i}" for i in range(rng.randint(2, 8))] + ODD_NAMES
    relations = ["r", "ü;", "日"]
    records = [
        CorpusRecord(
            f"q{p:03d}",
            f"passage {p}",
            tuple(
                (rng.choice(names), rng.choice(relations), rng.choice(names))
                for _ in range(rng.randint(0, 4))
            ),
        )
        for p in range(rng.randint(1, 20))
    ]
    return records + [passage("closed", ("u", "r", "v"), ("v", "r", "w")), passage("lonely", ("x", "r", "y"))]


def loop_beam(rng: random.Random, graph, encoder, vq) -> list[HyperNode]:
    """A beam the loop makes: every triplet as a seed, then 0-2 hops of expand and prune, k from 1 to 10.

    With every triplet a seed, the next hop carries odd_corpus's lonely
    triplet and grows its closed pair, which the hop after carries if prune
    keeps it.
    """
    beam = select_seeds(graph, vq, len(graph.index.catalog))
    for _ in range(rng.randint(0, 2)):
        beam = prune(expand_candidates(graph, beam), encoder, vq, rng.randint(1, 10))
    return beam


def check_candidates(graph, beam, candidates) -> None:
    """Candidates equal the node-by-node enumeration, in the order and form the contract gives."""
    index = graph.index
    expected = enumerate_candidates(graph, beam)
    nodes = list(candidates)
    assert len(nodes) == len(candidates) == len(expected)
    assert {c.triplets for c in nodes} == expected.keys()
    fresh, carried = nodes[: len(candidates.texts)], nodes[len(candidates.texts) :]
    assert all(expected[c.triplets] is None and c.embedding is None for c in fresh)
    # the carried ones are the members themselves, in beam order
    assert carried == candidates.carried == [b for b in beam if expected.get(b.triplets) is b]
    # fresh ids ascending and unique
    ids = [c.ids for c in fresh]
    assert all(a < b for a, b in zip(ids, ids[1:]))
    assert list(candidates.texts) == [c.serialized for c in fresh]
    for c in fresh:
        assert c.serialized == serialize_hypernode(c.triplets)
        assert [index.triplet(i) for i in c.ids] == sorted(c.triplets)


def hops_equal_the_enumeration(encoder, seed: int, corpus: str) -> int:
    """Three hops of the loop after select_seeds, k from 1 to 10, each checked by check_candidates.

    Returns how many members the hops carried.
    """
    rng = random.Random(seed)
    records = {
        "random": lambda: random_corpus(rng, n_passages=rng.randint(1, 25), entity_pool=rng.randint(4, 20)),
        "colliding": colliding_corpus,
        "odd": lambda: odd_corpus(rng),
    }[corpus]()
    graph = build_and_embed(records, encoder)
    if not graph.index.catalog:
        return 0
    vq = encode(encoder, [rng.choice(["q links a", "日本 r é", "x r y", f"probe {seed}"])])[0]
    beam = select_seeds(graph, vq, rng.randint(1, 5))
    carried = 0
    for _ in range(3):
        candidates = expand_candidates(graph, beam)
        check_candidates(graph, beam, candidates)
        carried += len(candidates.carried)
        beam = prune(candidates, encoder, vq, rng.randint(1, 10))
    return carried


class TestArrayCandidates:
    """A hop's candidates built as id rows and one text buffer equal the node-by-node enumeration."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["random", "colliding", "odd"]))
    @settings(max_examples=40, deadline=None)
    def test_hops_equal_the_node_by_node_enumeration(self, hash_encoder, seed, corpus):
        # no hop of the loop raises, and every hop equals the enumeration
        hops_equal_the_enumeration(hash_encoder, seed, corpus)

    @pytest.mark.parametrize("corpus", ["random", "colliding", "odd"])
    def test_the_enumerated_hops_carry_members(self, hash_encoder, corpus):
        assert sum(hops_equal_the_enumeration(hash_encoder, seed, corpus) for seed in range(20)) > 0

    def test_odd_corpus_carries_its_closed_pair_and_lonely_triplet(self, hash_encoder):
        graph = build_and_embed(odd_corpus(random.Random(1)), hash_encoder)
        catalog = graph.index.catalog
        pair = frozenset(t for t in catalog if t.head in ("u", "v"))
        lonely = frozenset(t for t in catalog if t.head == "x")
        vq = encode(hash_encoder, [serialize_hypernode(pair)])[0]
        beam = select_seeds(graph, vq, len(catalog))
        carried = []
        for _ in range(2):
            candidates = expand_candidates(graph, beam)
            check_candidates(graph, beam, candidates)
            carried.append(beam_sets(candidates.carried))
            beam = prune(candidates, hash_encoder, vq, 10)
        assert lonely in carried[0] and pair in carried[1]

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([7, 256, 1024]), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_hash_rows_of_the_buffer_equal_the_reference(self, hash_encoder, seed, dim, chunk):
        rng = random.Random(seed)
        graph = build_and_embed(odd_corpus(rng), hash_encoder)
        vq = encode(hash_encoder, ["日本 r é"])[0]
        texts = expand_candidates(graph, loop_beam(rng, graph, hash_encoder, vq)).texts
        # a chunk of 1-5 texts makes most batches span several chunks
        with mock.patch.object(encoding, "HASH_CHUNK_TEXTS", chunk):
            try:
                expected = np.array([hash_encode_text(t, dim) for t in texts], dtype=np.float32)
            except ZeroVector:
                with pytest.raises(ZeroVector):
                    HashEncoder(dim).encode_batch(texts)
            else:
                assert HashEncoder(dim).encode_batch(texts).tobytes() == expected.tobytes()

    @given(
        st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), min_size=1, max_size=30),
        st.sampled_from([4, 2**20, 2**40]),
    )
    @settings(max_examples=60, deadline=None)
    def test_lex_keys_order_rows_as_tuples(self, digits, scale):
        # values spread over a radix large enough that the keys overflow and re-rank
        rows = [tuple(d * (scale // 4) for d in row) for row in digits]
        keys = _lex_keys(np.array(rows, dtype=np.int64), scale)
        for i in range(len(rows)):
            for j in range(len(rows)):
                assert (keys[i] < keys[j]) == (rows[i] < rows[j])
                assert (keys[i] == keys[j]) == (rows[i] == rows[j])


def single_byte_corpus(rng: random.Random) -> list[CorpusRecord]:
    """A random graph over 1-byte names, so every triplet text has the minimum 5 bytes."""
    names, relations = "abcdef", "rs"
    return [
        CorpusRecord(
            f"s{p:03d}",
            f"passage {p}",
            tuple((rng.choice(names), rng.choice(relations), rng.choice(names)) for _ in range(rng.randint(1, 4))),
        )
        for p in range(rng.randint(1, 12))
    ]


class TestComposedCounts:
    """Path gram counts composed from a hop's pieces equal the counts of each rendered path."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["single-byte", "odd", "colliding"]),
        st.sampled_from([7, 256, 1024]),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_to_the_counts_of_the_rendered_text(self, hash_encoder, seed, corpus, dim):
        rng = random.Random(seed)
        records = {
            "single-byte": lambda: single_byte_corpus(rng),
            "odd": lambda: odd_corpus(rng),
            "colliding": colliding_corpus,
        }[corpus]()
        graph = build_and_embed(records, hash_encoder)
        index, n_triplets = graph.index, len(graph.index.catalog)
        # ascending distinct ids, one width (1-4) for the whole batch
        width = rng.randint(1, min(4, n_triplets))
        ids = [sorted(rng.sample(range(n_triplets), width)) for _ in range(rng.randint(1, 30))]
        rows = np.array(ids).reshape(len(ids), width)
        encoder = HashEncoder(dim)
        composed = encoder.path_counts(index, rows)
        texts = [serialize_hypernode(index.triplet(i) for i in held) for held in ids]
        expected = np.array([hash_gram_counts(text, dim) for text in texts], dtype=np.float32)
        assert composed.dtype == np.float32
        assert composed.tobytes() == expected.tobytes()
        rendered = encoder.gram_counts(serialize_rows(index, rows))
        assert rendered.astype(np.float32).tobytes() == expected.tobytes()

    def test_no_rows_compose_to_no_counts(self, hash_encoder):
        graph = build_and_embed(colliding_corpus(), hash_encoder)
        assert hash_encoder.path_counts(graph.index, np.zeros((0, 1), dtype=np.int64)).shape == (0, 256)


NON_ASCII_NAMES = ["日本", "é", "ß", "🙂", "naïve", "東京 駅", "ü;", "Ωμέγα"]


def non_ascii_corpus(rng: random.Random) -> list[CorpusRecord]:
    """A random graph over multi-byte names, so pieces hold multi-byte characters across their joins."""
    relations = ["r", "関係", "ё"]
    return [
        CorpusRecord(
            f"u{p:03d}",
            f"passage {p}",
            tuple(
                (rng.choice(NON_ASCII_NAMES), rng.choice(relations), rng.choice(NON_ASCII_NAMES))
                for _ in range(rng.randint(1, 4))
            ),
        )
        for p in range(rng.randint(1, 12))
    ]


def result_bits(result) -> tuple:
    return (
        [(n.ids, n.serialized, n.query_distance.hex(), n.embedding.tobytes()) for n in result.hypernodes],
        [(p.id, p.score.hex(), p.channel) for p in result.passages],
    )


class TestPieceCounts:
    """Each index keeps its pieces' counts per dimension: exact, counted once, and only for hops of 3+ triplets."""

    @staticmethod
    def assert_composed_exactly(counter: HashEncoder, index, rng: random.Random) -> None:
        n_triplets = len(index.catalog)
        width = rng.randint(1, min(4, n_triplets))
        rows = np.array([sorted(rng.sample(range(n_triplets), width)) for _ in range(rng.randint(1, 30))])
        rendered = counter.gram_counts(serialize_rows(index, rows)).astype(np.float32)
        assert counter.path_counts(index, rows).tobytes() == rendered.tobytes()

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["random", "colliding", "odd", "non-ascii"]),
        st.sampled_from([2, 7, 1024]),
    )
    @settings(max_examples=40, deadline=None)
    def test_cold_warm_and_second_dim_memos_compose_the_rendered_counts(self, hash_encoder, seed, corpus, other):
        rng = random.Random(seed)
        records = {
            "random": lambda: random_corpus(rng, n_passages=rng.randint(1, 30), entity_pool=rng.randint(4, 20)),
            "colliding": lambda: random_corpus(rng, n_passages=rng.randint(1, 10)) + colliding_corpus(),
            "odd": lambda: odd_corpus(rng),
            "non-ascii": lambda: non_ascii_corpus(rng),
        }[corpus]()
        graph = build_and_embed(records, hash_encoder)
        index = graph.index
        if not index.catalog:
            return
        assert index._piece_counts == {}
        self.assert_composed_exactly(hash_encoder, index, rng)  # a cold memo
        for question in ["q links a", "日本 r é", f"probe {seed}"]:
            config = ExpansionConfig(hops=rng.randint(3, 4), seed_size=3, beam_size=rng.randint(1, 8))
            retrieve_result(graph, hash_encoder, question, config)
        self.assert_composed_exactly(hash_encoder, index, rng)  # warmed by other questions
        self.assert_composed_exactly(HashEncoder(other), index, rng)  # a second dim on the same index
        assert sorted(index._piece_counts) == sorted([other, 256])

    def test_a_name_over_127_grams_gets_an_int16_memo_that_does_not_wrap(self, hash_encoder):
        long = "x" * 140  # 138 equal grams: one bucket's count is past int8's 127
        triples = [("a", "r", long), (long, "r", "b"), ("b", "r", "c")]
        index = build_and_embed([passage("p1", *triples)], hash_encoder).index
        assert len(index.catalog) == 3
        rows = np.array([[0, 1, 2]])
        composed = hash_encoder.path_counts(index, rows)
        assert index._piece_counts[256].rows.dtype == np.int16
        assert np.abs(composed).max() > 127
        assert composed.tobytes() == hash_encoder.gram_counts(serialize_rows(index, rows)).astype(np.float32).tobytes()
        short = build_and_embed(random_corpus(random.Random(8), n_passages=30, entity_pool=12), hash_encoder).index
        hash_encoder.path_counts(short, np.array([[0, 1, 2]]))
        assert short._piece_counts[256].rows.dtype == np.int8

    def test_concurrent_queries_count_each_piece_once(self, hash_encoder, monkeypatch):
        records = random_corpus(random.Random(8), n_passages=60, entity_pool=16)
        questions = [f"e{i} r1 e{i + 1}" for i in range(8)]
        config = ExpansionConfig(hops=3, seed_size=3, beam_size=8)
        serial = build_and_embed(records, hash_encoder)
        expected = {q: result_bits(retrieve_result(serial, hash_encoder, q, config)) for q in questions}
        shared = build_and_embed(records, hash_encoder)
        count = HashEncoder.gram_counts

        def slow_count(self, batch):
            time.sleep(0.002)  # the other threads reach the pieces this call counts meanwhile
            return count(self, batch)

        monkeypatch.setattr(HashEncoder, "gram_counts", slow_count)
        start = threading.Barrier(4, timeout=30)

        def ask(offset: int) -> list[tuple[str, tuple]]:
            start.wait()
            # every question, two threads from each starting point
            order = questions[offset % 2 :] + questions[: offset % 2]
            return [(q, result_bits(retrieve_result(shared, hash_encoder, q, config))) for q in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often while they race to count the pieces
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                answers = list(pool.map(ask, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(bits == expected[q] for answer in answers for q, bits in answer)
        memo, alone = shared.index._piece_counts[256], serial.index._piece_counts[256]
        # every counted piece holds one slot, the slots fill the arena, and its row is the serial one
        assert sorted(memo.slots[memo.slots >= 0].tolist()) == list(range(memo.filled))
        assert np.array_equal(memo.slots >= 0, alone.slots >= 0)
        counted = memo.slots >= 0
        assert memo.rows[memo.slots[counted]].tobytes() == alone.rows[alone.slots[counted]].tobytes()

    def test_a_repeated_hop_3_prune_renders_and_counts_no_piece(self, hash_encoder, monkeypatch):
        graph = build_and_embed(random_corpus(random.Random(8), n_passages=30, entity_pool=12), hash_encoder)
        vq = encode(hash_encoder, ["probe"])[0]
        beam = prune(expand_candidates(graph, select_seeds(graph, vq, 3)), hash_encoder, vq, 8)
        candidates = expand_candidates(graph, beam)
        assert candidates.rows.shape[1] == COUNT_SCREEN_WIDTH
        inside, calls = [], []
        path_counts, gather, count = HashEncoder.path_counts, encoding._gather_texts, HashEncoder.gram_counts

        def composing(self, index, rows):
            inside.append(True)
            try:
                return path_counts(self, index, rows)
            finally:
                inside.pop()

        def gathering(*args):
            calls.extend(["_gather_texts"] * bool(inside))
            return gather(*args)

        def counting(self, batch):
            calls.extend(["gram_counts"] * bool(inside))
            return count(self, batch)

        monkeypatch.setattr(HashEncoder, "path_counts", composing)
        monkeypatch.setattr(encoding, "_gather_texts", gathering)
        monkeypatch.setattr(HashEncoder, "gram_counts", counting)
        first = prune(candidates, hash_encoder, vq, 8)
        assert sorted(set(calls)) == ["_gather_texts", "gram_counts"]
        calls.clear()
        assert kept_bits(prune(candidates, hash_encoder, vq, 8)) == kept_bits(first)
        assert calls == []

    def test_hops_up_to_2_make_no_memo_and_a_loaded_copy_has_its_own(self, hash_encoder, tmp_path):
        graph = build_and_embed(random_corpus(random.Random(8), n_passages=30, entity_pool=12), hash_encoder)
        for question, hops in [("e1 r1 e2", 1), ("e3 r2 e4", 2), ("probe", 2)]:
            retrieve_result(graph, hash_encoder, question, ExpansionConfig(hops=hops))
        assert graph.index._piece_counts == {}
        save_index(tmp_path / "idx", graph)
        loaded = load_index(tmp_path / "idx")
        retrieve_result(graph, hash_encoder, "probe", ExpansionConfig(hops=3))
        assert list(graph.index._piece_counts) == [256] and loaded.index._piece_counts == {}

    def test_a_catalog_sweep_fills_at_most_3_rows_per_triplet(self, hash_encoder):
        graph = build_and_embed(random_corpus(random.Random(8), n_passages=30, entity_pool=12), hash_encoder)
        catalog = graph.index.catalog
        for triplet in catalog:
            retrieve_result(graph, hash_encoder, triplet.as_text(), ExpansionConfig(hops=4, beam_size=20))
        memo = graph.index._piece_counts[256]
        # prune's paths have 3+ triplets, so their pieces have a join on at least one side
        assert 0 < memo.filled <= 3 * len(catalog)
        assert (memo.slots[0::4] < 0).all()

    def test_a_warm_hop_3_prune_builds_no_hop_sized_count_matrix(self, hash_encoder):
        graph = build_and_embed(ten_k_triplet_records(random.Random(0x10C)), hash_encoder)
        vq = encode(hash_encoder, ["which entity ultimately reports to entity 042?"])[0]
        beam = prune(expand_candidates(graph, select_seeds(graph, vq, 3)), hash_encoder, vq, 50)
        candidates = expand_candidates(graph, beam)
        prune(candidates, hash_encoder, vq, 50)  # counts the hop's pieces
        n = candidates.rows.shape[0]
        assert candidates.rows.shape[1] == COUNT_SCREEN_WIDTH and n > 4 * HASH_CHUNK_TEXTS
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            prune(candidates, hash_encoder, vq, 50)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < n * hash_encoder.dim * 4


class TestPrune:
    """Prune's order; nodes come from a hash-embedded graph, distances from an oracle."""

    def _candidates(self, hash_encoder):
        texts = {
            serialized(("n1", "r", "m1")): 0.98,  # dist ~0.2
            serialized(("n2", "r", "m2")): 0.595,  # dist ~0.9
            serialized(("n3", "r", "m3")): 0.875,  # dist ~0.5
        }
        enc = directional_oracle("q", texts)
        graph = build_and_embed([passage(f"p{i}", (f"n{i}", "r", f"m{i}")) for i in (1, 2, 3)], hash_encoder)
        return enc, candidates_of(graph, [{canonicalize_triplet(f"n{i}", "r", f"m{i}")} for i in (1, 2, 3)])

    def test_keeps_k_smallest_distances(self, hash_encoder):
        enc, candidates = self._candidates(hash_encoder)
        vq = encode(enc, ["q"])[0]
        kept = prune(candidates, enc, vq, k=2)
        assert [n.serialized for n in kept] == ["n1 r m1", "n3 r m3"]
        assert kept[0].query_distance < kept[1].query_distance
        assert kept[0].embedding is not None

    def test_k_exceeding_candidates_returns_all_sorted(self, hash_encoder):
        enc, candidates = self._candidates(hash_encoder)
        vq = encode(enc, ["q"])[0]
        kept = prune(candidates, enc, vq, k=10)
        assert [n.serialized for n in kept] == ["n1 r m1", "n3 r m3", "n2 r m2"]

    def test_equal_distance_breaks_by_serialization(self, hash_encoder):
        enc = directional_oracle("q", {"a r b": 0.5, "c r d": 0.5})
        vq = encode(enc, ["q"])[0]
        graph = build_and_embed([passage("p1", ("c", "r", "d")), passage("p2", ("a", "r", "b"))], hash_encoder)
        sets = [{canonicalize_triplet("c", "r", "d")}, {canonicalize_triplet("a", "r", "b")}]
        kept = prune(candidates_of(graph, sets), enc, vq, k=2)
        assert [n.serialized for n in kept] == ["a r b", "c r d"]

    def test_equal_text_breaks_by_sorted_triplets(self, hash_encoder):
        enc = directional_oracle("q", {"a b c d": 0.5})
        vq = encode(enc, ["q"])[0]
        graph = build_and_embed(colliding_corpus(), hash_encoder)
        spaced_relation = canonicalize_triplet("a", "b c", "d")
        spaced_tail = canonicalize_triplet("a", "b", "c d")
        sets = [{spaced_relation}, {spaced_tail}]
        for order in (sets, sets[::-1]):
            kept = prune(candidates_of(graph, order), enc, vq, k=1)
            assert beam_sets(kept) == [frozenset({spaced_tail})]  # relation "b" < "b c"


def tied_graph(cosines: list[float]):
    """Triplet i and passage i sit at cosines[i] from the query.

    Equal cosines give bit-equal vectors, so every repeated value is an
    exact tie. Passage ids run opposite to triplet order, so the two
    tie-breaks disagree with each other.
    """
    n = len(cosines)
    records, placements = [], {}
    for i, cos in enumerate(cosines):
        triple = (f"h{i:02d}", "r", f"t{i:02d}")
        records.append(CorpusRecord(f"p{n - i:02d}", f"passage {i:02d}", (triple,)))
        placements[serialized(triple)] = cos
        placements[f"passage {i:02d}"] = cos
    enc = directional_oracle("q", placements)
    return build_and_embed(records, enc), enc, encode(enc, ["q"])[0]


class TestTiesAtTheKth:
    """Partial top-k keeps the order of a full sort when ties straddle the k-th row."""

    @given(st.lists(st.sampled_from([0.9, 0.6, 0.3, -0.2]), min_size=1, max_size=12), st.integers(1, 13))
    @example([0.9, 0.6, 0.6, 0.6, 0.3], 2)
    @settings(max_examples=60, deadline=None)
    def test_same_order_as_full_sort(self, cosines, k):
        graph, enc, vq = tied_graph(cosines)
        catalog = graph.index.catalog
        texts = [t.as_text() for t in catalog]
        rows = encode(enc, texts)

        seeds = select_seeds(graph, vq, k)
        assert [s.serialized for s in seeds] == sort_rank(texts, rows @ vq)[:k]

        kept = prune(candidates_of(graph, [[t] for t in catalog]), enc, vq, k)
        assert [c.serialized for c in kept] == sort_rank(texts, -np.linalg.norm(rows - vq, axis=1))[:k]

        ids = graph.index.passage_ids
        passage_rows = encode(enc, [graph.passages[pid].text for pid in ids])
        dense = dense_rank(graph, vq, k)
        assert [p.id for p in dense] == sort_rank(ids, passage_rows @ vq)[:k]

    def test_carried_candidates_are_not_reencoded(self):
        graph, enc, vq = tied_graph([0.9, 0.6, 0.6, 0.3])
        carried = select_seeds(graph, vq, 1)
        fresh = [[t] for t in graph.index.catalog[1:]]
        recorder = RecordingEncoder(enc)
        kept = prune(candidates_of(graph, fresh, carried), recorder, vq, 3)
        assert recorder.texts == [serialize_hypernode(s) for s in fresh]
        reencoded = prune(candidates_of(graph, [carried[0].triplets] + fresh), enc, vq, 3)
        assert [(n.serialized, n.query_distance) for n in kept] == [
            (n.serialized, n.query_distance) for n in reencoded
        ]
        assert all(np.array_equal(a.embedding, b.embedding) for a, b in zip(kept, reencoded))


def spaced_groups_corpus(sizes: list[int]) -> list[CorpusRecord]:
    """Group g holds sizes[g] triplets that all render "g{g} w x y z": its words split into fields anew.

    The triplets of a group share their text, so the hash encoder gives them
    bit-equal rows: every repeated distance is an exact tie.
    """
    records = []
    for g, size in enumerate(sizes):
        words = [f"g{g}", "w", "x", "y", "z"]
        cuts = [(a, b) for a in range(1, 4) for b in range(a + 1, 5)][:size]
        triples = tuple((" ".join(words[:a]), " ".join(words[a:b]), " ".join(words[b:])) for a, b in cuts)
        records.append(CorpusRecord(f"p{g}", f"passage {g}", triples))
    return records


class ScaledEncoder(Encoder):
    """Another encoder's rows times a constant, so they are far from unit length."""

    def __init__(self, inner: Encoder, scale: float):
        self.inner = inner
        self.scale = np.float32(scale)

    @property
    def dim(self) -> int:
        return self.inner.dim

    @property
    def encoder_id(self) -> str:
        return f"{self.inner.encoder_id}-x{self.scale}"

    def encode_batch(self, texts):
        return self.inner.encode_batch(texts) * self.scale


def unscreened_prune(candidates, encoder, query_vector, k) -> list[tuple]:
    """prune without the screen: exact rows and distances for every candidate."""
    nodes = list(candidates)
    fresh = iter(encode(encoder, [c.serialized for c in nodes if c.embedding is None]))
    rows = np.stack([next(fresh) if c.embedding is None else c.embedding for c in nodes])
    dists = row_norms(rows, query_vector)
    kept = smallest_k(dists, k, lambda i: (nodes[i].serialized, sorted(nodes[i].triplets)))
    return [(nodes[i].serialized, sorted(nodes[i].triplets), float(dists[i]).hex(), rows[i].tobytes()) for i in kept]


def kept_bits(beam: list[HyperNode]) -> list[tuple]:
    return [
        (n.serialized, sorted(n.triplets), n.query_distance.hex(), n.embedding.tobytes()) for n in beam
    ]


class TestScreenedPrune:
    """The float32 screen keeps the survivors, order and bits of an unscreened prune."""

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
        st.sampled_from([1.0, 1e3, 1e-3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_equal_to_unscreened_on_random_graphs(self, hash_encoder, seed, colliding, scale):
        rng = random.Random(seed)
        records = random_corpus(rng, n_passages=rng.randint(1, 30), entity_pool=rng.randint(4, 20))
        if colliding:
            records += colliding_corpus()
        encoder = ScaledEncoder(hash_encoder, scale)
        graph = build_and_embed(records, encoder)
        if not graph.index.catalog:
            return
        vq = encode(encoder, [rng.choice(["q links a", f"probe {seed}"])])[0]
        beam = select_seeds(graph, vq, rng.randint(1, 5))
        for _ in range(3):
            candidates = expand_candidates(graph, beam)
            # below, at and above the candidate count
            k = rng.choice([1, 2, 3, 5, 8, len(candidates), len(candidates) + 1])
            beam = prune(candidates, encoder, vq, k)
            assert kept_bits(beam) == unscreened_prune(candidates, encoder, vq, k)

    @given(
        st.lists(st.sampled_from([0.9, 0.6, 0.3, -0.2]), min_size=1, max_size=12),
        st.integers(0, 3),
        st.integers(1, 13),
    )
    @example([0.9, 0.6, 0.6, 0.6, 0.3], 1, 2)
    @settings(max_examples=60, deadline=None)
    def test_equal_to_unscreened_with_ties_and_carried_nodes(self, cosines, carried, k):
        graph, enc, vq = tied_graph(cosines)
        catalog = graph.index.catalog
        carried = min(carried, len(catalog))
        # carried nodes hold the float64 rows seed selection gave them
        seeds = select_seeds(graph, vq, len(catalog))[:carried]
        held = {s.serialized for s in seeds}
        candidates = candidates_of(graph, [[t] for t in catalog if t.as_text() not in held], seeds)
        assert kept_bits(prune(candidates, enc, vq, k)) == unscreened_prune(candidates, enc, vq, k)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["random", "colliding", "odd"]))
    @settings(max_examples=40, deadline=None)
    def test_count_screen_equal_to_unscreened_on_random_graphs(self, hash_encoder, seed, corpus):
        # the hash encoder's id takes prune's count screen; its pool is rendered and encoded
        rng = random.Random(seed)
        records = {
            "random": lambda: random_corpus(rng, n_passages=rng.randint(1, 30), entity_pool=rng.randint(4, 20)),
            "colliding": lambda: random_corpus(rng, n_passages=rng.randint(1, 10)) + colliding_corpus(),
            "odd": lambda: odd_corpus(rng),
        }[corpus]()
        graph = build_and_embed(records, hash_encoder)
        if not graph.index.catalog:
            return
        vq = encode(hash_encoder, [rng.choice(["q links a", "日本 r é", f"probe {seed}"])])[0]
        beam = loop_beam(rng, graph, hash_encoder, vq) if corpus == "odd" else select_seeds(graph, vq, 3)
        for _ in range(3):
            candidates = expand_candidates(graph, beam)
            k = rng.choice([1, 2, 3, 5, 8, len(candidates), len(candidates) + 1])
            beam = prune(candidates, hash_encoder, vq, k)
            assert kept_bits(beam) == unscreened_prune(candidates, hash_encoder, vq, k)

    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=6),
        st.integers(0, 3),
        st.integers(1, 13),
        st.integers(0, 5),
    )
    @example([3, 2, 3], 1, 2, 0)
    @settings(max_examples=60, deadline=None)
    def test_count_screen_equal_to_unscreened_with_ties_and_carried_nodes(self, hash_encoder, sizes, carried, k, near):
        # each fresh path is a group triplet plus the two anchors, which sort after it, so a
        # group's paths render one text: 3-triplet paths reach the count screen, with exact ties
        anchors = [("zz1", "r", "s"), ("zz2", "r", "s")]
        graph = build_and_embed(spaced_groups_corpus(sizes) + [passage("anchors", *anchors)], hash_encoder)
        vq = encode(hash_encoder, [f"g{near} w x y z; zz1 r s; zz2 r s"])[0]
        catalog = graph.index.catalog
        anchored = [canonicalize_triplet(*a) for a in anchors]
        carried = min(carried, len(catalog))
        seeds = select_seeds(graph, vq, len(catalog))[:carried]
        held = {s.ids for s in seeds}
        fresh = [[t, *anchored] for i, t in enumerate(catalog) if t not in anchored and (i,) not in held]
        candidates = candidates_of(graph, fresh, seeds)
        assert not fresh or candidates.rows.shape[1] == COUNT_SCREEN_WIDTH
        assert kept_bits(prune(candidates, hash_encoder, vq, k)) == unscreened_prune(candidates, hash_encoder, vq, k)

    @pytest.mark.parametrize("k", [1, 8, 10_000])
    def test_zero_row_in_a_hop_batch_raises(self, hash_encoder, k):
        # ZeroesMiddleRow keeps the hash id, so prune screens 3-triplet paths by composed
        # counts, which are not zero, and encodes the pool; unit_rows sees the zeroed row of
        # that batch below, at and above the candidate count
        graph = build_and_embed(random_corpus(random.Random(8), n_passages=30, entity_pool=12), hash_encoder)
        vq = encode(hash_encoder, ["probe"])[0]
        beam = prune(expand_candidates(graph, select_seeds(graph, vq, 3)), hash_encoder, vq, 8)
        candidates = expand_candidates(graph, beam)
        assert candidates.rows.shape[1] == COUNT_SCREEN_WIDTH
        assert 8 < len(candidates.texts) and len(candidates) < 10_000
        with pytest.raises(ZeroVector, match="zero row"):
            prune(candidates, ZeroesMiddleRow(), vq, k)

    def test_zero_counts_keep_every_row_and_the_hash_encoder_raises(self):
        # at dim 2 the path "bk sk ikm; e r bk; ikm i g" cancels to zero, though none of its
        # triplets does (found by a search over short random names): its count row reads NaN
        # in the screen, so the pool is every row and encoding it raises
        encoder = HashEncoder(2)
        triples = [("e", "r", "bk"), ("bk", "sk", "ikm"), ("ikm", "i", "g"), ("ikm", "t", "x"), ("bk", "t", "b")]
        graph = build_and_embed([passage("p1", *triples, text="passage one")], encoder)
        vq = encode(encoder, ["e r bk"])[0]
        # expand_candidates reads only that the member holds an embedding
        member = hypernode(graph, [canonicalize_triplet(*t) for t in triples[:2]], np.ones(2), 0.0)
        candidates = expand_candidates(graph, [member])
        counts = encoder.path_counts(graph.index, candidates.rows)
        assert len(candidates) == 3 and candidates.rows.shape[1] == COUNT_SCREEN_WIDTH
        assert (~counts.any(axis=1)).sum() == 1
        with pytest.raises(ZeroVector, match="cancelled to zero"):
            prune(candidates, encoder, vq, 1)

    def test_two_triplet_hops_encode_every_candidate(self, hash_encoder):
        # on 2-triplet paths prune encodes every fresh text and screens those rows, so the
        # index's piece counts are never made
        graph = build_and_embed(random_corpus(random.Random(8), n_passages=30, entity_pool=12), hash_encoder)
        vq = encode(hash_encoder, ["probe"])[0]
        candidates = expand_candidates(graph, select_seeds(graph, vq, 3))
        assert candidates.rows.shape[1] == 2 and len(candidates.texts) > 8
        recorder = RecordingEncoder(hash_encoder)
        kept = prune(candidates, recorder, vq, 8)
        assert recorder.calls == [list(candidates.texts)]
        assert graph.index._piece_counts == {}
        assert kept_bits(kept) == unscreened_prune(candidates, hash_encoder, vq, 8)


class ZeroesMiddleRow(HashEncoder):
    """The hash encoder, with the middle row of each batch zeroed."""

    def encode_batch(self, texts):
        rows = super().encode_batch(texts)
        rows[len(rows) // 2] = 0.0
        return rows


class TestRunExpansion:
    def test_two_hop_chain_found(self):
        # oracle rewards the full chain; query bridges a -> c through b
        chain = [("a", "r1", "b"), ("b", "r2", "c")]
        enc = directional_oracle(
            "how does a reach c?",
            {
                serialized(chain[0]): 0.9,
                serialized(chain[1]): 0.2,
                serialized(*chain): 0.99,
                "text of p1": 0.0,
                "text of p2": 0.0,
            },
        )
        graph = build_and_embed([passage("p1", chain[0]), passage("p2", chain[1])], enc)
        final = run_expansion(
            graph, enc, encode(enc, ["how does a reach c?"])[0], ExpansionConfig(hops=2, seed_size=1, beam_size=5)
        )
        assert beam_sets(final) == [frozenset(canonicalize_triplet(*t) for t in chain)]

    def test_single_hop_returns_seeds(self, hash_encoder):
        graph = build_and_embed([passage("p1", ("a", "r", "b"), ("b", "r", "c"))], hash_encoder)
        config = ExpansionConfig(hops=1, seed_size=2, beam_size=5)
        vq = encode(hash_encoder, ["query"])[0]
        final = run_expansion(graph, hash_encoder, vq, config)
        assert beam_sets(final) == beam_sets(select_seeds(graph, vq, 2))

    def test_colliding_paths_both_kept_and_match_oracle(self, hash_encoder):
        graph = build_and_embed(colliding_corpus(), hash_encoder)
        config = ExpansionConfig(hops=2, seed_size=1, beam_size=5)
        final = run_expansion(graph, hash_encoder, encode(hash_encoder, ["q links a"])[0], config)
        start = canonicalize_triplet("q", "links", "a")
        assert beam_sets(final) == [
            frozenset({start, canonicalize_triplet("a", "b", "c d")}),
            frozenset({start, canonicalize_triplet("a", "b c", "d")}),
        ]
        assert final[0].query_distance == final[1].query_distance
        assert brute_force_expansion(graph, hash_encoder, "q links a", 2, 1, 5) == beam_sets(final)

    def test_empty_graph_returns_empty(self, hash_encoder):
        empty = build_and_embed([], hash_encoder)
        assert run_expansion(empty, hash_encoder, encode(hash_encoder, ["query"])[0], ExpansionConfig()) == []

    def test_deterministic(self, hash_encoder):
        rng = random.Random(99)
        graph = build_and_embed(random_corpus(rng, n_passages=30), hash_encoder)
        config = ExpansionConfig(hops=3, seed_size=3, beam_size=8)
        vq = encode(hash_encoder, ["some question"])[0]
        first = run_expansion(graph, hash_encoder, vq, config)
        second = run_expansion(graph, hash_encoder, vq, config)
        assert [n.serialized for n in first] == [n.serialized for n in second]
        assert [n.query_distance for n in first] == [n.query_distance for n in second]

    def test_monotone_growth_and_connectivity(self, hash_encoder):
        rng = random.Random(4)
        graph = build_and_embed(random_corpus(rng, n_passages=40, entity_pool=15), hash_encoder)
        for hops in (1, 2, 3):
            config = ExpansionConfig(hops=hops, seed_size=4, beam_size=10)
            final = run_expansion(graph, hash_encoder, encode(hash_encoder, ["connectivity probe"])[0], config)
            assert 0 < len(final) <= (config.seed_size if hops == 1 else config.beam_size)
            for node in final:
                assert 1 <= len(node.triplets) <= hops
                assert _connected(node.triplets)

    def test_oracle_equivalence_sample(self, hash_encoder):
        rng = random.Random(31337)
        for _ in range(10):
            graph = build_and_embed(random_corpus(rng, n_passages=25, entity_pool=20), hash_encoder)
            if not graph.index.catalog:
                continue
            hops, seeds, beam = rng.randint(1, 3), rng.randint(1, 5), rng.randint(1, 10)
            query = f"probe {rng.randint(0, 999)}"
            mine = run_expansion(
                graph, hash_encoder, encode(hash_encoder, [query])[0], ExpansionConfig(hops, seeds, beam)
            )
            reference = brute_force_expansion(graph, hash_encoder, query, hops, seeds, beam)
            assert beam_sets(mine) == reference


def _connected(triplets: frozenset) -> bool:
    remaining = set(triplets)
    frontier = {next(iter(remaining))}
    remaining -= frontier
    entities = set()
    for t in frontier:
        entities |= {t.head, t.tail}
    while remaining:
        nxt = {t for t in remaining if t.head in entities or t.tail in entities}
        if not nxt:
            return False
        for t in nxt:
            entities |= {t.head, t.tail}
        remaining -= nxt
    return True


class TestConfig:
    def test_defaults(self):
        config = ExpansionConfig()
        assert (config.hops, config.seed_size, config.beam_size) == (2, 3, 50)

    def test_invalid_rejected(self):
        with pytest.raises(InvalidParams):
            ExpansionConfig(hops=0)
        with pytest.raises(InvalidParams):
            ExpansionConfig(seed_size=0)
        with pytest.raises(InvalidParams):
            ExpansionConfig(beam_size=0)
