"""The program names and behaviour that perfbench's tracer relies on.

``perfbench/spans.py`` swaps module attributes of ``helprag`` for timing
wrappers. A rename in the program makes its ``install`` raise, and a wrapped
name that a query no longer calls leaves a layer metric at zero; these tests
see both without starting a benchmark run. The tracer also counts carried
nodes by ``id()``, reads four ``HyperNode`` fields, times the one
``encode_batch`` call each prune makes, counts the texts of the
``TextBatch`` it is handed and counts ``adjacent_triplets`` calls, one per
hop, so a change there fails here too instead of zeroing or silently
redefining a layer metric. The last test guards the memory the final
beam keeps alive, which a benchmark would show only as peak RSS.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from conftest import RecordingEncoder, RenamedEncoder, hypernode, passage, random_corpus
import helprag.expansion
from helprag.encoding import TextBatch, encode, encode_rows, screen_distances, screen_pool
from helprag.expansion import COUNT_SCREEN_WIDTH, ExpansionConfig, HyperNode, expand_candidates, prune, select_seeds
from helprag.ingestion import build_and_embed
from helprag.localization import retrieve_result

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_records_a_span(hash_encoder, monkeypatch):
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    originals = [getattr(module, attr) for module, attr, _ in spans.WRAPPED]
    try:
        tracer.install()  # raises on a wrapped name that is gone, after wrapping the ones before it
        graph = build_and_embed(random_corpus(random.Random(8), n_passages=30, entity_pool=12), hash_encoder)
        retrieve_result(graph, hash_encoder, "probe", ExpansionConfig(hops=3, seed_size=3, beam_size=8))
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _ in spans.WRAPPED] == originals
    recorded = {span.name for span in tracer.spans}
    assert sorted(name for _, _, name in spans.WRAPPED if name not in recorded) == []


def test_expand_candidates_gathers_adjacency_once_per_hop(hash_encoder, monkeypatch):
    # perfbench counts these calls as kg.adjacent_calls: one per hop, whatever the beam's size
    graph = build_and_embed(random_corpus(random.Random(8), n_passages=30, entity_pool=12), hash_encoder)
    vq = encode(hash_encoder, ["probe"])[0]
    beam = select_seeds(graph, vq, 3)
    calls = []
    original = helprag.expansion.adjacent_triplets

    def counting(graph, name_ids):
        calls.append(len(name_ids))
        return original(graph, name_ids)

    monkeypatch.setattr(helprag.expansion, "adjacent_triplets", counting)
    for _ in range(2):
        calls.clear()
        candidates = expand_candidates(graph, beam)
        assert len(calls) == 1 and len(beam) > 1
        beam = prune(candidates, hash_encoder, vq, 8)


# the HyperNode fields that perfbench/spans.py and perfbench/bench.py read
PINNED_FIELDS = ("triplets", "serialized", "embedding", "query_distance")


def test_carried_nodes_come_back_as_the_same_objects(hash_encoder):
    # (x, r, y) touches nothing else, so its seed has nothing to grow into
    graph = build_and_embed(
        [passage("p1", ("a", "r", "b"), ("b", "r", "c")), passage("p2", ("x", "r", "y"))], hash_encoder
    )
    seeds = select_seeds(graph, encode(hash_encoder, ["probe"])[0], 3)
    candidates = expand_candidates(graph, seeds)
    lonely = next(s for s in seeds if s.serialized == "x r y")
    assert [c for c in candidates if any(c is s for s in seeds)] == [lonely]
    assert len(candidates) == 2


def test_hypernode_exposes_the_pinned_fields(hash_encoder):
    graph = build_and_embed([passage("p1", ("a", "r", "b"), ("b", "r", "c"))], hash_encoder)
    vq = encode(hash_encoder, ["probe"])[0]
    seeds = select_seeds(graph, vq, 1)
    candidates = expand_candidates(graph, seeds)
    nodes = [*seeds, *candidates, *prune(candidates, hash_encoder, vq, 1), hypernode(graph, seeds[0].triplets)]
    for node in nodes:
        assert [name for name in PINNED_FIELDS if not hasattr(node, name)] == []


def lonely_graph(encoder):
    """A random graph plus (x, r, y), which touches nothing else and so is carried forward."""
    records = random_corpus(random.Random(8), n_passages=30, entity_pool=12)
    return build_and_embed(records + [passage("lonely", ("x", "r", "y"))], encoder)


def prune_pool(candidates, hash_encoder, vq, k):
    """The fresh candidates prune's screen keeps for the hash encoder's id, by the branch prune takes.

    Paths of COUNT_SCREEN_WIDTH or more triplets are screened by their composed
    gram counts; shorter ones by the rows of every fresh text.
    """
    if candidates.rows.shape[1] < COUNT_SCREEN_WIDTH:
        rows = encode_rows(hash_encoder, candidates.texts)
    else:
        rows = hash_encoder.path_counts(candidates.index, candidates.rows)
    return screen_pool(screen_distances(rows, vq), k, hash_encoder.dim)


def test_prune_encodes_the_fresh_candidates_in_one_batch(hash_encoder):
    # one batch per prune, in candidate order: for the hash encoder's id, every fresh text
    # on 2-triplet paths and the pool its count screen keeps on longer ones; for any other
    # id, every fresh text
    graph = lonely_graph(hash_encoder)
    vq = encode(hash_encoder, ["x r y r1"])[0]  # the lonely triplet is the first seed
    for recording in (RecordingEncoder, RenamedEncoder):
        beam = select_seeds(graph, vq, 3)
        carried = screened_out = 0
        for _ in range(3):
            candidates = expand_candidates(graph, beam)
            recorder = recording(hash_encoder)
            beam = prune(candidates, recorder, vq, 8)
            expected = [c.serialized for c in candidates if c.embedding is None]
            if recording is RecordingEncoder and candidates.rows.shape[1] >= COUNT_SCREEN_WIDTH:
                pool = prune_pool(candidates, hash_encoder, vq, 8)
                screened_out += len(expected) - len(pool)
                expected = [expected[i] for i in pool.tolist()]
            assert recorder.calls == [expected]
            carried += sum(c.embedding is not None for c in candidates)
        assert carried > 0
        assert screened_out > 0 or recording is RenamedEncoder


def test_encoder_proxy_is_handed_batches_and_counts_their_texts(hash_encoder, monkeypatch):
    # perfbench's EncoderProxy passes what it is handed through, and its spans record len() of
    # it as encoding.texts; the query encode and every prune hand it one TextBatch
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    recorder = RecordingEncoder(hash_encoder)
    graph = lonely_graph(hash_encoder)
    try:
        tracer.install()
        tracer.begin_query(0)
        config = ExpansionConfig(hops=3, seed_size=3, beam_size=8)
        tracer.call(spans.ROOT, retrieve_result, graph, spans.EncoderProxy(recorder, tracer), "probe", config)
    finally:
        tracer.uninstall()
    batch_spans = [s for s in tracer.spans if s.name == "encoding.encode_batch"]
    assert [tracer.spans[s.parent].name for s in batch_spans] == [spans.ROOT, "expansion.prune", "expansion.prune"]
    assert [type(batch) for batch in recorder.batches] == [TextBatch] * 3
    assert [s.attrs["texts"] for s in batch_spans] == list(map(len, recorder.batches))
    assert recorder.calls[0] == ["probe"]
    layers = spans.query_layers(tracer.spans, 3)[0]
    assert layers["encoding.texts"] == sum(map(len, recorder.batches[1:]))
    assert layers["encoding.reencoded"] == 0  # the tracer reads each batch as str


def test_final_beam_keeps_no_more_rows_than_the_pool(hash_encoder, monkeypatch):
    graph = lonely_graph(hash_encoder)
    pruned: list[tuple[list[HyperNode], int]] = []
    original_prune = helprag.expansion.prune

    def recording_prune(candidates, encoder, query_vector, k):
        pruned.append((candidates, k))
        return original_prune(candidates, encoder, query_vector, k)

    monkeypatch.setattr(helprag.expansion, "prune", recording_prune)
    result = retrieve_result(graph, hash_encoder, "probe", ExpansionConfig(hops=3, seed_size=3, beam_size=8))
    monkeypatch.undo()

    # a pool is the fresh candidates that pass prune's screen, plus the carried ones
    vq = encode(hash_encoder, ["probe"])[0]
    pools = [len(prune_pool(candidates, hash_encoder, vq, k)) + len(candidates.carried) for candidates, k in pruned]
    assert len(pools) == 2 and max(pools) < min(len(c) for c, _ in pruned)
    seed_rows = graph.embeddings.triplet_units
    for node in result.hypernodes:
        base = node.embedding.base
        # a seed carried to the end views the graph's own matrix, which the graph keeps anyway
        assert base is seed_rows or base.shape[0] <= max(pools)
