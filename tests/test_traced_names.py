"""The program names and behaviour that perfbench's tracer relies on.

``perfbench/spans.py`` swaps module attributes of ``helprag`` for timing
wrappers. A rename in the program makes its ``install`` raise, and a wrapped
name that a query no longer calls leaves a layer metric at zero; these tests
see both without starting a benchmark run. The tracer also counts carried
nodes by ``id()`` and reads four ``HyperNode`` fields, so a change there
fails here too instead of zeroing a layer metric.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from conftest import passage, random_corpus
from helprag.encoding import encode
from helprag.expansion import ExpansionConfig, HyperNode, expand_candidates, prune, select_seeds
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
    nodes = seeds + candidates + prune(candidates, hash_encoder, vq, 1)
    nodes.append(HyperNode.from_triplets(seeds[0].triplets))
    for node in nodes:
        assert [name for name in PINNED_FIELDS if not hasattr(node, name)] == []
