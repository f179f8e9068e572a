"""The program names that perfbench's tracer wraps exist and run during a query.

``perfbench/spans.py`` swaps module attributes of ``helprag`` for timing
wrappers. A rename in the program makes its ``install`` raise, and a wrapped
name that a query no longer calls leaves a layer metric at zero; this test
sees both without starting a benchmark run.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from conftest import random_corpus
from helprag.expansion import ExpansionConfig
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
