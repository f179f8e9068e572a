"""Spans recorded around the program's layer boundaries, from outside it.

:class:`Tracer` swaps selected module attributes of ``helprag`` for timing
wrappers while it is installed, and hands out an :class:`EncoderProxy` that
times every ``encode_batch`` call. The real ``retrieve_result`` runs
unchanged; only the names it looks up at call time are wrapped. A wrapped
name that no longer exists raises at install time, so a rename in the
program fails the traced run instead of silently dropping a layer.

Span names are ``<module>.<operation>``; the module is the layer.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

import helprag.expansion
import helprag.ingestion
import helprag.localization
from helprag.encoding import Encoder
from helprag.localization import PATH_CHANNEL

# (module, attribute looked up at call time, span name)
WRAPPED = (
    (helprag.localization, "run_expansion", "expansion.run"),
    (helprag.localization, "score_passages", "localization.score"),
    (helprag.localization, "dense_rank", "localization.dense"),
    (helprag.localization, "hybrid_merge", "localization.merge"),
    (helprag.expansion, "select_seeds", "expansion.seeds"),
    (helprag.expansion, "expand_candidates", "expansion.expand"),
    (helprag.expansion, "prune", "expansion.prune"),
    (helprag.expansion, "adjacent_triplets", "kg.adjacent"),
    (helprag.ingestion, "build_index", "kg.build"),
)
ROOT = "localization.retrieve"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    query: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """In-memory span log; the spans of one query share its query id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []
        self.query: int | None = None
        self._hop = 1

    def begin_query(self, query: int | None) -> None:
        self.query = query
        self._hop = 1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` and return its result."""
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None, query=self.query)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        self._before(span, args)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            span.attrs.pop("embedded", None)
        self._after(span, args, result)
        return result

    def _before(self, span: Span, args: tuple) -> None:
        if span.name == "expansion.expand":
            self._hop += 1
        if span.name in ("expansion.expand", "expansion.prune"):
            span.attrs["hop"] = self._hop
        if span.name == "expansion.prune":
            # carried-forward candidates arrive with the embedding prune gave them last hop
            span.attrs["embedded"] = frozenset(c.serialized for c in args[0] if c.embedding is not None)

    def _after(self, span: Span, args: tuple, result) -> None:
        if span.name == "expansion.expand":
            beam = {id(node) for node in args[1]}
            span.attrs["candidates"] = len(result)
            span.attrs["carried"] = sum(1 for c in result if id(c) in beam)
        elif span.name == "expansion.prune":
            span.attrs["survivors"] = len(result)
        elif span.name == "encoding.encode_batch":
            span.attrs["texts"] = len(args[0])
            caller = self.spans[span.parent] if span.parent is not None else None
            if caller is not None and caller.name == "expansion.prune":
                span.attrs["reencoded"] = sum(1 for t in args[0] if t in caller.attrs["embedded"])
        elif span.name == "localization.score":
            span.attrs["scored"] = len(result)
        elif span.name == ROOT:
            span.attrs["path_slots"] = sum(1 for p in result.passages if p.channel == PATH_CHANNEL)

    def install(self) -> None:
        """Wrap every name in :data:`WRAPPED`; idempotent."""
        if self._saved:
            return
        for module, attr, name in WRAPPED:
            if not hasattr(module, attr):
                raise RuntimeError(f"traced name {module.__name__}.{attr} no longer exists")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))

            def traced(*args, _name=name, _fn=original, **kwargs):
                return self.call(_name, _fn, *args, **kwargs)

            setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "query": s.query, **s.attrs}
                fh.write(json.dumps(row, sort_keys=True) + "\n")


class EncoderProxy(Encoder):
    """Delegating encoder that records one span per ``encode_batch`` call.

    Keeps the wrapped encoder's ``encoder_id`` and ``dim``, so manifests and
    encoder-id checks see the same encoder.
    """

    def __init__(self, inner: Encoder, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    @property
    def dim(self) -> int:
        return self.inner.dim

    @property
    def encoder_id(self) -> str:
        return self.inner.encoder_id

    def encode_batch(self, texts: Sequence[str]) -> np.ndarray:
        return self.tracer.call("encoding.encode_batch", self.inner.encode_batch, texts)


# --- spans -> per-layer metrics ----------------------------------------------------


def _child_ms(spans: list[Span]) -> dict[int, float]:
    # the program is single-threaded, so a span's children never overlap and
    # the part of its interval they cover is the sum of their durations
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.ms
    return covered


def query_layers(spans: list[Span], hops: int) -> dict[int, dict[str, float]]:
    """Per-query layer metrics, keyed by query id, from the query spans."""
    covered = _child_ms(spans)
    per: dict[int, dict[str, float]] = {}
    for i, s in enumerate(spans):
        if s.query is None:
            continue
        m = per.setdefault(s.query, _empty_query(hops))
        parent = spans[s.parent].name if s.parent is not None else None
        if s.name == ROOT:
            m["total_ms"] += s.ms
            m["localization.path_slots"] += s.attrs["path_slots"]
        elif s.name == "encoding.encode_batch":
            if parent == "expansion.prune":
                m["encoding.batch_ms"] += s.ms
                m["encoding.texts"] += s.attrs["texts"]
                m["encoding.reencoded"] += s.attrs["reencoded"]
            elif parent == ROOT:
                m["encoding.query_ms"] += s.ms
        elif s.name == "expansion.seeds":
            m["expansion.seeds_ms"] += s.ms
        elif s.name == "expansion.expand":
            m["expansion.expand_ms"] += s.ms
            m["expansion.carried"] += s.attrs["carried"]
            m[f"expansion.hop{s.attrs['hop']}.candidates"] += s.attrs["candidates"]
            m[f"expansion.hop{s.attrs['hop']}.ms"] += s.ms
        elif s.name == "expansion.prune":
            m["expansion.prune_self_ms"] += s.ms - covered[i]
            m["survivors"] += s.attrs["survivors"]
            m[f"expansion.hop{s.attrs['hop']}.ms"] += s.ms
        elif s.name == "kg.adjacent":
            m["kg.adjacent_ms"] += s.ms
            m["kg.adjacent_calls"] += 1
        elif s.name == "localization.score":
            m["localization.score_ms"] += s.ms
            m["localization.scored"] += s.attrs["scored"]
        elif s.name == "localization.dense":
            m["localization.dense_ms"] += s.ms
        elif s.name == "localization.merge":
            m["localization.merge_ms"] += s.ms
    for m in per.values():
        texts = m["encoding.texts"]
        m["expansion.beam_yield"] = m.pop("survivors") / texts if texts else 0.0
    return per


def _empty_query(hops: int) -> dict[str, float]:
    names = [
        "total_ms", "encoding.batch_ms", "encoding.texts", "encoding.reencoded", "encoding.query_ms",
        "expansion.seeds_ms", "expansion.expand_ms", "expansion.prune_self_ms", "expansion.carried",
        "survivors", "kg.adjacent_ms", "kg.adjacent_calls", "localization.score_ms",
        "localization.scored", "localization.dense_ms", "localization.merge_ms",
        "localization.path_slots",
    ]
    # hops 2 and 3 are always reported; a workload that stops earlier reads 0 there
    for hop in range(2, max(hops, 3) + 1):
        names += [f"expansion.hop{hop}.candidates", f"expansion.hop{hop}.ms"]
    return dict.fromkeys(names, 0.0)


def setup_layers(spans: list[Span]) -> dict[str, float]:
    """Index-build, save and load layer metrics (medians over repetitions)."""
    covered = _child_ms(spans)
    by_name: dict[str, list[float]] = defaultdict(list)
    encode_ms: dict[int, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s.query is not None:
            continue
        if s.name == "encoding.encode_batch" and s.parent is not None:
            # build_and_embed encodes passages and triplets in two batches
            encode_ms[s.parent] += s.ms
            continue
        by_name[s.name + "_ms"].append(s.ms)
        by_name[s.name + "_self_ms"].append(s.ms - covered[i])
    out = {"encoding.index_ms": statistics.median(
        encode_ms[i] for i, s in enumerate(spans) if s.name == "ingestion.build"
    )}
    for name in ("kg.build_ms", "ingestion.build_self_ms", "ingestion.save_ms",
                 "ingestion.load_ms", "ingestion.load_self_ms"):
        out[name] = statistics.median(by_name[name])
    return out
