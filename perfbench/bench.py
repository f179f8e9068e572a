"""One run of one workload: index, set up, check, time, report.

The program is driven only through its public API: ``build_and_embed``,
``save_index`` and ``load_index`` from ``helprag.ingestion``,
``retrieve_result`` from ``helprag.localization`` and ``helprag.cli.main``.
Load is one client in a closed loop: the next query starts when the last
one returned. Checks run outside the timed loop.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from helprag import cli
from helprag.expansion import ExpansionConfig
from helprag.ingestion import build_and_embed, load_index, save_index
from helprag.localization import PATH_CHANNEL, HybridConfig, retrieve_result

import oracles  # the independent references in tests/oracles.py
from spans import ROOT, EncoderProxy, Tracer, query_layers, setup_layers
from workloads import Spec, generate

QUERY_SCHEMA = "helprag-query/1"
CLI_REPS = 3
# every run asks at least the first DIGEST_QUERIES steps of the schedule; the
# output digest and recall cover exactly those, so they do not depend on how
# many queries fit in the timed loop and traced and untraced runs agree
DIGEST_QUERIES = 30
RECALL_K = 5
# queries compared between the fresh build and the loaded bundle, at least
ROUNDTRIP_SAMPLE = 2
SCORE_REL_TOL = 1e-9


def _stable_bytes(result) -> bytes:
    """The byte-stable part of a ``helprag-query/1`` result: all but timings."""
    doc = {
        "schema": QUERY_SCHEMA,
        "query": result.query,
        "hypernodes": [
            {"triplets": [[t.head, t.relation, t.tail] for t in sorted(n.triplets)],
             "distance": n.query_distance}
            for n in result.hypernodes
        ],
        "passages": [
            {"id": p.id, "score": p.score, "channel": p.channel,
             "supporting_triplets": [[t.head, t.relation, t.tail] for t in p.supporting_triplets]}
            for p in result.passages
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _bundle_bytes(bundle: Path) -> int:
    return sum(f.stat().st_size for f in bundle.iterdir() if f.is_file())


class Run:
    """State of one run; ``failures`` collects every failed check by name."""

    def __init__(self, spec: Spec, seed: int, seconds: float, traced: bool, root: Path):
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if traced else None
        self.work = root / ".perfbench_work"
        self.run_dir = self.work / f"{spec.name}-{os.getpid()}"
        self.bundle = self.run_dir / "bundle"
        self.expansion = ExpansionConfig(hops=spec.hops)
        self.hybrid = HybridConfig()
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"check failed: {what}", file=sys.stderr)

    @contextlib.contextmanager
    def traced(self):
        """Install the span wrappers for the duration of the block, if tracing."""
        if self.tracer is None:
            yield
            return
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def _span(self, name: str, fn, *args):
        return self.tracer.call(name, fn, *args) if self.tracer else fn(*args)

    def _encoder(self, inner):
        return EncoderProxy(inner, self.tracer) if self.tracer else inner

    def query(self, graph, encoder, question: str):
        return retrieve_result(graph, encoder, question, self.expansion, self.hybrid)

    # --- phases -------------------------------------------------------------------

    def index(self, inputs) -> tuple[object, float]:
        """``build_and_embed`` + ``save_index`` from the generated corpus.

        Returns the last fresh graph and the median build-and-save time.
        """
        encoder = inputs.make_encoder()
        built = []

        def build() -> float:
            built.clear()
            gc.collect()
            with self.traced():
                started = time.perf_counter()
                graph = self._span("ingestion.build", build_and_embed, inputs.records, self._encoder(encoder))
                self._span("ingestion.save", save_index, self.bundle, graph)
                elapsed = time.perf_counter() - started
            built.append(graph)
            return elapsed

        index_s = statistics.median(build() for _ in range(self.spec.reps))
        return built[0], index_s

    def setup(self, inputs, question: str) -> tuple[object, object, float]:
        """Encoder construction + ``load_index`` + one warm-up query.

        Returns the last loaded graph, its encoder and the median set-up time.
        """
        loaded = []

        def set_up() -> float:
            loaded.clear()
            gc.collect()
            started = time.perf_counter()
            encoder = inputs.make_encoder()
            with self.traced():
                graph = self._span("ingestion.load", load_index, self.bundle)
            if graph.embeddings.encoder_id != encoder.encoder_id:
                raise RuntimeError("bundle encoder id differs from the query encoder")
            self.query(graph, encoder, question)
            elapsed = time.perf_counter() - started
            loaded.append((graph, encoder))
            return elapsed

        setup_s = statistics.median(set_up() for _ in range(self.spec.reps))
        graph, encoder = loaded[0]
        return graph, encoder, setup_s

    def check_against_oracles(self, graph, encoder, results: list) -> None:
        """Re-derive expansion and path scores with the brute-force references."""
        cfg = self.expansion
        for result in results:
            q = result.query
            reference = oracles.brute_force_expansion(
                graph, encoder, q, cfg.hops, cfg.seed_size, cfg.beam_size
            )
            if [n.triplets for n in result.hypernodes] != reference:
                self.fail(f"expansion differs from brute_force_expansion for {q!r}")
                continue
            scores = oracles.brute_force_scores(graph, result.hypernodes)
            ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[: self.hybrid.quota]
            path = [p for p in result.passages if p.channel == PATH_CHANNEL]
            if [p.id for p in path] != [pid for pid, _ in ranked] or not all(
                math.isclose(p.score, s, rel_tol=SCORE_REL_TOL) for p, (_, s) in zip(path, ranked)
            ):
                self.fail(f"path passages differ from brute_force_scores for {q!r}")

    def timed(self, graph, encoder, questions: list[str]) -> dict:
        """Closed loop over the schedule for ``seconds`` (and DIGEST_QUERIES at least).

        Traced runs ask every step twice, traced and untraced in alternating
        order, so both latency sets cover the same questions.
        """
        lat: list[float] = []
        traced_lat: list[float] = []
        stable: dict[str, bytes] = {}
        digest = hashlib.sha256()
        retrieved: list[tuple[str, list[str]]] = []
        step = 0
        attempted = 0
        started = time.perf_counter()
        while step < DIGEST_QUERIES or time.perf_counter() - started < self.seconds:
            q = questions[step % len(questions)]
            modes = [False] if self.tracer is None else ([True, False] if step % 2 else [False, True])
            for mode in modes:
                attempted += 1
                try:
                    if mode:
                        self.tracer.begin_query(step)
                        with self.traced():
                            t0 = time.perf_counter()
                            result = self.tracer.call(ROOT, self.query, graph, self._encoder(encoder), q)
                            traced_lat.append(time.perf_counter() - t0)
                        self.tracer.begin_query(None)
                    else:
                        t0 = time.perf_counter()
                        result = self.query(graph, encoder, q)
                        lat.append(time.perf_counter() - t0)
                except Exception:  # a query that raises is a failed query; the loop goes on
                    traceback.print_exc()
                    self.fail(f"query raised: {q!r}")
                    continue
                out = _stable_bytes(result)
                if stable.setdefault(q, out) != out:
                    self.fail(f"asking again gave a different output for {q!r}")
                if mode is not True:
                    if step < DIGEST_QUERIES:
                        digest.update(out)
                    retrieved.append((q, [p.id for p in result.passages]))
                del result
            step += 1
        return {
            "latencies": lat,
            "traced": traced_lat,
            "steps": step,
            "attempted": attempted,
            "digest": digest.hexdigest(),
            "stable": stable,
            "retrieved": retrieved,
        }

    def cli_query(self, encoder_spec: str, question: str, expected: bytes) -> float:
        """In-process ``helprag query``; checks its JSON against ``expected``."""
        argv = ["query", "--index", str(self.bundle), "--question", question,
                "--encoder", encoder_spec, "--hops", str(self.spec.hops)]
        out = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        elapsed = time.perf_counter() - started
        doc = json.loads(out.getvalue()) if code == 0 else {}
        doc.pop("timings_ms", None)
        if code != 0 or json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() != expected:
            self.fail(f"helprag query output differs from retrieve_result for {question!r}")
        return elapsed


def _recall_hits(inputs, graph, retrieved: list[tuple[str, list[str]]]) -> list[int]:
    """Recall@5 per query against the workload's gold passages.

    ``chain-qa`` has gold evidence by construction. A random-graph question
    names the head and tail of a triplet; the passages holding a triplet
    from that head to that tail are its gold.
    """
    hits = []
    for q, ids in retrieved:
        top = ids[:RECALL_K]
        if inputs.gold:
            hits.append(int(any(g in top for g in inputs.gold[q])))
        else:
            asked = inputs.asks[q]
            hits.append(int(any(
                (t.head, t.tail) == asked for pid in top for t in graph.passages[pid].triplets
            )))
    return hits


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def run(spec: Spec, seed: int, seconds: float, traced: bool, root: Path) -> dict:
    """Run one workload; returns ``correct``, ``attempted``, ``failed`` and the
    metric values by name (the launcher adds the units BENCHMARK.json declares)."""
    r = Run(spec, seed, seconds, traced, root)
    r.run_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(r)
    finally:
        shutil.rmtree(r.run_dir, ignore_errors=True)


def _run(r: Run) -> dict:
    spec = r.spec
    phases: dict[str, float] = {}
    mark = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[name] = round(now - mark, 3)
        mark = now

    inputs = generate(spec, r.seed, r.run_dir)
    questions = inputs.questions
    sample = questions[: max(spec.oracle_sample, ROUNDTRIP_SAMPLE)]
    phase("generate")

    graph, index_s = r.index(inputs)
    inputs.records.clear()  # the corpus is in the graph and the bundle now
    bundle_bytes = _bundle_bytes(r.bundle)
    fresh_encoder = inputs.make_encoder()
    fresh_results = [r.query(graph, fresh_encoder, q) for q in sample]
    fresh = {res.query: _stable_bytes(res) for res in fresh_results}
    phase("index")
    r.check_against_oracles(graph, fresh_encoder, fresh_results[: spec.oracle_sample])
    del graph, fresh_encoder, fresh_results
    phase("oracle_check")

    graph, encoder, setup_s = r.setup(inputs, questions[0])
    phase("setup")
    for q in sample:
        if _stable_bytes(r.query(graph, encoder, q)) != fresh[q]:
            r.fail(f"loaded bundle retrieves differently from the fresh build for {q!r}")
    phase("roundtrip_check")

    t = r.timed(graph, encoder, questions)
    phase("timed")
    hits = _recall_hits(inputs, graph, t["retrieved"])
    if inputs.gold and not all(hits):
        for (q, _), hit in zip(t["retrieved"], hits):
            if not hit:
                r.fail(f"gold passage missing from the top {RECALL_K} for {q!r}")

    asked = [questions[i % len(questions)] for i in range(t["steps"])]
    traced = r.tracer is not None
    report = {
        "workload": spec.name,
        "seed": r.seed,
        "trace": int(traced),
        "queries": len(t["latencies"]),
        "steps": t["steps"],
        "distinct_questions": len(set(asked)),
        "repeat_share": 1.0 - len(set(asked)) / len(asked) if asked else 0.0,
        "output_digest": t["digest"],
        "failures": r.failures[:20],
        "machine": machine_facts(),
    }
    if not traced:
        lat = t["latencies"]
        metrics = {
            "query_p50_ms": statistics.median(lat) * 1e3,
            "query_p90_ms": _percentile(lat, 90) * 1e3,
            "qps": len(lat) / sum(lat),
            "setup_s": setup_s,
            "index_s": index_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "bundle_mb": bundle_bytes / 1e6,
            "recall_at_5": statistics.fmean(hits[:DIGEST_QUERIES]),
        }
    else:
        cli_ms = statistics.median(
            r.cli_query(inputs.encoder_spec, questions[i], t["stable"].get(questions[i], b"")) * 1e3
            for i in range(CLI_REPS)
        )
        per_query = query_layers(r.tracer.spans, spec.hops)
        metrics = {
            name: statistics.median(m[name] for m in per_query.values())
            for name in next(iter(per_query.values()))
            if name != "total_ms"
        }
        metrics.update(setup_layers(r.tracer.spans))
        metrics["ingestion.bundle_bytes"] = bundle_bytes
        metrics["cli.query_ms"] = cli_ms
        metrics["tracing_overhead_pct"] = (
            statistics.median(t["traced"]) / statistics.median(t["latencies"]) - 1.0
        ) * 100.0
        r.tracer.dump(r.work / f"trace-{spec.name}-seed{r.seed}.jsonl")
    phase("report")

    failed = len(r.failures)
    attempted = t["attempted"]
    if not traced:
        metrics["ok_frac"] = 1.0 - min(failed, attempted) / attempted
    report["phases_s"] = phases
    print(json.dumps(report, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: float(value) for name, value in metrics.items()},
    }

