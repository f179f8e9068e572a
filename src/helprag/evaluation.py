"""QA metrics, synthetic multi-hop fixtures, and the benchmark harness.

Metrics follow the standard QA convention: answers are lowercased, stripped
of punctuation and articles, and whitespace-collapsed before token-level F1
and exact match; Recall@K asks whether any gold passage id appears in the
top K retrieved. The synthetic generator builds chain-shaped corpora with an
oracle embedding table constructed so that the terminal gold passage is
invisible to dense retrieval but reachable through path expansion, and it
verifies that construction before handing the fixture out.
"""

from __future__ import annotations

import json
import math
import random
import re
import statistics
import string
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .encoding import Encoder, serialize_hypernode
from .errors import DuplicateId, InvalidParams, ParseError
from .expansion import ExpansionConfig
from .ingestion import CorpusRecord, jsonl_objects, load_index
from .kg import canonicalize_triplet
from .localization import HybridConfig, retrieve_result
from .services import ChatCompletionClient, ServiceConfig

BENCH_REPORT_SCHEMA = "helprag-bench-report/1"

ANSWER_PROMPT = """\
Answer the question using only the passages below. Reply with the answer
text alone, no explanation.

{passages}

Question: {question}
Answer:"""


@dataclass(frozen=True)
class QARecord:
    """One benchmark question with its gold answers and gold evidence ids."""

    id: str
    question: str
    answers: tuple[str, ...]
    gold_passage_ids: tuple[str, ...] = ()


def load_qa(path: str | Path) -> list[QARecord]:
    """Parse a JSONL QA set: {id, question, answers: [...], gold_passage_ids: [...]}.

    ``gold_passage_ids`` may be absent. Raises ParseError with the line
    number for a record of any other shape, and DuplicateId for a repeated id.
    """
    records = []
    seen: set[str] = set()
    for lineno, obj in jsonl_objects(Path(path).read_text(encoding="utf-8")):
        if not isinstance(obj, dict):
            raise ParseError(lineno, "expected a JSON object")
        qid, question, answers = obj.get("id"), obj.get("question"), obj.get("answers")
        gold = obj.get("gold_passage_ids", [])
        if not isinstance(qid, str) or not qid:
            raise ParseError(lineno, "'id' must be a non-empty string")
        if qid in seen:
            raise DuplicateId(f"duplicate QA id {qid!r} at line {lineno}")
        seen.add(qid)
        if not isinstance(question, str) or not question:
            raise ParseError(lineno, "'question' must be a non-empty string")
        if not _strings(answers) or not answers:
            raise ParseError(lineno, "'answers' must be a non-empty list of strings")
        if not _strings(gold):
            raise ParseError(lineno, "'gold_passage_ids' must be a list of strings")
        records.append(QARecord(qid, question, tuple(answers), tuple(gold)))
    return records


def _strings(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# --- metrics ------------------------------------------------------------------


def normalize_answer(s: str) -> str:
    """Lowercase, drop punctuation and articles, collapse whitespace."""
    s = s.lower()
    s = "".join(ch for ch in s if ch not in string.punctuation)
    s = re.sub(r"\b(a|an|the)\b", " ", s)
    return " ".join(s.split())


def token_f1(prediction: str, golds: Sequence[str]) -> float:
    """Best harmonic mean of token precision/recall over all gold answers."""
    if not golds:
        raise InvalidParams("token_f1 needs at least one gold answer")
    pred_tokens = normalize_answer(prediction).split()
    best = 0.0
    for gold in golds:
        gold_tokens = normalize_answer(gold).split()
        if not pred_tokens or not gold_tokens:
            best = max(best, float(pred_tokens == gold_tokens))
            continue
        overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
        if overlap == 0:
            continue
        precision = overlap / len(pred_tokens)
        recall = overlap / len(gold_tokens)
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


def exact_match(prediction: str, golds: Sequence[str]) -> int:
    """1 iff the normalized prediction equals any normalized gold answer."""
    normalized = normalize_answer(prediction)
    return int(any(normalized == normalize_answer(g) for g in golds))


def recall_at_k(retrieved_ids: Sequence[str], gold_ids: Sequence[str], k: int) -> int:
    """1 iff any gold passage id appears among the first k retrieved ids."""
    if k < 1:
        raise InvalidParams("k must be >= 1")
    head = set(retrieved_ids[:k])
    return int(any(g in head for g in gold_ids))


# --- synthetic multi-hop fixtures ----------------------------------------------

# cosine placement of each text family relative to its chain's query axis
_COS_SEED = 0.95          # first chain triplet: strongest seed
_COS_FULL_PREFIX = 0.99   # full chain: best expansion target
_COS_OFF_PATH = 0.30      # non-prefix windows and later singleton triplets
_COS_DISTRACTOR = 0.50    # distractor triplets: plausible but inferior seeds
_COS_CHAIN_TEXT = 0.30    # non-terminal chain passage text
_COS_DISTRACTOR_TEXT = 0.60  # distractor passage text: wins the dense channel
_DENSE_MISS_K = 5  # gold passages must rank below this in a pure dense scan


@dataclass
class SyntheticFixture:
    """Generated corpus, QA set, and the oracle embedding table behind them."""

    corpus: list[CorpusRecord]
    qa: list[QARecord]
    oracle_table: dict

    def write(self, out_dir: str | Path) -> None:
        """Write corpus.jsonl, qa.jsonl, and vectors.json; byte-stable per seed."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
            for rec in self.corpus:
                fh.write(
                    json.dumps(
                        {"id": rec.id, "text": rec.text, "triples": [list(t) for t in rec.triples]},
                        ensure_ascii=False, sort_keys=True,
                    )
                    + "\n"
                )
        with open(out / "qa.jsonl", "w", encoding="utf-8") as fh:
            for rec in self.qa:
                fh.write(
                    json.dumps(
                        {
                            "id": rec.id,
                            "question": rec.question,
                            "answers": list(rec.answers),
                            "gold_passage_ids": list(rec.gold_passage_ids),
                        },
                        ensure_ascii=False, sort_keys=True,
                    )
                    + "\n"
                )
        with open(out / "vectors.json", "w", encoding="utf-8") as fh:
            json.dump(self.oracle_table, fh, ensure_ascii=False, sort_keys=True)
            fh.write("\n")


def _axis_mix(axis_a: int, axis_b: int, cos_a: float) -> dict:
    """Sparse unit vector with the given cosine against axis_a, remainder on axis_b."""
    sin_a = math.sqrt(max(0.0, 1.0 - cos_a * cos_a))
    if cos_a == 0.0:
        return {"i": [axis_b], "v": [1.0]}
    if sin_a == 0.0:
        return {"i": [axis_a], "v": [1.0]}
    return {"i": [axis_a, axis_b], "v": [cos_a, sin_a]}


def gen_synthetic(chains: int, hops: int, distractors: int, seed: int) -> SyntheticFixture:
    """Build a chain corpus whose gold evidence only path expansion can reach.

    Each chain contributes passages p0..p(h-1), where pj holds the single
    triplet (e_j, links to, e_{j+1}); the question names only e_0 and its
    gold passage is the terminal one. The oracle table places the question
    next to the first triplet and the full serialized chain while keeping
    the terminal passage text orthogonal to the query; distractor passages
    sit in between, so the dense channel retrieves only distractors. The
    dense-miss construction (no gold passage in the dense top 5) is
    re-verified here for every question before the fixture is returned
    (whenever enough competing passages exist).
    """
    if chains < 1:
        raise InvalidParams("chains must be >= 1")
    if hops < 2:
        raise InvalidParams("hop length must be >= 2")
    if distractors < 0:
        raise InvalidParams("distractor count must be >= 0")

    rng = random.Random(seed)
    bases: list[str] = []
    used = set()
    while len(bases) < chains:
        base = "".join(rng.choice(string.ascii_lowercase) for _ in range(6))
        if base not in used:
            used.add(base)
            bases.append(base)

    dim = 3 * chains
    vectors: dict[str, dict] = {}
    corpus: list[CorpusRecord] = []
    qa: list[QARecord] = []

    for c, base in enumerate(bases):
        axis_q, axis_aux, axis_gold = 3 * c, 3 * c + 1, 3 * c + 2
        entities = [f"{base}{j}" for j in range(hops + 1)]
        chain_triplets = [
            canonicalize_triplet(entities[j], "links to", entities[j + 1]) for j in range(hops)
        ]

        question = f"where does the route that starts at {entities[0]} finally end?"
        vectors[question] = _axis_mix(axis_q, axis_aux, 1.0)

        # every contiguous window of the chain is reachable by expansion
        for i in range(hops):
            for j in range(i, hops):
                key = serialize_hypernode(chain_triplets[i : j + 1])
                if i == 0:
                    cos = _COS_SEED + (_COS_FULL_PREFIX - _COS_SEED) * (j / (hops - 1))
                else:
                    cos = _COS_OFF_PATH
                vectors[key] = _axis_mix(axis_q, axis_aux, cos)

        for j in range(hops):
            pid = f"{base}-p{j:02d}"
            text = f"{entities[j]} links to {entities[j + 1]}."
            t = chain_triplets[j]
            corpus.append(CorpusRecord(pid, text, ((t.head, t.relation, t.tail),)))
            if j == hops - 1:
                vectors[text] = _axis_mix(axis_gold, axis_aux, 1.0)
            else:
                vectors[text] = _axis_mix(axis_q, axis_aux, _COS_CHAIN_TEXT)

        for i in range(distractors):
            head, tail = f"{base} decoy {i}a", f"{base} decoy {i}b"
            triplet = canonicalize_triplet(head, "links to", tail)
            pid = f"{base}-d{i:02d}"
            text = f"{head} links to {tail}."
            corpus.append(CorpusRecord(pid, text, ((triplet.head, triplet.relation, triplet.tail),)))
            vectors[serialize_hypernode([triplet])] = _axis_mix(axis_q, axis_aux, _COS_DISTRACTOR)
            vectors[text] = _axis_mix(axis_q, axis_aux, _COS_DISTRACTOR_TEXT)

        qa.append(
            QARecord(
                id=f"{base}-q",
                question=question,
                answers=(entities[hops],),
                gold_passage_ids=(f"{base}-p{hops - 1:02d}",),
            )
        )

    fixture = SyntheticFixture(
        corpus=corpus, qa=qa, oracle_table={"dim": dim, "vectors": vectors}
    )
    _verify_dense_miss(fixture, hops, distractors)
    return fixture


def _verify_dense_miss(fixture: SyntheticFixture, hops: int, distractors: int) -> None:
    """Assert every gold passage ranks below the top _DENSE_MISS_K in a pure dense scan."""
    if hops - 1 + distractors < _DENSE_MISS_K:
        return  # too few competing passages for the guarantee to be expressible
    dim = fixture.oracle_table["dim"]

    def dense_vec(text: str) -> np.ndarray:
        entry = fixture.oracle_table["vectors"][text]
        row = np.zeros(dim)
        row[entry["i"]] = entry["v"]
        return row / np.linalg.norm(row)

    ids = [rec.id for rec in fixture.corpus]
    matrix = np.stack([dense_vec(rec.text) for rec in fixture.corpus])
    for qa in fixture.qa:
        scores = matrix @ dense_vec(qa.question)
        order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
        top = {ids[i] for i in order[:_DENSE_MISS_K]}
        if any(g in top for g in qa.gold_passage_ids):
            raise InvalidParams(
                f"construction violated: gold passage of {qa.id} is dense-reachable in top {_DENSE_MISS_K}"
            )


# --- benchmark harness ----------------------------------------------------------


@dataclass
class BenchReport:
    """Per-query rows plus aggregates; aggregates are recomputable from rows."""

    config: dict
    rows: list[dict]
    aggregates: dict
    schema: str = BENCH_REPORT_SCHEMA

    def to_dict(self) -> dict:
        return asdict(self)

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile by the inclusive method; the value itself for one, 0.0 for none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_benchmark(
    bundle_dir: str | Path,
    qa_records: Sequence[QARecord],
    expansion: ExpansionConfig,
    hybrid: HybridConfig,
    encoder: Encoder,
    generation: ServiceConfig | None = None,
) -> BenchReport:
    """Evaluate retrieval over a QA set against a saved index bundle.

    Wall-clock latency covers retrieval only (expansion, scoring, dense scan,
    merge); index loading and answer generation are excluded. F1/EM columns
    appear only when a generation service is configured.
    """
    graph = load_index(bundle_dir)
    generator = ChatCompletionClient(generation) if generation else None

    rows = []
    for qa in sorted(qa_records, key=lambda r: r.id):
        started = time.perf_counter()
        result = retrieve_result(graph, encoder, qa.question, expansion, hybrid)
        latency_s = time.perf_counter() - started

        retrieved_ids = [p.id for p in result.passages]
        row = {
            "query_id": qa.id,
            "latency_s": latency_s,
            "retrieved_ids": retrieved_ids,
            "recall_hit": recall_at_k(retrieved_ids, qa.gold_passage_ids, hybrid.context_size),
        }
        if generator is not None:
            passages_text = "\n\n".join(
                f"[{p.id}] {graph.passages[p.id].text}" for p in result.passages
            )
            answer = generator.complete(
                [
                    {
                        "role": "user",
                        "content": ANSWER_PROMPT.format(passages=passages_text, question=qa.question),
                    }
                ]
            )
            row["answer"] = answer
            row["f1"] = token_f1(answer, qa.answers)
            row["em"] = exact_match(answer, qa.answers)
        rows.append(row)

    latencies = [r["latency_s"] for r in rows]
    aggregates = {
        "queries": len(rows),
        "mean_latency_s": statistics.fmean(latencies) if rows else 0.0,
        "median_latency_s": statistics.median(latencies) if rows else 0.0,
        "p95_latency_s": _percentile(latencies, 95),
        "p99_latency_s": _percentile(latencies, 99),
        "recall_at_k": statistics.fmean(r["recall_hit"] for r in rows) if rows else 0.0,
        "k": hybrid.context_size,
    }
    if generator is not None and rows:
        aggregates["mean_f1"] = statistics.fmean(r["f1"] for r in rows)
        aggregates["em_rate"] = statistics.fmean(r["em"] for r in rows)

    config = {
        "bundle": str(bundle_dir),
        "encoder_id": encoder.encoder_id,
        "expansion": asdict(expansion),
        "hybrid": asdict(hybrid),
        "generation": generation is not None,
    }
    return BenchReport(config=config, rows=rows, aggregates=aggregates)
