"""Metrics, synthetic fixture generation, and the benchmark harness."""

from __future__ import annotations

import json
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helprag import services
from helprag.encoding import OracleEncoder
from helprag.errors import DuplicateId, EncoderMismatch, InvalidParams, ParseError
from helprag.evaluation import (
    BenchReport,
    QARecord,
    exact_match,
    gen_synthetic,
    load_qa,
    normalize_answer,
    recall_at_k,
    run_benchmark,
    token_f1,
)
from helprag.expansion import ExpansionConfig
from helprag.ingestion import build_and_embed, save_index
from helprag.localization import HybridConfig, retrieve_result
from helprag.services import ServiceConfig
from stub_server import StubService


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    monkeypatch.setattr(services, "BACKOFF_BASE_S", 0.0)


class TestNormalize:
    def test_strips_article_and_punctuation(self):
        assert normalize_answer("The Prince!") == "prince"

    def test_lowercases_names(self):
        assert normalize_answer("Prince Archil of Imereti") == "prince archil of imereti"

    def test_empty_stays_empty(self):
        assert normalize_answer("") == ""

    def test_collapses_whitespace(self):
        assert normalize_answer("a  b\t c") == "b c"


class TestTokenF1:
    def test_exact_prediction_scores_one(self):
        assert token_f1("Prince Archil of Imereti", ["Prince Archil of Imereti"]) == 1.0

    def test_partial_overlap_two_thirds(self):
        # 2 shared tokens; precision 2/2, recall 2/4
        assert token_f1("prince archil", ["prince archil of imereti"]) == pytest.approx(
            2 / 3, abs=1e-9
        )

    def test_disjoint_tokens_zero(self):
        assert token_f1("something else", ["prince archil"]) == 0.0

    def test_max_over_golds(self):
        assert token_f1("red fox", ["blue whale", "red fox"]) == 1.0

    def test_empty_both_sides(self):
        assert token_f1("", [""]) == 1.0
        assert token_f1("", ["word"]) == 0.0

    def test_needs_gold(self):
        with pytest.raises(InvalidParams):
            token_f1("x", [])


class TestEMAndRecall:
    def test_em_after_normalization(self):
        assert exact_match("The Prince!", ["prince"]) == 1
        assert exact_match("a prince", ["king"]) == 0

    def test_recall_boundary(self):
        retrieved = [f"p{i}" for i in range(1, 11)]
        assert recall_at_k(retrieved, ["p5"], 5) == 1
        assert recall_at_k(retrieved, ["p6"], 5) == 0

    def test_recall_empty_retrieved(self):
        assert recall_at_k([], ["p1"], 5) == 0

    def test_recall_monotone_in_k(self):
        retrieved = [f"p{i}" for i in range(10)]
        values = [recall_at_k(retrieved, ["p7"], k) for k in range(1, 11)]
        assert values == sorted(values)

    @given(st.text(max_size=30), st.lists(st.text(min_size=1, max_size=30), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_f1_at_least_em(self, prediction, golds):
        assert token_f1(prediction, golds) >= exact_match(prediction, golds) - 1e-12


class TestGenSynthetic:
    def test_minimal_fixture_shape(self):
        fx = gen_synthetic(chains=1, hops=2, distractors=0, seed=11)
        assert len(fx.corpus) == 2
        assert sum(len(r.triples) for r in fx.corpus) == 2
        assert len(fx.qa) == 1
        qa = fx.qa[0]
        assert qa.gold_passage_ids == (fx.corpus[1].id,)  # terminal passage
        # question mentions only the first entity's surface form
        first_head = fx.corpus[0].triples[0][0]
        later_entities = {f for r in fx.corpus[1:] for t in r.triples for f in (t[0], t[2])}
        assert first_head in qa.question
        assert not any(e in qa.question for e in later_entities)

    def test_same_seed_byte_identical(self, tmp_path):
        gen_synthetic(3, 2, 4, seed=9).write(tmp_path / "a")
        gen_synthetic(3, 2, 4, seed=9).write(tmp_path / "b")
        for name in ("corpus.jsonl", "qa.jsonl", "vectors.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seed_differs(self):
        a = gen_synthetic(2, 2, 2, seed=1)
        b = gen_synthetic(2, 2, 2, seed=2)
        assert [r.id for r in a.corpus] != [r.id for r in b.corpus]

    def test_hop_length_below_two_rejected(self):
        with pytest.raises(InvalidParams):
            gen_synthetic(1, 1, 0, seed=0)

    def test_dense_only_misses_gold(self):
        # the construction guarantee, end to end: M=0 never sees the terminal passage
        fx = gen_synthetic(chains=4, hops=2, distractors=8, seed=5)
        encoder = OracleEncoder.from_table(fx.oracle_table)
        graph = build_and_embed(fx.corpus, encoder)
        for qa in fx.qa:
            dense_only = retrieve_result(
                graph, encoder, qa.question,
                ExpansionConfig(), HybridConfig(quota=0, context_size=5),
            ).passages
            assert recall_at_k([p.id for p in dense_only], qa.gold_passage_ids, 5) == 0
            with_paths = retrieve_result(
                graph, encoder, qa.question,
                ExpansionConfig(), HybridConfig(quota=4, context_size=5),
            ).passages
            assert recall_at_k([p.id for p in with_paths], qa.gold_passage_ids, 5) == 1


class TestLoadQA:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text(
            json.dumps(
                {"id": "q1", "question": "who?", "answers": ["x"], "gold_passage_ids": ["p1"]}
            )
            + "\n"
        )
        assert load_qa(path) == [QARecord("q1", "who?", ("x",), ("p1",))]

    def test_crlf_and_blank_lines_parse_to_the_same_records(self, tmp_path):
        lines = [
            json.dumps({"id": "q1", "question": "who?", "answers": ["x"], "gold_passage_ids": ["p1"]}),
            json.dumps({"id": "q2", "question": "where?", "answers": ["y", "z"]}),
        ]
        plain, crlf = tmp_path / "plain.jsonl", tmp_path / "crlf.jsonl"
        plain.write_bytes(("\n".join(lines) + "\n").encode())
        crlf.write_bytes((lines[0] + "\r\n\r\n" + lines[1] + "\r\n").encode())
        assert load_qa(crlf) == load_qa(plain) == [
            QARecord("q1", "who?", ("x",), ("p1",)),
            QARecord("q2", "where?", ("y", "z")),
        ]

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text('{"id":"q1","question":"who?","answers":["x"]}\n\n{not json\n')
        with pytest.raises(ParseError) as err:
            load_qa(path)
        assert err.value.line == 3

    def test_missing_answers_rejected(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text('{"id":"q1","question":"who?","answers":[]}\n')
        with pytest.raises(Exception):
            load_qa(path)

    @pytest.mark.parametrize(
        "field, value",
        [("id", None), ("question", 5), ("answers", "abc"), ("gold_passage_ids", "p1")],
    )
    def test_field_of_wrong_type_reports_line_number(self, tmp_path, field, value):
        good = {"id": "q1", "question": "who?", "answers": ["x"], "gold_passage_ids": ["p1"]}
        path = tmp_path / "qa.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "q2", field: value}) + "\n")
        with pytest.raises(ParseError, match=field) as err:
            load_qa(path)
        assert err.value.line == 2

    def test_duplicate_id_rejected(self, tmp_path):
        record = {"id": "q1", "question": "who?", "answers": ["x"]}
        path = tmp_path / "qa.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DuplicateId, match="line 2"):
            load_qa(path)


@pytest.fixture()
def synthetic_bundle(tmp_path):
    fx = gen_synthetic(chains=3, hops=2, distractors=6, seed=21)
    encoder = OracleEncoder.from_table(fx.oracle_table)
    graph = build_and_embed(fx.corpus, encoder)
    bundle = tmp_path / "bundle"
    save_index(bundle, graph)
    return bundle, fx, encoder


class TestRunBenchmark:
    def test_report_shape_without_generation(self, synthetic_bundle):
        bundle, fx, encoder = synthetic_bundle
        report = run_benchmark(bundle, fx.qa, ExpansionConfig(), HybridConfig(), encoder)
        assert report.schema == "helprag-bench-report/1"
        assert len(report.rows) == len(fx.qa)
        assert report.aggregates["recall_at_k"] == 1.0
        assert report.aggregates["k"] == 5
        assert "mean_f1" not in report.aggregates
        assert all("f1" not in row for row in report.rows)
        assert [r["query_id"] for r in report.rows] == sorted(r["query_id"] for r in report.rows)

    def test_aggregates_recomputable_from_rows(self, synthetic_bundle):
        bundle, fx, encoder = synthetic_bundle
        report = run_benchmark(bundle, fx.qa, ExpansionConfig(), HybridConfig(), encoder)
        recall = sum(r["recall_hit"] for r in report.rows) / len(report.rows)
        mean_latency = sum(r["latency_s"] for r in report.rows) / len(report.rows)
        assert report.aggregates["recall_at_k"] == pytest.approx(recall, abs=1e-12)
        assert report.aggregates["mean_latency_s"] == pytest.approx(mean_latency, rel=1e-9)
        percentiles = statistics.quantiles(
            [r["latency_s"] for r in report.rows], n=100, method="inclusive"
        )
        assert report.aggregates["p95_latency_s"] == percentiles[94]
        assert report.aggregates["p99_latency_s"] == percentiles[98]

    def test_percentiles_of_one_row_are_its_latency(self, synthetic_bundle):
        bundle, fx, encoder = synthetic_bundle
        report = run_benchmark(bundle, fx.qa[:1], ExpansionConfig(), HybridConfig(), encoder)
        latency = report.rows[0]["latency_s"]
        assert report.aggregates["p95_latency_s"] == report.aggregates["p99_latency_s"] == latency

    def test_generation_adds_f1_and_em(self, synthetic_bundle):
        bundle, fx, encoder = synthetic_bundle
        answers = {qa.question: qa.answers[0] for qa in fx.qa}

        def answering(body, headers):
            prompt = body["messages"][0]["content"]
            reply = next((a for q, a in answers.items() if q in prompt), "no idea")
            return 200, {"choices": [{"message": {"content": reply}}]}

        with StubService(answering) as stub:
            generation = ServiceConfig(url=stub.url, model="answerer", timeout_s=5)
            report = run_benchmark(
                bundle, fx.qa, ExpansionConfig(), HybridConfig(), encoder, generation
            )
        assert report.aggregates["mean_f1"] == 1.0
        assert report.aggregates["em_rate"] == 1.0
        # the top passages are in the prompt
        assert "[" in stub.requests[0]["body"]["messages"][0]["content"]

    def test_wrong_encoder_rejected(self, synthetic_bundle, hash_encoder):
        bundle, fx, _ = synthetic_bundle
        with pytest.raises(EncoderMismatch):
            run_benchmark(bundle, fx.qa, ExpansionConfig(), HybridConfig(), hash_encoder)

    def test_report_write_round_trip(self, synthetic_bundle, tmp_path):
        bundle, fx, encoder = synthetic_bundle
        report = run_benchmark(bundle, fx.qa, ExpansionConfig(), HybridConfig(), encoder)
        out = tmp_path / "report.json"
        report.write(out)
        loaded = json.loads(out.read_text())
        assert loaded["schema"] == report.schema
        assert loaded["aggregates"]["recall_at_k"] == 1.0
        assert BenchReport(**{k: loaded[k] for k in ("config", "rows", "aggregates")})
