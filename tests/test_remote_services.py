"""Remote embeddings client: wire shape, batching, retries, failure modes."""

from __future__ import annotations

import time

import numpy as np
import pytest

from helprag import services
from helprag.cli import main
from helprag.encoding import RemoteEncoder, TextBatch, encode
from helprag.errors import EncoderFailure, EncoderMismatch, InvalidParams, ServiceReplyError
from helprag.evaluation import gen_synthetic
from helprag.ingestion import load_index
from helprag.kg import Triplet
from helprag.localization import retrieve_result
from helprag.services import ChatCompletionClient, ServiceConfig, ServiceUnreachable, post_json
from stub_server import StubService


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    monkeypatch.setattr(services, "BACKOFF_BASE_S", 0.0)


def config_for(stub: StubService, model="embedder-1") -> ServiceConfig:
    return ServiceConfig(url=stub.url, model=model, api_key="sk-embed", timeout_s=5)


def embedding_for(text: str, dim: int = 8) -> list[float]:
    # deterministic per-text fake embedding
    vec = [0.0] * dim
    for i, ch in enumerate(text.encode("utf-8")):
        vec[(i + ch) % dim] += (ch % 13) + 1
    return vec


def embeddings_handler(body, headers):
    data = [
        {"index": i, "embedding": embedding_for(text)}
        for i, text in enumerate(body["input"])
    ]
    data.reverse()  # clients must sort by index, not arrival order
    return 200, {"data": data}


def mixed_widths_handler(body, headers):
    """Replies at dim 8 to a full chunk of 64 texts and at dim 6 to a shorter one."""
    dim = 8 if len(body["input"]) == 64 else 6
    return 200, {"data": [{"index": i, "embedding": embedding_for(t, dim)} for i, t in enumerate(body["input"])]}


class TestRemoteEncoder:
    def test_happy_path_and_wire_shape(self):
        with StubService(embeddings_handler) as stub:
            enc = RemoteEncoder(config_for(stub))
            rows = encode(enc, ["first text", "second text"])
        assert rows.shape == (2, 8)
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-6)
        request = stub.requests[0]
        assert request["body"] == {"model": "embedder-1", "input": ["first text", "second text"]}
        assert request["headers"]["Authorization"] == "Bearer sk-embed"
        assert enc.dim == 8

    def test_order_preserved_despite_reply_order(self):
        with StubService(embeddings_handler) as stub:
            enc = RemoteEncoder(config_for(stub))
            rows = encode(enc, ["aaa", "bbb"])
            single_a = encode(enc, ["aaa"])[0]
        assert np.array_equal(rows[0], single_a)

    def test_batching_splits_requests(self):
        with StubService(embeddings_handler) as stub:
            enc = RemoteEncoder(config_for(stub))
            texts = [f"text {i}" for i in range(130)]
            rows = encode(enc, texts)
            # per-text vectors are independent of how the batch was split
            alone = encode(RemoteEncoder(config_for(stub)), ["text 7", "text 129"])
        assert len(stub.requests) == 4  # 64 + 64 + 2, plus the separate request
        assert sorted(len(r["body"]["input"]) for r in stub.requests) == [2, 2, 64, 64]
        assert rows.shape == (130, 8)
        assert np.array_equal(rows[[7, 129]], alone)

    def test_text_batch_sent_as_its_texts(self):
        texts = [f"text {i} é" for i in range(130)]
        with StubService(embeddings_handler) as stub:
            rows = encode(RemoteEncoder(config_for(stub)), TextBatch.of(texts))
            sent = [r["body"]["input"] for r in stub.requests]
            from_list = encode(RemoteEncoder(config_for(stub)), texts)
        assert sorted(len(chunk) for chunk in sent) == [2, 64, 64]
        assert sorted(text for chunk in sent for text in chunk) == sorted(texts)
        assert rows.tobytes() == from_list.tobytes()

    def test_dropped_chunk_retried_rows_unchanged(self):
        dropped = []

        def drops_second_chunk_once(body, headers):
            if body["input"][0] == "text 64" and not dropped:
                dropped.append(body["input"])
                return None
            return embeddings_handler(body, headers)

        texts = [f"text {i}" for i in range(130)]
        with StubService(embeddings_handler) as stub:
            clean = encode(RemoteEncoder(config_for(stub)), texts)
        with StubService(drops_second_chunk_once) as stub:
            rows = encode(RemoteEncoder(config_for(stub)), texts)
        assert len(dropped) == 1 and len(dropped[0]) == 64
        assert len(stub.requests) == 4  # three chunks, one sent twice
        assert np.array_equal(rows, clean)

    def test_empty_corpus_exit_2_without_a_request(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("")
        with StubService(embeddings_handler) as stub:
            monkeypatch.setenv("HELP_EMBED_URL", stub.url)
            code = main(
                ["index", "--corpus", str(corpus), "--out", str(tmp_path / "idx"), "--encoder", "remote"]
            )
        assert code == 2
        assert "empty corpus" in capsys.readouterr().err
        assert stub.requests == []

    def test_retry_on_transient_500_then_success(self):
        state = {"calls": 0}

        def flaky(body, headers):
            state["calls"] += 1
            if state["calls"] == 1:
                return 500, {"error": "warming up"}
            return embeddings_handler(body, headers)

        with StubService(flaky) as stub:
            rows = encode(RemoteEncoder(config_for(stub)), ["needs a retry"])
        assert rows.shape == (1, 8)
        assert state["calls"] == 2

    def test_malformed_reply_raises_encoder_failure(self):
        with StubService(lambda b, h: (200, {"unexpected": "shape"})) as stub:
            with pytest.raises(EncoderFailure):
                encode(RemoteEncoder(config_for(stub)), ["text"])

    def test_unreachable_raises_encoder_failure(self):
        config = ServiceConfig(url="http://127.0.0.1:9/v1", model="m", timeout_s=0.2)
        with pytest.raises(EncoderFailure):
            encode(RemoteEncoder(config), ["text"])

    def test_dimension_change_between_calls_rejected(self):
        state = {"dim": 8}

        def shapeshifter(body, headers):
            reply = {
                "data": [
                    {"index": i, "embedding": embedding_for(t, state["dim"])}
                    for i, t in enumerate(body["input"])
                ]
            }
            state["dim"] = 6
            return 200, reply

        with StubService(shapeshifter) as stub:
            enc = RemoteEncoder(config_for(stub))
            encode(enc, ["first"])
            with pytest.raises(EncoderFailure):
                encode(enc, ["second"])

    def test_chunks_of_different_widths_rejected(self):
        with StubService(mixed_widths_handler) as stub:
            enc = RemoteEncoder(config_for(stub))
            with pytest.raises(EncoderFailure, match="dim 6, expected 8"):
                encode(enc, [f"text {i}" for i in range(70)])
        assert len(stub.requests) == 2
        with pytest.raises(EncoderFailure, match="unknown"):
            enc.dim  # a failed batch teaches no dimension

    def test_query_dim_differs_from_bundle(self, tmp_path, monkeypatch, capsys):
        # the encoder id names only the model, so the dim drift shows once the query is encoded
        state = {"dim": 8}

        def drifting(body, headers):
            data = [
                {"index": i, "embedding": embedding_for(t, state["dim"])}
                for i, t in enumerate(body["input"])
            ]
            return 200, {"data": data}

        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"id":"p1","text":"alpha feeds beta.","triples":[["alpha","feeds","beta"]]}\n'
            '{"id":"p2","text":"beta feeds gamma.","triples":[["beta","feeds","gamma"]]}\n'
        )
        bundle = tmp_path / "idx"
        with StubService(drifting) as stub:
            monkeypatch.setenv("HELP_EMBED_URL", stub.url)
            monkeypatch.setenv("HELP_EMBED_MODEL", "embedder-1")
            assert main(
                ["index", "--corpus", str(corpus), "--out", str(bundle), "--encoder", "remote"]
            ) == 0
            state["dim"] = 6
            with pytest.raises(EncoderMismatch, match="dim 8.*dim 6"):
                retrieve_result(
                    load_index(bundle), RemoteEncoder(config_for(stub)), "what does alpha feed?"
                )
            code = main(
                ["query", "--index", str(bundle), "--question", "what does alpha feed?",
                 "--encoder", "remote"]
            )
        assert code == 2
        assert "dim 8" in capsys.readouterr().err


class TestPostJson:
    @pytest.mark.parametrize(
        "url", ["example/v1", "localhost:8080/v1", "file:///dev/null", "ftp://127.0.0.1:9/v1"]
    )
    def test_non_http_url_rejected(self, url):
        with pytest.raises(InvalidParams, match="http"):
            ServiceConfig(url=url, model="m")

    def test_gives_up_after_retries(self):
        with StubService(lambda b, h: (503, {"busy": True})) as stub:
            with pytest.raises(ServiceUnreachable):
                post_json(ServiceConfig(url=stub.url, model="m", timeout_s=2), {"x": 1})
        assert len(stub.requests) == 3

    def test_backs_off_between_attempts_not_after_the_last(self, monkeypatch):
        monkeypatch.setattr(services, "BACKOFF_BASE_S", 0.5)
        slept: list[float] = []
        monkeypatch.setattr(services.time, "sleep", slept.append)
        with StubService(lambda b, h: (503, {"busy": True})) as stub:
            with pytest.raises(ServiceUnreachable):
                post_json(ServiceConfig(url=stub.url, model="m", timeout_s=2), {"x": 1})
        assert len(stub.requests) == 3
        assert slept == [0.5, 1.0]

    def test_rate_limit_retried_after_retry_after(self, monkeypatch):
        monkeypatch.setattr(services, "BACKOFF_BASE_S", 0.5)
        slept: list[float] = []
        monkeypatch.setattr(services.time, "sleep", slept.append)
        state = {"calls": 0}

        def limited_once(body, headers):
            state["calls"] += 1
            if state["calls"] == 1:
                return 429, {"error": "slow down"}, {"Retry-After": "2"}
            return 200, {"ok": True}

        with StubService(limited_once) as stub:
            reply = post_json(ServiceConfig(url=stub.url, model="m", timeout_s=5), {"x": 1})
        assert reply == {"ok": True}
        assert len(stub.requests) == 2
        assert slept == [2.0]  # Retry-After exceeds the 0.5 s backoff

    def test_non_ascii_digit_retry_after_is_ignored(self, monkeypatch):
        # "²".isdigit() is true, yet float("²") raises ValueError
        monkeypatch.setattr(services, "BACKOFF_BASE_S", 0.5)
        slept: list[float] = []
        monkeypatch.setattr(services.time, "sleep", slept.append)
        replies = iter([(429, {"error": "slow down"}, {"Retry-After": "²"}), (200, {"ok": True})])
        with StubService(lambda b, h: next(replies)) as stub:
            reply = post_json(ServiceConfig(url=stub.url, model="m", timeout_s=5), {"x": 1})
        assert reply == {"ok": True}
        assert len(stub.requests) == 2
        assert slept == [0.5]  # the backoff, as with no Retry-After

    def test_retry_after_capped_at_timeout(self, monkeypatch):
        monkeypatch.setattr(services, "BACKOFF_BASE_S", 0.5)
        slept: list[float] = []
        monkeypatch.setattr(services.time, "sleep", slept.append)
        with StubService(lambda b, h: (429, {}, {"Retry-After": "3600"})) as stub:
            with pytest.raises(ServiceUnreachable):
                post_json(ServiceConfig(url=stub.url, model="m", timeout_s=2), {"x": 1})
        assert len(stub.requests) == services.MAX_RETRIES
        assert slept == [2.0, 2.0]

    def test_rate_limit_on_every_attempt_gives_up(self):
        with StubService(lambda b, h: (429, {"error": "slow down"})) as stub:
            with pytest.raises(ServiceUnreachable):
                post_json(ServiceConfig(url=stub.url, model="m", timeout_s=2), {"x": 1})
        assert len(stub.requests) == services.MAX_RETRIES

    def test_dropped_connection_on_every_attempt_gives_up(self):
        with StubService(lambda b, h: None) as stub:
            with pytest.raises(ServiceUnreachable):
                post_json(ServiceConfig(url=stub.url, model="m", timeout_s=2), {"x": 1})
        assert len(stub.requests) == services.MAX_RETRIES

    def test_single_dropped_connection_retried(self):
        state = {"calls": 0}

        def drops_once(body, headers):
            state["calls"] += 1
            return None if state["calls"] == 1 else (200, {"ok": True})

        with StubService(drops_once) as stub:
            reply = post_json(ServiceConfig(url=stub.url, model="m", timeout_s=2), {"x": 1})
        assert reply == {"ok": True}
        assert len(stub.requests) == 2

    def test_truncated_reply_retried_then_gives_up(self):
        # the body ends, and the connection closes, before the declared length
        with StubService(lambda b, h: (200, b'{"ok"', {"Content-Length": "100"})) as stub:
            with pytest.raises(ServiceUnreachable, match="IncompleteRead"):
                post_json(ServiceConfig(url=stub.url, model="m", timeout_s=2), {"x": 1})
        assert len(stub.requests) == services.MAX_RETRIES

    def test_read_timeout_retried_then_gives_up(self):
        # the stub replies (by dropping) only after the client has stopped waiting
        with StubService(lambda b, h: time.sleep(0.3)) as stub:
            with pytest.raises(ServiceUnreachable, match="timed out"):
                post_json(ServiceConfig(url=stub.url, model="m", timeout_s=0.1), {"x": 1})
        assert len(stub.requests) == services.MAX_RETRIES

    def test_client_error_not_retried(self):
        with StubService(lambda b, h: (400, {"bad": "request"})) as stub:
            with pytest.raises(ServiceReplyError):
                post_json(ServiceConfig(url=stub.url, model="m", timeout_s=2), {"x": 1})
        assert len(stub.requests) == 1

    def test_non_json_body_rejected(self):
        with StubService(lambda b, h: (200, b"not json at all")) as stub:
            with pytest.raises(ServiceReplyError):
                post_json(ServiceConfig(url=stub.url, model="m", timeout_s=2), {"x": 1})


class TestChatClient:
    def test_extracts_first_choice_content(self):
        reply = {"choices": [{"message": {"content": "the answer"}}]}
        with StubService(lambda b, h: (200, reply)) as stub:
            client = ChatCompletionClient(ServiceConfig(url=stub.url, model="chat-1", timeout_s=5))
            assert client.complete([{"role": "user", "content": "hi"}]) == "the answer"
        assert stub.requests[0]["body"]["model"] == "chat-1"
        assert stub.requests[0]["body"]["messages"] == [{"role": "user", "content": "hi"}]

    def test_malformed_chat_reply(self):
        with StubService(lambda b, h: (200, {"choices": []})) as stub:
            client = ChatCompletionClient(ServiceConfig(url=stub.url, model="m", timeout_s=5))
            with pytest.raises(ServiceReplyError):
                client.complete([{"role": "user", "content": "hi"}])

    def test_reply_without_text_content(self):
        reply = {"choices": [{"message": {"content": None}}]}
        with StubService(lambda b, h: (200, reply)) as stub:
            client = ChatCompletionClient(ServiceConfig(url=stub.url, model="m", timeout_s=5))
            with pytest.raises(ServiceReplyError):
                client.complete([{"role": "user", "content": "hi"}])


# replies neither service can use: malformed for both wire shapes, not JSON, a client error
SERVICE_FAULTS = {
    "malformed": lambda b, h: (200, {"choices": []}),
    "non-json": lambda b, h: (200, b"not json at all"),
    "client-error": lambda b, h: (400, {"bad": "request"}),
}


def rows_reply(edit):
    """An embeddings handler whose reply ``edit`` corrupts, given its data items in index order."""

    def handler(body, headers):
        data = [{"index": i, "embedding": embedding_for(t)} for i, t in enumerate(body["input"])]
        edit(data)
        return 200, {"data": data}

    return handler


# the faults above, plus embeddings replies of the wrong shape that parse as JSON
EMBEDDINGS_FAULTS = {
    **SERVICE_FAULTS,
    "ragged": rows_reply(lambda data: data[1]["embedding"].append(1.0)),
    "non-numeric": rows_reply(lambda data: data[2]["embedding"].__setitem__(0, "x")),
    "repeated-index": rows_reply(lambda data: data[1].__setitem__("index", 0)),
    "zero-row": rows_reply(lambda data: data[1].__setitem__("embedding", [0.0] * 8)),
}


class TestServiceFaultExitCodes:
    @pytest.mark.parametrize("fault", sorted(EMBEDDINGS_FAULTS))
    def test_embeddings_fault_exit_3(self, fault, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "".join(
                f'{{"id":"p{i}","text":"passage {i}.","triples":[["e{i}","r","e{i + 1}"]]}}\n'
                for i in range(3)
            )
        )
        with StubService(EMBEDDINGS_FAULTS[fault]) as stub:
            monkeypatch.setenv("HELP_EMBED_URL", stub.url)
            code = main(
                ["index", "--corpus", str(corpus), "--out", str(tmp_path / "idx"), "--encoder", "remote"]
            )
        assert code == 3
        assert len(stub.requests) == 1
        assert stub.url in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()

    def test_chunks_of_different_widths_exit_3(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "".join(
                f'{{"id":"p{i:02d}","text":"passage {i}.","triples":[["e{i}","r","e{i + 1}"]]}}\n'
                for i in range(70)
            )
        )

        with StubService(mixed_widths_handler) as stub:
            monkeypatch.setenv("HELP_EMBED_URL", stub.url)
            code = main(
                ["index", "--corpus", str(corpus), "--out", str(tmp_path / "idx"), "--encoder", "remote"]
            )
        assert code == 3
        assert "dim 6, expected 8" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()

    @pytest.mark.parametrize("value", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_finite_embedding_exit_3(self, value, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id":"p1","text":"alpha feeds beta.","triples":[["alpha","feeds","beta"]]}\n')
        reply = b'{"data": [{"index": 0, "embedding": [1.0, ' + value + b', 0.5]}]}'
        with StubService(lambda b, h: (200, reply)) as stub:
            monkeypatch.setenv("HELP_EMBED_URL", stub.url)
            code = main(
                ["index", "--corpus", str(corpus), "--out", str(tmp_path / "idx"), "--encoder", "remote"]
            )
        assert code == 3
        assert len(stub.requests) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()

    @pytest.mark.parametrize("fault", sorted(SERVICE_FAULTS))
    def test_chat_fault_exit_3(self, fault, tmp_path, monkeypatch, capsys):
        fixture_dir, bundle = tmp_path / "fx", tmp_path / "idx"
        gen_synthetic(chains=1, hops=2, distractors=0, seed=3).write(fixture_dir)
        encoder = f"oracle:{fixture_dir / 'vectors.json'}"
        assert main(
            ["index", "--corpus", str(fixture_dir / "corpus.jsonl"), "--out", str(bundle),
             "--encoder", encoder]
        ) == 0
        with StubService(SERVICE_FAULTS[fault]) as stub:
            monkeypatch.setenv("HELP_LLM_URL", stub.url)
            code = main(
                ["bench", "--index", str(bundle), "--qa", str(fixture_dir / "qa.jsonl"),
                 "--out", str(tmp_path / "reports"), "--generate", "--encoder", encoder]
            )
        assert code == 3
        assert len(stub.requests) == 1
        assert stub.url in capsys.readouterr().err

    def test_extracted_triple_with_a_blank_field_is_dropped(self, tmp_path, monkeypatch, caplog):
        corpus, bundle = tmp_path / "corpus.jsonl", tmp_path / "idx"
        corpus.write_text('{"id":"p1","text":"alpha feeds beta."}\n')
        content = '[["alpha","feeds","beta"],["beta","  ","gamma"]]'
        with StubService(lambda b, h: (200, {"choices": [{"message": {"content": content}}]})) as stub:
            monkeypatch.setenv("HELP_LLM_URL", stub.url)
            code = main(["index", "--corpus", str(corpus), "--out", str(bundle), "--extract"])
        assert code == 0
        assert len(stub.requests) == 1
        assert tuple(load_index(bundle).index.catalog) == (Triplet("alpha", "feeds", "beta"),)
        assert any("p1" in r.getMessage() and "blank field" in r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize("status", [401, 403])
    def test_extraction_refused_from_the_start_exit_3(self, status, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id":"p1","text":"alpha feeds beta."}\n{"id":"p2","text":"beta feeds gamma."}\n')
        with StubService(lambda b, h: (status, {"error": "denied"})) as stub:
            monkeypatch.setenv("HELP_LLM_URL", stub.url)
            code = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "idx"), "--extract"])
        assert code == 3
        assert len(stub.requests) == 1
        assert not (tmp_path / "idx").exists()
        assert f"status {status}" in capsys.readouterr().err
