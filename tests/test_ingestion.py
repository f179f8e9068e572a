"""Corpus loading, triple extraction, embedding precompute, bundle round trips."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import random
import sys
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float32_rows, graph_differences, random_corpus, ten_k_triplet_records
from helprag import cli, ingestion, kg, services
from helprag.errors import (
    CorruptFile,
    DuplicateId,
    EncoderFailure,
    InvalidParams,
    ParseError,
    ServiceUnreachable,
    VersionMismatch,
    ZeroVector,
)
from helprag.encoding import HashEncoder, unit_rows_into
from helprag.ingestion import (
    EXTRACTION_PROMPT_SHA256,
    HASHED_FILES,
    MANIFEST_FILE,
    PASSAGE_EMB_FILE,
    ROWS_FILE,
    STRINGS_FILE,
    TRIPLET_EMB_FILE,
    CorpusRecord,
    EmbeddingStore,
    build_and_embed,
    extract_triples,
    load_corpus,
    load_index,
    save_index,
)
from helprag.kg import Passage, Triplet
from helprag.localization import retrieve_result
from helprag.services import ServiceConfig
from stub_server import StubService


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    monkeypatch.setattr(services, "BACKOFF_BASE_S", 0.0)


def write_corpus(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCorpus:
    def test_record_with_triples(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_corpus(f, ['{"id":"p1","text":"the text","triples":[["a","r","b"]]}'])
        records = load_corpus(f)
        assert records == [CorpusRecord("p1", "the text", (("a", "r", "b"),))]

    def test_record_without_triples_left_unextracted(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_corpus(f, ['{"id":"p1","text":"the text"}'])
        assert load_corpus(f)[0].triples is None

    def test_malformed_line_reports_line_number(self, tmp_path):
        f = tmp_path / "c.jsonl"
        good = '{"id":"p%d","text":"t"}'
        write_corpus(f, [good % i for i in range(6)] + ["{oops"])
        with pytest.raises(ParseError) as err:
            load_corpus(f)
        assert err.value.line == 7

    def test_duplicate_id_rejected(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_corpus(f, ['{"id":"p1","text":"a"}', '{"id":"p1","text":"b"}'])
        with pytest.raises(DuplicateId):
            load_corpus(f)

    def test_empty_file_gives_empty_corpus(self, tmp_path):
        f = tmp_path / "c.jsonl"
        f.write_text("")
        assert load_corpus(f) == []

    def test_bad_triple_shape_rejected(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_corpus(f, ['{"id":"p1","text":"t","triples":[["a","b"]]}'])
        with pytest.raises(ParseError):
            load_corpus(f)


class TestExtractTriples:
    def _config(self, stub: StubService) -> ServiceConfig:
        return ServiceConfig(url=stub.url, model="extractor-1", api_key="sk-test", timeout_s=5)

    @staticmethod
    def _chat_reply(content: str):
        return 200, {"choices": [{"message": {"content": content}}]}

    def test_records_with_triples_pass_through(self):
        def handler(body, headers):
            raise AssertionError("service must not be called")

        done = CorpusRecord("p1", "t", (("a", "r", "b"),))
        with StubService(lambda b, h: (500, {})) as stub:
            out = extract_triples([done], self._config(stub))
        assert out == [done]
        assert stub.requests == []

    def test_attaches_extracted_triples(self):
        with StubService(lambda b, h: self._chat_reply('[["a","r","b"]]')) as stub:
            out = extract_triples([CorpusRecord("p1", "alpha relates beta")], self._config(stub))
        assert out[0].triples == (("a", "r", "b"),)
        assert out[0].text == "alpha relates beta"
        body = stub.requests[0]["body"]
        assert body["model"] == "extractor-1"
        assert "alpha relates beta" in body["messages"][0]["content"]
        assert stub.requests[0]["headers"]["Authorization"] == "Bearer sk-test"

    def test_prose_reply_retries_then_soft_fails(self, caplog):
        with StubService(lambda b, h: self._chat_reply("I could not find any facts.")) as stub:
            with caplog.at_level("WARNING"):
                out = extract_triples([CorpusRecord("p1", "text")], self._config(stub))
        assert out[0].triples == ()
        assert len(stub.requests) == 2  # one retry
        assert any("p1" in r.message for r in caplog.records)

    def test_json_wrapped_in_prose_is_recovered(self):
        reply = 'Sure! Here you go:\n[["x","rel","y"], ["y","rel","z"]]\nAnything else?'
        with StubService(lambda b, h: self._chat_reply(reply)) as stub:
            out = extract_triples([CorpusRecord("p1", "text")], self._config(stub))
        assert out[0].triples == (("x", "rel", "y"), ("y", "rel", "z"))

    def test_status_after_first_answer_stays_soft(self):
        answered = []

        def handler(body, headers):
            answered.append(True)
            return self._chat_reply('[["a","r","b"]]') if len(answered) == 1 else (401, {"error": "expired"})

        records = [CorpusRecord("p1", "first"), CorpusRecord("p2", "second")]
        with StubService(handler) as stub:
            out = extract_triples(records, self._config(stub))
        assert [r.triples for r in out] == [(("a", "r", "b"),), ()]
        assert len(stub.requests) == 3  # p2 is asked twice, as an unusable reply is

    def test_unreachable_service_raises(self):
        config = ServiceConfig(url="http://127.0.0.1:9/v1", model="m", timeout_s=0.2)
        with pytest.raises(ServiceUnreachable):
            extract_triples([CorpusRecord("p1", "text")], config)


class TestBuildAndEmbed:
    def test_vector_counts_match_corpus(self, hash_encoder):
        records = [
            CorpusRecord("p1", "first", (("a", "r", "b"), ("b", "r", "c"))),
            CorpusRecord("p2", "second", (("a", "r", "b"), ("c", "r", "d"))),
            CorpusRecord("p3", "third", (("d", "r", "e"), ("e", "r", "f"))),
        ]
        graph = build_and_embed(records, hash_encoder)
        assert float32_rows(graph.embeddings, "passage").shape == (3, 256)
        assert float32_rows(graph.embeddings, "triplet").shape == (5, 256)

    def test_rerun_identical(self, hash_encoder):
        records = [CorpusRecord("p1", "first", (("a", "r", "b"),))]
        g1 = build_and_embed(records, hash_encoder)
        g2 = build_and_embed(records, hash_encoder)
        assert graph_differences(g1, g2) == []

    def test_graphs_from_other_encoders_differ(self):
        records = random_corpus(random.Random(2), n_passages=8)
        wide = build_and_embed(records, HashEncoder(256))
        narrow = build_and_embed(records, HashEncoder(128))
        assert graph_differences(wide, narrow) == ["encoder_id", "passage rows", "triplet rows"]

    def test_unextracted_record_rejected(self, hash_encoder):
        with pytest.raises(InvalidParams):
            build_and_embed([CorpusRecord("p1", "text", None)], hash_encoder)


class DropsLastRow(HashEncoder):
    def encode_batch(self, texts):
        return super().encode_batch(texts)[:-1]


class ZeroesLastRow(HashEncoder):
    def encode_batch(self, texts):
        rows = super().encode_batch(texts)
        rows[-1] = 0.0
        return rows


# two passages and three triplets
TWO_PASSAGE_LINES = [
    '{"id":"p1","text":"alpha feeds beta.","triples":[["alpha","feeds","beta"],["beta","feeds","gamma"]]}',
    '{"id":"p2","text":"gamma feeds delta.","triples":[["gamma","feeds","delta"]]}',
]


class TestBuildChecksEncoderRows:
    @pytest.mark.parametrize(
        ("encoder", "error", "code"), [(DropsLastRow, EncoderFailure, 3), (ZeroesLastRow, ZeroVector, 2)]
    )
    def test_bad_rows_fail_the_build(self, tmp_path, monkeypatch, encoder, error, code):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, TWO_PASSAGE_LINES)
        with pytest.raises(error):
            build_and_embed(load_corpus(corpus), encoder())
        monkeypatch.setattr(cli, "encoder_from_spec", lambda spec: encoder())
        assert cli.main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "idx")]) == code
        assert not (tmp_path / "idx").exists()


def write_triplet_row(bundle: Path, at: int, value: float) -> None:
    """Set every value of triplet row ``at`` in the bundle's triplet file, under a recomputed hash."""
    raw = bytearray((bundle / TRIPLET_EMB_FILE).read_bytes())
    dim = json.loads((bundle / MANIFEST_FILE).read_text())["dim"]
    start = 20 + 4 * dim * at  # after the 20-byte header
    raw[start : start + 4 * dim] = np.full(dim, value, dtype="<f4").tobytes()
    (bundle / TRIPLET_EMB_FILE).write_bytes(bytes(raw))
    rehash(bundle)


def test_zero_row_in_a_bundle_fails_the_load(tmp_path, capsys):
    # a loaded bundle's rows are checked as they stream into unit rows, so no query runs on them
    corpus, bundle = tmp_path / "corpus.jsonl", tmp_path / "idx"
    write_corpus(corpus, TWO_PASSAGE_LINES)
    assert cli.main(["index", "--corpus", str(corpus), "--out", str(bundle)]) == 0
    write_triplet_row(bundle, 1, 0.0)
    with pytest.raises(CorruptFile, match=f"{TRIPLET_EMB_FILE}: row 1: .*zero row"):
        load_index(bundle)
    capsys.readouterr()
    assert cli.main(["query", "--index", str(bundle), "--question", "alpha feeds"]) == 2
    assert "zero row" in capsys.readouterr().err


def test_bad_row_past_the_first_read_block_is_named_by_its_index(tmp_path, hash_encoder, monkeypatch):
    # blocks of 4 rows: row 9 is the second row of the third block
    monkeypatch.setattr(ingestion, "ROW_BLOCK", 4)
    bundle = tmp_path / "idx"
    graph = build_and_embed(random_corpus(random.Random(4), n_passages=8), hash_encoder)
    assert graph.index.triplet_rows.shape[0] > 12
    save_index(bundle, graph)
    write_triplet_row(bundle, 9, 0.0)
    with pytest.raises(CorruptFile, match=f"{TRIPLET_EMB_FILE}: row 9: .*zero row"):
        load_index(bundle)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_row_in_a_bundle_fails_the_load(tmp_path, hash_encoder, capsys, value):
    bundle = tmp_path / "idx"
    save_index(bundle, build_and_embed(SMALL_CORPUS, hash_encoder))
    write_triplet_row(bundle, 2, value)
    with pytest.raises(CorruptFile, match=f"{TRIPLET_EMB_FILE}: row 2: .*non-finite row"):
        load_index(bundle)
    assert cli.main(["query", "--index", str(bundle), "--question", "a r b"]) == 2
    assert "non-finite row" in capsys.readouterr().err


class TestBundleRoundTrip:
    def test_save_load_bit_exact(self, tmp_path, hash_encoder):
        graph = build_and_embed(random_corpus(random.Random(42), n_passages=25), hash_encoder)
        manifest = save_index(tmp_path / "idx", graph)
        assert manifest["version"] == 3
        assert manifest["encoder_id"] == hash_encoder.encoder_id
        assert manifest["extraction_prompt_sha256"] == EXTRACTION_PROMPT_SHA256

        loaded = load_index(tmp_path / "idx")
        assert graph_differences(loaded, graph) == []
        assert np.array_equal(loaded.embeddings.passage_units, graph.embeddings.passage_units)

    def test_resave_byte_identical(self, tmp_path, hash_encoder):
        graph = build_and_embed(random_corpus(random.Random(7), n_passages=25), hash_encoder)
        save_index(tmp_path / "a", graph)
        save_index(tmp_path / "b", graph)
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted([STRINGS_FILE, ROWS_FILE, PASSAGE_EMB_FILE, TRIPLET_EMB_FILE, MANIFEST_FILE])
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_loaded_graph_resaves_byte_identical(self, tmp_path, hash_encoder):
        graph = build_and_embed(random_corpus(random.Random(11), n_passages=25), hash_encoder)
        save_index(tmp_path / "a", graph)
        save_index(tmp_path / "b", load_index(tmp_path / "a"))
        for name in (*HASHED_FILES, MANIFEST_FILE):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_unit_rows_are_read_only(self, tmp_path, hash_encoder):
        # a loaded graph's units from the start, a fresh graph's from its first read
        graph = build_and_embed(random_corpus(random.Random(11), n_passages=25), hash_encoder)
        save_index(tmp_path / "idx", graph)
        for store in (load_index(tmp_path / "idx").embeddings, graph.embeddings):
            assert not store.passage_units.flags.writeable
            assert not store.triplet_units.flags.writeable

    def test_load_parses_the_bytes_it_verified(self, tmp_path, hash_encoder, monkeypatch):
        graph = build_and_embed(random_corpus(random.Random(5), n_passages=6), hash_encoder)
        save_index(tmp_path / "idx", graph)
        fromfile = np.fromfile
        rewritten = []

        def read_then_rewrite(file, *args, **kwargs):
            data = fromfile(file, *args, **kwargs)
            path = Path(file)
            if path.name == STRINGS_FILE:
                # the passage texts change on disk right after its bytes were read
                path.write_bytes(data.tobytes().replace(b"passage number 0", b"passage number X"))
                rewritten.append(path)
            return data

        monkeypatch.setattr(np, "fromfile", read_then_rewrite)
        loaded = load_index(tmp_path / "idx")
        assert rewritten
        assert loaded.passages == graph.passages

    def test_line_separator_characters_in_text_round_trip(self, tmp_path, hash_encoder):
        text = "one\u0085two\u2028three\u2029four"
        graph = build_and_embed([CorpusRecord("p1", text, (("a", "r", "b"),))], hash_encoder)
        save_index(tmp_path / "idx", graph)
        assert "\u2028" in (tmp_path / "idx" / STRINGS_FILE).read_text(encoding="utf-8")
        assert load_index(tmp_path / "idx").passages["p1"].text == text

    def test_corpus_without_triplets_round_trips(self, tmp_path, hash_encoder):
        graph = build_and_embed([CorpusRecord("p1", "text only", ())], hash_encoder)
        save_index(tmp_path / "idx", graph)
        loaded = load_index(tmp_path / "idx")
        assert graph_differences(loaded, graph) == []
        assert float32_rows(loaded.embeddings, "triplet").shape == (0, 256)

    def test_retrieval_identical_on_loaded_bundle(self, tmp_path, hash_encoder):
        graph = build_and_embed(random_corpus(random.Random(3), n_passages=25), hash_encoder)
        save_index(tmp_path / "idx", graph)
        loaded = load_index(tmp_path / "idx")
        fresh = retrieve_result(graph, hash_encoder, "some random probe question")
        again = retrieve_result(loaded, hash_encoder, "some random probe question")
        assert [(p.id, p.score, p.channel) for p in fresh.passages] == [
            (p.id, p.score, p.channel) for p in again.passages
        ]

    @pytest.mark.parametrize("version", [1, 2, 4])
    def test_version_mismatch(self, tmp_path, hash_encoder, version):
        graph = build_and_embed(random_corpus(random.Random(1), n_passages=4), hash_encoder)
        save_index(tmp_path / "idx", graph)
        manifest_path = tmp_path / "idx" / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = version
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(VersionMismatch, match="rebuild the bundle with `helprag index`"):
            load_index(tmp_path / "idx")

    @pytest.mark.parametrize("edit", ["manifest", "counts", "not utf-8"])
    def test_manifest_of_wrong_shape_is_corrupt(self, tmp_path, hash_encoder, edit):
        graph = build_and_embed(random_corpus(random.Random(1), n_passages=4), hash_encoder)
        save_index(tmp_path / "idx", graph)
        manifest_path = tmp_path / "idx" / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        written = {
            "manifest": json.dumps([]).encode(),
            "counts": json.dumps({**manifest, "counts": [4]}).encode(),
            "not utf-8": b"\xff\xfe{}",
        }
        manifest_path.write_bytes(written[edit])
        match = "manifest.json is not UTF-8 JSON" if edit == "not utf-8" else "not a JSON object"
        with pytest.raises(CorruptFile, match=match):
            load_index(tmp_path / "idx")

    def test_truncated_embedding_file(self, tmp_path, hash_encoder):
        graph = build_and_embed(random_corpus(random.Random(1), n_passages=4), hash_encoder)
        save_index(tmp_path / "idx", graph)
        emb = tmp_path / "idx" / PASSAGE_EMB_FILE
        emb.write_bytes(emb.read_bytes()[:-8])
        with pytest.raises(CorruptFile):
            load_index(tmp_path / "idx")

    def test_flipped_byte_detected(self, tmp_path, hash_encoder):
        graph = build_and_embed(random_corpus(random.Random(1), n_passages=4), hash_encoder)
        save_index(tmp_path / "idx", graph)
        strings = tmp_path / "idx" / STRINGS_FILE
        raw = bytearray(strings.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        strings.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile):
            load_index(tmp_path / "idx")

    @pytest.mark.parametrize("edit", ["triplet file", "manifest"])
    def test_dim_disagreement_detected(self, tmp_path, hash_encoder, edit):
        records = random_corpus(random.Random(1), n_passages=4)
        bundle = tmp_path / "idx"
        save_index(bundle, build_and_embed(records, hash_encoder))
        manifest_path = bundle / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        if edit == "triplet file":
            # a well-formed triplet file of another dim, under a recomputed content hash
            save_index(tmp_path / "narrow", build_and_embed(records, HashEncoder(dim=128)))
            (bundle / TRIPLET_EMB_FILE).write_bytes((tmp_path / "narrow" / TRIPLET_EMB_FILE).read_bytes())
            digest = hashlib.sha256()
            for name in HASHED_FILES:
                digest.update((bundle / name).read_bytes())
            manifest["content_hash"] = digest.hexdigest()
        else:
            manifest["dim"] = 128  # the manifest lies outside the content hash
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CorruptFile, match="dims disagree"):
            load_index(bundle)

    def test_missing_file_detected(self, tmp_path, hash_encoder):
        graph = build_and_embed(random_corpus(random.Random(1), n_passages=4), hash_encoder)
        save_index(tmp_path / "idx", graph)
        (tmp_path / "idx" / PASSAGE_EMB_FILE).unlink()
        with pytest.raises(CorruptFile):
            load_index(tmp_path / "idx")


def rehash(bundle: Path) -> None:
    """Recompute the manifest's content hash after a hand edit of the hashed files."""
    manifest_path = bundle / MANIFEST_FILE
    manifest = json.loads(manifest_path.read_text())
    digest = hashlib.sha256()
    for name in HASHED_FILES:
        digest.update((bundle / name).read_bytes())
    manifest["content_hash"] = digest.hexdigest()
    manifest_path.write_text(json.dumps(manifest))


# names a b c d e r s; passage offsets [0, 2, 3, 5] come first in the rows file,
# then p0's rows at values 4..9, p1's at 10..12 and p2's at 13..18
SMALL_CORPUS = [
    CorpusRecord("p0", "zero", (("a", "r", "b"), ("b", "r", "c"))),
    CorpusRecord("p1", "one", (("c", "s", "d"),)),
    CorpusRecord("p2", "two", (("a", "r", "b"), ("d", "s", "e"))),
]


def edit_strings(edit):
    def apply(bundle: Path) -> None:
        path = bundle / STRINGS_FILE
        tables = json.loads(path.read_text(encoding="utf-8"))
        edit(tables)
        path.write_text(json.dumps(tables, ensure_ascii=False), encoding="utf-8")

    return apply


def edit_rows(edit):
    def apply(bundle: Path) -> None:
        path = bundle / ROWS_FILE
        values = np.frombuffer(path.read_bytes(), dtype="<i4").copy()
        path.write_bytes(np.asarray(edit(values), dtype="<i4").tobytes())

    return apply


def edit_bytes(name, edit):
    def apply(bundle: Path) -> None:
        (bundle / name).write_bytes(edit((bundle / name).read_bytes()))

    return apply


def edit_manifest_count(key):
    def apply(bundle: Path) -> None:
        manifest = json.loads((bundle / MANIFEST_FILE).read_text())
        manifest["counts"][key] += 1
        (bundle / MANIFEST_FILE).write_text(json.dumps(manifest))

    return apply


def swap_first_two(table):
    table[0], table[1] = table[1], table[0]


def set_values(**at):
    def edit(values):
        for position, value in at.items():
            values[int(position.lstrip("v"))] = value
        return values

    return edit


def add_passage_without_triplets(bundle: Path) -> None:
    edit_strings(lambda t: (t["passage_ids"].append("p3"), t["texts"].append("three")))(bundle)
    edit_rows(lambda v: np.concatenate([v[:4], [5], v[4:]]))(bundle)


def repeat_a_row(values):
    values[16:19] = values[13:16]  # p2 states (a, r, b) twice: the catalog loses (d, s, e)
    return values


# each check of load_index, broken alone: (edit, the message it must raise)
CORRUPTIONS = {
    "offsets not monotone": (edit_rows(set_values(v1=3, v2=2)), "offsets"),
    "offsets not from 0": (edit_rows(set_values(v0=1)), "offsets"),
    "offsets end before the rows": (edit_rows(set_values(v3=4)), "offsets"),
    "offsets end past the rows": (edit_rows(lambda v: v[:-3]), "offsets"),
    "rows not whole int32s": (edit_bytes(ROWS_FILE, lambda raw: raw + b"\0"), "int32"),
    "name id too large": (edit_rows(set_values(v18=7)), "name id"),
    "name id negative": (edit_rows(set_values(v18=-1)), "name id"),
    "names not sorted": (edit_strings(lambda t: swap_first_two(t["names"])), "names"),
    "names not unique": (edit_strings(lambda t: t["names"].__setitem__(1, "a")), "names"),
    "name empty": (edit_strings(lambda t: t["names"].__setitem__(0, "")), "non-empty"),
    "name not canonical": (edit_strings(lambda t: t["names"].__setitem__(-1, "s\t")), "canonical"),
    "passage ids not sorted": (edit_strings(lambda t: swap_first_two(t["passage_ids"])), "passage ids"),
    "passage ids not unique": (
        edit_strings(lambda t: t["passage_ids"].__setitem__(1, "p0")), "passage ids"
    ),
    "passage id empty": (edit_strings(lambda t: t["passage_ids"].__setitem__(0, "")), "non-empty"),
    "text empty": (edit_strings(lambda t: t["texts"].__setitem__(0, "")), "non-empty"),
    "texts fewer than passages": (edit_strings(lambda t: t["texts"].pop()), "texts for"),
    "table missing": (edit_strings(lambda t: t.pop("names")), "names"),
    "strings not JSON": (edit_bytes(STRINGS_FILE, lambda raw: raw[:-5]), "JSON"),
    "strings not UTF-8": (edit_bytes(STRINGS_FILE, lambda raw: raw.replace(b"zero", b"z\xffro")), "UTF-8"),
    "passage count vs manifest": (edit_manifest_count("passages"), "passage embedding count"),
    "triplet count vs manifest": (edit_manifest_count("triplets"), "triplet embedding count"),
    "passage rows vs passages": (add_passage_without_triplets, "passage embedding count"),
    "triplet rows vs catalog": (edit_rows(repeat_a_row), "triplet embedding count"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_table_under_a_valid_hash_raises_corrupt_file(tmp_path, hash_encoder, case):
    edit, message = CORRUPTIONS[case]
    bundle = tmp_path / "idx"
    save_index(bundle, build_and_embed(SMALL_CORPUS, hash_encoder))
    load_index(bundle)  # intact before the edit
    edit(bundle)
    rehash(bundle)
    with pytest.raises(CorruptFile, match=message):
        load_index(bundle)


def test_load_builds_no_triplet_or_passage_objects(tmp_path, hash_encoder, monkeypatch):
    graph = build_and_embed(random_corpus(random.Random(9), n_passages=200, entity_pool=120), hash_encoder)
    save_index(tmp_path / "idx", graph)
    built: Counter[str] = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            built[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Triplet, "__init__", counted("Triplet", Triplet.__init__))
    monkeypatch.setattr(Passage, "__init__", counted("Passage", Passage.__init__))
    monkeypatch.setattr(kg, "canonicalize_triplet", counted("canonicalize", kg.canonicalize_triplet))
    loaded = load_index(tmp_path / "idx")
    assert built == Counter()
    retrieve_result(loaded, hash_encoder, "how is e1 connected to e2?")
    assert 0 < built["Triplet"] < len(loaded.index.catalog)


# --- one form of each embedding matrix -----------------------------------------

F32 = np.finfo(np.float32)
EDGE_VALUES = np.array(
    [0.0, -0.0, F32.max, -F32.max, F32.smallest_subnormal, -F32.smallest_subnormal, F32.tiny, 1.0],
    dtype=np.float32,
)


@settings(max_examples=300, deadline=None)
@given(
    dim=st.integers(1, 1024),
    seed=st.integers(0, 2**32 - 1),
    exponent_cap=st.integers(1, 255),
    edge_share=st.floats(0.0, 1.0),
)
def test_rows_rebuilt_from_units_and_norms_are_bit_exact(dim, seed, exponent_cap, edge_share):
    # float32(unit * norm) == row, for finite rows of random bits: exponents below the
    # cap (0 makes subnormals), random signs and mantissas, and some values set to the edges
    rng = np.random.default_rng(seed)
    shape = (5, dim)
    bits = (
        rng.integers(0, 2, shape, dtype=np.uint32) << 31
        | rng.integers(0, exponent_cap, shape, dtype=np.uint32) << 23
        | rng.integers(0, 1 << 23, shape, dtype=np.uint32)
    )
    rows = bits.view(np.float32)
    edges = rng.random(shape) < edge_share
    rows[edges] = rng.choice(EDGE_VALUES, int(edges.sum()))
    rows[~rows.any(axis=1), 0] = F32.max  # a zero row has no unit row
    units, norms = np.empty(shape), np.empty(shape[0])
    unit_rows_into(rows, units, norms)
    store = EmbeddingStore("id", dim, units=((units, norms), (units[:0], norms[:0])))
    assert float32_rows(store, "passage").tobytes() == rows.tobytes()
    assert float32_rows(store, "triplet").shape == (0, dim)


def bundle_bytes(bundle: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(bundle.iterdir())}


def test_fresh_queried_and_loaded_graphs_save_the_same_bytes(tmp_path, hash_encoder, monkeypatch):
    # blocks of 7 rows: several per matrix, the last one partial
    monkeypatch.setattr(ingestion, "ROW_BLOCK", 7)
    records = random_corpus(random.Random(13), n_passages=40)
    save_index(tmp_path / "fresh", build_and_embed(records, hash_encoder))
    queried = build_and_embed(records, hash_encoder)
    retrieve_result(queried, hash_encoder, "how is e1 connected to e2?")
    save_index(tmp_path / "queried", queried)
    save_index(tmp_path / "loaded", load_index(tmp_path / "fresh"))
    expected = bundle_bytes(tmp_path / "fresh")
    assert len(expected) == 5
    assert bundle_bytes(tmp_path / "queried") == expected
    assert bundle_bytes(tmp_path / "loaded") == expected


def test_threads_querying_a_fresh_graph_convert_it_once(hash_encoder, monkeypatch):
    records = random_corpus(random.Random(21), n_passages=60)
    expected = retrieve_result(build_and_embed(records, hash_encoder), hash_encoder, "e3 and e4")
    graph = build_and_embed(records, hash_encoder)
    conversions = []
    convert = EmbeddingStore._convert

    def slow_convert(store):
        conversions.append(store)
        time.sleep(0.05)  # the other threads reach the lock meanwhile
        return convert(store)

    monkeypatch.setattr(EmbeddingStore, "_convert", slow_convert)
    start = threading.Barrier(4, timeout=30)

    def ask(question):
        start.wait()
        return retrieve_result(graph, hash_encoder, question)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often while the workers race for the conversion
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(ask, ["e3 and e4"] * 4, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert conversions == [graph.embeddings]
    for result in results:
        assert [n.triplets for n in result.hypernodes] == [n.triplets for n in expected.hypernodes]
        assert [(p.id, p.score, p.channel) for p in result.passages] == [
            (p.id, p.score, p.channel) for p in expected.passages
        ]


class EditedWhileRead:
    """The triplet file, changed on disk by ``edit`` after its header and size were read."""

    def __init__(self, path, edit):
        self.fh = open(path, "rb")
        self.path, self.edit = path, edit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def readinto(self, buffer):
        if self.edit is not None:
            self.edit(self.path)
            self.edit = None
        return self.fh.readinto(buffer)


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        (lambda path: os.truncate(path, 20 + 4 * 256 * 50 + 6), "shrank while it was read, at row 50"),
        (lambda path: path.write_bytes(path.read_bytes() + b"\0" * 4), "grew while it was read, past row"),
    ],
    ids=["shrinks", "grows"],
)
def test_embedding_file_changed_while_read_is_corrupt(tmp_path, hash_encoder, monkeypatch, edit, message):
    bundle = tmp_path / "idx"
    graph = build_and_embed(random_corpus(random.Random(8), n_passages=60), hash_encoder)
    assert len(graph.index.catalog) > 60  # the file reaches past the reader's read-ahead
    save_index(bundle, graph)

    def opened(path, mode="r", *args):
        if Path(path).name == TRIPLET_EMB_FILE:
            return EditedWhileRead(Path(path), edit)
        return open(path, mode, *args)

    monkeypatch.setattr(ingestion, "open", opened, raising=False)
    with pytest.raises(CorruptFile, match=f"{TRIPLET_EMB_FILE}: the file {message}"):
        load_index(bundle)


@contextlib.contextmanager
def tracing():
    """tracemalloc on for the block; numpy reports its buffers to it, whatever the allocator."""
    gc.collect()
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


SLACK = 2 << 20


def test_load_peaks_at_the_units_norms_and_one_block(tmp_path, hash_encoder, monkeypatch):
    monkeypatch.setattr(ingestion, "ROW_BLOCK", 1024)  # blocks far smaller than the float32 rows
    save_index(tmp_path / "idx", build_and_embed(ten_k_triplet_records(random.Random(6)), hash_encoder))
    with tracing():
        store = load_index(tmp_path / "idx").embeddings
        peak = tracemalloc.get_traced_memory()[1]
    units = store.passage_units.nbytes + store.triplet_units.nbytes
    rows = store.passage_units.shape[0] + store.triplet_units.shape[0]
    assert 4 * rows * store.dim > 4 * SLACK  # a float32 copy of the rows would not fit the slack
    assert peak <= units + 8 * rows + 4 * ingestion.ROW_BLOCK * store.dim + SLACK


def test_fresh_graph_holds_no_float32_rows_after_first_use(hash_encoder):
    with tracing():
        graph = build_and_embed(random_corpus(random.Random(6), n_passages=3000, entity_pool=300), hash_encoder)
        store = graph.embeddings
        before = tracemalloc.get_traced_memory()[0]
        store.passage_units, store.triplet_units
        after = tracemalloc.get_traced_memory()[0]
    rows = len(graph.passages) + len(graph.index.catalog)
    float32_rows = 4 * rows * store.dim
    assert float32_rows > 4 * SLACK
    # the float64 units (twice the float32 rows) and norms were added, the float32 blocks freed
    assert after - before <= 2 * float32_rows + 8 * rows - float32_rows + SLACK
