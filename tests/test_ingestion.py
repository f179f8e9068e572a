"""Corpus loading, triple extraction, embedding precompute, bundle round trips."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import graph_differences, random_corpus
from helprag import cli, kg, services
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
from helprag.encoding import HashEncoder
from helprag.ingestion import (
    EXTRACTION_PROMPT_SHA256,
    HASHED_FILES,
    MANIFEST_FILE,
    PASSAGE_EMB_FILE,
    ROWS_FILE,
    STRINGS_FILE,
    TRIPLET_EMB_FILE,
    CorpusRecord,
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
        assert graph.embeddings.passage_rows.shape == (3, 256)
        assert graph.embeddings.triplet_rows.shape == (5, 256)

    def test_rerun_identical(self, hash_encoder):
        records = [CorpusRecord("p1", "first", (("a", "r", "b"),))]
        g1 = build_and_embed(records, hash_encoder)
        g2 = build_and_embed(records, hash_encoder)
        assert np.array_equal(g1.embeddings.passage_rows, g2.embeddings.passage_rows)
        assert np.array_equal(g1.embeddings.triplet_rows, g2.embeddings.triplet_rows)

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


def test_zero_row_in_a_bundle_loads_and_fails_the_query(tmp_path, capsys):
    # a loaded bundle's rows are checked by unit_rows on first use, not at load
    corpus, bundle = tmp_path / "corpus.jsonl", tmp_path / "idx"
    write_corpus(corpus, TWO_PASSAGE_LINES)
    assert cli.main(["index", "--corpus", str(corpus), "--out", str(bundle)]) == 0
    raw = bytearray((bundle / TRIPLET_EMB_FILE).read_bytes())
    row = 4 * load_index(bundle).embeddings.dim
    raw[20 + row : 20 + 2 * row] = bytes(row)  # after the 20-byte header, triplet 1's row
    (bundle / TRIPLET_EMB_FILE).write_bytes(bytes(raw))
    rehash(bundle)
    rows = load_index(bundle).embeddings.triplet_rows
    assert rows.shape[0] == 3 and not rows[1].any() and rows[[0, 2]].any(axis=1).all()
    capsys.readouterr()
    assert cli.main(["query", "--index", str(bundle), "--question", "alpha feeds"]) == 2
    assert "zero row" in capsys.readouterr().err


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

    def test_loaded_rows_are_read_only(self, tmp_path, hash_encoder):
        graph = build_and_embed(random_corpus(random.Random(11), n_passages=25), hash_encoder)
        save_index(tmp_path / "idx", graph)
        store = load_index(tmp_path / "idx").embeddings
        assert not store.passage_rows.flags.writeable
        assert not store.triplet_rows.flags.writeable

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
        assert loaded.embeddings.triplet_rows.shape == (0, 256)

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

