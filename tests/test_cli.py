"""CLI subcommands: exit codes, output schemas, parameter grids."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import colliding_corpus
from helprag.cli import main
from helprag.evaluation import gen_synthetic


@pytest.fixture()
def corpus_file(tmp_path):
    lines = [
        {"id": "p1", "text": "alpha feeds beta.", "triples": [["alpha", "feeds", "beta"]]},
        {"id": "p2", "text": "beta feeds gamma.", "triples": [["beta", "feeds", "gamma"]]},
        {"id": "p3", "text": "unrelated one.", "triples": [["x1", "near", "y1"]]},
        {"id": "p4", "text": "unrelated two.", "triples": [["x2", "near", "y2"]]},
        {"id": "p5", "text": "unrelated three.", "triples": [["x3", "near", "y3"]]},
        {"id": "p6", "text": "unrelated four.", "triples": [["x4", "near", "y4"]]},
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    return path


@pytest.fixture()
def bundle_dir(tmp_path, corpus_file):
    out = tmp_path / "idx"
    assert main(["index", "--corpus", str(corpus_file), "--out", str(out)]) == 0
    return out


@pytest.fixture()
def colliding_bundle(tmp_path):
    corpus = tmp_path / "colliding.jsonl"
    corpus.write_text(
        "".join(
            json.dumps({"id": r.id, "text": r.text, "triples": [list(t) for t in r.triples]}) + "\n"
            for r in colliding_corpus()
        )
    )
    out = tmp_path / "colliding_idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(out)]) == 0
    return out


# the query under which both colliding paths survive into the final beam
COLLIDING_QUERY = ["--question", "q links a", "--hops", "2", "--seeds", "1", "--beam", "5",
                   "--quota", "2", "--topk", "2"]


class TestIndex:
    def test_happy_path_prints_summary(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "idx"
        assert main(["index", "--corpus", str(corpus_file), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "6 passages" in printed and "6 triplets" in printed
        assert (out / "manifest.json").exists()

    def test_missing_corpus_exit_2_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["index", "--corpus", str(missing), "--out", str(tmp_path / "idx")]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_oracle_table_with_nan_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"id":"p1","text":"first.","triples":[["a","r","b"]]}\n'
            '{"id":"p2","text":"second.","triples":[["b","r","c"]]}\n'
        )
        table = {"dim": 4, "vectors": {
            "first.": [1.0, 0, 0, 0], "second.": [0, 1.0, 0, 0],
            "a r b": [0, 0, 1.0, 0], "b r c": [math.nan, 0, 1.0, 0],
        }}
        vectors = tmp_path / "vectors.json"
        vectors.write_text(json.dumps(table))  # json writes the NaN literal that json.load reads
        out = tmp_path / "idx"
        code = main(["index", "--corpus", str(corpus), "--out", str(out), "--encoder", f"oracle:{vectors}"])
        assert code == 2
        assert "'b r c'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "table",
        [
            {"dim": 4, "vectors": {"first.": {"i": [4], "v": [1.0]}}},
            {"dim": None, "vectors": {"first.": [1.0, 0, 0, 0]}},
            {"dim": 4, "vectors": "ab"},
        ],
        ids=["index-at-dim", "null-dim", "string-vectors"],
    )
    def test_malformed_oracle_table_exit_2(self, table, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id":"p1","text":"first.","triples":[["a","r","b"]]}\n')
        vectors = tmp_path / "vectors.json"
        vectors.write_text(json.dumps(table))
        out = tmp_path / "idx"
        code = main(["index", "--corpus", str(corpus), "--out", str(out), "--encoder", f"oracle:{vectors}"])
        assert code == 2
        assert "oracle" in capsys.readouterr().err
        assert not out.exists()

    def test_remote_encoder_without_env_exit_2(self, corpus_file, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("HELP_EMBED_URL", raising=False)
        code = main(
            ["index", "--corpus", str(corpus_file), "--out", str(tmp_path / "idx"),
             "--encoder", "remote"]
        )
        assert code == 2
        assert "HELP_EMBED_URL" in capsys.readouterr().err

    def test_extract_without_llm_env_exit_2(self, corpus_file, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("HELP_LLM_URL", raising=False)
        out = tmp_path / "idx"
        assert main(["index", "--corpus", str(corpus_file), "--out", str(out), "--extract"]) == 2
        err = capsys.readouterr().err
        assert "HELP_LLM_URL is not set" in err and "'" not in err
        assert not out.exists()

    def test_internal_key_error_is_not_reported_as_configuration(self, corpus_file, tmp_path, monkeypatch):
        def broken(*args):
            raise KeyError("internal")

        monkeypatch.setattr("helprag.cli.build_and_embed", broken)
        with pytest.raises(KeyError):
            main(["index", "--corpus", str(corpus_file), "--out", str(tmp_path / "idx")])

    def test_unextracted_corpus_without_extract_flag(self, tmp_path, capsys):
        path = tmp_path / "raw.jsonl"
        path.write_text('{"id":"p1","text":"no triples yet"}\n')
        assert main(["index", "--corpus", str(path), "--out", str(tmp_path / "idx")]) == 2
        assert "--extract" in capsys.readouterr().err


    def test_bundle_bytes_stable_across_hash_seeds(self, tmp_path):
        corpus = tmp_path / "mixed.jsonl"
        corpus.write_text(
            json.dumps({"id": "b", "text": "t1", "triples": [["Q", " Links ", "a"], ["a", "b  c", "d"]]}) + "\n"
            + json.dumps({"id": "a", "text": "t2", "triples": [["a", "b", "C d"], ["q", "links", "a"]]}) + "\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        bundles = []
        for hash_seed in ("1", "4"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"idx{hash_seed}"
            done = subprocess.run(
                [sys.executable, "-m", "helprag.cli", "index", "--corpus", str(corpus), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            bundles.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert bundles[0] == bundles[1]


class TestQuery:
    @pytest.mark.parametrize(
        "content",
        [b'{"dim": 2, "vectors": {"t": [1.0, 0.0]}\n"u": 1}\n', b'{"dim": 2, "vectors": {"\xff": [1.0, 0.0]}}\n'],
        ids=["not-json", "not-utf-8"],
    )
    def test_unreadable_oracle_file_exit_2_names_it(self, content, tmp_path, capsys):
        vectors = tmp_path / "bad.json"
        vectors.write_bytes(content)
        code = main(["query", "--index", str(tmp_path / "idx"), "--question", "q", "--encoder", f"oracle:{vectors}"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"oracle table '{vectors}' is not UTF-8 JSON" in err

    def test_json_output_schema(self, bundle_dir, capsys):
        code = main(
            ["query", "--index", str(bundle_dir), "--question", "what does alpha feed?",
             "--hops", "2", "--quota", "4", "--topk", "5"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["schema"] == "helprag-query/1"
        assert out["query"] == "what does alpha feed?"
        assert len(out["passages"]) == 5
        assert {p["channel"] for p in out["passages"]} <= {"path", "dense"}
        assert set(out["timings_ms"]) == {"expansion", "scoring", "dense", "total"}
        for node in out["hypernodes"]:
            assert node["distance"] >= 0
            assert all(len(t) == 3 for t in node["triplets"])

    def test_single_hop_is_seeds_only(self, bundle_dir, capsys):
        assert main(
            ["query", "--index", str(bundle_dir), "--question", "probe", "--hops", "1",
             "--seeds", "2"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["hypernodes"]) == 2
        assert all(len(n["triplets"]) == 1 for n in out["hypernodes"])

    def test_text_format(self, bundle_dir, capsys):
        assert main(
            ["query", "--index", str(bundle_dir), "--question", "probe", "--format", "text"]
        ) == 0
        printed = capsys.readouterr().out
        assert "query: probe" in printed
        assert "passages:" in printed

    def test_text_format_tells_colliding_paths_apart(self, colliding_bundle, capsys):
        argv = ["query", "--index", str(colliding_bundle), "--format", "text", *COLLIDING_QUERY]
        assert main(argv) == 0
        paths = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  dist=")]
        assert len(paths) == len(set(paths)) == 2
        assert any('["a", "b c", "d"]; ["q", "links", "a"]' in line for line in paths)
        assert any('["a", "b", "c d"]; ["q", "links", "a"]' in line for line in paths)

    @pytest.mark.parametrize(
        "edit, message", [({"version": 1}, "rebuild the bundle with `helprag index`"), ([], "not a JSON object")]
    )
    def test_old_or_malformed_bundle_exit_2(self, bundle_dir, capsys, edit, message):
        manifest_path = bundle_dir / "manifest.json"
        if isinstance(edit, dict):
            edit = {**json.loads(manifest_path.read_text()), **edit}
        manifest_path.write_text(json.dumps(edit))
        assert main(["query", "--index", str(bundle_dir), "--question", "probe"]) == 2
        assert message in capsys.readouterr().err

    def test_byte_stable_modulo_timings(self, bundle_dir, capsys):
        argv = ["query", "--index", str(bundle_dir), "--question", "what does alpha feed?"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        first.pop("timings_ms")
        second.pop("timings_ms")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_colliding_paths_byte_stable_across_hash_seeds(self, colliding_bundle):
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for hash_seed in ("1", "4"):  # the seeds chose different paths when text was the key
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-m", "helprag.cli", "query", "--index", str(colliding_bundle),
                 "--format", "json", *COLLIDING_QUERY],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            out = json.loads(done.stdout)
            out.pop("timings_ms")
            outputs.append(json.dumps(out, sort_keys=True).encode())
        assert outputs[0] == outputs[1]
        paths = [node["triplets"] for node in json.loads(outputs[0])["hypernodes"]]
        assert [["a", "b", "c d"], ["q", "links", "a"]] in paths
        assert [["a", "b c", "d"], ["q", "links", "a"]] in paths

    def test_encoder_failure_exit_3(self, tmp_path, capsys):
        # bundle built with an oracle table that lacks the question text
        fx = gen_synthetic(chains=1, hops=2, distractors=0, seed=3)
        fixture_dir = tmp_path / "fx"
        fx.write(fixture_dir)
        bundle = tmp_path / "idx"
        assert main(
            ["index", "--corpus", str(fixture_dir / "corpus.jsonl"), "--out", str(bundle),
             "--encoder", f"oracle:{fixture_dir / 'vectors.json'}"]
        ) == 0
        code = main(
            ["query", "--index", str(bundle), "--question", "text not in the table",
             "--encoder", f"oracle:{fixture_dir / 'vectors.json'}"]
        )
        assert code == 3

    def test_oracle_encoder_on_hash_bundle_exit_2(self, bundle_dir, tmp_path, capsys):
        # the oracle table lacks the question, so checking after encoding would exit 3
        fixture_dir = tmp_path / "fx"
        gen_synthetic(chains=1, hops=2, distractors=0, seed=3).write(fixture_dir)
        code = main(
            ["query", "--index", str(bundle_dir), "--question", "what does alpha feed?",
             "--encoder", f"oracle:{fixture_dir / 'vectors.json'}"]
        )
        assert code == 2
        assert "embedded with" in capsys.readouterr().err


class TestGenSynthetic:
    def test_deterministic_fixture_directory(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(
                ["gen-synthetic", "--chains", "4", "--hops", "2", "--distractors", "6",
                 "--seed", "7", "--out", str(out)]
            ) == 0
        for name in ("corpus.jsonl", "qa.jsonl", "vectors.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        assert main(
            ["gen-synthetic", "--chains", "1", "--hops", "1", "--out", str(tmp_path / "x")]
        ) == 2


@pytest.fixture()
def synthetic_cli_setup(tmp_path):
    fixture_dir = tmp_path / "fx"
    main(["gen-synthetic", "--chains", "3", "--hops", "2", "--distractors", "6",
          "--seed", "13", "--out", str(fixture_dir)])
    bundle = tmp_path / "idx"
    encoder_spec = f"oracle:{fixture_dir / 'vectors.json'}"
    assert main(
        ["index", "--corpus", str(fixture_dir / "corpus.jsonl"), "--out", str(bundle),
         "--encoder", encoder_spec]
    ) == 0
    return fixture_dir, bundle, encoder_spec


class TestBench:
    def test_quota_sweep_emits_six_reports(self, synthetic_cli_setup, tmp_path, capsys):
        fixture_dir, bundle, encoder_spec = synthetic_cli_setup
        reports = tmp_path / "reports"
        code = main(
            ["bench", "--index", str(bundle), "--qa", str(fixture_dir / "qa.jsonl"),
             "--encoder", encoder_spec, "--grid", "quota=0..5", "--out", str(reports)]
        )
        assert code == 0
        files = sorted(reports.glob("report_quota*.json"))
        assert len(files) == 6
        by_quota = {}
        for f in files:
            report = json.loads(f.read_text())
            by_quota[report["config"]["hybrid"]["quota"]] = report["aggregates"]["recall_at_k"]
        assert set(by_quota) == set(range(6))
        assert by_quota[0] == 0.0  # dense-only baseline misses by construction
        assert by_quota[4] == 1.0

    def test_grid_emits_report_per_point(self, synthetic_cli_setup, tmp_path):
        fixture_dir, bundle, encoder_spec = synthetic_cli_setup
        reports = tmp_path / "grid_reports"
        code = main(
            ["bench", "--index", str(bundle), "--qa", str(fixture_dir / "qa.jsonl"),
             "--encoder", encoder_spec, "--grid", "seed=1..2,beam=3,5", "--out", str(reports)]
        )
        assert code == 0
        files = sorted(reports.glob("report_*.json"))
        assert len(files) == 4
        points = {
            (r["config"]["expansion"]["seed_size"], r["config"]["expansion"]["beam_size"])
            for r in (json.loads(f.read_text()) for f in files)
        }
        assert points == {(1, 3), (1, 5), (2, 3), (2, 5)}

    def test_single_report_without_sweep(self, synthetic_cli_setup, tmp_path):
        fixture_dir, bundle, encoder_spec = synthetic_cli_setup
        reports = tmp_path / "single"
        assert main(
            ["bench", "--index", str(bundle), "--qa", str(fixture_dir / "qa.jsonl"),
             "--encoder", encoder_spec, "--out", str(reports)]
        ) == 0
        assert (reports / "report_single.json").exists()

    def test_invalid_sweep_exit_2(self, synthetic_cli_setup, tmp_path, capsys):
        fixture_dir, bundle, encoder_spec = synthetic_cli_setup
        assert main(
            ["bench", "--index", str(bundle), "--qa", str(fixture_dir / "qa.jsonl"),
             "--encoder", encoder_spec, "--grid", "nonsense=1..2",
             "--out", str(tmp_path / "r")]
        ) == 2

    def test_malformed_sweep_spec_exit_2(self, synthetic_cli_setup, tmp_path):
        fixture_dir, bundle, encoder_spec = synthetic_cli_setup
        assert main(
            ["bench", "--index", str(bundle), "--qa", str(fixture_dir / "qa.jsonl"),
             "--encoder", encoder_spec, "--grid", "1..2",
             "--out", str(tmp_path / "r")]
        ) == 2

    def test_invalid_grid_point_exit_2_before_any_report(self, synthetic_cli_setup, tmp_path):
        fixture_dir, bundle, encoder_spec = synthetic_cli_setup
        reports = tmp_path / "r"
        assert main(
            ["bench", "--index", str(bundle), "--qa", str(fixture_dir / "qa.jsonl"),
             "--encoder", encoder_spec, "--grid", "quota=4..6", "--out", str(reports)]
        ) == 2
        assert list(reports.glob("report_*.json")) == []

    def test_empty_grid_range_exit_2(self, synthetic_cli_setup, tmp_path, capsys):
        fixture_dir, bundle, encoder_spec = synthetic_cli_setup
        reports = tmp_path / "r"
        assert main(
            ["bench", "--index", str(bundle), "--qa", str(fixture_dir / "qa.jsonl"),
             "--encoder", encoder_spec, "--grid", "quota=5..3", "--out", str(reports)]
        ) == 2
        assert "empty grid range" in capsys.readouterr().err
        assert not reports.exists()

    def test_mismatched_encoder_exit_2(self, synthetic_cli_setup, tmp_path, capsys):
        fixture_dir, bundle, _ = synthetic_cli_setup
        code = main(
            ["bench", "--index", str(bundle), "--qa", str(fixture_dir / "qa.jsonl"),
             "--encoder", "hash", "--out", str(tmp_path / "r")]
        )
        assert code == 2
        assert "embedded with" in capsys.readouterr().err


class TestGridParsing:
    def test_full_grid_spec_yields_twenty_points(self):
        from helprag.cli import _parse_grid

        groups = _parse_grid("seed=1..5,beam=30,50,70,100")
        assert groups == {"seed": [1, 2, 3, 4, 5], "beam": [30, 50, 70, 100]}
        points = [(s, b) for s in groups["seed"] for b in groups["beam"]]
        assert len(points) == 20

    def test_duplicate_parameter_rejected(self):
        from helprag.cli import _parse_grid
        from helprag.errors import InvalidParams

        with pytest.raises(InvalidParams):
            _parse_grid("seed=1..2,seed=3")
