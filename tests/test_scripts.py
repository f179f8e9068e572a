"""The experiment scripts run against the current API, the package exports resolve, and
the CLI imports no third-party HTTP client."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import helprag

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return run_python(str(ROOT / "scripts" / name), *args)


def test_case_study_fixture_reproduced_byte_for_byte(tmp_path):
    done = run_script("make_case_study_fixture.py", str(tmp_path))
    assert done.returncode == 0, done.stderr
    committed = ROOT / "fixtures" / "case_study"
    names = sorted(p.name for p in committed.iterdir())
    assert names == sorted(p.name for p in tmp_path.iterdir())
    for name in names:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name


def test_hop_sweep_runs():
    done = run_script("run_hop_sweep.py", "--triplets", "500", "--repeats", "1", "--max-hops", "2")
    assert done.returncode == 0, done.stderr
    assert "indexed 500 triplets" in done.stdout


def test_every_exported_name_resolves():
    missing = [name for name in helprag.__all__ if not hasattr(helprag, name)]
    assert missing == []


def test_cli_import_pulls_in_no_third_party_http_client():
    # the remote path runs on urllib.request; numpy is the only runtime dependency
    done = run_python(
        "-c", "import sys, helprag.cli; print(sorted({'requests', 'urllib3'} & sys.modules.keys()))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_http_stack():
    # the service clients load only where a command talks to a service
    modules = "{'helprag.services', 'http.client', 'urllib.request'}"
    done = run_python("-c", f"import sys, helprag.cli; print(sorted({modules} & sys.modules.keys()))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
