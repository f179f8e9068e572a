"""The experiment scripts run against the current API, the package exports resolve, and
the CLI imports no third-party HTTP client, no HTTP stack and no evaluation, the HTTP
stack loads on a service's first request, and every module imports on its own."""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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
    done = run_script("run_hop_sweep.py", "--triplets", "500", "--repeats", "2", "--max-hops", "3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "indexed 500 triplets" in lines[0]
    assert lines[1].split() == ["N", "first", "(ms)", "median", "of", "rest", "(ms)", "paths"]
    assert [line.split()[0] for line in lines[2:]] == ["1", "2", "3"]


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


HTTP_STACK = "{'http.client', 'urllib.request', 'ssl'}"


def test_cli_import_loads_no_http_stack():
    # the HTTP stack loads only when a command talks to a service
    done = run_python("-c", f"import sys, helprag.cli; print(sorted({HTTP_STACK} & sys.modules.keys()))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_evaluation():
    # bench and gen-synthetic import evaluation when they run; the package serves its names on first use
    done = run_python("-c", "import sys, helprag.cli; print('helprag.evaluation' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


POST_TO_CLOSED_PORT = f"""
import socket, sys
from helprag import services
from helprag.errors import ServiceUnreachable

print(sorted({HTTP_STACK} & sys.modules.keys()))
services.BACKOFF_BASE_S = 0
with socket.socket() as closed:  # bound but not listening: every connect is refused
    closed.bind(("127.0.0.1", 0))
    config = services.ServiceConfig(f"http://127.0.0.1:{{closed.getsockname()[1]}}/", "m")
    try:
        services.post_json(config, {{}})
    except ServiceUnreachable:
        pass
print(sorted({HTTP_STACK} & sys.modules.keys()))
"""


def test_services_load_the_http_stack_on_first_request():
    done = run_python("-c", POST_TO_CLOSED_PORT)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "['http.client', 'ssl', 'urllib.request']"]


# a bare package stands in for helprag/__init__.py, which would import the stage modules in its own order
IMPORT_FIRST = """
import importlib, importlib.util, sys, types
package = types.ModuleType("helprag")
package.__path__ = importlib.util.find_spec("helprag").submodule_search_locations
sys.modules["helprag"] = package
importlib.import_module(sys.argv[1])
"""


@pytest.mark.parametrize("module", sorted(info.name for info in pkgutil.iter_modules(helprag.__path__)))
def test_each_module_imports_first(module):
    # an import cycle fails only when one of its modules is imported before the others
    done = run_python("-c", IMPORT_FIRST, f"helprag.{module}")
    assert done.returncode == 0, done.stderr
