"""Layering guards: what the CLI loads, its BLAS thread policy, and which
module reads documents."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qcontexts

SRC = Path(qcontexts.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _env(**settings: str) -> dict:
    """The test's environment without the BLAS thread variables, plus settings."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return dict(env, PYTHONPATH=str(SRC.parent), **settings)


def _probe(code: str, **settings: str) -> str:
    """Run code in a fresh interpreter and return its stripped stdout."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(**settings), check=True)
    return proc.stdout.strip()


def test_cli_import_leaves_sampling_unloaded():
    assert _probe("import sys, qcontexts.cli; print('qcontexts.sampling' in sys.modules)") \
        == "False"


def test_package_import_leaves_numpy_unloaded():
    assert _probe("import sys, qcontexts; print('numpy' in sys.modules)") == "False"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_cli_runs_one_blas_thread_by_default():
    probe = ("import os, qcontexts.cli; "
             "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))")
    assert _probe(probe) == "1 1"


@pytest.mark.parametrize("var", BLAS_THREAD_VARS)
def test_cli_keeps_a_user_thread_setting(var):
    probe = "import os, qcontexts.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    expected = "2" if var == "OPENBLAS_NUM_THREADS" else "None"
    assert _probe(probe, **{var: "2"}) == expected


def test_cli_import_after_numpy_leaves_the_environment_alone():
    probe = ("import os, numpy; before = dict(os.environ); import qcontexts.cli; "
             "print(dict(os.environ) == before)")
    assert _probe(probe) == "True"


def _golden_cases() -> dict:
    spec = importlib.util.spec_from_file_location("gen_golden", ROOT / "tools" / "gen_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES


@pytest.mark.parametrize("name, argv", sorted(_golden_cases().items()))
def test_output_does_not_depend_on_blas_threads(name, argv):
    # a program that imports numpy before the CLI keeps the inherited threads,
    # so one and two threads must print the same bytes
    procs = [subprocess.Popen([sys.executable, "-m", "qcontexts.cli", *argv],
                              stdout=subprocess.PIPE, env=_env(OPENBLAS_NUM_THREADS=n))
             for n in ("1", "2")]
    (one, _), (two, _) = (p.communicate(timeout=60) for p in procs)
    assert one == two and one
    assert procs[0].returncode == procs[1].returncode == 0


def test_only_jsonio_raises_malformed_document():
    raisers = sorted(p.name for p in SRC.glob("*.py")
                     if re.search(r"(?<!class )MalformedDocument\(", p.read_text(encoding="utf-8")))
    assert raisers == ["jsonio.py"]
