"""Layering guards: what the CLI loads, and which module reads documents."""

import os
import re
import subprocess
import sys
from pathlib import Path

import qcontexts

SRC = Path(qcontexts.__file__).parent


def test_cli_import_leaves_sampling_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = "import sys, qcontexts.cli; print('qcontexts.sampling' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_only_jsonio_raises_malformed_document():
    raisers = sorted(p.name for p in SRC.glob("*.py")
                     if re.search(r"(?<!class )MalformedDocument\(", p.read_text(encoding="utf-8")))
    assert raisers == ["jsonio.py"]
