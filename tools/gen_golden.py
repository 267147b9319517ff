#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden/.

Run from the repository root after any intentional output change:
    python3 tools/gen_golden.py

A golden file is rewritten only when its bytes differ, and each file is
reported as changed or unchanged, so a deliberate change shows exactly
which files it touched.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from qcontexts.cli import main
from qcontexts.jsonio import dataset_path

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"

CASES = {
    "born_mixed_fourier.json": [
        "born", str(dataset_path("density_mixed_dim3.json")),
        str(dataset_path("context_fourier_dim3.json")),
    ],
    "gleason_demo.json": [
        "gleason-fit", str(dataset_path("gleason_demo_dim3.json")),
    ],
    "uhlhorn_unitary.json": [
        "uhlhorn", str(dataset_path("raymap_unitary_dim3.json")),
    ],
    "uhlhorn_antiunitary.json": [
        "uhlhorn", str(dataset_path("raymap_antiunitary_dim3.json")),
    ],
    "ks_dim4.json": [
        "ks", str(dataset_path("ks_dim4_18vectors.json")),
    ],
    "ks_dim3_closure.json": [
        "ks", str(dataset_path("ks_dim3_33rays_closure.json")),
    ],
    "perm_transposition.json": [
        "perm-path", str(dataset_path("perm_transposition_n3.json")),
    ],
    "perm_4cycle.json": [
        "perm-path", str(dataset_path("perm_4cycle_n4.json")),
    ],
    "simulate_fourier_100.json": [
        "simulate", str(dataset_path("density_e1_dim3.json")),
        str(dataset_path("contexts_fourier_seq_dim3.json")),
        "--repeats", "100", "--seed", "0",
    ],
}


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def main_tool() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        code, out = run_cli(argv)
        if code != 0:
            raise SystemExit(f"{name}: unexpected exit code {code}")
        path = GOLDEN / name
        data = out.encode("utf-8")
        if path.exists() and path.read_bytes() == data:
            print(f"unchanged tests/golden/{name}")
            continue
        path.write_bytes(data)
        print(f"changed tests/golden/{name} ({len(data)} bytes)")


if __name__ == "__main__":
    main_tool()
