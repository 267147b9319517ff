"""Self-tests of the benchmark: deterministic inputs, oracles that reject
corrupted outputs, and exact counts that repeat across traced runs.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from qcontexts.cli import main as cli_main  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to toy sizes (no known-defect reproducers)."""
    monkeypatch.setattr(workloads, "SIMULATE_SHAPES", ((3, 3, 40),))
    monkeypatch.setattr(workloads, "CERTIFY_SIZES", (13,))
    monkeypatch.setattr(workloads, "GLEASON_DIMS", (3,))
    monkeypatch.setattr(workloads, "SAT_BASES", (20,))


def run_in_process(op) -> oracles.Result:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
    return oracles.Result(code=code, stdout=out.getvalue().encode(), stderr=b"")


def ops_by_name(workload: str, tmp_path: Path, seed: int = 5) -> dict:
    return {op.name: op for op in workloads.build(workload, seed, tmp_path / workload)}


def edited(result: oracles.Result, edit) -> oracles.Result:
    payload = json.loads(result.stdout)
    edit(payload)
    return replace(result, stdout=json.dumps(payload, sort_keys=True, indent=2).encode() + b"\n")


# ---------------------------------------------------------------- inputs

def _snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed_and_differ_across_seeds(workload, tmp_path):
    a = workloads.build(workload, 11, tmp_path / "a")
    b = workloads.build(workload, 11, tmp_path / "b")
    workloads.build(workload, 12, tmp_path / "c")
    assert [op.name for op in a] == [op.name for op in b]
    assert _snapshot(tmp_path / "a") == _snapshot(tmp_path / "b")
    assert _snapshot(tmp_path / "a") != _snapshot(tmp_path / "c")


def test_known_defects_are_the_three_named_reproducers(tmp_path):
    defects = {op.name: op.known_defect for w in workloads.WORKLOADS
               for op in workloads.build(w, 1, tmp_path / w) if op.known_defect}
    assert defects == {"malformed:born-dim-list": "born-dim-list-typeerror",
                       "malformed:simulate-seed-negative": "simulate-seed-negative-accepted",
                       "ks:sat-1200-bases": "ks-recursion-1200"}


def test_peres_and_ternary_ray_sets():
    assert len(workloads.peres_rays()) == 24
    assert len(workloads.orthogonal_bases(workloads.peres_rays())) == 24
    assert len(workloads.ternary_rays()) == 40


# --------------------------------------------------------------- oracles

def test_certify_oracles_reject_a_flipped_verdict_and_a_moved_pair(small, tmp_path):
    ops = ops_by_name("certify", tmp_path)
    for name, flipped in (("certify:k13-unitary", "Antiunitary"),
                          ("certify:k13-antiunitary", "Unitary")):
        good = run_in_process(ops[name])
        assert ops[name].check(good) is None
        assert ops[name].check(edited(good, lambda p: p.update(verdict=flipped))) is not None
        nudged = edited(good, lambda p: p["matrix"][0][0].__setitem__(0, p["matrix"][0][0][0] + 1e-6))
        assert ops[name].check(nudged) is not None
    broken = ops["certify:k13-broken"]
    good = run_in_process(broken)
    assert good.code == 1 and broken.check(good) is None
    moved = edited(good, lambda p: p["violating_pair"].__setitem__(1, p["violating_pair"][1] + 1))
    assert broken.check(moved) is not None
    assert broken.check(replace(good, code=0)) is not None


def test_gleason_oracle_rejects_a_perturbed_rho(small, tmp_path):
    op = ops_by_name("solve", tmp_path)["gleason-fit:n3"]
    good = run_in_process(op)
    assert op.check(good) is None
    bad = edited(good, lambda p: p["rho"]["matrix"][1][2].__setitem__(0, p["rho"]["matrix"][1][2][0] + 1e-7))
    assert op.check(bad) is not None


def test_ks_oracle_rejects_a_wrong_assignment_and_unexpected_unsat(small, tmp_path):
    ops = ops_by_name("solve", tmp_path)
    sat = ops["ks:sat-20-bases"]
    good = run_in_process(sat)
    assert good.code == 1 and sat.check(good) is None
    wrong = edited(good, lambda p: p["assignment"].__setitem__(0, 1 - p["assignment"][0]))
    assert sat.check(wrong) is not None
    unsat = edited(good, lambda p: p.update(status="UNSAT", assignment=None))
    assert sat.check(replace(unsat, code=0)) is not None
    peres = ops["ks:peres-24"]
    refuted = run_in_process(peres)
    assert refuted.code == 0 and peres.check(refuted) is None
    assert peres.check(replace(edited(refuted, lambda p: p.update(status="SAT")), code=1)) is not None


def test_simulate_oracle_rejects_a_changed_count_or_sequence(small, tmp_path):
    op = next(iter(ops_by_name("simulate", tmp_path).values()))
    good = run_in_process(op)
    assert op.check(good) is None

    def move_count(p):
        counts = p["frequencies"][1]["counts"]
        i = counts.index(max(counts))
        counts[i] -= 1
        counts[(i + 1) % len(counts)] += 1

    assert op.check(edited(good, move_count)) is not None

    def move_outcome(p):
        step = p["sequence"][0]
        step["outcome_index"] = (step["outcome_index"] + 1) % 3

    assert op.check(edited(good, move_outcome)) is not None


def test_golden_and_usage_oracles(tmp_path):
    ops = ops_by_name("cli-golden", tmp_path)
    golden = ops["golden:perm_transposition"]
    good = run_in_process(golden)
    assert golden.check(good) is None
    assert golden.check(replace(good, stdout=good.stdout.replace(b"3", b"4", 1))) is not None
    usage = ops["malformed:ks-bad-index"]
    assert usage.check(oracles.Result(2, b"", b"error: MalformedDocument: bad\n")) is None
    assert usage.check(oracles.Result(1, b"", b"Traceback ...\nValueError\n")) is not None
    assert usage.check(oracles.Result(2, b"{}", b"error: x\n")) is not None


# ------------------------------------------------------------ traced run

def test_traced_run_matches_untraced_stdout_and_repeats_exact_counts(small, tmp_path):
    names = ("certify:k13-unitary", "gleason-fit:n3", "ks:peres-24", "ks:sat-20-bases")
    ops = [op for w in ("certify", "solve") for op in workloads.build(w, 3, tmp_path / w)
           if op.name in names] + workloads.build("simulate", 3, tmp_path / "simulate")
    env = run.child_env()
    plain = run.run_pass(ops, env, tmp_path, traced=False)
    counts = []
    for _ in range(2):
        records = run.run_pass(ops, env, tmp_path, traced=True, reference=plain)
        assert [r["outcome"] for r in records] == ["ok"] * len(ops)
        m = traced.pass_metrics([r["trace"] for r in records], (3,), (13,))
        counts.append({k: m[k] for k in ("partition.nodes", "core.runs",
                                         "gleason.design_rank", "uhlhorn.triples")})
    assert counts[0] == counts[1]
    assert all(counts[0].values())
    assert counts[0]["core.runs"] == 40 and counts[0]["gleason.design_rank"] == 9
