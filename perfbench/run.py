#!/usr/bin/env python3
"""End-to-end benchmark of the qcontexts CLI.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; WORKLOAD is one
of cli-golden, simulate, certify, solve, or ``all`` (every workload in
turn, with every metric printed by name). Each operation is one
``python -m qcontexts.cli ...`` run in a fresh child process, executed
closed-loop: one child at a time, the next started when the previous has
been reaped. Inputs are generated from the seed before timing starts, and
every output is checked by an oracle (see oracles.py).

With ``--trace 0`` the run repeats whole passes over the workload's
operation list for about S seconds and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced passes with traced ones (each
operation run through traced.py) and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller report, with the
environment block and every operation's record, is written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracles
import traced as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up is timed at least SETUP_REPEATS times and for SETUP_SECONDS before
# the first pass, then again for PROBE_SECONDS after every pass, so its
# median samples the machine over the whole run; the median is reported.
SETUP_REPEATS, SETUP_SECONDS, PROBE_SECONDS = 5, 1.0, 0.25
# untraced passes taken even when one pass outlasts --seconds
MIN_PASSES = 2
# a child still running after this long is killed and counted as failed
OP_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "cpu_s": "s",
         "peak_rss_mb": "MiB", "ok_frac": "fraction"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ------------------------------------------------------------- children

def child_env() -> dict[str, str]:
    """The inherited environment plus src/ on PYTHONPATH; BLAS thread
    variables pass through exactly as inherited."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], env: dict, scratch: Path):
    """Run one child to completion; wall time from spawn to reap, CPU time
    and peak RSS from the child's own rusage."""
    with open(scratch / "stdout", "w+b") as out, open(scratch / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], OP_TIMEOUT_S)
            if not ready:
                proc.send_signal(signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return oracles.Result(code=proc.returncode, stdout=out.read(), stderr=err.read(),
                              wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                              maxrss_kb=usage.ru_maxrss)


def judge(op, result) -> tuple[str, str | None]:
    """ok, known-defect (the op's documented defect, exactly as documented)
    or failed. An oracle that raises counts as a failed check."""
    try:
        reason = op.check(result)
    except Exception as exc:  # a broken output must never stop the run
        reason = f"oracle raised {type(exc).__name__}: {exc}"
    if reason is None:
        return "ok", None
    if op.known_defect and op.defect_signature(result):
        return "known-defect", reason
    return "failed", reason


def run_pass(ops, env, scratch: Path, traced: bool, reference=None) -> list[dict]:
    """One closed-loop pass over the operation list. A traced pass also
    checks each stdout byte-for-byte against the untraced ``reference``,
    and asks its children for one tracemalloc measurement until one has
    been taken."""
    records = []
    memtrace = True
    for i, op in enumerate(ops):
        if traced:
            spans = scratch / f"spans-{i}.json"
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "traced.py"), str(spans), op.name,
                   str(time.monotonic_ns()), str(int(memtrace)), "--", *op.argv]
        else:
            cmd = [sys.executable, "-m", "qcontexts.cli", *op.argv]
        result = run_child(cmd, env, scratch)
        outcome, reason = judge(op, result)
        record = {"op": op.name, "outcome": outcome, "reason": reason,
                  "known_defect": op.known_defect, "exit": result.code,
                  "wall_s": result.wall_s, "cpu_s": result.cpu_s, "maxrss_kb": result.maxrss_kb,
                  "stdout": result.stdout}
        if traced:
            if result.stdout != reference[i]["stdout"]:
                record.update(outcome="failed", reason="traced stdout differs from untraced")
            record["trace"] = json.loads(spans.read_text()) if spans.exists() else None
            if record["trace"] is None:
                record.update(outcome="failed", reason="traced child wrote no spans")
            elif any("peak_mb" in s["attrs"] for s in record["trace"]["spans"]):
                record["memtraced"], memtrace = True, False
        records.append(record)
    return records


# -------------------------------------------------------------- metrics

def per_op_median(passes: list[list[dict]], key: str, skip=frozenset()) -> float:
    """Sum over operations (except those indexed in ``skip``) of each
    operation's median across passes."""
    return sum(statistics.median(p[i][key] for p in passes)
               for i in range(len(passes[0])) if i not in skip)


def end_to_end(passes: list[list[dict]], setup_times: list[float]) -> dict[str, float]:
    records = [r for p in passes for r in p]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": per_op_median(passes, "wall_s"),
        "op_p50_ms": 1e3 * statistics.median(
            statistics.median(p[i]["wall_s"] for p in passes) for i in range(len(passes[0]))),
        "cpu_s": per_op_median(passes, "cpu_s"),
        "peak_rss_mb": max(r["maxrss_kb"] for r in records) / 1024,
        "ok_frac": sum(r["outcome"] == "ok" for r in records) / len(records),
    }


def per_layer(plain: list[list[dict]], traced: list[list[dict]]) -> dict[str, float]:
    import workloads

    dims, sizes = workloads.GLEASON_DIMS, workloads.CERTIFY_SIZES
    per_pass = [tracing.pass_metrics([r["trace"] for r in p if r["trace"]], dims, sizes)
                for p in traced]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    # the operation measured under tracemalloc is left out of the overhead
    skip = {i for p in traced for i, r in enumerate(p) if r.get("memtraced")}
    untraced = per_op_median(plain, "wall_s", skip)
    metrics["trace.overhead_pct"] = (
        100.0 * (per_op_median(traced, "wall_s", skip) - untraced) / untraced)
    return metrics


def unit_of(name: str) -> str:
    special = {"core.steps_per_s": "1/s", "partition.nodes_per_ms": "1/ms",
               "gleason.condition_number": "ratio", "trace.overhead_pct": "%"}
    if name in UNITS or name in special:
        return UNITS.get(name) or special[name]
    kind = name.split(".")[1]
    return "ms" if kind.endswith("_ms") else "MiB" if kind.endswith("_mb") else "count"


# ----------------------------------------------------------- environment

def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


# ------------------------------------------------------------------ run

def time_setup(name: str, seed: int, directory: Path, repeats: int, seconds: float):
    """Build the workload's inputs into ``directory`` at least ``repeats``
    times and until ``seconds`` have been spent; returns (times, ops)."""
    import workloads

    times = []
    while len(times) < repeats or sum(times) < seconds:
        shutil.rmtree(directory, ignore_errors=True)
        t0 = time.perf_counter()
        ops = workloads.build(name, seed, directory)
        times.append(time.perf_counter() - t0)
    return times, ops


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    scratch = OUT / f"work-{name}-{os.getpid()}"
    try:
        setup_times, ops = time_setup(name, seed, scratch / "inputs", SETUP_REPEATS, SETUP_SECONDS)
        # compile bytecode and warm the page cache before anything is timed
        run_child([sys.executable, "-m", "qcontexts.cli", "--version"], env, scratch)

        plain, traced = [], []
        start = time.perf_counter()
        while True:
            plain.append(run_pass(ops, env, scratch, traced=False))
            if trace:
                traced.append(run_pass(ops, env, scratch, traced=True, reference=plain[-1]))
            setup_times += time_setup(name, seed, scratch / "probe", 1, PROBE_SECONDS)[0]
            # stop before a pass that would end past the budget, but take at
            # least MIN_PASSES untraced passes so every per-op median has company
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 1 / len(plain)) > seconds and (trace or len(plain) >= MIN_PASSES):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = per_layer(plain, traced) if trace else end_to_end(plain, setup_times)
    records = [r for p in plain + traced for r in p]
    return {"workload": name, "seed": seed, "trace": int(trace), "passes": len(plain),
            "ops_per_pass": len(ops), "setup_times_s": setup_times, "metrics": metrics,
            "attempted": len(records),
            "failed": sum(r["outcome"] == "failed" for r in records),
            "known_defects": sum(r["outcome"] == "known-defect" for r in records),
            "records": records}


def describe(report: dict) -> list[str]:
    """Human-readable lines: every metric by name, unit and sample count,
    then failures and known defects by operation name."""
    n_ops, n_passes = report["ops_per_pass"], report["passes"]
    lines = [f"[{report['workload']}] seed={report['seed']} trace={report['trace']} "
             f"passes={n_passes} ops/pass={n_ops} (closed loop, 1 client)"]
    samples = {"setup_s": f"median of {len(report['setup_times_s'])} set-ups",
               "wall_s": f"sum of {n_ops} per-op medians over {n_passes} passes",
               "op_p50_ms": f"median over {n_ops} ops of each op's median over {n_passes} passes",
               "cpu_s": f"sum of {n_ops} per-op medians over {n_passes} passes",
               "peak_rss_mb": f"max of {n_ops * n_passes} children",
               "ok_frac": f"of {report['attempted']} ops"}
    for name, value in report["metrics"].items():
        note = samples.get(name, f"median over {n_passes} traced passes")
        lines.append(f"  {name:<34} {value:>14.6g} {unit_of(name):<8} ({note})")
    bad = [r for r in report["records"] if r["outcome"] != "ok"]
    lines.append(f"  fail_frac = {len(bad)}/{report['attempted']}"
                 f" (known defects {report['known_defects']}, other failures {report['failed']})")
    for (op, outcome, defect, reason), count in Counter(
            (r["op"], r["outcome"], r["known_defect"], r["reason"]) for r in bad).items():
        label = f"known defect {defect}" if outcome == "known-defect" else "FAILED"
        lines.append(f"    {op} x{count}: {label}: {reason}")
    return lines


def save(report: dict, env: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    records = [{k: v for k, v in r.items() if k != "stdout"} for r in report["records"]]
    path.write_text(json.dumps({**report, "records": records, "environment": env}, indent=1))


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/qcontexts/cli.py", "tests/golden", "tools/gen_golden.py")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a qcontexts checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = environment()
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        save(report, env)
        print("\n".join(describe(report)), flush=True)
        reports.append(report)
    print("environment: " + json.dumps(env, sort_keys=True))
    prefix = len(reports) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {(f"{r['workload']}." if prefix else "") + k: {"value": v, "unit": unit_of(k)}
                    for r in reports for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
