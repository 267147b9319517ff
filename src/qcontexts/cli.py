"""Command-line interface: one subcommand per engine, JSON in and out.

Exit codes are uniform across subcommands: 0 for success or a confirmed
property, 1 for a semantically negative result (a satisfiable instance,
a failed certification), 2 for malformed input, usage errors and any
other failure, so that a crash never reads as a negative result. Output
is deterministic for fixed inputs, flags, and seed.

OpenBLAS runs one thread unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is set: a command's matrices (dimension 3 to 16, a Gleason
fit of a few hundred rows) gain nothing from a second thread, whose idle
spinning at start-up and exit costs about a third of a short command's
CPU time. The policy is set before numpy loads OpenBLAS, so a program
that imported numpy before the CLI keeps its threads.

The process entry, entry(), calls gc.freeze() after the imports. They
leave about 22,000 objects, none of them garbage, that CPython's exit
would otherwise scan again in full collections of 5 to 8 ms each. What
a command creates stays collectable; main() alone leaves the caller's
collector as it is.
"""

from __future__ import annotations

import gc
import os
import sys

if "numpy" not in sys.modules and not any(
        var in os.environ
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
from typing import NamedTuple

import numpy as np

from . import __version__
from .core import check_seed, context_distribution, repeat_simulation
from .errors import QContextsError
from .gleason import born_case_check, reconstruct_density
from .jsonio import (
    complex_to_pair,
    contexts_from_json,
    context_from_json,
    density_from_json,
    density_to_json,
    frame_samples_from_json,
    ks_instance_from_json,
    load_json_file,
    matrix_to_json,
    permutation_from_json,
    ray_map_from_json,
)
from .linalg import Tolerance
from .partition import search_assignment
from .topology import orthogonal_obstruction, unitary_path_to_identity
from .uhlhorn import Verdict, check_orthogonality_preserving, classify_transform, fit_transform

__all__ = ["main", "entry", "RunConfig"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


class RunConfig(NamedTuple):
    """Reproducibility knobs shared by every subcommand."""

    seed: int = 0
    tolerance_abs: float = 1e-9
    output_format: str = "json"

    @property
    def tol(self) -> Tolerance:
        return Tolerance(abs_eps=self.tolerance_abs, rel_eps=self.tolerance_abs)


def _emit(payload: dict, config: RunConfig) -> None:
    if config.output_format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2))
        sys.stdout.write("\n")
    else:
        for line in _text_lines(payload):
            sys.stdout.write(line + "\n")


def _text_lines(payload: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_text_lines(value, prefix + "  "))
        else:
            lines.append(f"{prefix}{key}: {json.dumps(value, sort_keys=True)}")
    return lines


def cmd_born(args, config: RunConfig) -> int:
    rho = density_from_json(load_json_file(args.density), config.tol)
    context = context_from_json(load_json_file(args.context), config.tol)
    probs = context_distribution(rho, context, config.tol)
    payload = {
        "command": "born",
        "dim": context.dim,
        "context_label": context.label,
        "probabilities": [float(x) for x in probs],
        "sum": float(np.sum(probs)),
    }
    _emit(payload, config)
    return EXIT_OK


def cmd_gleason_fit(args, config: RunConfig) -> int:
    samples = frame_samples_from_json(load_json_file(args.samples), config.tol)
    report = reconstruct_density(samples, config.tol)
    pure = born_case_check(report.rho, config.tol)
    payload = {
        "command": "gleason-fit",
        "dim": report.rho.dim,
        "n_samples": len(samples),
        # a density document: feed it back to `born` as-is
        "rho": density_to_json(report.rho),
        "residual_rms": report.residual_rms,
        "design_rank": report.design_rank,
        "condition_number": report.condition_number,
        "psd_correction": report.psd_correction,
        "pure_case": None if pure is None else
            [complex_to_pair(complex(z)) for z in pure.vector],
    }
    _emit(payload, config)
    return EXIT_OK


def cmd_uhlhorn(args, config: RunConfig) -> int:
    ray_map = ray_map_from_json(load_json_file(args.raymap), config.tol)
    check = check_orthogonality_preserving(ray_map, config.tol)
    payload: dict = {
        "command": "uhlhorn",
        "dim": ray_map.dim,
        "n_rays": len(ray_map.pairs),
        "orthogonality_preserving": check.ok,
    }
    if not check.ok:
        payload.update({
            "violating_pair": list(check.violating_pair),
            "source_product_norm": check.source_product_norm,
            "target_product_norm": check.target_product_norm,
        })
        _emit(payload, config)
        return EXIT_NEGATIVE

    classification = classify_transform(ray_map, config.tol)
    verdict, triple, source_value, target_value = classification
    payload.update({
        "verdict": verdict.value,
        "witness_triple": None if triple is None else list(triple),
        "witness_source_value": None if source_value is None else complex_to_pair(source_value),
        "witness_target_value": None if target_value is None else complex_to_pair(target_value),
    })
    if verdict is Verdict.NEITHER:
        _emit(payload, config)
        return EXIT_NEGATIVE

    fit = fit_transform(ray_map, config.tol, classification=classification)
    payload.update({
        "antiunitary": fit.transform.antiunitary,
        "matrix": matrix_to_json(fit.transform.matrix),
        "residual": fit.residual,
        "ambiguous_branch": fit.ambiguous_branch,
        "fiduciary_label": fit.fiduciary_label,
    })
    _emit(payload, config)
    return EXIT_OK


def cmd_ks(args, config: RunConfig) -> int:
    inst = ks_instance_from_json(load_json_file(args.instance), config.tol)
    result = search_assignment(inst)
    payload = {
        "command": "ks",
        "dim": inst.dim,
        "n_vectors": inst.n_vectors,
        "n_bases": len(inst.bases),
        "status": result.status,
        "nodes_explored": result.nodes_explored,
        "assignment": None if result.assignment is None else list(result.assignment),
        "certificate": None if result.certificate is None else {
            "basis_count": result.certificate.basis_count,
            "multiplicities": list(result.certificate.multiplicities),
            "argument": result.certificate.describe(),
        },
    }
    _emit(payload, config)
    return EXIT_OK if result.status == "UNSAT" else EXIT_NEGATIVE


def cmd_perm_path(args, config: RunConfig) -> int:
    sigma = permutation_from_json(load_json_file(args.permutation))
    report = unitary_path_to_identity(sigma, args.steps)
    obstruction = orthogonal_obstruction(sigma)
    if args.emit_samples:
        samples = [matrix_to_json(report.samples[k]) for k in range(report.steps)]
    else:
        samples = [matrix_to_json(report.samples[0]), matrix_to_json(report.samples[-1])]
    payload = {
        "command": "perm-path",
        "n": sigma.n,
        "images": list(sigma.images),
        "steps": report.steps,
        "endpoint_errors": [report.endpoint_errors[0], report.endpoint_errors[1]],
        "max_unitarity_deviation": report.max_unitarity_deviation,
        "max_step_distance": report.max_step_distance,
        "det_sign": obstruction.det_sign,
        "connected_in_orthogonal_group": obstruction.connected_in_orthogonal_group,
        "samples_included": "all" if args.emit_samples else "endpoints",
        "samples": samples,
    }
    _emit(payload, config)
    return EXIT_OK


def cmd_simulate(args, config: RunConfig) -> int:
    # a bad --seed is an input error, reported before any file is read
    check_seed(config.seed)
    rho = density_from_json(load_json_file(args.initial), config.tol)
    initial = born_case_check(rho, config.tol)
    if initial is None:
        raise QContextsError(
            "initial state must be a rank-1 projector (pure state)")
    contexts = contexts_from_json(load_json_file(args.contexts), config.tol)
    runs = repeat_simulation(initial, contexts, config.seed, args.repeats)
    counts = [np.bincount(runs[:, step], minlength=c.dim)
              for step, c in enumerate(contexts)]
    payload = {
        "command": "simulate",
        "seed": config.seed,
        "repeats": args.repeats,
        "sequence": [
            {"context_label": c.label, "outcome_index": int(o)}
            for c, o in zip(contexts, runs[0])
        ],
        "frequencies": [
            {
                "context_label": contexts[step].label,
                "counts": [int(x) for x in counts[step]],
                "frequencies": [float(x) / args.repeats for x in counts[step]],
            }
            for step in range(len(contexts))
        ],
    }
    _emit(payload, config)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcontexts",
        description="Measurement contexts, Born probabilities, ray-map "
                    "certification, valuation search, and permutation paths.",
    )
    parser.add_argument("--version", action="version", version=f"qcontexts {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=float, default=1e-9,
                       help="absolute tolerance for approximate comparisons")
        p.add_argument("--seed", type=int, default=0,
                       help="64-bit seed for any randomized step")
        p.add_argument("--format", choices=("json", "text"), default="json",
                       help="output format")

    p = sub.add_parser("born", help="context distribution of a density operator")
    p.add_argument("density", help="density operator JSON file")
    p.add_argument("context", help="context JSON file")
    common(p)
    p.set_defaults(handler=cmd_born)

    p = sub.add_parser("gleason-fit", help="reconstruct a density operator from frame samples")
    p.add_argument("samples", help="frame-sample JSON file (flat or context-grouped)")
    common(p)
    p.set_defaults(handler=cmd_gleason_fit)

    p = sub.add_parser("uhlhorn", help="certify an orthogonality-preserving ray map")
    p.add_argument("raymap", help="ray-map JSON file")
    common(p)
    p.set_defaults(handler=cmd_uhlhorn)

    p = sub.add_parser("ks", help="search {0,1} valuations on a vector system")
    p.add_argument("instance", help="vector-system JSON file")
    common(p)
    p.set_defaults(handler=cmd_ks)

    p = sub.add_parser("perm-path", help="unitary path from identity to a permutation")
    p.add_argument("permutation", help="permutation JSON file")
    p.add_argument("--steps", type=int, default=101, help="number of path samples")
    p.add_argument("--emit-samples", action="store_true",
                   help="include every sampled matrix instead of endpoints only")
    common(p)
    p.set_defaults(handler=cmd_perm_path)

    p = sub.add_parser("simulate", help="sequential measurement simulation")
    p.add_argument("initial", help="initial pure state as a density JSON file")
    p.add_argument("contexts", help="context or context-list JSON file")
    p.add_argument("--repeats", type=int, default=1,
                   help="number of seeded runs to aggregate")
    common(p)
    p.set_defaults(handler=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(seed=args.seed, tolerance_abs=args.tol,
                       output_format=args.format)
    try:
        return args.handler(args, config)
    except Exception as exc:  # any crash: exit 1 would read as a negative result
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> int:
    """Process entry: freeze the import heap, then run main()."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
