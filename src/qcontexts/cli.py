"""Command-line interface: one subcommand per engine, JSON in and out.

main() is the one driver: it checks the shared flags --tol and --seed for
every subcommand before any document is read, calls the subcommand's
handler, which only builds its payload and exit code, and prints the
payload once. Exit codes are uniform: 0 for success or a confirmed
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
from .topology import orthogonal_obstruction, path_samples, unitary_path_to_identity
from .uhlhorn import Verdict, check_orthogonality_preserving, classify_transform, fit_transform

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

# runs sampled per repeat_simulation call, so memory stays flat in --repeats
_SIMULATE_CHUNK = 2**16


def _emit(payload: dict, output_format: str) -> None:
    if output_format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("".join(line + "\n" for line in _text_lines(payload)))


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


def cmd_born(args, tol: Tolerance) -> tuple[dict, int]:
    rho = density_from_json(load_json_file(args.density), tol)
    context = context_from_json(load_json_file(args.context), tol)
    probs = context_distribution(rho, context, tol)
    payload = {
        "command": "born",
        "dim": context.dim,
        "context_label": context.label,
        "probabilities": [float(x) for x in probs],
        "sum": float(np.sum(probs)),
    }
    return payload, EXIT_OK


def cmd_gleason_fit(args, tol: Tolerance) -> tuple[dict, int]:
    samples = frame_samples_from_json(load_json_file(args.samples), tol)
    report = reconstruct_density(samples, tol)
    pure = born_case_check(report.rho, tol)
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
    return payload, EXIT_OK


def cmd_uhlhorn(args, tol: Tolerance) -> tuple[dict, int]:
    ray_map = ray_map_from_json(load_json_file(args.raymap), tol)
    check = check_orthogonality_preserving(ray_map, tol)
    payload: dict = {
        "command": "uhlhorn",
        "dim": ray_map.dim,
        "n_rays": len(ray_map.source_vectors),
        "orthogonality_preserving": check.ok,
    }
    if not check.ok:
        payload.update({
            "violating_pair": list(check.violating_pair),
            "source_product_norm": check.source_product_norm,
            "target_product_norm": check.target_product_norm,
        })
        return payload, EXIT_NEGATIVE

    classification = classify_transform(ray_map, tol)
    verdict, triple, source_value, target_value = classification
    payload.update({
        "verdict": verdict.value,
        "witness_triple": None if triple is None else list(triple),
        "witness_source_value": None if source_value is None else complex_to_pair(source_value),
        "witness_target_value": None if target_value is None else complex_to_pair(target_value),
    })
    if verdict is Verdict.NEITHER:
        return payload, EXIT_NEGATIVE

    fit = fit_transform(ray_map, classification, tol)
    payload.update({
        "antiunitary": fit.transform.antiunitary,
        "matrix": matrix_to_json(fit.transform.matrix),
        "residual": fit.residual,
        "ambiguous_branch": fit.ambiguous_branch,
        "fiduciary_label": fit.fiduciary_label,
    })
    return payload, EXIT_OK


def cmd_ks(args, tol: Tolerance) -> tuple[dict, int]:
    inst = ks_instance_from_json(load_json_file(args.instance), tol)
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
    return payload, EXIT_OK if result.status == "UNSAT" else EXIT_NEGATIVE


def cmd_perm_path(args, tol: Tolerance) -> tuple[dict, int]:
    sigma = permutation_from_json(load_json_file(args.permutation))
    report = unitary_path_to_identity(sigma, args.steps)
    obstruction = orthogonal_obstruction(sigma)
    samples = path_samples(sigma, report.times if args.emit_samples else report.times[[0, -1]])
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
        "samples": [matrix_to_json(u) for u in samples],
    }
    return payload, EXIT_OK


def cmd_simulate(args, tol: Tolerance) -> tuple[dict, int]:
    rho = density_from_json(load_json_file(args.initial), tol)
    initial = born_case_check(rho, tol)
    if initial is None:
        raise QContextsError(
            "initial state must be a rank-1 projector (pure state)")
    contexts = contexts_from_json(load_json_file(args.contexts), tol)
    counts = [np.zeros(c.dim, dtype=np.int64) for c in contexts]
    # run k keeps its key seed + k in any chunk; a count below 1 still
    # reaches repeat_simulation, which rejects it
    for start in range(0, max(args.repeats, 1), _SIMULATE_CHUNK):
        runs = repeat_simulation(initial, contexts, (args.seed + start) % 2**64,
                                 min(_SIMULATE_CHUNK, args.repeats - start))
        if start == 0:
            sequence = [{"context_label": c.label, "outcome_index": int(o)}
                        for c, o in zip(contexts, runs[0])]
        for step, c in enumerate(contexts):
            counts[step] += np.bincount(runs[:, step], minlength=c.dim)
    payload = {
        "command": "simulate",
        "seed": args.seed,
        "repeats": args.repeats,
        "sequence": sequence,
        "frequencies": [
            {
                "context_label": contexts[step].label,
                "counts": [int(x) for x in counts[step]],
                "frequencies": [float(x) / args.repeats for x in counts[step]],
            }
            for step in range(len(contexts))
        ],
    }
    return payload, EXIT_OK


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
    args = build_parser().parse_args(argv)
    try:
        # an out-of-range --tol or --seed exits 2 like any other bad input
        try:
            tol = Tolerance(args.tol)
        except ValueError as exc:  # name the flag, not Tolerance's field
            raise ValueError(str(exc).replace("abs_eps", "--tol", 1)) from None
        check_seed(args.seed)
        payload, code = args.handler(args, tol)
        _emit(payload, args.format)
        return code
    except Exception as exc:  # any crash: exit 1 would read as a negative result
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> int:
    """Process entry: freeze the import heap, then run main()."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
