"""Seeded inputs and operation lists for the four benchmark workloads.

Every operation is one ``qcontexts`` CLI invocation plus the oracle that
checks its output. ``build(workload, seed, workdir)`` writes the input
documents into ``workdir`` and returns the operations; the same seed
gives byte-identical documents. Inputs are drawn with the library's own
``sampling`` layer on a Philox generator keyed by the workload seed.

Some operations reproduce a documented defect of the program. They keep
their contract oracle (the behaviour the program should have) and carry
the name and signature of the defect, so the benchmark can report them
by name until a fix makes them pass.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qcontexts.core import make_generator
from qcontexts.jsonio import dataset_path
from qcontexts.sampling import random_context, random_density, random_state_vector, random_unitary

import oracles

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("cli-golden", "simulate", "certify", "solve")

# (dim, number of contexts, repeats) for each simulate operation
SIMULATE_SHAPES = ((3, 4, 30000), (8, 16, 5000))
# ray counts of the certified maps; every map lives in dimension 3
CERTIFY_SIZES = (13, 60, 210)
# dimensions of the gleason-fit reconstructions, each from n^2 + n rays
GLEASON_DIMS = (3, 6, 10, 16)
# disjoint random bases in dimension 3; 1200 exceeds the recursion limit
SAT_BASES = (300, 900, 1200)


@dataclass(frozen=True)
class Op:
    """One CLI invocation with its oracle.

    ``check`` returns None when the output is correct and a reason
    otherwise. ``known_defect`` names a documented defect the operation
    reproduces, and ``defect_signature`` recognizes that defect's exact
    symptom, so a defect that changes shape still counts as a failure.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[oracles.Result], str | None]
    known_defect: str | None = None
    defect_signature: Callable[[oracles.Result], bool] | None = None


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    # one independent stream per workload, so workloads never share draws
    rng = make_generator((seed * len(WORKLOADS) + WORKLOADS.index(workload)) % 2**64)
    builder = {"cli-golden": _cli_golden, "simulate": _simulate,
               "certify": _certify, "solve": _solve}[workload]
    return builder(rng, workdir)


# ---------------------------------------------------------------- writers

def _pairs(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=np.complex128)]


def _write(workdir: Path, name: str, doc) -> str:
    path = workdir / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _density_doc(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "matrix": [_pairs(row) for row in m]}


def _context_doc(vectors, label: str) -> dict:
    return {"dim": len(vectors), "label": label, "vectors": [_pairs(v) for v in vectors]}


# ------------------------------------------------------------- cli-golden

def golden_cases() -> dict[str, list[str]]:
    """The invocations tools/gen_golden.py uses to write tests/golden/."""
    spec = importlib.util.spec_from_file_location("gen_golden", ROOT / "tools" / "gen_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES


def _cli_golden(rng, workdir: Path) -> list[Op]:
    ops = [Op(f"golden:{name.removesuffix('.json')}", tuple(argv),
              oracles.golden((ROOT / "tests" / "golden" / name).read_bytes()))
           for name, argv in golden_cases().items()]

    rho = random_density(3, rng).matrix
    context = dataset_path("context_fourier_dim3.json")
    bad_dim = _write(workdir, "born_dim_list.json",
                     {"dim": [3], "matrix": [_pairs(row) for row in rho]})
    ops.append(Op("malformed:born-dim-list", ("born", bad_dim, str(context)),
                  oracles.usage_error(), known_defect="born-dim-list-typeerror",
                  defect_signature=oracles.crash_signature("TypeError")))

    truncated = workdir / "born_truncated.json"
    truncated.write_text(json.dumps(_density_doc(rho))[:-7], encoding="utf-8")
    ops.append(Op("malformed:born-invalid-json", ("born", str(truncated), str(context)),
                  oracles.usage_error()))

    skew = [random_state_vector(3, rng) for _ in range(3)]  # not orthonormal
    density = _write(workdir, "born_density.json", _density_doc(rho))
    skew_ctx = _write(workdir, "born_skew_context.json", _context_doc(skew, "skew"))
    ops.append(Op("malformed:born-skew-context", ("born", density, skew_ctx),
                  oracles.usage_error()))

    u = random_unitary(3, rng)
    bad_index = _write(workdir, "ks_bad_index.json", {
        "dim": 3, "vectors": [_pairs(u[:, k]) for k in range(3)], "bases": [[0, 1, 3]]})
    ops.append(Op("malformed:ks-bad-index", ("ks", bad_index), oracles.usage_error()))

    v = random_state_vector(2, rng)
    dim2 = _write(workdir, "raymap_dim2.json", {
        "dim": 2, "pairs": [{"source": _pairs(v), "target": _pairs(v)}]})
    ops.append(Op("malformed:uhlhorn-dim2", ("uhlhorn", dim2), oracles.usage_error()))

    ops.append(Op("malformed:simulate-seed-negative", (
        "simulate", str(dataset_path("density_e1_dim3.json")),
        str(dataset_path("contexts_fourier_seq_dim3.json")), "--repeats", "3", "--seed", "-1"),
        oracles.usage_error(), known_defect="simulate-seed-negative-accepted",
        defect_signature=oracles.negative_seed_signature))
    return ops


# --------------------------------------------------------------- simulate

def _simulate(rng, workdir: Path) -> list[Op]:
    ops = []
    for dim, n_contexts, repeats in SIMULATE_SHAPES:
        tag = f"d{dim}x{n_contexts}x{repeats}"
        psi = random_state_vector(dim, rng)
        initial = _density_doc(np.outer(psi, psi.conj()))
        contexts = [random_context(dim, rng) for _ in range(n_contexts)]
        doc = {"contexts": [_context_doc([p.vector for p in c.projectors], f"c{i}")
                            for i, c in enumerate(contexts)]}
        sim_seed = int(rng.integers(0, 2**63))
        argv = ("simulate", _write(workdir, f"sim_{tag}_initial.json", initial),
                _write(workdir, f"sim_{tag}_contexts.json", doc),
                "--repeats", str(repeats), "--seed", str(sim_seed))
        ops.append(Op(f"simulate:{tag}", argv,
                      oracles.SimulateOracle(initial, doc, sim_seed, repeats)))
    return ops


# ---------------------------------------------------------------- certify

def gadget_rays(basis: np.ndarray) -> list[np.ndarray]:
    """Basis rays plus (e1 + ek)/sqrt 2 and (e1 + i ek)/sqrt 2 for k >= 2."""
    e = [basis[:, k] for k in range(basis.shape[1])]
    rays = list(e)
    for k in range(1, len(e)):
        rays += [(e[0] + e[k]) / np.sqrt(2.0), (e[0] + 1j * e[k]) / np.sqrt(2.0)]
    return rays


def ray_map(rng, k: int, antiunitary: bool, broken: bool = False):
    """Operator-induced map on a gadget set plus random rays, shuffled and
    rephased. Returns (document, hidden operator, sources, targets).

    A broken map replaces the target of one random extra ray with a ray
    orthogonal to the first basis ray's target, while their sources still
    overlap, so orthogonality is no longer preserved.
    """
    dim = 3
    hidden = random_unitary(dim, rng)
    fiducial = random_unitary(dim, rng)
    gadget = gadget_rays(fiducial)
    sources = gadget + [random_state_vector(dim, rng) for _ in range(k - len(gadget))]
    targets = [hidden @ (s.conj() if antiunitary else s) for s in sources]
    if broken:
        partner = int(rng.integers(len(gadget), k))
        w = random_state_vector(dim, rng)
        targets[partner] = w - np.vdot(targets[0], w) * targets[0]
    order = rng.permutation(k)
    phases = np.exp(2j * np.pi * rng.random((2, k)))
    sources = [sources[i] * phases[0, j] for j, i in enumerate(order)]
    targets = [targets[i] * phases[1, j] for j, i in enumerate(order)]
    doc = {"dim": dim,
           "pairs": [{"source": _pairs(s), "target": _pairs(t)}
                     for s, t in zip(sources, targets)],
           "covering_contexts": [_context_doc(list(fiducial.T), "fiducial")]}
    return doc, hidden, sources, targets


def _certify(rng, workdir: Path) -> list[Op]:
    ops = []
    for k in CERTIFY_SIZES:
        for anti in (False, True):
            branch = "Antiunitary" if anti else "Unitary"
            doc, hidden, _, _ = ray_map(rng, k, anti)
            path = _write(workdir, f"raymap_k{k}_{branch.lower()}.json", doc)
            ops.append(Op(f"certify:k{k}-{branch.lower()}", ("uhlhorn", path),
                          oracles.certified(branch, hidden, k)))
        doc, _, sources, targets = ray_map(rng, k, False, broken=True)
        path = _write(workdir, f"raymap_k{k}_broken.json", doc)
        ops.append(Op(f"certify:k{k}-broken", ("uhlhorn", path),
                      oracles.rejected(oracles.first_violating_pair(sources, targets), k)))
    return ops


# ------------------------------------------------------------------ solve

def peres_rays() -> list[tuple[int, ...]]:
    """Peres's 24 rays in dimension 4 (Peres 1991): the standard basis, the
    12 rays (1, +-1, 0, 0) in every position pair, and (1, +-1, +-1, +-1)."""
    rays = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    for a, b in itertools.combinations(range(4), 2):
        for sign in (1, -1):
            v = [0] * 4
            v[a], v[b] = 1, sign
            rays.append(tuple(v))
    rays += [(1, *signs) for signs in itertools.product((1, -1), repeat=3)]
    return rays


def ternary_rays() -> list[tuple[int, ...]]:
    """The 40 rays of {0, +-1}^4: nonzero vectors whose first nonzero entry is 1."""
    return [v for v in itertools.product((0, 1, -1), repeat=4)
            if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]


def orthogonal_bases(rays) -> list[tuple[int, ...]]:
    """Every complete orthogonal basis (a clique of size dim) among the rays."""
    dim = len(rays[0])
    gram = np.array(rays) @ np.array(rays).T
    adjacent = [{j for j in range(len(rays)) if gram[i, j] == 0} for i in range(len(rays))]
    bases = []

    def extend(clique, candidates):
        if len(clique) == dim:
            bases.append(tuple(clique))
            return
        for j in sorted(candidates):
            if j > clique[-1]:
                extend(clique + [j], candidates & adjacent[j])

    for i in range(len(rays)):
        extend([i], adjacent[i])
    return bases


def _ks_doc(rng, rays) -> dict:
    """Vector system on all orthogonal bases of the rays, in seeded order."""
    order = rng.permutation(len(rays))
    rank = {int(old): new for new, old in enumerate(order)}
    bases = [sorted(rank[i] for i in b) for b in orthogonal_bases(rays)]
    bases = [bases[i] for i in rng.permutation(len(bases))]
    return {"dim": len(rays[0]), "vectors": [list(rays[i]) for i in order], "bases": bases}


def _solve(rng, workdir: Path) -> list[Op]:
    ops = []
    for n in GLEASON_DIMS:
        rho = random_density(n, rng).matrix
        rays = [random_state_vector(n, rng) for _ in range(n * n + n)]
        samples = [{"vector": _pairs(v), "value": float(np.vdot(v, rho @ v).real)}
                   for v in rays]
        path = _write(workdir, f"gleason_n{n}.json", {"dim": n, "samples": samples})
        ops.append(Op(f"gleason-fit:n{n}", ("gleason-fit", path), oracles.reconstructed(rho)))

    instances = [("ks:dim4-18vectors", str(dataset_path("ks_dim4_18vectors.json")), True),
                 ("ks:dim3-33rays", str(dataset_path("ks_dim3_33rays_closure.json")), True),
                 ("ks:peres-24", _write(workdir, "ks_peres24.json", _ks_doc(rng, peres_rays())), True),
                 ("ks:ternary-40", _write(workdir, "ks_ternary40.json",
                                          _ks_doc(rng, ternary_rays())), True)]
    for n_bases in SAT_BASES:
        vectors, bases = [], []
        for b in range(n_bases):
            u = random_unitary(3, rng)
            vectors += [_pairs(u[:, k]) for k in range(3)]
            bases.append([3 * b, 3 * b + 1, 3 * b + 2])
        doc = {"dim": 3, "vectors": vectors, "bases": bases}
        instances.append((f"ks:sat-{n_bases}-bases",
                          _write(workdir, f"ks_sat_{n_bases}.json", doc), False))
    for name, path, unsat in instances:
        bases = json.loads(Path(path).read_text(encoding="utf-8"))["bases"]
        defect = {}
        if name == "ks:sat-1200-bases":
            defect = dict(known_defect="ks-recursion-1200",
                          defect_signature=oracles.crash_signature("RecursionError"))
        ops.append(Op(name, ("ks", path), oracles.ks_verdict(unsat, bases), **defect))
    return ops
