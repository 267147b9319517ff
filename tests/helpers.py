"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import importlib.util
import json
import tracemalloc
from functools import reduce
from itertools import combinations
from pathlib import Path

import numpy as np

from qcontexts.core import (
    ContextTransform,
    DensityOperator,
    Projector,
    context_distribution,
    make_context,
    make_generator,
)
from qcontexts.jsonio import (
    complex_to_json,
    context_from_json,
    context_to_json,
    contexts_from_json,
    density_from_json,
    density_to_json,
    frame_samples_from_json,
    ks_instance_from_json,
    permutation_from_json,
    ray_map_from_json,
    ray_map_to_json,
)
from qcontexts.linalg import DEFAULT_TOL, is_unitary, max_abs, projector_stack
from qcontexts.sampling import random_context, random_state_vector, random_unitary
from qcontexts.topology import Permutation, _eigensystem, permutation_matrix
from qcontexts.uhlhorn import RayMap, Verdict


def load_tool(name: str):
    """tools/<name>.py, loaded by path as a fresh module."""
    tool = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the dataset tool's bases and gadget maps, the one copy of each
_datasets = load_tool("gen_datasets")
standard_basis, fourier_basis, mub_bases_dim3 = (
    _datasets.standard_basis, _datasets.fourier_basis, _datasets.mub_bases_dim3)
gadget_sources, induced_ray_map = _datasets.gadget_sources, _datasets.induced_ray_map


def peak_allocation(fn, *args):
    """(fn(*args), the peak bytes tracemalloc saw numpy and Python allocate
    during the call); the arguments are built before tracing starts."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pure_density(p: Projector) -> DensityOperator:
    """The density operator of the pure state on p's ray."""
    return DensityOperator(p.matrix)


def maximally_mixed(dim: int) -> DensityOperator:
    """The density operator I / dim."""
    matrix = np.eye(dim, dtype=np.complex128) / dim
    matrix.flags.writeable = False
    return DensityOperator(matrix)


def standard_context(n: int, label: str = "standard"):
    return make_context(standard_basis(n), label)


def fourier_context(n: int, label: str = "fourier"):
    return make_context(fourier_basis(n), label)


def projector_distance(p: Projector, q: Projector) -> float:
    """||P - Q||, the operator norm of the difference of the two projector
    matrices: the reference for linalg.ray_distance, from an SVD."""
    return float(np.linalg.norm(p.matrix - q.matrix, 2))


def projector_residual(targets: np.ndarray, sources: np.ndarray, u: np.ndarray) -> float:
    """max_i ||T_i - U S_i U^dag|| (operator norm) over the projector stacks
    of the rows of targets and sources: the reference for a fit residual."""
    images = u @ projector_stack(sources) @ u.conj().T
    return float(np.linalg.norm(projector_stack(targets) - images, 2, axis=(1, 2)).max())


def planted_rays(rng: np.random.Generator, n: int, eps: float, copies=(),
                 orthogonal=()) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """(rows, pairs): random unit rays in dimension n, shuffled, where each
    factor f of copies plants a rephased copy of a ray at distance f eps
    and each f of orthogonal a ray at overlap modulus f eps with another;
    every other planted ray is short of unit norm by 5e-10. pairs lists the
    copies with f <= 1 in lexicographic order: the same ray at eps."""
    rows, planted = [random_state_vector(n, rng) for _ in range(2)], []
    for factors, orthogonal_kind in ((copies, False), (orthogonal, True)):
        for f in factors:
            v, w = random_state_vector(n, rng), random_state_vector(n, rng)
            w -= np.vdot(v, w) * v
            w /= np.linalg.norm(w)
            a, b = np.sqrt(1 - (f * eps) ** 2), f * eps
            if orthogonal_kind:
                a, b = b, a
            elif f <= 1:
                planted.append(len(rows))
            shrink = 1 - 5e-10 * (len(rows) % 4 == 0)
            rows += [v, np.exp(1j * rng.uniform(0, 2 * np.pi)) * (a * v + b * w) * shrink]
    order = rng.permutation(len(rows))
    where = np.argsort(order)  # row r lands at where[r]
    return np.array(rows)[order], sorted(tuple(sorted((int(where[r]), int(where[r + 1]))))
                                         for r in planted)


def random_projector(n: int, rng: np.random.Generator) -> Projector:
    return Projector.from_vector(random_state_vector(n, rng))


def random_ray_map(dim: int, rng: np.random.Generator, antiunitary: bool = False,
                   n_extra: int = 6) -> tuple[RayMap, ContextTransform]:
    """Random operator-induced map on a gadget set plus extra random rays."""
    hidden = ContextTransform.from_matrix(random_unitary(dim, rng), antiunitary=antiunitary)
    context = random_context(dim, rng, label="fiduciary")
    # RayMap rejects a repeated source, so the extra rays need no screening here
    extras = [random_state_vector(dim, rng) for _ in range(n_extra)]
    return induced_ray_map(hidden, context, extras), hidden


def projector_pairs(m: RayMap) -> list[tuple[Projector, Projector]]:
    """(source, target) projector of every row of m, as RayMap.pairs builds them."""
    return [(Projector(s), Projector(t)) for s, t in zip(m.source_vectors, m.target_vectors)]


def ray_map(dim: int, pairs, tol=DEFAULT_TOL) -> RayMap:
    """RayMap over (source, target) projector pairs: their vectors are the rows."""
    sources = np.array([s.vector for s, _ in pairs])
    targets = np.array([t.vector for _, t in pairs])
    return RayMap(dim, sources, targets, tol)


def _context_bits(c) -> tuple:
    return c.label, c.vectors.tobytes()


# document kind (a dataset name prefix) -> (reader, a writer of what it read,
# what was read as labels, integers, floats and array bytes)
DOCUMENT_KINDS = {
    "context_": (context_from_json, context_to_json, _context_bits),
    "contexts_": (contexts_from_json, lambda cs: {"contexts": [context_to_json(c) for c in cs]},
                  lambda cs: [_context_bits(c) for c in cs]),
    "density_": (density_from_json, density_to_json, lambda rho: rho.matrix.tobytes()),
    "gleason_": (frame_samples_from_json,
                 lambda ss: {"dim": ss[0].projector.dim, "samples": [
                     {"vector": complex_to_json(s.projector.vector), "value": s.value}
                     for s in ss]},
                 lambda ss: [(s.projector.vector.tobytes(), s.value) for s in ss]),
    "ks_": (ks_instance_from_json,
            lambda inst: {"dim": inst.dim, "vectors": complex_to_json(inst.vectors),
                          "bases": [list(b) for b in inst.bases]},
            lambda inst: (inst.dim, inst.vectors.tobytes(), inst.bases)),
    "perm_": (permutation_from_json, lambda p: {"n": p.n, "images": list(p.images)},
              lambda p: (p.n, p.images)),
    "raymap_": (ray_map_from_json, ray_map_to_json,
                lambda m: (m.dim, m.source_vectors.tobytes(), m.target_vectors.tobytes())),
}


def reread(name: str, doc: dict) -> tuple | None:
    """The bits of read(doc) and of read(write(read(doc))), reading doc by
    its kind and writing through JSON text; None when doc does not read."""
    read, write, bits = next(v for k, v in DOCUMENT_KINDS.items() if name.startswith(k))
    try:
        first = read(doc)
    except Exception:  # nothing was read, so there is nothing to write
        return None
    return bits(first), bits(read(json.loads(json.dumps(write(first)))))


def trace_invariant(*projectors: Projector) -> complex:
    """Tr(P_1 P_2 ... P_m) from the projector matrices: the reference for
    uhlhorn's Bargmann invariants, which multiply Gram entries instead."""
    return complex(np.trace(reduce(np.matmul, (p.matrix for p in projectors))))


_REJECTED = {Verdict.UNITARY: {Verdict.ANTIUNITARY}, Verdict.ANTIUNITARY: {Verdict.UNITARY},
             Verdict.NEITHER: {Verdict.UNITARY, Verdict.ANTIUNITARY}, Verdict.INCONCLUSIVE: set()}


def check_witness(m: RayMap, verdict: Verdict, witnesses) -> None:
    """Assert that a classification's witnesses prove its verdict from the
    map's rows alone. The keys are exactly the branches the verdict
    rejects. Each cycle has distinct indices; its reported values are the
    Bargmann invariants S and T of its source and target projectors, S
    conjugated on the anti-unitary branch; and the misfit of its closing
    entry (i, j), i = cycle[0] and j = cycle[-1], exceeds m.tol: for a
    pair ||G_s[i, j]| - |G_t[i, j]||, which no operator allows, else
    ||G_t[i, j]| - |G_s[i, j]| e^{i(arg T - arg S)}|, which is 0 under any
    operator of that branch, as it makes T equal S. |G[i, j]| is
    |<v_i|v_j>| of the projectors' vectors. Both comparisons allow a
    rounding slack of 64 (L + n) u, with L the cycle's length, n the
    dimension and u = 2^-53: each invariant is L - 1 products of n x n
    projector matrices, and each Gram entry a sum of n products."""
    assert set(witnesses) == _REJECTED[verdict]
    for branch, (cycle, source_value, target_value) in witnesses.items():
        assert len(set(cycle)) == len(cycle) >= 2
        sources = [Projector(m.source_vectors[i]) for i in cycle]
        targets = [Projector(m.target_vectors[i]) for i in cycle]
        s, t = trace_invariant(*sources), trace_invariant(*targets)
        if branch is Verdict.ANTIUNITARY:
            s = s.conjugate()
        slack = 64 * (len(cycle) + m.dim) * 2.0 ** -53
        assert abs(source_value - s) <= slack and abs(target_value - t) <= slack
        gs, gt = (abs(np.vdot(p[0].vector, p[-1].vector)) for p in (sources, targets))
        turn = 1.0 if len(cycle) == 2 else t * s.conjugate() / abs(t * s)
        assert abs(gt - gs * turn) > m.tol.abs_eps - slack


def payload_witnesses(payload: dict) -> dict:
    """An uhlhorn payload's witnesses in the form of a classification's."""
    return {Verdict(branch): (tuple(w["cycle"]), complex(*w["source_value"]),
                              complex(*w["target_value"]))
            for branch, w in payload["witnesses"].items()}


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phases of ||A - e^{i phi} B||_max, phase chosen in Frobenius."""
    z = np.trace(b.conj().T @ a)
    phase = z / abs(z) if abs(z) > 0 else 1.0
    return max_abs(a - phase * b)


def ref_find_source(m: RayMap, v: np.ndarray, tol=DEFAULT_TOL) -> int | None:
    """The lowest source whose projector lies within tol of |v><v| in
    operator norm (v made unit first), or None."""
    v = v / np.linalg.norm(v)
    dist = np.linalg.norm(projector_stack(m.source_vectors) - np.outer(v, v.conj()), 2,
                          axis=(1, 2))
    hits = np.flatnonzero(dist <= tol.abs_eps)
    return int(hits[0]) if hits.size else None


def ref_locate_gadget(m: RayMap, context, source_reps: np.ndarray):
    """The phase-fixing gadget on the fiducial context as the operator fit
    once required it: basis indices found at m.tol by ref_find_source and,
    per column k, the first candidate pair in combinations order whose
    phase ratio is +i or -i, oriented to +i."""
    basis_idx = [ref_find_source(m, v, m.tol) for v in context.vectors]
    assert None not in basis_idx, "fiduciary projector missing from sources"
    overlaps = source_reps @ source_reps[basis_idx].conj().T
    weights = np.abs(overlaps)
    weights[basis_idx] = np.inf
    n = context.dim
    superpositions = []
    for k in range(1, n):
        pattern = np.zeros(n)
        pattern[0] = pattern[k] = 1.0 / np.sqrt(2.0)
        matches = np.abs(weights - pattern).max(axis=1) <= 1e-6
        candidates = [(int(idx), overlaps[idx, k] / overlaps[idx, 0])
                      for idx in np.flatnonzero(matches)]
        pair = None
        for (ia, za), (ib, zb) in combinations(candidates, 2):
            ratio = zb / za
            if abs(ratio - 1j) <= 1e-6:
                pair = (ia, ib)
                break
            if abs(ratio + 1j) <= 1e-6:
                pair = (ib, ia)
                break
        assert pair is not None, f"no balanced superposition pair for basis rays (1, {k + 1})"
        superpositions.append(pair)
    return basis_idx, superpositions


def ref_fit(m: RayMap, context, antiunitary: bool) -> tuple[np.ndarray, float]:
    """(matrix, residual) of the gadget fit that the Procrustes fit
    replaced, kept as the reference for its matrices: the gadget on the
    fiducial context located by ref_locate_gadget, one column per fiducial
    basis image, each phase pinned by the +i-first superposition ray, the
    global phase fixed by the first column."""
    source_reps = m.source_vectors.conj() if antiunitary else m.source_vectors
    target_reps = m.target_vectors
    basis_idx, superpositions = ref_locate_gadget(m, context, source_reps)
    e, f = source_reps[basis_idx], target_reps[basis_idx]
    phases = [1.0 + 0.0j]
    for k, (plus_idx, _) in enumerate(superpositions, 1):
        s, g = source_reps[plus_idx], target_reps[plus_idx]
        phi = (np.vdot(f[k], g) / np.vdot(f[0], g)) / (np.vdot(e[k], s) / np.vdot(e[0], s))
        phases.append(phi / abs(phi))
    u = np.zeros((m.dim, m.dim), dtype=np.complex128)
    for k in range(m.dim):
        u += phases[k] * np.outer(f[k], e[k].conj())
    nonzero = np.flatnonzero(np.abs(u[:, 0]) > 1e-12)
    if nonzero.size:
        lead = u[nonzero[0], 0]
        u = u * (abs(lead) / lead)
    return u, projector_residual(target_reps, source_reps, u)


def permutation_log_generator(sigma: Permutation) -> np.ndarray:
    """Self-adjoint H with exp(iH) equal to the permutation matrix, built
    from the eigensystem that topology's unitary paths use."""
    phases, vecs = _eigensystem(sigma)
    return (vecs * phases) @ vecs.conj().T


def ref_eigensystem(sigma: Permutation) -> tuple[np.ndarray, np.ndarray]:
    """topology._eigensystem as the nested loop it replaced, kept as the
    reference for its bits: one scalar phase and one scalar Fourier entry
    exp(-2 pi i m j / L) / sqrt(L) at a time, cycle by cycle."""
    n = sigma.n
    phases = np.zeros(n)
    vecs = np.zeros((n, n), dtype=np.complex128)
    col = 0
    for cycle in sigma.cycles():
        length = len(cycle)
        for m in range(length):
            phases[col] = 2.0 * np.pi * (m if 2 * m <= length else m - length) / length
            for j, site in enumerate(cycle):
                vecs[site, col] = np.exp(-2j * np.pi * m * j / length) / np.sqrt(length)
            col += 1
    return phases, vecs


def ref_gauge_residual(g: np.ndarray, gt: np.ndarray) -> float:
    """One branch's gauge residual as it stood before both branches shared
    one spanning forest, kept as the reference for its bits: a unit phase
    c_j per ray fixed along a maximum spanning forest of |g| (Prim), then
    max |gt[i, j] - conj(c_i) c_j g[i, j]| over the whole matrix. Pass
    g = gs for the unitary branch and g = conj(gs) for the anti-unitary one."""
    k, weight = len(g), np.abs(g)
    c, free = np.ones(k, dtype=np.complex128), np.arange(k) > 0
    best, parent = weight[0].copy(), np.zeros(k, dtype=np.intp)
    for _ in range(k - 1):
        j = int(np.argmax(np.where(free, best, -1.0)))
        p = parent[j]
        z = gt[p, j] * g[p, j].conjugate()
        c[j] = c[p] * (z / abs(z) if z else 1.0)
        free[j] = False
        closer = free & (weight[j] > best)
        best[closer], parent[closer] = weight[j, closer], j
    return max_abs(gt - c[:, None].conj() * c * g)


def ref_path(sigma: Permutation, steps: int):
    """The three-pass path check as it stood before the streamed pass, kept as
    the reference for its numbers: (samples, max_unitarity_deviation,
    endpoint_errors, max_step_distance), with every (steps, n, n) sample held."""
    phases, vecs = _eigensystem(sigma)
    times = np.linspace(0.0, 1.0, steps)
    vdag = vecs.conj().T
    samples = np.empty((steps, sigma.n, sigma.n), dtype=np.complex128)
    for k, t in enumerate(times):
        samples[k] = (vecs * np.exp(1j * t * phases)) @ vdag
    endpoint_errors = (max_abs(samples[0] - np.eye(sigma.n)),
                       max_abs(samples[-1] - permutation_matrix(sigma)))
    unit_dev = max(is_unitary(samples[k]).deviation for k in range(steps))
    step_dist = max(max_abs(samples[k + 1] - samples[k]) for k in range(steps - 1))
    return samples, unit_dev, endpoint_errors, step_dist


def simulate_reference(initial, contexts, seed: int) -> list[int]:
    """Outcome indices of one seeded run, step by step: step t draws
    make_generator(seed).random(steps)[t] and inverts the cumulative
    context_distribution of the current state at that one uniform."""
    uniforms = make_generator(seed).random(len(contexts))
    state, outcomes = initial, []
    for c, u in zip(contexts, uniforms):
        cdf = np.cumsum(context_distribution(pure_density(state), c))
        outcomes.append(min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), c.dim - 1))
        state = c.projectors[outcomes[-1]]
    return outcomes


def series_expm(m: np.ndarray, terms: int = 60) -> np.ndarray:
    """Matrix exponential by scaled Taylor series; independent of any
    eigen-decomposition, good to ~1e-15 for the small matrices used here."""
    m = np.asarray(m, dtype=np.complex128)
    scale = max(int(np.ceil(np.log2(max(1.0, np.abs(m).sum(axis=1).max())))), 0)
    x = m / (2 ** scale)
    out = np.eye(m.shape[0], dtype=np.complex128)
    term = np.eye(m.shape[0], dtype=np.complex128)
    for k in range(1, terms):
        term = term @ x / k
        out = out + term
    for _ in range(scale):
        out = out @ out
    return out


def brute_force_valuation_count(n_vectors: int, bases) -> int:
    """Exhaustive enumeration of {0,1} valuations with exactly one 1 per
    basis, vectorized over all 2^n_vectors bitmasks."""
    if n_vectors > 24:
        raise ValueError("brute force capped at 24 vectors")
    vals = np.arange(2 ** n_vectors, dtype=np.uint32)
    ok = np.ones(vals.shape, dtype=bool)
    for basis in bases:
        count = np.zeros(vals.shape, dtype=np.uint8)
        for i in basis:
            count += ((vals >> np.uint32(i)) & 1).astype(np.uint8)
        ok &= count == 1
    return int(ok.sum())


def golden_cases() -> dict[str, list[str]]:
    """tools/gen_golden.py's CASES: file under tests/golden -> CLI arguments."""
    return load_tool("gen_golden").CASES
