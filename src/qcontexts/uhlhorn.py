"""Certification of orthogonality-preserving ray maps.

A bijective map on rank-1 projectors that preserves orthogonality in
both directions is realized by a single unitary or anti-unitary
operator (for dimension >= 3). A program only ever sees finitely many
rays, so certification here works on a finite witness set: check the
orthogonality hypothesis on all listed pairs, decide the branch through
Bargmann triple products, then fit the operator constructively from a
phase-fixing gadget and verify the fit on every listed pair.

For k rays in dimension n a certification costs O(k^2 n^3 + k^3) time
and O(k n^2 + k^2) memory and runs each stage once. A RayMap holds its
source and target unit vectors once, as (k, n) arrays normalized by
linalg.row_norms, caches nothing derived from them but its Projector
pairs, built only when asked for: bijectivity is the blocked same-ray
screen of ks documents (O(k^2 n)), the pair checks run row by row on
(k, n, n) projector stacks built for the check and keep the latest
(map, tol) verdict, the C(k, 3) Bargmann triples are streamed from the
two Gram matrices, and the fit takes the classification and checks one
stacked U S U^dag. Every kernel reproduces the per-pair arithmetic
exactly, so verdicts, witnesses and reported norms do not depend on the
chunking.
"""

from __future__ import annotations

import enum
from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .core import Context, ContextTransform, Projector
from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    FitFailed,
    HypothesisViolated,
    MissingGadget,
)
from .linalg import DEFAULT_TOL, Frozen, Tolerance, first_repeated_ray, max_abs, row_norms

__all__ = [
    "RayMap",
    "Verdict",
    "TransformClassification",
    "OrthogonalityCheck",
    "FitResult",
    "check_orthogonality_preserving",
    "bargmann_invariant",
    "classify_transform",
    "fit_transform",
    "phase_aligned_distance",
    "gadget_sources",
    "induced_ray_map",
    "FIT_RESIDUAL_LIMIT",
]

# Residual ceiling for an accepted operator fit.
FIT_RESIDUAL_LIMIT = 1e-8

# Pattern threshold for recognizing balanced two-ray superpositions.
# Gadget rays are constructed exactly, so anything this close is one.
_GADGET_PATTERN_TOL = 1e-6


def _projector_stack(v: np.ndarray) -> np.ndarray:
    """(k, n, n) stack of |v><v| over the rows, entry for entry the same as np.outer."""
    return v[:, :, None] * v.conj()[:, None, :]


class RayMap(Frozen):
    """Finite bijective ray correspondence with covering contexts.

    Row i of the (k, dim) arrays sources and targets lies on pair i's
    source and target ray. The map stores only those rows divided by
    their norms, as the read-only arrays source_vectors and
    target_vectors. covering_contexts are contexts whose projectors all
    occur among the sources, candidates for the fiduciary basis of the
    constructive fit. Bijectivity and covering are decided at tol, by
    linalg.first_repeated_ray and _find_source.
    """

    def __init__(self, dim: int, sources, targets,
                 covering_contexts: tuple[Context, ...] = (),
                 tol: Tolerance = DEFAULT_TOL):
        rows = np.asarray([sources, targets], dtype=np.complex128)
        if rows.ndim != 3 or rows.shape[2] != dim:
            raise DimensionMismatch("ray pair dimension differs from map dimension")
        norms = row_norms(rows)
        bad = np.flatnonzero(~((tol.bound() < norms) & (norms < np.inf)).all(axis=0))
        if bad.size:  # the lowest pair with a zero, overflowing or NaN norm on either side
            raise ValueError(f"pair {bad[0]}: cannot project onto the zero vector "
                             "or one whose norm overflows")
        if dim < 3:
            raise DimensionTooSmall(
                f"ray maps are certified only for dimension >= 3, got {dim}")
        unit = rows / norms[:, :, None]
        unit.flags.writeable = False
        self.__dict__.update(dim=dim, covering_contexts=covering_contexts,
                             source_vectors=unit[0], target_vectors=unit[1])
        # the first repeated pair in lexicographic order; sources first on a tie
        repeated = [(hit, which) for which, v in zip(("sources", "targets"), unit)
                    if (hit := first_repeated_ray(v, tol.abs_eps)) is not None]
        if repeated:
            (i, j), which = min(repeated)
            raise ValueError(f"{which} {i} and {j} coincide; map must be bijective")
        for c in self.covering_contexts:
            if c.dim != self.dim:
                raise DimensionMismatch(f"covering context '{c.label}' has dimension {c.dim}")
            if any(self._find_source(v, tol) is None for v in c.basis.T):
                raise ValueError(f"covering context '{c.label}' has a projector "
                                 "missing from the sources")

    @cached_property
    def pairs(self) -> tuple[tuple[Projector, Projector], ...]:
        """(source, target) projector of every pair, built on first use;
        unused in the package, kept for perfbench/traced.py's len(m.pairs)."""
        return tuple((Projector(s), Projector(t))
                     for s, t in zip(self.source_vectors, self.target_vectors))

    def _find_source(self, v: np.ndarray,
                     tol: Tolerance = DEFAULT_TOL) -> int | None:
        stack = _projector_stack(self.source_vectors)
        dist = np.abs(stack - np.outer(v, v.conj())).max(axis=(1, 2))
        hits = np.flatnonzero(dist <= tol.abs_eps)
        return int(hits[0]) if hits.size else None


class OrthogonalityCheck(NamedTuple):
    """Verdict of the both-ways orthogonality-preservation test."""

    ok: bool
    violating_pair: tuple[int, int] | None = None
    source_product_norm: float | None = None
    target_product_norm: float | None = None

    def __bool__(self) -> bool:
        return self.ok


class Verdict(enum.Enum):
    UNITARY = "Unitary"
    ANTIUNITARY = "Antiunitary"
    NEITHER = "Neither"
    INCONCLUSIVE = "Inconclusive"


class TransformClassification(NamedTuple):
    """Branch decision with the decisive Bargmann triple, when one exists."""

    verdict: Verdict
    witness_triple: tuple[int, int, int] | None = None
    witness_source_value: complex | None = None
    witness_target_value: complex | None = None


class FitResult(NamedTuple):
    """Constructively fitted operator and its verification residual."""

    transform: ContextTransform
    residual: float
    verdict: Verdict
    ambiguous_branch: bool
    fiduciary_label: str


def check_orthogonality_preserving(m: RayMap,
                                   tol: Tolerance = DEFAULT_TOL) -> OrthogonalityCheck:
    """Test ||P_i P_j|| <= tol  <=>  ||T_i T_j|| <= tol over all listed pairs.

    Runs one row i at a time: the products of P_i with every later
    projector are one stacked matmul over (k, n, n) stacks built from the
    map's rows, and the first violating pair in lexicographic order is
    reported. Cost: O(k^2 n^3) time, O(k n^2) memory; a repeat is free.

    The max-norm is taken of the product matrices, not from the Gram
    shortcut |<v_i|v_j>| max|v_i| max|v_j|, which is equal in exact
    arithmetic but not in floating point: on a 210-ray map the two
    differed by up to 8e-15 relative on overlapping pairs and by up to
    73% on orthogonal ones, where both are rounding noise near 1e-16.
    The decision and the reported norms would move with it.
    """
    return _orthogonality(m, tol)  # positional, so one (map, tol) is one cache key


@lru_cache(maxsize=1)
def _orthogonality(m: RayMap, tol: Tolerance) -> OrthogonalityCheck:
    src, tgt = _projector_stack(m.source_vectors), _projector_stack(m.target_vectors)
    eps = tol.abs_eps
    for i in range(len(src) - 1):
        s = np.abs(np.matmul(src[i], src[i + 1:])).max(axis=(1, 2))
        t = np.abs(np.matmul(tgt[i], tgt[i + 1:])).max(axis=(1, 2))
        bad = np.flatnonzero((s <= eps) != (t <= eps))
        if bad.size:
            b = bad[0]
            return OrthogonalityCheck(ok=False, violating_pair=(i, i + 1 + int(b)),
                                      source_product_norm=float(s[b]),
                                      target_product_norm=float(t[b]))
    return OrthogonalityCheck(ok=True)


def bargmann_invariant(p1: Projector, p2: Projector, p3: Projector) -> complex:
    """Tr(P1 P2 P3): unitary-conjugation invariant, conjugated by anti-unitaries."""
    if len({p1.dim, p2.dim, p3.dim}) > 1:
        raise DimensionMismatch("projectors live in different dimensions")
    return complex(np.trace(p1.matrix @ p2.matrix @ p3.matrix))


def classify_transform(m: RayMap,
                       tol: Tolerance = DEFAULT_TOL) -> TransformClassification:
    """Decide the unitary/anti-unitary branch through Bargmann triples.

    Triples whose source invariant is real within tol carry no branch
    information and are skipped; if none remains, the data cannot
    distinguish the branches (Inconclusive). The witness is the first
    nonreal triple in lexicographic order for a branch verdict; for
    Neither it is the first triple fitting neither branch or, on mixed
    evidence, the first non-unitary one.

    The triples (i, j, l), i < j < l, are streamed in lexicographic
    chunks of i, each a suffix of one g_jl table over the triu_indices
    pairs, with the same products g_ij g_jl g_li as a full scan. Cost:
    O(k^3 + k^2 n) time, O(k^2 + k n^2) memory; the orthogonality check
    on the input is free right after the caller's own.
    """
    if not check_orthogonality_preserving(m, tol):
        raise HypothesisViolated("map does not preserve orthogonality both ways")
    k = len(m.source_vectors)
    eps = tol.abs_eps
    gs = m.source_vectors.conj() @ m.source_vectors.T  # Gram matrices <v_i|v_j>
    gt = m.target_vectors.conj() @ m.target_vectors.T
    rows, cols = np.triu_indices(k, 1)
    gs_jl, gt_jl = gs[rows, cols], gt[rows, cols]
    first_nonreal = first_nonunitary = None
    all_anti = True
    start = 0
    for i in range(k - 2):
        start += k - 1 - i  # skip the pairs (j, l) with j == i
        j, l = rows[start:], cols[start:]
        vs = gs[i, j] * gs_jl[start:] * gs[l, i]
        vt = gt[i, j] * gt_jl[start:] * gt[l, i]
        nonreal = np.abs(vs.imag) > eps
        nonunitary = nonreal & ~(np.abs(vt - vs) <= eps)
        nonanti = nonreal & ~(np.abs(vt - vs.conj()) <= eps)

        def first(mask):
            idx = np.flatnonzero(mask)
            if not idx.size:
                return None
            a = idx[0]
            return (i, int(j[a]), int(l[a])), complex(vs[a]), complex(vt[a])

        first_nonreal = first_nonreal or first(nonreal)
        first_nonunitary = first_nonunitary or first(nonunitary)
        all_anti = all_anti and not nonanti.any()
        neither = first(nonunitary & nonanti)
        if neither is not None:  # the earliest one: nothing later changes the verdict
            return TransformClassification(Verdict.NEITHER, *neither)

    if first_nonreal is None:
        return TransformClassification(Verdict.INCONCLUSIVE)
    if first_nonunitary is None:
        return TransformClassification(Verdict.UNITARY, *first_nonreal)
    if all_anti:
        return TransformClassification(Verdict.ANTIUNITARY, *first_nonreal)
    # mixed evidence: witness a non-unitary triple
    return TransformClassification(Verdict.NEITHER, *first_nonunitary)


def gadget_sources(context: Context) -> list[np.ndarray]:
    """Phase-fixing rays for a fiduciary context: the basis rays plus
    (e1 + ek)/sqrt(2) and (e1 + i ek)/sqrt(2) for k = 2..N."""
    e = list(context.basis.T)
    rays = list(e)
    for k in range(1, context.dim):
        rays.append((e[0] + e[k]) / np.sqrt(2.0))
        rays.append((e[0] + 1j * e[k]) / np.sqrt(2.0))
    return rays


def induced_ray_map(transform: ContextTransform, context: Context,
                    extra_rays: Sequence[np.ndarray] = (),
                    tol: Tolerance = DEFAULT_TOL) -> RayMap:
    """Ray map obtained by pushing a gadget set (plus extras) through an operator."""
    rays = gadget_sources(context) + [np.asarray(r) for r in extra_rays]
    return RayMap(context.dim, rays, [transform.act_vector(r) for r in rays],
                  covering_contexts=(context,), tol=tol)


def _locate_gadget(m: RayMap, context: Context, source_reps: np.ndarray,
                   tol: Tolerance):
    """Find basis indices and, per k, the pair of balanced superposition rays.

    Superposition rays are recognized by their overlap pattern with the
    fiduciary basis (all weight on rays 1 and k, half each), which is
    invariant under any rephasing of the stored representatives. The
    two rays of a pair are oriented so their relative-phase ratio is
    +i, making the fit deterministic.
    """
    basis_idx = [m._find_source(v, tol) for v in context.basis.T]
    if None in basis_idx:
        raise MissingGadget("fiduciary projector missing from sources")
    # overlaps[idx, j] = <e_j|s_idx> for every source row at once
    overlaps = source_reps @ source_reps[basis_idx].conj().T
    weights = np.abs(overlaps)
    weights[basis_idx] = np.inf  # basis rays are never superpositions
    n = context.dim
    superpositions: list[tuple[int, int]] = []
    for k in range(1, n):
        pattern = np.zeros(n)
        pattern[0] = pattern[k] = 1.0 / np.sqrt(2.0)
        matches = np.abs(weights - pattern).max(axis=1) <= _GADGET_PATTERN_TOL
        candidates = [(int(idx), overlaps[idx, k] / overlaps[idx, 0])
                      for idx in np.flatnonzero(matches)]
        pair = None
        for (ia, za), (ib, zb) in combinations(candidates, 2):
            ratio = zb / za
            if abs(ratio - 1j) <= _GADGET_PATTERN_TOL:
                pair = (ia, ib)
                break
            if abs(ratio + 1j) <= _GADGET_PATTERN_TOL:
                pair = (ib, ia)
                break
        if pair is None:
            raise MissingGadget(
                f"no balanced superposition pair for basis rays (1, {k + 1}) "
                f"of context '{context.label}'")
        superpositions.append(pair)
    return basis_idx, superpositions


def fit_transform(m: RayMap, classification: TransformClassification,
                  tol: Tolerance = DEFAULT_TOL) -> FitResult:
    """Fit the single operator inducing the map and verify it everywhere.

    The branch is the verdict of classification, which the caller gets
    from classify_transform(m, tol); no triple is scanned here. An
    Inconclusive branch (all-real data, where the branches coincide)
    falls back to the unitary fit and is flagged; on nonreal data the
    wrong branch ends in FitFailed. The operator is built column by
    column from the fiduciary basis images, with each column's phase
    pinned by the balanced-superposition images; its global phase is
    normalized so the first nonzero entry of the first column is real
    positive. The residual is the max-norm of T_i - U S_i U^dag (S_i
    conjugated on the anti-unitary branch) over the whole stack at once.
    """
    verdict = classification.verdict
    if verdict is Verdict.NEITHER:
        raise HypothesisViolated(
            "Bargmann invariants are inconsistent with any single operator")
    anti = verdict is Verdict.ANTIUNITARY
    ambiguous = verdict is Verdict.INCONCLUSIVE

    # Anti-unitary action is conjugation followed by a unitary; fitting in
    # the conjugated source gauge reduces both branches to the unitary case.
    source_reps = m.source_vectors.conj() if anti else m.source_vectors
    target_reps = m.target_vectors

    last_error = MissingGadget("ray map lists no covering context")
    for context in m.covering_contexts:
        try:
            basis_idx, superpositions = _locate_gadget(m, context, source_reps, tol)
            break
        except MissingGadget as exc:
            last_error = exc
    else:
        raise last_error

    n = m.dim
    e, f = source_reps[basis_idx], target_reps[basis_idx]
    phases = [1.0 + 0.0j]
    for k, (plus_idx, _) in enumerate(superpositions, 1):
        s, g = source_reps[plus_idx], target_reps[plus_idx]
        zeta = np.vdot(e[k], s) / np.vdot(e[0], s)
        ratio = np.vdot(f[k], g) / np.vdot(f[0], g)
        phi = ratio / zeta
        phases.append(phi / abs(phi))

    u = np.zeros((n, n), dtype=np.complex128)
    for k in range(n):
        u += phases[k] * np.outer(f[k], e[k].conj())

    nonzero = np.flatnonzero(np.abs(u[:, 0]) > 1e-12)
    if nonzero.size:
        lead = u[nonzero[0], 0]
        u = u * (abs(lead) / lead)

    transform = ContextTransform.from_matrix(u, antiunitary=anti, tol=tol)
    residual = max_abs(_projector_stack(target_reps)
                       - u @ _projector_stack(source_reps) @ u.conj().T)
    if residual > FIT_RESIDUAL_LIMIT:
        raise FitFailed(
            f"fit residual {residual:.3e} exceeds {FIT_RESIDUAL_LIMIT:.0e}; "
            "no single operator reproduces the listed rays")
    return FitResult(transform=transform, residual=residual, verdict=verdict,
                     ambiguous_branch=ambiguous, fiduciary_label=context.label)


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phases of ||A - e^{i phi} B||_max, phase chosen in Frobenius."""
    z = np.trace(b.conj().T @ a)
    phase = z / abs(z) if abs(z) > 0 else 1.0
    return max_abs(a - phase * b)
