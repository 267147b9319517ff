"""Certification of orthogonality-preserving ray maps.

A bijective map on rank-1 projectors that preserves orthogonality in
both directions is realized by a single unitary or anti-unitary
operator (for dimension >= 3). A program only ever sees finitely many
rays, so certification here works on a finite witness set: check the
orthogonality hypothesis on all listed pairs, fit one phase per ray
between the Gram matrices to decide the branch, then fit the operator
from a phase-fixing gadget and verify it on every listed pair.

For k rays in dimension n a certification costs O(k^2 n + k^3) time
and O(k n^2 + k^2) memory. A RayMap holds its source and target unit
vectors once, as (k, n) arrays normalized by linalg.row_norms, and
caches nothing derived from them but its Projector pairs, built only
when asked for. Bijectivity is the blocked same-ray screen of ks
documents and the pair checks a Gram screen, O(k^2 n) each; the branch
is two O(k^2) gauge fits plus a row-wise witness search (O(k^3) only if
it finds nothing); the fit checks one stacked U S U^dag. Pair checks and
witnesses reproduce the per-pair arithmetic bit for bit.
"""

from __future__ import annotations

import enum
from functools import cached_property
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

    The product max_abs(P_i @ P_j) decides and is reported, but it is only
    taken, in lexicographic order, on pairs a Gram screen leaves open. The
    estimate |<v_i|v_j>| max|v_i| max|v_j| equals it in exact arithmetic;
    for unit rows and u = 2^-53 the two differ by under (5.7n + 10.5) u.
    Each sums 2n real products per real part whose moduli add up to at
    most 1 (Cauchy-Schwarz), so it is within 2 sqrt2 n u in any order, with
    or without FMA; the entries of P_i and P_j add 2 sqrt5 u, the moduli,
    row maxima and their products 5u, norms a few u off 1 and underflow
    far less. Outside the band 16 (n + 2) u around tol, twice that, the
    estimate decides as the product does, so only pairs with an estimate
    in the band or estimates deciding differently on the two sides are
    left open, and verdict, pair and norms are those of the product test.
    Cost: O(k^2 n) time and O(k^2) memory, plus O(n^3) per open pair.
    """
    eps, band = tol.abs_eps, 16 * (m.dim + 2) * 2.0 ** -53
    sides = (m.source_vectors, m.target_vectors)
    peaks = [np.abs(v).max(axis=1) for v in sides]
    est = [np.abs(v.conj() @ v.T) * p[:, None] * p for v, p in zip(sides, peaks)]
    near = [np.abs(e - eps) <= band for e in est]
    undecided = ((est[0] <= eps) != (est[1] <= eps)) | near[0] | near[1]
    for i, j in zip(*np.nonzero(np.triu(undecided, 1))):  # row-major: lexicographic
        s, t = (_product_norm(v, i, j) for v in sides)
        if (s <= eps) != (t <= eps):
            return OrthogonalityCheck(ok=False, violating_pair=(int(i), int(j)),
                                      source_product_norm=s, target_product_norm=t)
    return OrthogonalityCheck(ok=True)


def _product_norm(v: np.ndarray, i: int, j: int) -> float:
    """max_abs(P_i @ P_j) for the projectors onto rows i and j of v."""
    return max_abs(np.matmul(*_projector_stack(v[[i, j]])))


def bargmann_invariant(p1: Projector, p2: Projector, p3: Projector) -> complex:
    """Tr(P1 P2 P3): unitary-conjugation invariant, conjugated by anti-unitaries."""
    if len({p1.dim, p2.dim, p3.dim}) > 1:
        raise DimensionMismatch("projectors live in different dimensions")
    return complex(np.trace(p1.matrix @ p2.matrix @ p3.matrix))


def _gauge_residual(g: np.ndarray, gt: np.ndarray) -> float:
    """max |gt[i, j] - conj(c_i) c_j g[i, j]| once a unit phase c_j per ray
    is fixed along a maximum spanning forest of |g| (Prim, O(k^2)). Each
    tree edge on the path closing a non-tree entry is at least as strong
    as that entry, so every entry's rounding stays near path length x ulp."""
    k, weight = len(g), np.abs(g)
    c, free = np.ones(k, dtype=np.complex128), np.arange(k) > 0
    best, parent = weight[0].copy(), np.zeros(k, dtype=np.intp)  # strongest link to the tree
    for _ in range(k - 1):
        j = int(np.argmax(np.where(free, best, -1.0)))
        p = parent[j]
        z = gt[p, j] * g[p, j].conjugate()
        c[j] = c[p] * (z / abs(z) if z else 1.0)
        free[j] = False
        closer = free & (weight[j] > best)
        best[closer], parent[closer] = weight[j, closer], j
    return max_abs(gt - c.conj()[:, None] * c * g)


def _first_triple(gs: np.ndarray, gt: np.ndarray, eps: float, misfits=()) -> tuple:
    """(triple, source value, target value) of the first triple i < j < l
    whose source invariant g_ij g_jl g_li is nonreal and whose target
    invariant fits no branch in misfits (True is the anti-unitary one),
    or () if none. One row i at a time, O(k^2) each, up to the first hit."""
    k = len(gs)
    for i in range(k - 2):
        r = slice(i + 1, k)
        vs = gs[i, r, None] * gs[r, r] * gs[r, i]
        vt = gt[i, r, None] * gt[r, r] * gt[r, i]
        hit = np.abs(vs.imag) > eps
        for anti in misfits:
            hit &= ~(np.abs(vt - (vs.conj() if anti else vs)) <= eps)
        idx = np.flatnonzero(np.triu(hit, 1))
        if idx.size:
            j, l = divmod(int(idx[0]), k - 1 - i)
            return (i, i + 1 + j, i + 1 + l), complex(vs.flat[idx[0]]), complex(vt.flat[idx[0]])
    return ()


def classify_transform(m: RayMap,
                       tol: Tolerance = DEFAULT_TOL) -> TransformClassification:
    """Decide the unitary/anti-unitary branch from two phase-gauge fits.

    One operator induces the map exactly when G_t = D^dag G_s D for a
    diagonal phase matrix D, with G_s conjugated on the anti-unitary
    branch (Chefles, Jozsa & Winter 2004), so every cycle invariant must
    match, not only the Bargmann triangles. Both branches fit only if all
    cycle invariants are real (Inconclusive); if neither fits: Neither.
    The witness is the first triple in lexicographic order with a nonreal
    source invariant: any for a branch verdict; for Neither one fitting
    neither branch, else a non-unitary one; None if there is none. Cost:
    O(k^2 n) for the orthogonality check on its own input and the fits,
    plus O(k^2) per row of triples up to the witness.
    """
    if not check_orthogonality_preserving(m, tol):
        raise HypothesisViolated("map does not preserve orthogonality both ways")
    eps = tol.abs_eps
    gs = m.source_vectors.conj() @ m.source_vectors.T  # Gram matrices <v_i|v_j>
    gt = m.target_vectors.conj() @ m.target_vectors.T
    unitary = _gauge_residual(gs, gt) <= eps
    anti = _gauge_residual(gs.conj(), gt) <= eps
    if unitary and anti:
        return TransformClassification(Verdict.INCONCLUSIVE)
    if unitary or anti:
        verdict = Verdict.UNITARY if unitary else Verdict.ANTIUNITARY
        return TransformClassification(verdict, *_first_triple(gs, gt, eps))
    return TransformClassification(Verdict.NEITHER, *(_first_triple(gs, gt, eps, (False, True))
                                                       or _first_triple(gs, gt, eps, (False,))))


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
