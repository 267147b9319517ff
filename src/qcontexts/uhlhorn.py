"""Certification of orthogonality-preserving ray maps.

A bijective map on rank-1 projectors that preserves orthogonality in
both directions is realized by a single unitary or anti-unitary
operator (for dimension >= 3). A program only ever sees finitely many
rays, so certification here works on a finite witness set: check the
orthogonality hypothesis on all listed pairs, fit one phase per ray
between the Gram matrices to decide the branch, then fit the operator
to the rephased rays by orthogonal Procrustes and verify it on every pair.

For k rays in dimension n a certification costs O(k^2 n) time and
O(k n + k^2) memory. A RayMap holds its source and target unit vectors
once, as (k, n) arrays made by linalg.unit_rows, and caches no more than
its Projector pairs, built when asked for. Its tol is the one tolerance
of its certification; bijectivity is checked at it once, when the map is
built. The stages run check(m), classify(m, check), fit(m, classification).
Two rays are the same when their distance ||P_i - P_j|| (linalg.ray_distance)
is at most tol, and orthogonal when their overlap ||P_i P_j|| is: both
rules are basis-free, so a map an operator induces is bijective on both
sides or neither, and keeps orthogonality. The branch is two O(k^2) gauge
fits along one spanning forest, in row blocks, and each rejected branch's
witness is read off that forest in the same pass: its first misfit entry,
closed into a cycle by the forest path between its ends. The fit is one
n x n SVD; its residual is the largest distance from a target ray to its
source's image.
"""

from __future__ import annotations

import enum
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from . import linalg
from .core import ContextTransform, Projector
from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    FitFailed,
    HypothesisViolated,
)
from .linalg import DEFAULT_TOL, Frozen, Tolerance, first_repeated_ray, unit_rows

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
    "FIT_RESIDUAL_LIMIT",
]

# Residual ceiling for an accepted operator fit.
FIT_RESIDUAL_LIMIT = 1e-8


class RayMap(Frozen):
    """Finite bijective ray correspondence.

    Row i of the (k, dim) arrays sources and targets lies on pair i's
    source and target ray. The map stores only those rows made unit rays
    by linalg.unit_rows, as the read-only arrays source_vectors and
    target_vectors. Bijectivity is decided at tol, once, here; tol is the
    one every stage reads.
    """

    def __init__(self, dim: int, sources, targets, tol: Tolerance = DEFAULT_TOL):
        rows = np.asarray([sources, targets], dtype=np.complex128)
        if rows.ndim != 3 or rows.shape[2] != dim:
            raise DimensionMismatch("ray pair dimension differs from map dimension")
        unit = unit_rows(rows, tol, lambda k: ValueError(
            f"pair {k}: cannot project onto the zero vector or one whose norm overflows"))
        if dim < 3:
            raise DimensionTooSmall(
                f"ray maps are certified only for dimension >= 3, got {dim}")
        unit.flags.writeable = False
        # the first repeated pair in lexicographic order; sources first on a tie
        repeated = [(hit, which) for which, v in zip(("sources", "targets"), unit)
                    if (hit := first_repeated_ray(v, tol.abs_eps)) is not None]
        if repeated:
            (i, j), which = min(repeated)
            raise ValueError(f"{which} {i} and {j} coincide; map must be bijective")
        self.__dict__.update(dim=dim, tol=tol, source_vectors=unit[0], target_vectors=unit[1])

    @cached_property
    def pairs(self) -> tuple[tuple[Projector, Projector], ...]:
        """(source, target) projector of every pair, built on first use;
        unused in the package, kept for perfbench/traced.py's len(m.pairs)."""
        return tuple((Projector(s), Projector(t))
                     for s, t in zip(self.source_vectors, self.target_vectors))


class OrthogonalityCheck(NamedTuple):
    """Verdict of the both-ways orthogonality-preservation test; a failed
    one names its first violating pair and that pair's two overlap moduli."""

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
    """Branch decision; witnesses, which maps each rejected branch's Verdict
    to a cycle and its Bargmann invariants, as _witness gives them; and the
    branch's gauge: read-only (k,) phases c with <t_i|t_j> = <c_i s_i|c_j s_j>
    (s conjugated if anti-unitary), the unitary branch's on Inconclusive
    and None on Neither."""

    verdict: Verdict
    witnesses: dict[Verdict, tuple[tuple[int, ...], complex, complex]]
    phases: np.ndarray | None


class FitResult(NamedTuple):
    """Fitted operator and its verification residual."""

    transform: ContextTransform
    residual: float


def check_orthogonality_preserving(m: RayMap) -> OrthogonalityCheck:
    """Test |<s_i|s_j>| <= m.tol  <=>  |<t_i|t_j>| <= m.tol over all listed pairs.

    The moduli are linalg.overlap_moduli's, ||P_i P_j|| for unit rows, so
    the verdict does not depend on the basis the rays are written in. The
    first pair in lexicographic order whose sides disagree is reported with
    both moduli. Cost: O(k^2 n) time and O(k^2) memory.
    """
    eps = m.tol.abs_eps
    s, t = (linalg.overlap_moduli(v) for v in (m.source_vectors, m.target_vectors))
    bad = np.argwhere(np.triu((s <= eps) != (t <= eps), 1))  # row-major: lexicographic
    if not bad.size:
        return OrthogonalityCheck(ok=True)
    i, j = map(int, bad[0])
    return OrthogonalityCheck(False, (i, j), float(s[i, j]), float(t[i, j]))


def bargmann_invariant(*projectors: Projector) -> complex:
    """Tr(P1 P2 ... Pm) for m >= 2: unitary-conjugation invariant,
    conjugated by anti-unitaries; |<u|v>|^2 for the pair (P_u, P_v)."""
    if len(projectors) < 2:
        raise ValueError("a Bargmann invariant takes at least two projectors")
    if len({p.dim for p in projectors}) > 1:
        raise DimensionMismatch("projectors live in different dimensions")
    return complex(np.trace(reduce(np.matmul, (p.matrix for p in projectors))))


def _witness(gs, gt, parent, i: int, j: int, anti: bool, eps: float) -> tuple:
    """(cycle, source value, target value) for the misfit entry (i, j): the
    pair (i, j) if |gs[i, j]| and |gt[i, j]| differ by more than eps, which
    no operator allows, else i, the forest path to j, then j. The values
    are the products Tr(P_i ... P_j) of Gram entries around the cycle, the
    source's conjugated if anti. Each tree edge on the path is at least as
    strong as the entry, so they do not vanish, and their rounding stays
    near cycle length x ulp."""
    cycle, up = [i, j], [i]
    if abs(abs(gs[i, j]) - abs(gt[i, j])) <= eps:
        while up[-1]:  # the root 0 is its own parent
            up.append(int(parent[up[-1]]))
        depth, down = {v: d for d, v in enumerate(up)}, [j]
        while down[-1] not in depth:
            down.append(int(parent[down[-1]]))
        cycle = up[:depth[down[-1]]] + down[::-1]
    edges = (cycle, cycle[1:] + cycle[:1])
    source, target = np.prod(gs[edges]), np.prod(gt[edges])
    return tuple(cycle), complex(source.conjugate() if anti else source), complex(target)


def _gauge_fits(gs: np.ndarray, gt: np.ndarray, eps: float) -> tuple:
    """(residuals, c, witnesses) of both branches' gauge fits: c is a
    read-only (2, k) array of unit phases c_j fixed along one maximum
    spanning forest of |gs| (Prim, O(k^2)), and the residuals are
    max |gt[i, j] - conj(c_i) c_j g[i, j]| for g = gs (row 0, unitary
    branch) and g = conj(gs) (row 1, anti-unitary); |conj(gs)| is |gs| bit
    for bit, so both branches share the forest. The max runs over the row
    blocks of linalg.row_blocks, which also find the first entry above eps
    in row-major order of each branch that has one, sorted to i < j (the
    residuals are Hermitian up to rounding): its witness is _witness's."""
    k, weight = len(gs), np.abs(gs)
    c, free = np.ones((2, k), dtype=np.complex128), np.arange(k) > 0
    best, parent = weight[0].copy(), np.zeros(k, dtype=np.intp)  # strongest link to the tree
    for _ in range(k - 1):
        j = int(np.argmax(np.where(free, best, -1.0)))
        p = parent[j]
        for b, z in enumerate((gt[p, j] * gs[p, j].conjugate(), gt[p, j] * gs[p, j])):
            c[b, j] = c[b, p] * (z / abs(z) if z else 1.0)
        free[j] = False
        closer = free & (weight[j] > best)
        best[closer], parent[closer] = weight[j, closer], j
    residuals, witnesses = [0.0, 0.0], {}
    for r in linalg.row_blocks(k, k):
        for b, branch in enumerate((Verdict.UNITARY, Verdict.ANTIUNITARY)):
            a = np.abs(gt[r] - c[b, r, None].conj() * c[b] * (gs[r].conj() if b else gs[r]))
            residuals[b] = max(residuals[b], float(a.max()))
            if branch not in witnesses and residuals[b] > eps:  # its first misfit is in r
                row, col = divmod(int(np.argmax(a > eps)), k)
                witnesses[branch] = _witness(gs, gt, parent, *sorted((r.start + row, col)), b, eps)
    c.flags.writeable = False
    return tuple(residuals), c, witnesses


def classify_transform(m: RayMap, check: OrthogonalityCheck) -> TransformClassification:
    """Decide the unitary/anti-unitary branch from two phase-gauge fits.

    One operator induces the map exactly when G_t = D^dag G_s D for a
    diagonal phase matrix D, with G_s conjugated on the anti-unitary
    branch (Chefles, Jozsa & Winter 2004), so every cycle invariant must
    match, not only the Bargmann triangles. Both branches fit only if all
    cycle invariants are real (Inconclusive); if neither fits: Neither.
    The decided branch's D is kept as the classification's phases, which
    fit_transform builds the operator from. Each rejected branch gets the
    witness _gauge_fits reads off its first misfit entry: a pair whose
    overlap modulus moved, or a cycle whose invariants no phase gauge of
    that branch can match. Fits and moduli are compared at m.tol. check
    is the caller's check_orthogonality_preserving(m); a failed one
    raises HypothesisViolated. Cost: O(k^2 n) for the Gram matrices and
    O(k^2) for the fits and witnesses.
    """
    if not check:
        raise HypothesisViolated("map does not preserve orthogonality both ways")
    eps = m.tol.abs_eps
    gs = m.source_vectors.conj() @ m.source_vectors.T  # Gram matrices <v_i|v_j>
    gt = m.target_vectors.conj() @ m.target_vectors.T
    residuals, phases, witnesses = _gauge_fits(gs, gt, eps)
    unitary, anti = (residual <= eps for residual in residuals)
    if not (unitary or anti):
        return TransformClassification(Verdict.NEITHER, witnesses, None)
    verdict = (Verdict.INCONCLUSIVE if unitary and anti
               else Verdict.UNITARY if unitary else Verdict.ANTIUNITARY)
    return TransformClassification(verdict, witnesses, phases[int(not unitary)])


def fit_transform(m: RayMap, classification: TransformClassification) -> FitResult:
    """Fit the single operator inducing the map and verify it everywhere.

    The branch and the gauge c are classification's verdict and phases,
    from classify_transform(m, check); nothing is searched here. On that
    branch the rows c_j s_j (s_j conjugated if anti-unitary) and t_j have
    equal Gram matrices, so U is the orthogonal Procrustes solution
    W V^dag of the SVD W S V^dag of sum_j t_j (c_j s_j)^dag (Schonemann
    1966), checked unitary at m.tol. Inconclusive (all-real data, where
    the branches coincide) takes the unitary fit and is flagged; on
    nonreal data the wrong branch ends in FitFailed. Sources that do not
    span C^n leave U free off their span: it is one of many operators
    that reproduce every pair. U's global phase makes the first nonzero
    entry of its first column real positive. The residual is the largest
    linalg.ray_distance(t_i, U s_i), s_i conjugated if anti-unitary.
    """
    verdict = classification.verdict
    if verdict is Verdict.NEITHER:
        raise HypothesisViolated(
            "Bargmann invariants are inconsistent with any single operator")
    anti = verdict is Verdict.ANTIUNITARY

    # Anti-unitary action is conjugation followed by a unitary; fitting in
    # the conjugated source gauge reduces both branches to the unitary case.
    source_reps = m.source_vectors.conj() if anti else m.source_vectors
    rephased = classification.phases[:, None] * source_reps  # rows c_j s_j
    w, _, vh = np.linalg.svd(m.target_vectors.T @ rephased.conj())
    u = w @ vh

    nonzero = np.flatnonzero(np.abs(u[:, 0]) > 1e-12)
    if nonzero.size:
        lead = u[nonzero[0], 0]
        u = u * (abs(lead) / lead)

    transform = ContextTransform.from_matrix(u, antiunitary=anti, tol=m.tol)
    residual = float(linalg.ray_distance(m.target_vectors, source_reps @ u.T).max())
    if residual > FIT_RESIDUAL_LIMIT:
        raise FitFailed(residual, FIT_RESIDUAL_LIMIT)
    return FitResult(transform=transform, residual=residual)
