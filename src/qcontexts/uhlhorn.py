"""Certification of orthogonality-preserving ray maps.

A bijective map on rank-1 projectors that preserves orthogonality in
both directions is realized by a single unitary or anti-unitary
operator (for dimension >= 3). A program only ever sees finitely many
rays, so certification here works on a finite witness set: check the
orthogonality hypothesis on all listed pairs, fit one phase per ray
between the Gram matrices to decide the branch, then fit the operator
to the rephased rays by orthogonal Procrustes and verify it on every pair.

For k rays in dimension n a certification costs O(k^2 n) time and
O(k n + k^2) memory, the k^2 being the two Gram matrices <v_i|v_j>. A
RayMap holds its unit rows (linalg.unit_rows) and its tol, at which its
bijectivity was checked once. The stages run check(m), classify(m, check)
and fit(m, classification); the check takes the Gram matrices once and
hands them on. Rays are the same when ||P_i - P_j|| (linalg.ray_distance)
is at most tol and orthogonal when ||P_i P_j|| = |<v_i|v_j>| is: both rules
are basis-free, so a map an operator induces passes both on both sides.
The branch is two O(k^2) gauge fits along one spanning forest, and each
rejected branch's witness is read off it: its first misfit entry, closed
into a cycle by the forest path between its ends.
"""

from __future__ import annotations

import enum
from functools import cached_property
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
            raise DimensionTooSmall(f"ray maps are certified only for dimension >= 3, got {dim}")
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
    """Verdict of the both-ways orthogonality test on grams, the read-only (2, k, k)
    Gram stack; a failed one names its first violating pair and its two moduli."""

    ok: bool
    violating_pair: tuple[int, int] | None = None
    source_product_norm: float | None = None
    target_product_norm: float | None = None
    grams: np.ndarray | None = None

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

    Both Gram matrices are one batched product, kept as grams. Their moduli,
    ||P_i P_j|| for unit rows (basis-free; linalg.overlap_moduli's bits), are
    taken in row blocks up to the first that holds a pair whose sides
    disagree; the first such pair in lexicographic order is reported with
    both moduli. Cost: O(k^2 n) time and O(k^2) memory.
    """
    eps, k = m.tol.abs_eps, len(m.source_vectors)
    rows = np.stack([m.source_vectors, m.target_vectors])
    grams = rows.conj() @ np.swapaxes(rows, -1, -2)
    grams.flags.writeable = False
    for r in linalg.row_blocks(k, k):
        s, t = np.abs(grams[:, r])
        bad = np.argwhere(np.triu((s <= eps) != (t <= eps), r.start + 1))  # row-major
        if bad.size:
            i, j = bad[0]
            return OrthogonalityCheck(False, (r.start + int(i), int(j)), float(s[i, j]),
                                      float(t[i, j]), grams)
    return OrthogonalityCheck(True, grams=grams)


def _cycle_product(overlap, cycle) -> complex:
    """Tr(P_c1 ... P_cm): the product of overlap(c, c') = <v_c|v_c'> around the cycle."""
    return complex(np.prod(overlap(list(cycle), [*cycle[1:], cycle[0]])))


def bargmann_invariant(*projectors: Projector) -> complex:
    """Tr(P1 P2 ... Pm) for m >= 2: unitary-conjugation invariant,
    conjugated by anti-unitaries; |<u|v>|^2 for the pair (P_u, P_v)."""
    if len(projectors) < 2:
        raise ValueError("a Bargmann invariant takes at least two projectors")
    if len({p.dim for p in projectors}) > 1:
        raise DimensionMismatch("projectors live in different dimensions")
    v = np.stack([p.vector for p in projectors])
    return _cycle_product(lambda a, b: np.sum(v[a].conj() * v[b], axis=1), range(len(v)))


def _witness(gs, gt, parent, i: int, j: int, anti: bool, eps: float) -> tuple:
    """(cycle, source value, target value) for the misfit entry (i, j): the
    pair (i, j) if |gs[i, j]| and |gt[i, j]| differ by more than eps, which
    no operator allows, else i, the forest path to j, then j. The values
    are _cycle_product's of Gram entries, the source's conjugated if anti.
    Each tree edge on the path is at least as strong as the entry, so they
    do not vanish, and their rounding stays near cycle length x ulp."""
    cycle, up = [i, j], [i]
    if abs(abs(gs[i, j]) - abs(gt[i, j])) <= eps:
        while up[-1]:  # the root 0 is its own parent
            up.append(int(parent[up[-1]]))
        depth, down = {v: d for d, v in enumerate(up)}, [j]
        while down[-1] not in depth:
            down.append(int(parent[down[-1]]))
        cycle = up[:depth[down[-1]]] + down[::-1]
    source, target = (_cycle_product(lambda a, b: g[a, b], cycle) for g in (gs, gt))
    return tuple(cycle), source.conjugate() if anti else source, target


def _gauge_fits(gs: np.ndarray, gt: np.ndarray, eps: float) -> tuple:
    """(residuals, c, witnesses) of both branches' gauge fits: c is a
    read-only (2, k) array of unit phases c_j fixed along one maximum
    spanning forest of |gs| (Prim, O(k^2), a row of |gs| a step), and the
    residuals are max |gt[i, j] - conj(c_i) c_j g[i, j]| for g = gs (row 0,
    unitary) and g = conj(gs) (row 1, anti-unitary); |conj(gs)| is |gs| bit
    for bit, so both branches share the forest. The max runs over the row
    blocks of linalg.row_blocks, which also find the first entry above eps
    in row-major order of each branch that has one, sorted to i < j (the
    residuals are Hermitian up to rounding): its witness is _witness's."""
    k = len(gs)
    c, free = np.ones((2, k), dtype=np.complex128), np.arange(k) > 0
    best, parent = np.abs(gs[0]), np.zeros(k, dtype=np.intp)  # strongest link to the tree
    for _ in range(k - 1):
        j = int(np.argmax(np.where(free, best, -1.0)))
        p = parent[j]
        for b, z in enumerate((gt[p, j] * gs[p, j].conjugate(), gt[p, j] * gs[p, j])):
            c[b, j] = c[b, p] * (z / abs(z) if z else 1.0)
        free[j] = False
        closer = free & (np.abs(gs[j]) > best)
        best[closer], parent[closer] = np.abs(gs[j, closer]), j
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
    that branch can match, compared at m.tol. G_s and G_t are the grams of
    check, the caller's check_orthogonality_preserving(m); a failed one
    raises HypothesisViolated. Cost: O(k^2) time, no new (k, k) array.
    """
    if not check:
        raise HypothesisViolated("map does not preserve orthogonality both ways")
    eps = m.tol.abs_eps
    residuals, phases, witnesses = _gauge_fits(*check.grams, eps)
    unitary, anti = (residual <= eps for residual in residuals)
    if not (unitary or anti):
        return TransformClassification(Verdict.NEITHER, witnesses, None)
    verdict = (Verdict.INCONCLUSIVE if unitary and anti
               else Verdict.UNITARY if unitary else Verdict.ANTIUNITARY)
    return TransformClassification(verdict, witnesses, phases[int(not unitary)])


def fit_transform(m: RayMap, classification: TransformClassification) -> FitResult:
    """Fit the single operator inducing the map and verify it everywhere.

    The branch and the gauge c are classification's verdict and phases; on
    that branch the rows c_j s_j (s_j conjugated if anti-unitary) and t_j
    have equal Gram matrices, so U is the orthogonal Procrustes solution
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
        raise HypothesisViolated("Bargmann invariants are inconsistent with any single operator")
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
