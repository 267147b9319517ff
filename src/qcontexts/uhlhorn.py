"""Certification of orthogonality-preserving ray maps.

A bijective map on rank-1 projectors that preserves orthogonality in
both directions is realized by a single unitary or anti-unitary
operator (for dimension >= 3). A program only ever sees finitely many
rays, so certification here works on a finite witness set: check the
orthogonality hypothesis on all listed pairs, decide the branch through
Bargmann triple products, then fit the operator constructively from a
phase-fixing gadget and verify the fit on every listed pair.

For k rays in dimension n the whole certification costs O(k^2 n^3 + k^3)
time and O(k n^2 + k^2) memory: a RayMap caches its source and target
projector matrices as (k, n, n) stacks, the pair checks run one stacked
row at a time, and the C(k, 3) Bargmann triples are streamed, never held
at once. Every kernel reproduces the per-pair arithmetic exactly, so
verdicts, witnesses and reported norms do not depend on the chunking.
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
from .linalg import DEFAULT_TOL, Frozen, Tolerance, max_abs

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


def _projector_stack(projectors: Sequence[Projector], dim: int) -> np.ndarray:
    """(k, n, n) stack of |v><v|, entry for entry the same as np.outer."""
    v = np.array([p.vector for p in projectors], dtype=np.complex128).reshape(-1, dim)
    return v[:, :, None] * v.conj()[:, None, :]


class RayMap(Frozen):
    """Finite bijective ray correspondence with covering contexts.

    pairs lists (source, target) projectors; covering_contexts are
    contexts whose projectors all occur among the sources, candidates
    for the fiduciary basis of the constructive fit.
    """

    def __init__(self, dim: int, pairs: tuple[tuple[Projector, Projector], ...],
                 covering_contexts: tuple[Context, ...] = ()):
        self.__dict__.update(dim=dim, pairs=pairs, covering_contexts=covering_contexts)
        if self.dim < 3:
            raise DimensionTooSmall(
                f"ray maps are certified only for dimension >= 3, got {self.dim}")
        for s, t in self.pairs:
            if s.dim != self.dim or t.dim != self.dim:
                raise DimensionMismatch("ray pair dimension differs from map dimension")
        tol = DEFAULT_TOL
        src, tgt = self.source_matrices, self.target_matrices
        for i in range(len(self.pairs) - 1):
            ds = np.abs(src[i] - src[i + 1:]).max(axis=(1, 2))
            dt = np.abs(tgt[i] - tgt[i + 1:]).max(axis=(1, 2))
            hits = np.flatnonzero((ds <= tol.abs_eps) | (dt <= tol.abs_eps))
            if hits.size:
                which = "sources" if ds[hits[0]] <= tol.abs_eps else "targets"
                raise ValueError(f"{which} {i} and {i + 1 + int(hits[0])} coincide; "
                                 "map must be bijective")
        for c in self.covering_contexts:
            if c.dim != self.dim:
                raise DimensionMismatch(f"covering context '{c.label}' has dimension {c.dim}")
            if any(self._find_source(p) is None for p in c.projectors):
                raise ValueError(f"covering context '{c.label}' has a projector "
                                 "missing from the sources")

    @cached_property
    def source_matrices(self) -> np.ndarray:
        """(k, n, n) stack of the source projector matrices."""
        return _projector_stack(self.sources, self.dim)

    @cached_property
    def target_matrices(self) -> np.ndarray:
        """(k, n, n) stack of the target projector matrices."""
        return _projector_stack(self.targets, self.dim)

    def _find_source(self, p: Projector,
                     tol: Tolerance = DEFAULT_TOL) -> int | None:
        dist = np.abs(self.source_matrices - p.matrix).max(axis=(1, 2))
        hits = np.flatnonzero(dist <= tol.abs_eps)
        return int(hits[0]) if hits.size else None

    @property
    def sources(self) -> list[Projector]:
        return [s for s, _ in self.pairs]

    @property
    def targets(self) -> list[Projector]:
        return [t for _, t in self.pairs]


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
    projector are one stacked matmul over the map's cached (k, n, n)
    matrices, and the first violating pair in lexicographic order is
    reported. Cost: O(k^2 n^3) time, O(k n^2) memory.

    The max-norm is taken of the product matrices, not from the Gram
    shortcut |<v_i|v_j>| max|v_i| max|v_j|, which is equal in exact
    arithmetic but not in floating point: on a 210-ray map the two
    differed by up to 8e-15 relative on overlapping pairs and by up to
    73% on orthogonal ones, where both are rounding noise near 1e-16.
    The decision and the reported norms would move with it.
    """
    src, tgt = m.source_matrices, m.target_matrices
    eps = tol.abs_eps
    for i in range(len(m.pairs) - 1):
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


def _gram(vectors: Sequence[np.ndarray]) -> np.ndarray:
    b = np.column_stack(vectors)
    return b.conj().T @ b


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
    chunks of i, each a suffix of the (j, l) pairs of one triu_indices
    table, with the same products g_ij g_jl g_li as a full scan. Cost:
    O(k^3 + k^2 n) time, O(k^2 + k n^2) memory (the orthogonality
    check run first included).
    """
    if not check_orthogonality_preserving(m, tol):
        raise HypothesisViolated("map does not preserve orthogonality both ways")
    k = len(m.pairs)
    eps = tol.abs_eps
    gs = _gram([p.vector for p in m.sources])
    gt = _gram([p.vector for p in m.targets])
    rows, cols = np.triu_indices(k, 1)
    first_nonreal = first_nonunitary = None
    all_anti = True
    start = 0
    for i in range(k - 2):
        start += k - 1 - i  # skip the pairs (j, l) with j == i
        j, l = rows[start:], cols[start:]
        vs = gs[i, j] * gs[j, l] * gs[l, i]
        vt = gt[i, j] * gt[j, l] * gt[l, i]
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
    e = [p.vector for p in context.projectors]
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
    pairs = tuple(
        (Projector.from_vector(r, tol),
         Projector.from_vector(transform.act_vector(r), tol))
        for r in rays
    )
    return RayMap(dim=context.dim, pairs=pairs, covering_contexts=(context,))


def _locate_gadget(m: RayMap, context: Context, source_reps: list[np.ndarray],
                   tol: Tolerance):
    """Find basis indices and, per k, the pair of balanced superposition rays.

    Superposition rays are recognized by their overlap pattern with the
    fiduciary basis (all weight on rays 1 and k, half each), which is
    invariant under any rephasing of the stored representatives. The
    two rays of a pair are oriented so their relative-phase ratio is
    +i, making the fit deterministic.
    """
    basis_idx = [m._find_source(p, tol) for p in context.projectors]
    if None in basis_idx:
        raise MissingGadget("fiduciary projector missing from sources")
    e = [source_reps[i] for i in basis_idx]
    n = context.dim
    superpositions: list[tuple[int, int]] = []
    for k in range(1, n):
        candidates: list[tuple[int, complex]] = []
        for idx, s in enumerate(source_reps):
            if idx in basis_idx:
                continue
            overlaps = np.array([np.vdot(ei, s) for ei in e])
            weights = np.abs(overlaps)
            pattern = np.zeros(n)
            pattern[0] = pattern[k] = 1.0 / np.sqrt(2.0)
            if max_abs(weights - pattern) <= _GADGET_PATTERN_TOL:
                candidates.append((idx, overlaps[k] / overlaps[0]))
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


def fit_transform(m: RayMap, tol: Tolerance = DEFAULT_TOL, *,
                  classification: TransformClassification | None = None) -> FitResult:
    """Fit the single operator inducing the map and verify it everywhere.

    The branch comes from classify_transform; an Inconclusive branch
    (all-real data, where the branches coincide) falls back to the
    unitary fit and is flagged. The operator is built column by column
    from the fiduciary basis images, with each column's phase pinned by
    the balanced-superposition images; its global phase is normalized
    so the first nonzero entry of the first column is real positive.
    A caller that already holds classify_transform(m, tol) passes it as
    classification, so the triples are not scanned again.
    """
    if classification is None:
        classification = classify_transform(m, tol)
    verdict = classification.verdict
    if verdict is Verdict.NEITHER:
        raise HypothesisViolated(
            "Bargmann invariants are inconsistent with any single operator")
    anti = verdict is Verdict.ANTIUNITARY
    ambiguous = verdict is Verdict.INCONCLUSIVE

    # Anti-unitary action is conjugation followed by a unitary; fitting in
    # the conjugated source gauge reduces both branches to the unitary case.
    source_reps = [p.vector.conj() if anti else p.vector for p in m.sources]
    target_reps = [p.vector for p in m.targets]

    if not m.covering_contexts:
        raise MissingGadget("ray map lists no covering context")
    for context in m.covering_contexts:
        try:
            basis_idx, superpositions = _locate_gadget(m, context, source_reps, tol)
            break
        except MissingGadget as exc:
            last_error = exc
    else:
        raise last_error

    n = m.dim
    e = [source_reps[i] for i in basis_idx]
    f = [target_reps[i] for i in basis_idx]
    phases = [1.0 + 0.0j]
    for k in range(1, n):
        plus_idx, _ = superpositions[k - 1]
        s = source_reps[plus_idx]
        g = target_reps[plus_idx]
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
    residual = 0.0
    for source, target in m.pairs:
        residual = max(residual, max_abs(
            target.matrix - transform.act_matrix(source.matrix)))
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
