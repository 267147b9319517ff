"""Measurement contexts, modalities, and Born probabilities.

A modality (a complete, repeatable measurement result) is represented by
a rank-1 projector; a context is a complete set of N mutually orthogonal
rank-1 projectors. Probabilities attach to projectors, never to the
phase-dependent representative vectors, so global phase is quotiented
out everywhere.

Each type stores one representation: a Projector its unit vector, a
Context its orthonormal basis matrix. Projector matrices and a context's
projectors are built on first use. The Projector constructor and
make_context validate their input once; nothing re-checks it later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, NotOrthonormal
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, as_vector, is_unitary, max_abs

__all__ = [
    "Projector",
    "Context",
    "Modality",
    "DensityOperator",
    "ContextTransform",
    "MeasurementRecord",
    "check_seed",
    "make_generator",
    "make_context",
    "born_probability",
    "context_distribution",
    "are_exclusive",
    "extravalent",
    "extravalence_classes",
    "apply_transform",
    "simulate_sequence",
    "repeat_simulation",
]


def check_seed(seed: int) -> int:
    """The seed as an int; ValueError unless it lies in [0, 2^64)."""
    if not (0 <= int(seed) < 2**64):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return int(seed)


def make_generator(seed: int) -> np.random.Generator:
    """Counter-based (Philox) generator keyed by a 64-bit seed.

    Philox is splittable and platform-stable, so identical seeds give
    bit-identical streams everywhere. All randomness in this package
    funnels through generators built here.
    """
    return np.random.Generator(np.random.Philox(key=check_seed(seed)))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Projector:
    """Rank-1 orthogonal projector |psi><psi|, stored as its unit vector
    |psi> (phase irrelevant); from_vector normalizes any nonzero vector."""

    vector: np.ndarray

    @classmethod
    def from_vector(cls, v, tol: Tolerance = DEFAULT_TOL) -> "Projector":
        """Build the projector onto the ray of v (v is normalized here)."""
        vec = as_vector(v)
        norm = float(np.linalg.norm(vec))
        if norm <= tol.bound():
            raise ValueError("cannot project onto the zero vector")
        return cls(vec / norm)

    def __post_init__(self):
        vec = as_vector(self.vector)
        if abs(float(np.linalg.norm(vec)) - 1.0) > DEFAULT_TOL.abs_eps:
            raise ValueError("projector vector does not have unit norm")
        object.__setattr__(self, "vector", _readonly(vec.copy()))

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        """|psi><psi|, built on first use."""
        return _readonly(np.outer(self.vector, self.vector.conj()))

    def distance(self, other: "Projector") -> float:
        """Max-norm distance between the two projector matrices."""
        _check_dims(self.dim, other.dim)
        return max_abs(self.matrix - other.matrix)


def _check_dims(*dims: int) -> None:
    if len(set(dims)) > 1:
        raise DimensionMismatch(f"dimension mismatch: {dims}")


@dataclass(frozen=True, eq=False)
class Context:
    """Ordered complete set of N mutually orthogonal rank-1 projectors,
    stored as the basis matrix of their unit vectors. Build it with
    make_context, which validates the basis; this constructor trusts it."""

    basis: np.ndarray = field(repr=False)
    label: str = ""

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def projectors(self) -> tuple[Projector, ...]:
        """One projector per basis column, built on first use."""
        return tuple(Projector(self.basis[:, k]) for k in range(self.dim))

    def modality(self, index: int) -> "Modality":
        return Modality(context_label=self.label, index=index,
                        projector=self.projectors[index])

    def modalities(self) -> list["Modality"]:
        return [self.modality(i) for i in range(self.dim)]

    def exclusivity_defect(self) -> float:
        """max over i != j of ||P_i P_j||_max."""
        worst = 0.0
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                worst = max(worst, max_abs(
                    self.projectors[i].matrix @ self.projectors[j].matrix))
        return worst

    def completeness_defect(self) -> float:
        """||sum_i P_i - I||_max."""
        total = sum(p.matrix for p in self.projectors)
        return max_abs(total - np.eye(self.dim))


class Modality(NamedTuple):
    """A measurement result: an index within a labelled context."""

    context_label: str
    index: int
    projector: Projector


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive-semidefinite self-adjoint operator with unit trace."""

    dim: int
    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, m, tol: Tolerance = DEFAULT_TOL) -> "DensityOperator":
        mat = as_matrix(m)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got {mat.shape}")
        if max_abs(mat - mat.conj().T) > tol.bound(max_abs(mat)):
            raise ValueError("density matrix is not self-adjoint")
        mat = (mat + mat.conj().T) / 2.0
        eigs = np.linalg.eigvalsh(mat)
        if eigs[0] < -tol.abs_eps:
            raise ValueError(f"density matrix has negative eigenvalue {eigs[0]:.3e}")
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > tol.bound():
            raise ValueError(f"density matrix has trace {tr}, expected 1")
        return cls(dim=mat.shape[0], matrix=_readonly(mat))

    @classmethod
    def from_projector(cls, p: Projector) -> "DensityOperator":
        return cls(dim=p.dim, matrix=p.matrix)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(dim=dim, matrix=_readonly(np.eye(dim, dtype=np.complex128) / dim))


@dataclass(frozen=True, eq=False)
class ContextTransform:
    """Unitary context change, optionally composed with conjugation.

    The action on a projector is P -> U P U^dag, with entrywise complex
    conjugation of P applied first when antiunitary is set.
    """

    dim: int
    matrix: np.ndarray
    antiunitary: bool = False

    @classmethod
    def from_matrix(cls, m, antiunitary: bool = False,
                    tol: Tolerance = DEFAULT_TOL) -> "ContextTransform":
        mat = as_matrix(m)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"transform matrix must be square, got {mat.shape}")
        check = is_unitary(mat, tol)
        if not check:
            raise ValueError(f"transform matrix is not unitary "
                             f"(deviation {check.deviation:.3e})")
        return cls(dim=mat.shape[0], matrix=_readonly(mat), antiunitary=antiunitary)

    def act_vector(self, v: np.ndarray) -> np.ndarray:
        v = as_vector(v)
        return self.matrix @ (v.conj() if self.antiunitary else v)

    def act_matrix(self, p: np.ndarray) -> np.ndarray:
        p = as_matrix(p)
        q = p.conj() if self.antiunitary else p
        return self.matrix @ q @ self.matrix.conj().T


def make_context(vectors, label: str = "", tol: Tolerance = DEFAULT_TOL) -> Context:
    """Build a context from an orthonormal basis.

    Raises NotOrthonormal with the first offending pair (i == j flags a
    non-unit norm). Callers may pre-apply gram_schmidt to raw vectors.
    """
    vs = [as_vector(v) for v in vectors]
    n = len(vs)
    if n == 0:
        raise ValueError("a context needs at least one vector")
    for k, v in enumerate(vs):
        if v.shape[0] != n:
            raise DimensionMismatch(
                f"vector {k} has dimension {v.shape[0]}, expected {n}")
    raw = np.column_stack(vs)
    gram = raw.conj().T @ raw
    for i in range(n):
        if abs(gram[i, i] - 1.0) > tol.bound():
            raise NotOrthonormal(i, i, complex(gram[i, i]))
        for j in range(i + 1, n):
            if abs(gram[i, j]) > tol.bound():
                raise NotOrthonormal(i, j, complex(gram[i, j]))
    # one np.linalg.norm per vector: a norm over axis 0 rounds differently in the last bits
    basis = np.column_stack([v / np.linalg.norm(v) for v in vs])
    return Context(basis=_readonly(basis), label=label)


def born_probability(rho: DensityOperator, p: Projector,
                     tol: Tolerance = DEFAULT_TOL) -> float:
    """Tr(rho P), clamped to [0, 1] only within tolerance of the ends."""
    _check_dims(rho.dim, p.dim)
    value = float(np.trace(rho.matrix @ p.matrix).real)
    if value < -tol.abs_eps or value > 1.0 + tol.abs_eps:
        raise ValueError(f"Tr(rho P) = {value} lies outside [0, 1] beyond tolerance")
    return min(1.0, max(0.0, value))


def context_distribution(rho: DensityOperator, c: Context,
                         tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Probability vector (Tr(rho P_i))_i over the context's modalities.

    Evaluated as diag(B^dag rho B) with B the basis of representatives,
    which equals the per-projector trace formula. Components sum to 1
    within 1e-10 for any well-formed context.
    """
    _check_dims(rho.dim, c.dim)
    probs = np.einsum("ij,jk,ki->i", c.basis.conj().T, rho.matrix, c.basis).real
    lo, hi = float(probs.min()), float(probs.max())
    if lo < -tol.abs_eps or hi > 1.0 + tol.abs_eps:
        raise ValueError("context distribution leaves [0, 1] beyond tolerance")
    return np.clip(probs, 0.0, 1.0)


def are_exclusive(m1: Modality, m2: Modality,
                  tol: Tolerance = DEFAULT_TOL) -> bool:
    """Mutually exclusive iff the projector product vanishes."""
    _check_dims(m1.projector.dim, m2.projector.dim)
    return max_abs(m1.projector.matrix @ m2.projector.matrix) <= tol.abs_eps


def extravalent(m1: Modality, m2: Modality,
                tol: Tolerance = DEFAULT_TOL) -> bool:
    """Connected with certainty iff the two projectors coincide."""
    _check_dims(m1.projector.dim, m2.projector.dim)
    return m1.projector.distance(m2.projector) <= tol.abs_eps


def extravalence_classes(modalities: Sequence[Modality],
                         tol: Tolerance = DEFAULT_TOL) -> list[list[int]]:
    """Partition modality indices by projector equality.

    Transitive closure of the pairwise tolerance test; well-separated
    inputs give unambiguous classes, near-coincident chains are a
    documented caller hazard.
    """
    mods = list(modalities)
    if mods:
        _check_dims(*(m.projector.dim for m in mods))
    parent = list(range(len(mods)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            if extravalent(mods[i], mods[j], tol):
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(len(mods)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def apply_transform(c: Context, g: ContextTransform,
                    tol: Tolerance = DEFAULT_TOL) -> Context:
    """Carry a context to its image: projector i becomes U act(P_i) U^dag."""
    _check_dims(c.dim, g.dim)
    vectors = [g.act_vector(p.vector) for p in c.projectors]
    return make_context(vectors, label=f"{c.label}*", tol=tol)


class MeasurementRecord(NamedTuple):
    """One step of a simulated measurement sequence."""

    context_label: str
    outcome_index: int
    projector: Projector


def simulate_sequence(initial: Projector, contexts: Sequence[Context],
                      seed: int) -> list[MeasurementRecord]:
    """Measure through a sequence of contexts from a pure initial state.

    The state starts as the initial projector; after each measurement it
    is replaced by the obtained outcome's projector, which realizes
    repeatability: re-measuring in the same context repeats the outcome
    with probability 1. Sampling is inverse-CDF on the seeded Philox
    stream, so identical inputs and seed give identical records.
    """
    rng = make_generator(seed)
    state = DensityOperator.from_projector(initial)
    records: list[MeasurementRecord] = []
    for c in contexts:
        _check_dims(state.dim, c.dim)
        probs = context_distribution(state, c)
        cdf = np.cumsum(probs)
        u = rng.random() * cdf[-1]
        outcome = int(np.searchsorted(cdf, u, side="right"))
        outcome = min(outcome, c.dim - 1)
        records.append(MeasurementRecord(c.label, outcome, c.projectors[outcome]))
        state = DensityOperator.from_projector(c.projectors[outcome])
    return records


def repeat_simulation(initial: Projector, contexts: Sequence[Context],
                      seed: int, repeats: int) -> list[list[MeasurementRecord]]:
    """Run simulate_sequence for seeds seed, seed+1, ... (mod 2^64)."""
    seed = check_seed(seed)
    if repeats < 1:
        raise ValueError("repeats must be positive")
    return [simulate_sequence(initial, contexts, (seed + k) % 2**64)
            for k in range(repeats)]
