"""Measurement contexts, modalities, and Born probabilities.

A modality (a complete, repeatable measurement result) is represented by
a rank-1 projector; a context is a complete set of N mutually orthogonal
rank-1 projectors. Probabilities attach to projectors, never to the
phase-dependent representative vectors, so global phase is quotiented
out everywhere.

Each type stores one representation: a Projector its unit vector, a
Context the (n, n) array of its unit rows, a DensityOperator or a
ContextTransform its matrix; dim is read from that array, and projector
matrices are built on first use. Projector(), make_context and the from_*
classmethods validate their input once; nothing re-checks it later. The
ray rules are linalg's: unit_rows (the one normalization, which keeps unit
rows), ray_distance (extravalence, through same_ray_pairs) and overlap_moduli
(exclusivity and orthonormality). Born's rule, <v|rho|v> on unit rows, is
born_values."""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, NotOrthonormal
from .linalg import (DEFAULT_TOL, UNIT_NORM_ROUNDING, Frozen, Tolerance, as_matrix, as_vector,
                     in_unit_interval, is_unitary, max_abs, overlap_moduli, projector_stack,
                     row_blocks, same_ray_pairs, unit_rows)

__all__ = [
    "Projector",
    "Context",
    "Modality",
    "DensityOperator",
    "ContextTransform",
    "check_seed",
    "make_generator",
    "make_context",
    "born_values",
    "born_probability",
    "context_distribution",
    "are_exclusive",
    "extravalent",
    "extravalence_classes",
    "apply_transform",
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


class Projector(Frozen):
    """Rank-1 projector |psi><psi| stored as |psi>, a row linalg.unit_rows keeps
    as it is (phase irrelevant); from_vector normalizes any nonzero vector."""

    def __init__(self, vector: np.ndarray):
        self.__dict__["vector"] = vector
        self.__post_init__()  # perfbench/traced.py wraps this hook to count projectors

    @classmethod
    def from_vector(cls, v, tol: Tolerance = DEFAULT_TOL) -> "Projector":
        """Build the projector onto the ray of v (v is normalized here)."""
        return cls(unit_rows(as_vector(v), tol, lambda _: ValueError(
            "cannot project onto the zero vector or one whose norm overflows")))

    def __post_init__(self):
        vec = as_vector(self.vector)
        if abs(float(np.linalg.norm(vec)) - 1.0) > len(vec) * UNIT_NORM_ROUNDING:
            raise ValueError("projector vector does not have unit norm")
        self.__dict__["vector"] = _readonly(vec.copy())

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        """|psi><psi|, built on first use."""
        return _readonly(np.outer(self.vector, self.vector.conj()))


def _check_dims(*dims: int) -> None:
    if len(set(dims)) > 1:
        raise DimensionMismatch(f"dimension mismatch: {dims}")


class Context(Frozen):
    """Ordered complete set of N mutually orthogonal rank-1 projectors,
    stored as vectors: row k is modality k's unit vector. Build it with
    make_context, which validates the rows; this constructor trusts them."""

    def __init__(self, vectors: np.ndarray, label: str = ""):
        self.__dict__.update(vectors=vectors, label=label)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @cached_property
    def projectors(self) -> tuple[Projector, ...]:
        """One projector per row, built on first use."""
        return tuple(Projector(v) for v in self.vectors)

    def modality(self, index: int) -> "Modality":
        if not 0 <= index < self.dim:
            raise IndexError(f"modality index {index} outside [0, {self.dim})")
        return Modality(self.label, index, self.projectors[index])

    def modalities(self) -> list["Modality"]:
        return [self.modality(i) for i in range(self.dim)]

    def exclusivity_defect(self) -> float:
        """max over i < j of the overlap modulus |<v_i|v_j>| = ||P_i P_j||."""
        return float(np.triu(overlap_moduli(self.vectors), 1).max())

    def completeness_defect(self) -> float:
        """||sum_i P_i - I||_max, read off the rows V as ||V^T conj(V) - I||_max."""
        return max_abs(self.vectors.T @ self.vectors.conj() - np.eye(self.dim))


class Modality(NamedTuple):
    """A measurement result: an index within a labelled context."""

    context_label: str
    index: int
    projector: Projector


class DensityOperator(Frozen):
    """Positive-semidefinite self-adjoint operator with unit trace."""

    def __init__(self, matrix: np.ndarray):
        self.__dict__["matrix"] = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, m, tol: Tolerance = DEFAULT_TOL) -> "DensityOperator":
        mat = as_matrix(m)
        if mat.shape[0] != mat.shape[1] or not mat.size:
            raise ValueError(f"density matrix must be square and nonempty, got {mat.shape}")
        # entries near the float limit overflow here; rejected below, without a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            if max_abs(mat - mat.conj().T) > tol.bound(max_abs(mat)):
                raise ValueError("density matrix is not self-adjoint")
            mat = (mat + mat.conj().T) / 2.0
            if not np.isfinite(mat).all():
                raise ValueError("density matrix entries overflow")
            eigs = np.linalg.eigvalsh(mat)
            if eigs[0] < -tol.abs_eps:
                raise ValueError(f"density matrix has negative eigenvalue {eigs[0]:.3e}")
            tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > tol.abs_eps:
            raise ValueError(f"density matrix has trace {tr}, expected 1")
        return cls(_readonly(mat))


class ContextTransform(Frozen):
    """Unitary context change, optionally composed with conjugation.

    The action on a projector is P -> U P U^dag, with entrywise complex
    conjugation of P applied first when antiunitary is set.
    """

    def __init__(self, matrix: np.ndarray, antiunitary: bool = False):
        self.__dict__.update(matrix=matrix, antiunitary=antiunitary)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, m, antiunitary: bool = False,
                    tol: Tolerance = DEFAULT_TOL) -> "ContextTransform":
        mat = as_matrix(m)
        if mat.shape[0] != mat.shape[1] or not mat.size:
            raise ValueError(f"transform matrix must be square and nonempty, got {mat.shape}")
        check = is_unitary(mat, tol)
        if not check:
            raise ValueError(f"transform matrix is not unitary "
                             f"(deviation {check.deviation:.3e})")
        return cls(_readonly(mat), antiunitary=antiunitary)

    def act_vector(self, v: np.ndarray) -> np.ndarray:
        """U v, or U conj(v) if antiunitary, on each row of v: v @ U^T (1-D: U @ v's bits)."""
        v = np.asarray(v, dtype=np.complex128)
        return (v.conj() if self.antiunitary else v) @ self.matrix.T


def make_context(vectors, label: str = "", tol: Tolerance = DEFAULT_TOL) -> Context:
    """Build a context from an orthonormal basis, rows made unit rays by
    linalg.unit_rows. Raises NotOrthonormal with the first offending pair
    (i == j flags a non-unit norm, so unit_rows finds no bad row).
    """
    vs = [as_vector(v) for v in vectors]
    n = len(vs)
    if n == 0:
        raise ValueError("a context needs at least one vector")
    for k, v in enumerate(vs):
        if v.shape[0] != n:
            raise DimensionMismatch(f"vector {k} has dimension {v.shape[0]}, expected {n}")
    raw = np.stack(vs)
    # entries that overflow the Gram matrix leave an infinite diagonal entry, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        bad = np.argwhere(np.triu(np.abs(overlap_moduli(raw) - np.eye(n)) > tol.abs_eps))
        if bad.size:  # the first pair in row order, (i, i) before (i, j > i)
            i, j = map(int, bad[0])
            raise NotOrthonormal(i, j, complex((raw.conj() @ raw.T)[i, j]))
    return Context(_readonly(unit_rows(raw, tol, ValueError)), label=label)


def born_values(rho: np.ndarray, rows: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Born's rule, evaluated here only: <v_k|rho|v_k> over the unit rows v_k of
    rows for an (n, n) density matrix or a (..., n, n) stack, clipped to [0, 1]
    within tol. Rows are made C-contiguous, so each gets the same bits alone."""
    _check_dims(rho.shape[-1], rows.shape[-1])
    rows = np.ascontiguousarray(rows)
    values = np.einsum("ki,...ij,kj->...k", rows.conj(), rho, rows).real
    if not in_unit_interval(values, tol):
        raise ValueError("a Born value <v|rho|v> lies outside [0, 1] beyond tolerance")
    return np.clip(values, 0.0, 1.0)


def born_probability(rho: DensityOperator, p: Projector, tol: Tolerance = DEFAULT_TOL) -> float:
    """Tr(rho P) by born_values on P's unit vector."""
    return float(born_values(rho.matrix, p.vector[None], tol)[0])


def context_distribution(rho: DensityOperator, c: Context,
                         tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Probabilities Tr(rho P_i) of the context's modalities, by born_values."""
    return born_values(rho.matrix, c.vectors, tol)


def are_exclusive(m1: Modality, m2: Modality,
                  tol: Tolerance = DEFAULT_TOL) -> bool:
    """Mutually exclusive iff the projector product vanishes: the overlap
    modulus |<u|v>| = ||P_u P_v|| is at most tol.abs_eps."""
    _check_dims(m1.projector.dim, m2.projector.dim)
    rows = np.stack([m1.projector.vector, m2.projector.vector])
    return bool(overlap_moduli(rows)[0, 1] <= tol.abs_eps)


def extravalent(m1: Modality, m2: Modality,
                tol: Tolerance = DEFAULT_TOL) -> bool:
    """Connected with certainty iff the two projectors coincide: one class."""
    return len(extravalence_classes([m1, m2], tol)) == 1


def extravalence_classes(modalities: Sequence[Modality],
                         tol: Tolerance = DEFAULT_TOL) -> list[list[int]]:
    """Partition modality indices by projector equality: the transitive
    closure of linalg.same_ray_pairs, so near-coincident chains merge."""
    mods = list(modalities)
    if not mods:
        return []
    _check_dims(*(m.projector.dim for m in mods))
    parent = list(range(len(mods)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in same_ray_pairs(np.stack([m.projector.vector for m in mods]), tol.abs_eps):
        parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(len(mods)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def apply_transform(c: Context, g: ContextTransform,
                    tol: Tolerance = DEFAULT_TOL) -> Context:
    """Carry a context to its image, U act(P_i) U^dag: all rows in one act_vector."""
    _check_dims(c.dim, g.dim)
    return make_context(g.act_vector(c.vectors), label=f"{c.label}*", tol=tol)


# Philox4x64-10 constants (Salmon et al., SC'11), as numpy's Philox uses them
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(a: np.ndarray, m: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of a * m, the high word from 32-bit limbs."""
    a0, a1 = a & _LO32, a >> _S32
    m0, m1 = m & _LO32, m >> _S32
    t = a1 * m0 + ((a0 * m0) >> _S32)
    w = (t & _LO32) + a0 * m1
    return a1 * m1 + (t >> _S32) + (w >> _S32), a * m


def _philox_uniforms(keys: np.ndarray, steps: int) -> np.ndarray:
    """(len(keys), steps) uniforms; row i is make_generator(keys[i]).random(steps).

    numpy's Philox with key k gives as its draw j word j % 4 of the
    Philox4x64-10 block with counter (1 + j // 4, 0, 0, 0) and key (k, 0),
    and random() maps a word x to (x >> 11) * 2**-53. The generator is
    counter-based, so every block of every key is computed at once.
    """
    runs, blocks = len(keys), -(-steps // 4)
    key0 = np.asarray(keys, dtype=np.uint64)[:, None]
    key1 = np.zeros(1, dtype=np.uint64)
    x0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (runs, blocks))
    x1 = x2 = x3 = np.zeros((runs, blocks), dtype=np.uint64)
    for r in range(10):
        if r:
            key0, key1 = key0 + _PHILOX_W[0], key1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(x0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(x2, _PHILOX_M[1])
        x0, x1, x2, x3 = hi1 ^ x1 ^ key0, lo1, hi0 ^ x3 ^ key1, lo0
    words = np.stack([x0, x1, x2, x3], axis=-1).reshape(runs, 4 * blocks)[:, :steps]
    return (words >> np.uint64(11)) * (1.0 / 2**53)


def _sample_outcomes(initial: Projector, contexts: Sequence[Context],
                     uniforms: np.ndarray) -> np.ndarray:
    """Outcome indices (runs, steps), run k drawing uniforms[k, t] at step t.

    Before step t every run holds the initial state (t = 0) or one of
    context t-1's basis vectors s; each held s gets one table row, the
    cumsum of born_values of |s><s| (one projector stack per row block).
    The outcome is searchsorted(cdf, u * cdf[-1], side="right") clamped to
    dim - 1; on a non-decreasing CDF that is the count of the first dim - 1
    entries <= u * cdf[-1].
    """
    outcomes = np.empty(uniforms.shape, dtype=np.intp)
    states, prev = initial.vector[None], np.zeros(len(uniforms), dtype=np.intp)
    for t, c in enumerate(contexts):
        held = np.flatnonzero(np.bincount(prev, minlength=len(states)))
        table = np.empty((len(states), c.dim))
        for s in (held[b] for b in row_blocks(len(held), c.dim ** 2)):
            table[s] = np.cumsum(born_values(projector_stack(states[s]), c.vectors), axis=1)
        rows = table[prev]
        u = uniforms[:, t] * rows[:, -1]
        prev = outcomes[:, t] = (rows[:, :-1] <= u[:, None]).sum(axis=1)
        states = c.vectors
    return outcomes


def repeat_simulation(initial: Projector, contexts: Sequence[Context],
                      seed: int, repeats: int) -> np.ndarray:
    """Outcome indices of runs seeded seed, seed+1, ... (mod 2^64) that
    measure through a sequence of contexts from a pure initial state.

    A run's state starts as the initial projector and becomes each
    obtained outcome's projector, so re-measuring a context repeats its
    outcome with probability 1. Returns an int array of shape (repeats,
    len(contexts)); run k samples by inverse CDF, step t drawing
    make_generator((seed + k) % 2**64).random(len(contexts))[t]. All runs
    are sampled in one pass: their Philox draws come from one vectorised
    evaluation of the counter-based generator, bit-identical to
    make_generator's stream for each run's key, and each step builds one
    CDF per state that some run holds.
    """
    seed = check_seed(seed)
    if repeats < 1:
        raise ValueError("repeats must be positive")
    # uint64 addition wraps, so the keys past 2^64 - 1 continue at 0
    keys = np.uint64(seed) + np.arange(repeats, dtype=np.uint64)
    return _sample_outcomes(initial, contexts, _philox_uniforms(keys, len(contexts)))
