"""Frame-function validation and density-operator reconstruction.

A frame function assigns a value in [0, 1] to every rank-1 projector
such that the values over any complete orthogonal set sum to 1. For
dimension >= 3 every such function is P -> Tr(rho P) for a unique
density operator rho; this module checks the normalization numerically
and recovers rho by linear inversion from sampled values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import Context, DensityOperator, Projector
from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    NotInformationallyComplete,
    ValueOutOfRange,
)
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "FrameSample",
    "FrameValidation",
    "ReconstructionReport",
    "CompletenessReport",
    "hermitian_basis",
    "validate_frame_function",
    "informational_completeness",
    "reconstruct_density",
    "born_case_check",
]

# Frobenius accuracy promised on exact data, and the PSD-projection budget.
EXACT_RECOVERY_LIMIT = 1e-8


@dataclass(frozen=True)
class FrameSample:
    """One sampled frame-function value on a projector."""

    projector: Projector
    value: float

    def __post_init__(self):
        if not (-1e-12 <= self.value <= 1.0 + 1e-12):
            raise ValueOutOfRange(
                f"frame value {self.value} outside the unit interval")


class CompletenessReport(NamedTuple):
    rank: int
    condition_number: float


@dataclass(frozen=True)
class FrameValidation:
    """Per-context normalization check of a candidate frame function."""

    max_deviation: float
    worst_context_label: str
    contexts_checked: int
    tolerance: float

    @property
    def passes(self) -> bool:
        return self.max_deviation <= self.tolerance


@dataclass(frozen=True)
class ReconstructionReport:
    """Least-squares density fit with conditioning diagnostics."""

    rho: DensityOperator
    residual_rms: float
    design_rank: int
    condition_number: float
    psd_correction: float


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal real basis of n x n self-adjoint matrices, shape (n^2, n, n).

    Element 0 is I/sqrt(n); the rest are the generalized Gell-Mann
    matrices scaled to Tr(B_a B_b) = delta_ab, so the basis is
    orthonormal under the Hilbert-Schmidt inner product.
    """
    mats = [np.eye(n, dtype=np.complex128) / np.sqrt(n)]
    for j in range(n):
        for k in range(j + 1, n):
            sym = np.zeros((n, n), dtype=np.complex128)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            mats.append(sym)
            asym = np.zeros((n, n), dtype=np.complex128)
            asym[j, k] = -1j / np.sqrt(2.0)
            asym[k, j] = 1j / np.sqrt(2.0)
            mats.append(asym)
    for l in range(1, n):
        diag = np.zeros(n, dtype=np.complex128)
        diag[:l] = 1.0
        diag[l] = -l
        mats.append(np.diag(diag) / np.sqrt(l * (l + 1)))
    return np.stack(mats)


def _design_matrix(projectors: Sequence[Projector], basis: np.ndarray) -> np.ndarray:
    # Tr(P B) is real for self-adjoint P and B
    stack = np.stack([p.matrix for p in projectors])
    return np.einsum("kij,aji->ka", stack, basis).real


def _rank_and_condition(a: np.ndarray) -> CompletenessReport:
    """Numerical rank of a (numpy's default SVD cutoff) and its condition
    number restricted to the row space."""
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = s[0] * max(a.shape) * np.finfo(float).eps if s.size else 0.0
    rank = int(np.sum(s > cutoff))
    cond = float(s[0] / s[rank - 1]) if rank else float("inf")
    return CompletenessReport(rank=rank, condition_number=cond)


def validate_frame_function(samples_by_context: Sequence[tuple[Context, Sequence[float]]],
                            tol: Tolerance = DEFAULT_TOL) -> FrameValidation:
    """Check that per-context value vectors sum to 1 within tolerance.

    Raises DimensionMismatch when a vector length disagrees with its
    context and ValueOutOfRange when a value leaves the unit interval
    by more than tol.
    """
    if not samples_by_context:
        raise ValueError("no contexts supplied")
    worst = -1.0
    worst_label = ""
    for context, values in samples_by_context:
        vals = np.asarray(values, dtype=float)
        if vals.shape != (context.dim,):
            raise DimensionMismatch(
                f"context '{context.label}' has {context.dim} modalities, "
                f"got {vals.shape[0]} values")
        if vals.min() < -tol.abs_eps or vals.max() > 1.0 + tol.abs_eps:
            raise ValueOutOfRange(
                f"context '{context.label}' carries a value outside [0, 1]")
        deviation = abs(float(vals.sum()) - 1.0)
        if deviation > worst:
            worst = deviation
            worst_label = context.label
    return FrameValidation(max_deviation=worst, worst_context_label=worst_label,
                           contexts_checked=len(samples_by_context),
                           tolerance=tol.abs_eps)


def informational_completeness(projectors: Sequence[Projector]) -> CompletenessReport:
    """Rank and conditioning of the projector family's design map.

    rank is the dimension of the family's real span inside the
    n^2-dimensional space of self-adjoint matrices; the condition number
    is taken on the design map restricted to its row space.
    """
    if not projectors:
        raise ValueError("no projectors supplied")
    dims = {p.dim for p in projectors}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed dimensions: {sorted(dims)}")
    n = projectors[0].dim
    return _rank_and_condition(_design_matrix(projectors, hermitian_basis(n)))


def reconstruct_density(samples: Sequence[FrameSample],
                        tol: Tolerance = DEFAULT_TOL) -> ReconstructionReport:
    """Recover the density operator behind sampled frame-function values.

    Solves the least-squares problem Tr(rho P_k) ~ value_k over the
    trace-1 affine slice of self-adjoint matrices (real coordinates in
    the orthonormal Hermitian basis, minimum-norm solution), then
    projects onto the PSD cone by eigenvalue clipping and a trace
    renormalization. Exact Born input reproduces its source within
    1e-8 Frobenius.
    """
    if not samples:
        raise ValueError("no samples supplied")
    projectors = [s.projector for s in samples]
    dims = {p.dim for p in projectors}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed dimensions: {sorted(dims)}")
    n = projectors[0].dim
    if n < 3:
        raise DimensionTooSmall(
            f"reconstruction requires dimension >= 3, got {n}")

    basis = hermitian_basis(n)
    a = _design_matrix(projectors, basis)
    rank, cond = _rank_and_condition(a)
    if rank < n * n:
        raise NotInformationallyComplete(
            f"design rank {rank} < {n * n}; supply more projectors")

    values = np.array([s_.value for s_ in samples], dtype=float)
    # Tr(rho) = 1 pins the identity coordinate at 1/sqrt(n).
    c0 = 1.0 / np.sqrt(n)
    rhs = values - a[:, 0] * c0
    rest, *_ = np.linalg.lstsq(a[:, 1:], rhs, rcond=None)
    coords = np.concatenate(([c0], rest))
    raw = np.tensordot(coords, basis, axes=1)

    eigs, vecs = np.linalg.eigh(raw)
    clipped = np.clip(eigs, 0.0, None)
    total = float(clipped.sum())
    if total <= 0.0:
        raise ValueError("PSD projection collapsed the fit to zero")
    clipped /= total
    projected = (vecs * clipped) @ vecs.conj().T
    psd_correction = float(np.linalg.norm(projected - raw))

    rho = DensityOperator.from_matrix(projected, tol)
    stack = np.stack([p.matrix for p in projectors])
    fitted = np.einsum("kij,ji->k", stack, rho.matrix).real
    residual_rms = float(np.sqrt(np.mean((fitted - values) ** 2)))
    return ReconstructionReport(rho=rho, residual_rms=residual_rms,
                                design_rank=rank, condition_number=cond,
                                psd_correction=psd_correction)


def born_case_check(rho: DensityOperator,
                    tol: Tolerance = DEFAULT_TOL) -> Projector | None:
    """Return the projector equal to rho when its top eigenvalue is 1.

    This is the pure case: the density operator is itself a rank-1
    projector and every probability it assigns is a squared overlap.
    Returns None for genuinely mixed states.
    """
    eigs, vecs = np.linalg.eigh(rho.matrix)
    if abs(eigs[-1] - 1.0) > tol.abs_eps:
        return None
    return Projector.from_vector(vecs[:, -1], tol)
