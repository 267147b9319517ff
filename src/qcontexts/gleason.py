"""Frame-function validation and density-operator reconstruction.

A frame function assigns a value in [0, 1] to every rank-1 projector
such that the values over any complete orthogonal set sum to 1. For
dimension >= 3 every such function is P -> Tr(rho P) for a unique
density operator rho; this module checks the normalization numerically
and recovers rho by linear inversion from sampled values. A projector
|v><v| enters through its unit vector: its coordinates in the
orthonormal basis E_jj, (E_jl + E_lj)/sqrt(2), i(E_lj - E_jl)/sqrt(2)
(j < l) of the self-adjoint matrices are |v_j|^2 and sqrt(2) times the
real and imaginary parts of conj(v_j) v_l. So k samples give their
(k, n^2) design matrix in O(k n^2); its SVD and the fit cost O(k n^4).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .core import Context, DensityOperator, Projector
from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    NotInformationallyComplete,
    ValueOutOfRange,
)
from .linalg import DEFAULT_TOL, FrozenValue, Tolerance

__all__ = [
    "FrameSample",
    "FrameValidation",
    "ReconstructionReport",
    "CompletenessReport",
    "validate_frame_function",
    "informational_completeness",
    "reconstruct_density",
    "born_case_check",
]

# Frobenius accuracy promised on exact data, and the PSD-projection budget.
EXACT_RECOVERY_LIMIT = 1e-8


class FrameSample(FrozenValue):
    """One sampled frame-function value on a projector."""

    _fields = ("projector", "value")

    def __init__(self, projector: Projector, value: float):
        if not (-1e-12 <= value <= 1.0 + 1e-12):
            raise ValueOutOfRange(f"frame value {value} outside the unit interval")
        self.__dict__.update(projector=projector, value=value)


class CompletenessReport(NamedTuple):
    rank: int
    condition_number: float


class FrameValidation(NamedTuple):
    """Per-context normalization check of a candidate frame function."""

    max_deviation: float
    worst_context_label: str
    contexts_checked: int
    tolerance: float

    @property
    def passes(self) -> bool:
        return self.max_deviation <= self.tolerance


class ReconstructionReport(NamedTuple):
    """Least-squares density fit with conditioning diagnostics."""

    rho: DensityOperator
    residual_rms: float
    design_rank: int
    condition_number: float
    psd_correction: float


def _rows(projectors: Sequence[Projector]) -> np.ndarray:
    """(k, n) array of the projectors' unit vectors, one per row."""
    dims = {p.dim for p in projectors}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed dimensions: {sorted(dims)}")
    return np.stack([p.vector for p in projectors])


def _design_matrix(v: np.ndarray) -> np.ndarray:
    """Real (k, n^2) coordinates of |v><v| over the rows of v in the module's
    basis: the diagonal, then the pairs j < l in np.triu_indices order."""
    j, l = np.triu_indices(v.shape[1], 1)
    cross = np.sqrt(2.0) * v.conj()[:, j] * v[:, l]
    return np.hstack([np.abs(v) ** 2, cross.real, cross.imag])


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
    worst, worst_label = -1.0, ""
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
            worst, worst_label = deviation, context.label
    return FrameValidation(max_deviation=worst, worst_context_label=worst_label,
                           contexts_checked=len(samples_by_context),
                           tolerance=tol.abs_eps)


def informational_completeness(projectors: Sequence[Projector]) -> CompletenessReport:
    """Rank and conditioning of the projector family's design map.

    rank is the dimension of the family's real span inside the
    n^2-dimensional space of self-adjoint matrices; the condition number
    is taken on the design map restricted to its row space. Neither
    depends on the orthonormal basis used; the SVD costs O(k n^4).
    """
    if not projectors:
        raise ValueError("no projectors supplied")
    return _rank_and_condition(_design_matrix(_rows(projectors)))


def reconstruct_density(samples: Sequence[FrameSample],
                        tol: Tolerance = DEFAULT_TOL) -> ReconstructionReport:
    """Recover the density operator behind sampled frame-function values.

    Solves the least-squares problem Tr(rho P_k) ~ value_k over the
    trace-1 affine slice of self-adjoint matrices, rho = I/n + X with X's
    last diagonal entry minus the sum of the others (unique, as the design
    rank must be n^2), then projects onto the PSD cone by eigenvalue
    clipping and a trace renormalization. Exact Born input reproduces its
    source within 1e-8 Frobenius. Costs O(k n^2) to design, O(k n^4) to solve.
    """
    if not samples:
        raise ValueError("no samples supplied")
    v = _rows([s.projector for s in samples])
    n = v.shape[1]
    if n < 3:
        raise DimensionTooSmall(
            f"reconstruction requires dimension >= 3, got {n}")

    a = _design_matrix(v)
    rank, cond = _rank_and_condition(a)
    if rank < n * n:
        raise NotInformationallyComplete(
            f"design rank {rank} < {n * n}; supply more projectors")

    values = np.array([s_.value for s_ in samples], dtype=float)
    # Tr(P_k) = 1, so I/n adds 1/n to every value; Tr(X) = 0 eliminates X_{n-1,n-1}
    slice_design = np.hstack([a[:, :n - 1] - a[:, n - 1:n], a[:, n:]])
    x, *_ = np.linalg.lstsq(slice_design, values - 1.0 / n, rcond=None)
    diag, c_re, c_im = np.split(x, [n - 1, n - 1 + n * (n - 1) // 2])
    raw = np.diag(np.append(diag, -diag.sum()) + 1.0 / n).astype(np.complex128)
    j, l = np.triu_indices(n, 1)
    raw[j, l] = (c_re - 1j * c_im) / np.sqrt(2.0)
    raw[l, j] = raw[j, l].conj()

    eigs, vecs = np.linalg.eigh(raw)
    clipped = np.clip(eigs, 0.0, None)
    total = float(clipped.sum())
    if total <= 0.0:
        raise ValueError("PSD projection collapsed the fit to zero")
    clipped /= total
    projected = (vecs * clipped) @ vecs.conj().T
    psd_correction = float(np.linalg.norm(projected - raw))

    rho = DensityOperator.from_matrix(projected, tol)
    fitted = np.einsum("ki,ij,kj->k", v.conj(), rho.matrix, v).real
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
