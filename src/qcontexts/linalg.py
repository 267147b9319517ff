"""Dense complex linear algebra with an explicit tolerance policy.

All matrices are numpy arrays of dtype complex128 (64-bit floats per
component). One `Tolerance` value governs every approximate comparison
downstream; the defaults are overridable per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DependentInput

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "as_vector",
    "max_abs",
    "gram_schmidt",
    "is_unitary",
    "UnitaryCheck",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute and relative comparison thresholds.

    Both must stay well below 1 (sanity bound 1e-3); everything in this
    package is conditioned far better than that.
    """

    abs_eps: float = 1e-9
    rel_eps: float = 1e-9

    def __post_init__(self):
        for name in ("abs_eps", "rel_eps"):
            v = getattr(self, name)
            if not (0.0 <= v < 1e-3):
                raise ValueError(f"{name} must be in [0, 1e-3), got {v}")

    def bound(self, scale: float = 1.0) -> float:
        """Threshold for comparing quantities of the given magnitude."""
        return max(self.abs_eps, self.rel_eps * scale)


DEFAULT_TOL = Tolerance()


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-D complex128 array."""
    a = np.asarray(v, dtype=np.complex128)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("vector contains non-finite entries")
    return a


def max_abs(m) -> float:
    """Entrywise max-norm."""
    a = np.asarray(m)
    return float(np.max(np.abs(a))) if a.size else 0.0


def gram_schmidt(vectors, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormalize vectors by modified Gram-Schmidt with a second pass.

    Raises DependentInput when the numerical rank is below the input
    count. Output spans the same subspace; pairwise inner products
    vanish and norms are 1 within tol.
    """
    vs = [as_vector(v) for v in vectors]
    if not vs:
        raise ValueError("gram_schmidt requires at least one vector")
    n = vs[0].shape[0]
    for k, v in enumerate(vs):
        if v.shape[0] != n:
            raise ValueError(f"vector {k} has dimension {v.shape[0]}, expected {n}")

    out: list[np.ndarray] = []
    for k, v in enumerate(vs):
        w = v.copy()
        for _ in range(2):  # re-orthogonalization pass for stability
            for u in out:
                w = w - np.vdot(u, w) * u
        norm = float(np.linalg.norm(w))
        if norm <= tol.bound(float(np.linalg.norm(v))):
            raise DependentInput(
                f"vector {k} is linearly dependent on its predecessors "
                f"(residual norm {norm:.3e})"
            )
        out.append(w / norm)
    return out


@dataclass(frozen=True)
class UnitaryCheck:
    """Outcome of a unitarity test with the measured deviation."""

    ok: bool
    deviation: float

    def __bool__(self) -> bool:
        return self.ok


def is_unitary(m, tol: Tolerance = DEFAULT_TOL) -> UnitaryCheck:
    """Check ||M^dag M - I||_max <= tol.abs_eps on a square matrix."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: {a.shape}")
    dev = max_abs(a.conj().T @ a - np.eye(a.shape[0]))
    return UnitaryCheck(ok=dev <= tol.abs_eps, deviation=dev)
