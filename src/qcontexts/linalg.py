"""Dense complex linear algebra with an explicit tolerance policy.

All matrices are numpy arrays of dtype complex128 (64-bit floats per
component). One `Tolerance` value governs every approximate comparison
downstream; the defaults are overridable per call.
"""

from __future__ import annotations

from typing import NamedTuple

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


class Frozen:
    """Base of the validated value types. __init__ checks the input and
    writes the fields to the instance __dict__, as functools.cached_property
    does; no attribute can be assigned or deleted. Compared by identity."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class FrozenValue(Frozen):
    """A Frozen type compared and hashed by the fields named in _fields."""

    _fields: tuple[str, ...]

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Tolerance(FrozenValue):
    """Absolute and relative comparison thresholds.

    Both must stay well below 1 (sanity bound 1e-3); everything in this
    package is conditioned far better than that.
    """

    _fields = ("abs_eps", "rel_eps")

    def __init__(self, abs_eps: float = 1e-9, rel_eps: float = 1e-9):
        for name, v in (("abs_eps", abs_eps), ("rel_eps", rel_eps)):
            if not (0.0 <= v < 1e-3):
                raise ValueError(f"{name} must be in [0, 1e-3), got {v}")
        self.__dict__.update(abs_eps=abs_eps, rel_eps=rel_eps)

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


class UnitaryCheck(NamedTuple):
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
