"""Dense complex linear algebra with an explicit tolerance policy.

All matrices are numpy arrays of dtype complex128 (64-bit floats per
component). One `Tolerance` value governs every approximate comparison
downstream; the defaults are overridable per call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "as_vector",
    "max_abs",
    "row_norms",
    "first_repeated_ray",
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
    """Comparison threshold, absolute below magnitude 1 and relative above.

    It must stay well below 1 (sanity bound 1e-3); everything in this
    package is conditioned far better than that. The floor 1e-12 keeps it
    about 100 times above the rounding of unit-scale sums at n <= 16.
    """

    _fields = ("abs_eps",)

    def __init__(self, abs_eps: float = 1e-9):
        if not (1e-12 <= abs_eps < 1e-3):
            raise ValueError(f"abs_eps must be in [1e-12, 1e-3), got {abs_eps}")
        self.__dict__["abs_eps"] = abs_eps

    def bound(self, scale: float = 1.0) -> float:
        """Threshold for comparing quantities of the given magnitude."""
        return self.abs_eps * max(1.0, scale)


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


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis of a complex array, bit for bit
    np.linalg.norm of each row: every row's real and imaginary parts go
    through the same vector dot product, and overflowing squares give inf."""
    re, im = v.real, v.imag
    with np.errstate(over="ignore"):
        squares = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return np.sqrt(squares[..., 0, 0])


_BLOCK_ENTRIES = 1 << 15  # complex entries per block: 512 KiB, about 1 MiB with its temporaries


def first_repeated_ray(vectors: np.ndarray, eps: float) -> tuple[int, int] | None:
    """First pair (i, j), i < j in lexicographic order, of rows of the (k, n)
    array whose projector matrices differ by at most eps in every entry:
    the rule for "the same ray" in ray maps and KS documents.

    Such a pair has |<u, v>|^2 >= s^2 - (n eps)^2 / 2, with s the smallest
    squared row norm, a gap the Gram entry cannot resolve in floating
    point, so |<u, v>| only screens the pairs and each candidate is decided
    on its projector matrices. The floor is taken from s rather than 1
    because a Projector's vector may miss unit norm by 1e-9, which moves
    |<u, v>|^2 by more than the gap. Both run in blocks of about 1 MiB.
    """
    k, n = vectors.shape
    if k < 2:
        return None
    smallest = float(np.min(np.sum(np.abs(vectors) ** 2, axis=1)))
    floor = smallest ** 2 - (n * eps) ** 2 / 2 - 1e-10  # the margin covers Gram rounding
    rows = max(1, _BLOCK_ENTRIES // k)
    pairs = max(1, _BLOCK_ENTRIES // (n * n))
    for a in range(0, k - 1, rows):
        gram = vectors[a:a + rows].conj() @ vectors[a:].T
        parts = gram.view(np.float64)  # |<u, v>|^2 from squared real and imaginary parts
        np.square(parts, out=parts)
        near = parts[:, 0::2] + parts[:, 1::2] >= floor
        r, c = np.divmod(np.flatnonzero(near), near.shape[1])
        upper = c > r
        i, j = a + r[upper], a + c[upper]
        for s in range(0, len(i), pairs):
            u, v = vectors[i[s:s + pairs]], vectors[j[s:s + pairs]]
            diff = (u[:, :, None] * u.conj()[:, None, :]
                    - v[:, :, None] * v.conj()[:, None, :])
            hits = np.flatnonzero(np.abs(diff).max(axis=(1, 2)) <= eps)
            if hits.size:
                return int(i[s + hits[0]]), int(j[s + hits[0]])
    return None


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
