"""Dense complex linear algebra with an explicit tolerance policy.

All matrices are numpy arrays of dtype complex128 (64-bit floats per
component). One `Tolerance` value governs every approximate comparison
downstream; the defaults are overridable per call. The three ray rules
are decided here once each: unit_rows (idempotent: it keeps a row already
unit to rounding), ray_distance and overlap_moduli, both basis-free.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "as_vector",
    "max_abs",
    "in_unit_interval",
    "UNIT_NORM_ROUNDING",
    "unit_rows",
    "projector_stack",
    "overlap_moduli",
    "ray_distance",
    "row_blocks",
    "same_ray_pairs",
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


def in_unit_interval(values, tol: Tolerance) -> bool:
    """Whether every value lies in [0, 1] within tol.abs_eps; NaN never does."""
    a = np.asarray(values)
    return bool(((-tol.abs_eps <= a) & (a <= 1.0 + tol.abs_eps)).all())


# unit_rows keeps a row of n entries whose computed norm lies within
# n * UNIT_NORM_ROUNDING of 1 (u = 2^-53). A divided row lands within (n + 5) u
# of 1 to first order: its divisor is (n + 3) u / 2 off (two n-term dot products,
# their sum, the square root; underflow adds far less), complex-by-real division
# rounds twice (1 / norm, then the product), and its new norm is (n + 3) u / 2
# off again. So 8 n u keeps it: a second pass gives the bits of the first.
UNIT_NORM_ROUNDING = 8 * 2.0 ** -53


def unit_rows(v: np.ndarray, tol: Tolerance, fault: Callable[[int], Exception]) -> np.ndarray:
    """The one rule for a unit ray: each row along the last axis of v as it is
    when its norm lies within n * UNIT_NORM_ROUNDING of 1, else divided by that
    norm, in a new array. Norms are bit for bit np.linalg.norm's, inf on
    overflow; unless all lie in (tol.abs_eps, inf), fault(r) is raised for the
    lowest bad row r, leading axes counting as sides of one row, 1-D v as row 0."""
    re, im = v.real, v.imag
    with np.errstate(over="ignore"):
        squares = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    norms = np.sqrt(squares[..., 0, 0])
    ok = (tol.abs_eps < norms) & (norms < np.inf)
    bad = np.flatnonzero(~ok.all(axis=tuple(range(ok.ndim - 1))))
    if bad.size:
        raise fault(int(bad[0]))
    unit = np.abs(norms - 1.0) <= v.shape[-1] * UNIT_NORM_ROUNDING
    return np.where(unit[..., None], v, v / norms[..., None])


def projector_stack(v: np.ndarray) -> np.ndarray:
    """(k, n, n) stack of |v><v| over the rows of v, entry for entry np.outer."""
    return v[:, :, None] * v.conj()[:, None, :]


def overlap_moduli(v: np.ndarray) -> np.ndarray:
    """(..., k, k) moduli |<v_i|v_j>| of the rows on the last axis of v, one
    Gram product per stack on the leading axes: two unit rows are orthogonal
    when theirs is at most tol.abs_eps. It is ||P_i P_j|| (operator norm), so
    the rule is basis-free. For n entries and norms within 8 n u of 1 each is
    within (2 sqrt2 n + 1) u of exact, u = 2^-53: 2n products per part whose
    moduli sum to at most 1 (Cauchy-Schwarz), then one rounded modulus."""
    return np.abs(v.conj() @ np.swapaxes(v, -1, -2))


def ray_distance(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """||P_u - P_v|| (operator norm), the sine of the angle between the rays of
    u and v, row for row on the last axis: ||u - (<v|u> / <v|v>) v|| / ||u||, which
    resolves near copies as sqrt(1 - |<u|v>|^2) cannot below 1e-8: within (6 n + 8) u
    of exact for n entries of any norm (u = 2^-53), the same bits alone or stacked."""
    c = np.sum(v.conj() * u, axis=-1) / np.sum(v.real ** 2 + v.imag ** 2, axis=-1)
    return np.linalg.norm(u - c[..., None] * v, axis=-1) / np.linalg.norm(u, axis=-1)


_BLOCK_ENTRIES = 1 << 15  # complex entries per block: 512 KiB, about 1 MiB with its temporaries


def row_blocks(stop: int, width: int) -> list[slice]:
    """Slices [a, a + rows) for a = 0, rows, ... < stop, with
    rows = max(1, _BLOCK_ENTRIES // width) for rows of width entries."""
    rows = max(1, _BLOCK_ENTRIES // max(1, width))
    return [slice(a, a + rows) for a in range(0, stop, rows)]


def same_ray_pairs(vectors: np.ndarray, eps: float):
    """Every pair (i, j), i < j, in lexicographic order, of rows of the (k, n)
    array with ray_distance(v_i, v_j) <= eps: "the same ray" in ray maps,
    KS documents and extravalence. Such a pair has |<u, v>|^2 >= (1 - eps^2)
    s^2, s the smallest squared row norm (a Projector's may miss 1 by 1e-9),
    so the Gram entry screens pairs, in blocks of about 1 MiB, and
    ray_distance decides each candidate, in blocks of n-wide rows."""
    k, n = vectors.shape
    smallest = float(np.min(np.sum(np.abs(vectors) ** 2, axis=1), initial=np.inf))
    floor = smallest ** 2 * (1 - eps ** 2) - 1e-10  # the margin covers rounding
    for b in row_blocks(k - 1, k):
        gram = vectors[b.start:min(b.stop, k - 1)].conj() @ vectors[b.start:].T
        parts = gram.view(np.float64)  # |<u, v>|^2 from squared real and imaginary parts
        np.square(parts, out=parts)
        near = parts[:, 0::2] + parts[:, 1::2] >= floor
        r, c = np.divmod(np.flatnonzero(near), near.shape[1])
        upper = c > r
        i, j = b.start + r[upper], b.start + c[upper]
        for s in row_blocks(len(i), n):
            for h in np.flatnonzero(ray_distance(vectors[i[s]], vectors[j[s]]) <= eps):
                yield int(i[s][h]), int(j[s][h])


def first_repeated_ray(vectors: np.ndarray, eps: float) -> tuple[int, int] | None:
    """The first pair of same_ray_pairs(vectors, eps), or None."""
    return next(same_ray_pairs(vectors, eps), None)


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
