"""Connectivity of modality permutations: unitary paths, orthogonal obstruction.

Every permutation matrix is reachable from the identity along a
continuous path of unitaries U(t) = exp(itH); inside the real
orthogonal group the determinant splits the group into two components,
so odd permutations are unreachable there. Both facts are exhibited
per permutation: an explicit sampled path, checked in one pass that keeps
only its endpoints, and the determinant sign.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import FrozenValue, max_abs

__all__ = [
    "Permutation",
    "PathReport",
    "ObstructionResult",
    "permutation_matrix",
    "unitary_path_to_identity",
    "path_samples",
    "orthogonal_obstruction",
]


class Permutation(FrozenValue):
    """Bijection i -> images[i] on {0..n-1}."""

    _fields = ("n", "images")

    def __init__(self, n: int, images: tuple[int, ...]):
        if len(images) != n or sorted(images) != list(range(n)):
            raise ValueError(f"images {images} is not a permutation of 0..{n - 1}")
        self.__dict__.update(n=n, images=images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n, tuple(range(n)))

    def cycles(self) -> list[list[int]]:
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cycle = []
            i = start
            while not seen[i]:
                seen[i] = True
                cycle.append(i)
                i = self.images[i]
            out.append(cycle)
        return out

    def sign(self) -> int:
        """+1 for even, -1 for odd (parity via cycle decomposition)."""
        flips = sum(len(c) - 1 for c in self.cycles())
        return -1 if flips % 2 else 1


class ObstructionResult(NamedTuple):
    """Determinant sign and reachability within the real orthogonal group."""

    det_sign: int
    connected_in_orthogonal_group: bool


class PathReport(NamedTuple):
    """Checks of a sampled unitary path from the identity to a permutation matrix."""

    steps: int
    endpoints: np.ndarray       # (2, n, n): the samples U(0) and U(1) that were checked
    max_unitarity_deviation: float
    endpoint_errors: tuple[float, float]  # (||U(0)-I||, ||U(1)-P||)
    max_step_distance: float    # max consecutive ||U(t_{k+1})-U(t_k)||_max


def permutation_matrix(sigma: Permutation) -> np.ndarray:
    """Matrix with entry (sigma(i), i) = 1; unitary with det = sign."""
    return np.eye(sigma.n, dtype=np.complex128)[:, list(sigma.images)]


def _eigensystem(sigma: Permutation) -> tuple[np.ndarray, np.ndarray]:
    """Exact eigenstructure of the permutation matrix from its cycles.

    A cycle of length L contributes eigenvalues exp(2 pi i m / L) with
    Fourier eigenvectors supported on the cycle. Returns (phases, V)
    with phases in (-pi, pi] (eigenvalue -1 maps to +pi) and V unitary,
    so P = V diag(exp(i phases)) V^dag exactly. One array expression builds
    every column, each entry bit for bit the scalar exp(-2j pi m j / L) / sqrt(L).
    """
    cycles = sigma.cycles()
    lengths = [len(cycle) for cycle in cycles]
    length = np.repeat(lengths, lengths)  # the cycle length of each column
    start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    m = np.arange(sigma.n) - start  # a column's Fourier index, a row's place in its cycle
    # branch chosen on integers: m/length <= 1/2 keeps theta in [0, pi]
    phases = 2.0 * np.pi * np.where(2 * m <= length, m, m - length) / length
    theta = (-2.0 * np.pi * m) * m[:, None] / length
    vecs = np.where(start[:, None] == start, np.exp(1j * theta) / np.sqrt(length), 0.0)
    return phases, vecs[np.argsort([site for cycle in cycles for site in cycle])]


def _samples(phases: np.ndarray, vecs: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The (len(times), n, n) unitaries V diag(exp(i t phases)) V^dag."""
    return (vecs * np.exp(1j * times[:, None] * phases)[:, None, :]) @ vecs.conj().T


def _times(b: slice, steps: int) -> np.ndarray:
    """t_k = k/(steps-1) for k in b alone: np.linspace(0, 1, steps)[b] bit for bit."""
    k = np.arange(b.start, min(b.stop, steps), dtype=float)
    return np.where((k == steps - 1) & (steps > 1), 1.0, k * (1.0 / max(steps - 1, 1)))


def path_samples(sigma: Permutation, steps: int) -> np.ndarray:
    """The (steps, n, n) samples U(t_k) that unitary_path_to_identity checks."""
    return _samples(*_eigensystem(sigma), _times(slice(0, steps), steps))


def unitary_path_to_identity(sigma: Permutation, steps: int) -> PathReport:
    """Sample U(t) = exp(itH) from the identity to the permutation matrix.

    Endpoint errors and per-sample unitarity deviations stay at machine
    precision; max_step_distance shrinks proportionally to the step
    size, which is the finite evidence of continuity. Samples are checked
    in blocks of linalg.row_blocks, with times built per block; each
    block's last sample is carried into the next block's step distances,
    and only U(0) and U(1) are kept: memory does not grow with steps.
    """
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    phases, vecs = _eigensystem(sigma)
    eye = np.eye(sigma.n)
    unit_dev = step_dist = 0.0
    for b in linalg.row_blocks(steps, sigma.n * sigma.n):
        u = _samples(phases, vecs, _times(b, steps))
        unit_dev = max(unit_dev, max_abs(u.conj().transpose(0, 2, 1) @ u - eye))
        if b.start:
            u = np.concatenate((last, u))
        else:
            first = u[:1].copy()
        step_dist = max(step_dist, max_abs(u[1:] - u[:-1]))
        last = u[-1:]
    ends = np.concatenate((first, last))
    errors = (max_abs(ends[0] - eye), max_abs(ends[1] - permutation_matrix(sigma)))
    return PathReport(steps, ends, unit_dev, errors, step_dist)


def orthogonal_obstruction(sigma: Permutation) -> ObstructionResult:
    """Determinant sign and reachability within the real orthogonal group.

    The determinant is continuous and takes only the values +1 and -1
    on orthogonal matrices, so a permutation connects to the identity
    there exactly when its sign is +1.
    """
    s = sigma.sign()
    return ObstructionResult(det_sign=s, connected_in_orthogonal_group=(s == 1))
