"""Connectivity of modality permutations: unitary paths, orthogonal obstruction.

Every permutation matrix is reachable from the identity along a
continuous path of unitaries U(t) = exp(itH); inside the real
orthogonal group the determinant splits the group into two components,
so odd permutations are unreachable there. Both facts are exhibited
per permutation: an explicit sampled path, checked in one pass that keeps
no sample, and the determinant sign.
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
    times: np.ndarray           # t_k = k/(steps-1)
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
    so P = V diag(exp(i phases)) V^dag exactly.
    """
    n = sigma.n
    phases = np.zeros(n)
    vecs = np.zeros((n, n), dtype=np.complex128)
    col = 0
    for cycle in sigma.cycles():
        length = len(cycle)
        for m in range(length):
            # branch chosen on integers: m/length <= 1/2 keeps theta in [0, pi]
            phases[col] = 2.0 * np.pi * (m if 2 * m <= length else m - length) / length
            for j, site in enumerate(cycle):
                vecs[site, col] = np.exp(-2j * np.pi * m * j / length) / np.sqrt(length)
            col += 1
    return phases, vecs


def _samples(phases: np.ndarray, vecs: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The (len(times), n, n) unitaries V diag(exp(i t phases)) V^dag."""
    return (vecs * np.exp(1j * times[:, None] * phases)[:, None, :]) @ vecs.conj().T


def path_samples(sigma: Permutation, times: np.ndarray) -> np.ndarray:
    """(len(times), n, n) samples U(t) as unitary_path_to_identity builds them."""
    return _samples(*_eigensystem(sigma), times)


def unitary_path_to_identity(sigma: Permutation, steps: int) -> PathReport:
    """Sample U(t) = exp(itH) from the identity to the permutation matrix.

    Endpoint errors and per-sample unitarity deviations stay at machine
    precision; max_step_distance shrinks proportionally to the step
    size, which is the finite evidence of continuity. Samples are checked
    in blocks of linalg._BLOCK_ENTRIES entries; each block's last sample
    is carried into the next block's step distances.
    """
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    phases, vecs = _eigensystem(sigma)
    times = np.linspace(0.0, 1.0, steps)
    eye = np.eye(sigma.n)
    block = max(1, linalg._BLOCK_ENTRIES // max(1, sigma.n * sigma.n))
    unit_dev = step_dist = 0.0
    for a in range(0, steps, block):
        u = _samples(phases, vecs, times[a:a + block])
        unit_dev = max(unit_dev, max_abs(u.conj().transpose(0, 2, 1) @ u - eye))
        if a:
            u = np.concatenate((last, u))
        else:
            start_error = max_abs(u[0] - eye)
        step_dist = max(step_dist, max_abs(u[1:] - u[:-1]))
        last = u[-1:]
    end_error = max_abs(last[0] - permutation_matrix(sigma))
    return PathReport(steps, times, unit_dev, (start_error, end_error), step_dist)


def orthogonal_obstruction(sigma: Permutation) -> ObstructionResult:
    """Determinant sign and reachability within the real orthogonal group.

    The determinant is continuous and takes only the values +1 and -1
    on orthogonal matrices, so a permutation connects to the identity
    there exactly when its sign is +1.
    """
    s = sigma.sign()
    return ObstructionResult(det_sign=s, connected_in_orthogonal_group=(s == 1))
