"""Connectivity of modality permutations: unitary paths, orthogonal obstruction.

Every permutation matrix is reachable from the identity along a
continuous path of unitaries U(t) = exp(itH); inside the real
orthogonal group the determinant splits the group into two components,
so odd permutations are unreachable there. Both facts are exhibited
per permutation: an explicit sampled path, and the determinant sign.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import FrozenValue, is_unitary, max_abs

__all__ = [
    "Permutation",
    "PathReport",
    "ObstructionResult",
    "permutation_matrix",
    "unitary_path_to_identity",
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
    """Sampled unitary path from the identity to a permutation matrix."""

    steps: int
    times: np.ndarray           # t_k = k/(steps-1)
    samples: np.ndarray         # (steps, n, n) unitaries U(t_k)
    max_unitarity_deviation: float
    endpoint_errors: tuple[float, float]  # (||U(0)-I||, ||U(1)-P||)
    max_step_distance: float    # max consecutive ||U(t_{k+1})-U(t_k)||_max


def permutation_matrix(sigma: Permutation) -> np.ndarray:
    """Matrix with entry (sigma(i), i) = 1; unitary with det = sign."""
    m = np.zeros((sigma.n, sigma.n), dtype=np.complex128)
    for i, j in enumerate(sigma.images):
        m[j, i] = 1.0
    return m


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
            if 2 * m <= length:
                theta = 2.0 * np.pi * m / length
            else:
                theta = 2.0 * np.pi * (m - length) / length
            phases[col] = theta
            for j, site in enumerate(cycle):
                vecs[site, col] = np.exp(-2j * np.pi * m * j / length) / np.sqrt(length)
            col += 1
    return phases, vecs


def unitary_path_to_identity(sigma: Permutation, steps: int) -> PathReport:
    """Sample U(t) = exp(itH) from the identity to the permutation matrix.

    Endpoint errors and per-sample unitarity deviations stay at machine
    precision; max_step_distance shrinks proportionally to the step
    size, which is the finite evidence of continuity.
    """
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    phases, vecs = _eigensystem(sigma)
    times = np.linspace(0.0, 1.0, steps)
    vdag = vecs.conj().T
    samples = np.empty((steps, sigma.n, sigma.n), dtype=np.complex128)
    for k, t in enumerate(times):
        samples[k] = (vecs * np.exp(1j * t * phases)) @ vdag

    target = permutation_matrix(sigma)
    endpoint_errors = (
        max_abs(samples[0] - np.eye(sigma.n)),
        max_abs(samples[-1] - target),
    )
    unit_dev = max(is_unitary(samples[k]).deviation for k in range(steps))
    step_dist = max(
        (max_abs(samples[k + 1] - samples[k]) for k in range(steps - 1)),
        default=0.0,
    )
    return PathReport(steps=steps, times=times, samples=samples,
                      max_unitarity_deviation=unit_dev,
                      endpoint_errors=endpoint_errors,
                      max_step_distance=step_dist)


def orthogonal_obstruction(sigma: Permutation) -> ObstructionResult:
    """Determinant sign and reachability within the real orthogonal group.

    The determinant is continuous and takes only the values +1 and -1
    on orthogonal matrices, so a permutation connects to the identity
    there exactly when its sign is +1.
    """
    s = sigma.sign()
    return ObstructionResult(det_sign=s, connected_in_orthogonal_group=(s == 1))
