"""Seeded random generation of domain objects.

Everything takes an explicit numpy Generator (build one with
core.make_generator) so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .core import Context, DensityOperator, make_context

__all__ = [
    "random_unitary",
    "random_state_vector",
    "random_context",
    "random_density",
]


def _ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a Ginibre matrix."""
    q, r = np.linalg.qr(_ginibre(n, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_context(n: int, rng: np.random.Generator, label: str = "") -> Context:
    """The context whose vectors are the columns of a Haar-random unitary."""
    return make_context(random_unitary(n, rng).T, label=label)


def random_density(n: int, rng: np.random.Generator) -> DensityOperator:
    """Hilbert-Schmidt-distributed mixed state, G G^dag normalized to unit trace."""
    g = _ginibre(n, rng)
    m = g @ g.conj().T
    return DensityOperator.from_matrix(m / np.trace(m).real)
