"""Seeded random generation of domain objects.

Everything takes an explicit numpy Generator (build one with
core.make_generator) so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .core import Context, ContextTransform, DensityOperator, Projector, make_context
from .linalg import DEFAULT_TOL, Tolerance
from .uhlhorn import RayMap, induced_ray_map

__all__ = [
    "random_unitary",
    "random_state_vector",
    "random_projector",
    "random_context",
    "random_density",
    "random_ray_map",
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


def random_projector(n: int, rng: np.random.Generator,
                     tol: Tolerance = DEFAULT_TOL) -> Projector:
    return Projector.from_vector(random_state_vector(n, rng), tol)


def random_context(n: int, rng: np.random.Generator, label: str = "",
                   tol: Tolerance = DEFAULT_TOL) -> Context:
    u = random_unitary(n, rng)
    return make_context([u[:, k] for k in range(n)], label=label, tol=tol)


def random_density(n: int, rng: np.random.Generator,
                   tol: Tolerance = DEFAULT_TOL) -> DensityOperator:
    """Hilbert-Schmidt-distributed mixed state, G G^dag normalized to unit trace."""
    g = _ginibre(n, rng)
    m = g @ g.conj().T
    return DensityOperator.from_matrix(m / np.trace(m).real, tol)


def random_ray_map(dim: int, rng: np.random.Generator, antiunitary: bool = False,
                   n_extra: int = 6,
                   tol: Tolerance = DEFAULT_TOL) -> tuple[RayMap, ContextTransform]:
    """Random operator-induced map on a gadget set plus extra random rays."""
    hidden = ContextTransform.from_matrix(random_unitary(dim, rng),
                                          antiunitary=antiunitary, tol=tol)
    context = random_context(dim, rng, label="fiduciary", tol=tol)
    # RayMap rejects a repeated source, so the extra rays need no screening here
    extras = [random_state_vector(dim, rng) for _ in range(n_extra)]
    return induced_ray_map(hidden, context, extras, tol), hidden
