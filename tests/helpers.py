"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from qcontexts.core import DensityOperator, context_distribution, make_context, make_generator
from qcontexts.linalg import DEFAULT_TOL
from qcontexts.uhlhorn import RayMap


def standard_basis(n: int) -> list[np.ndarray]:
    return [np.eye(n, dtype=np.complex128)[:, k] for k in range(n)]


def fourier_basis(n: int) -> list[np.ndarray]:
    omega = np.exp(2j * np.pi / n)
    return [np.array([omega ** (j * k) for j in range(n)]) / np.sqrt(n)
            for k in range(n)]


def mub_bases_dim3() -> list[list[np.ndarray]]:
    """Computational basis plus three mutually unbiased bases in dimension 3."""
    omega = np.exp(2j * np.pi / 3)
    bases = [standard_basis(3)]
    for b in range(3):
        bases.append([
            np.array([omega ** ((b * j * j + m * j) % 3) for j in range(3)]) / np.sqrt(3)
            for m in range(3)
        ])
    return bases


def standard_context(n: int, label: str = "standard"):
    return make_context(standard_basis(n), label)


def fourier_context(n: int, label: str = "fourier"):
    return make_context(fourier_basis(n), label)


def ray_map(dim: int, pairs, covering_contexts=(), tol=DEFAULT_TOL) -> RayMap:
    """RayMap over (source, target) projector pairs: their vectors are the rows."""
    sources = np.array([s.vector for s, _ in pairs])
    targets = np.array([t.vector for _, t in pairs])
    return RayMap(dim, sources, targets, covering_contexts, tol)


def simulate_reference(initial, contexts, seed: int) -> list[int]:
    """Outcome indices of one seeded run, step by step: step t draws
    make_generator(seed).random(steps)[t] and inverts the cumulative
    context_distribution of the current state at that one uniform."""
    uniforms = make_generator(seed).random(len(contexts))
    state, outcomes = initial, []
    for c, u in zip(contexts, uniforms):
        cdf = np.cumsum(context_distribution(DensityOperator.from_projector(state), c))
        outcomes.append(min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), c.dim - 1))
        state = c.projectors[outcomes[-1]]
    return outcomes


def series_expm(m: np.ndarray, terms: int = 60) -> np.ndarray:
    """Matrix exponential by scaled Taylor series; independent of any
    eigen-decomposition, good to ~1e-15 for the small matrices used here."""
    m = np.asarray(m, dtype=np.complex128)
    scale = max(int(np.ceil(np.log2(max(1.0, np.abs(m).sum(axis=1).max())))), 0)
    x = m / (2 ** scale)
    out = np.eye(m.shape[0], dtype=np.complex128)
    term = np.eye(m.shape[0], dtype=np.complex128)
    for k in range(1, terms):
        term = term @ x / k
        out = out + term
    for _ in range(scale):
        out = out @ out
    return out


def brute_force_valuation_count(n_vectors: int, bases) -> int:
    """Exhaustive enumeration of {0,1} valuations with exactly one 1 per
    basis, vectorized over all 2^n_vectors bitmasks."""
    if n_vectors > 24:
        raise ValueError("brute force capped at 24 vectors")
    vals = np.arange(2 ** n_vectors, dtype=np.uint32)
    ok = np.ones(vals.shape, dtype=bool)
    for basis in bases:
        count = np.zeros(vals.shape, dtype=np.uint8)
        for i in basis:
            count += ((vals >> np.uint32(i)) & 1).astype(np.uint8)
        ok &= count == 1
    return int(ok.sum())


def golden_cases() -> dict[str, list[str]]:
    """tools/gen_golden.py's CASES: file under tests/golden -> CLI arguments."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "gen_golden.py"
    spec = importlib.util.spec_from_file_location("gen_golden", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES
