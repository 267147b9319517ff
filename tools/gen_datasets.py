#!/usr/bin/env python3
"""Regenerate the bundled datasets under src/qcontexts/datasets/.

Everything here is deterministic: fixed seeds, fixed enumeration order.
Run from the repository root:  python3 tools/gen_datasets.py
"""

from __future__ import annotations

import json
from itertools import combinations, product
from pathlib import Path

import numpy as np

from qcontexts.core import (ContextTransform, DensityOperator, Projector, make_context,
                            make_generator)
from qcontexts.gleason import FrameSample
from qcontexts.jsonio import (
    context_to_json,
    density_to_json,
    ray_map_to_json,
    vector_to_json,
)
from qcontexts.sampling import random_state_vector, random_unitary
from qcontexts.uhlhorn import induced_ray_map

OUT = Path(__file__).resolve().parents[1] / "src" / "qcontexts" / "datasets"


def write(name: str, doc: dict) -> None:
    path = OUT / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def standard_basis(n: int) -> list[np.ndarray]:
    return [np.eye(n, dtype=np.complex128)[:, k] for k in range(n)]


def fourier_basis(n: int) -> list[np.ndarray]:
    omega = np.exp(2j * np.pi / n)
    return [np.array([omega ** (j * k) for j in range(n)]) / np.sqrt(n)
            for k in range(n)]


def mub_bases_dim3() -> list[list[np.ndarray]]:
    """Computational basis plus the three bases omega^(b j^2 + m j)/sqrt(3)."""
    omega = np.exp(2j * np.pi / 3)
    bases = [standard_basis(3)]
    for b in range(3):
        bases.append([
            np.array([omega ** ((b * j * j + m * j) % 3) for j in range(3)]) / np.sqrt(3)
            for m in range(3)
        ])
    return bases


def gen_contexts_and_densities() -> None:
    write("context_standard_dim3.json",
          context_to_json(make_context(standard_basis(3), "standard")))
    write("context_fourier_dim3.json",
          context_to_json(make_context(fourier_basis(3), "fourier")))
    write("contexts_fourier_seq_dim3.json", {
        "contexts": [context_to_json(make_context(fourier_basis(3), "fourier"))],
    })
    write("density_mixed_dim3.json",
          density_to_json(DensityOperator.maximally_mixed(3)))
    e1 = Projector.from_vector([1, 0, 0])
    write("density_e1_dim3.json",
          density_to_json(DensityOperator.from_projector(e1)))


def gen_gleason_demo() -> None:
    """Exact Born samples of diag(0.5, 0.3, 0.2) over four unbiased bases."""
    rho = np.diag([0.5, 0.3, 0.2]).astype(np.complex128)
    samples = []
    for basis in mub_bases_dim3():
        for v in basis:
            p = Projector.from_vector(v)
            value = float(np.trace(rho @ p.matrix).real)
            samples.append({"vector": vector_to_json(p.vector), "value": value})
            FrameSample(p, value)  # sanity: constructible
    write("gleason_demo_dim3.json", {"dim": 3, "samples": samples})


def gen_ray_maps() -> None:
    rng = make_generator(2024)
    fiduciary = make_context(standard_basis(3), "fiduciary")
    extras = [random_state_vector(3, rng) for _ in range(6)]

    hidden_u = ContextTransform.from_matrix(random_unitary(3, rng))
    write("raymap_unitary_dim3.json",
          ray_map_to_json(induced_ray_map(hidden_u, fiduciary, extras)))

    hidden_a = ContextTransform.from_matrix(random_unitary(3, rng), antiunitary=True)
    write("raymap_antiunitary_dim3.json",
          ray_map_to_json(induced_ray_map(hidden_a, fiduciary, extras)))


def ceg18() -> dict:
    """18 vectors in dimension 4 with 9 complete orthogonal bases; every
    vector sits in exactly two bases, so the parity argument applies."""
    vectors = [
        (0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0),
        (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0),
        (1, -1, 1, -1), (1, -1, -1, 1), (0, 0, 1, 1),
        (1, 1, 1, 1), (0, 1, 0, -1),
        (1, 0, 0, 1), (1, 0, 0, -1),
        (0, 1, -1, 0),
        (1, 1, -1, 1), (1, 1, 1, -1), (-1, 1, 1, 1),
    ]
    bases = [
        [0, 1, 2, 3], [0, 4, 5, 6], [7, 8, 2, 9], [7, 10, 6, 11],
        [1, 4, 12, 13], [8, 10, 13, 14], [15, 16, 3, 9],
        [15, 17, 5, 11], [16, 17, 12, 14],
    ]
    return {"dim": 4, "vectors": [list(v) for v in vectors], "bases": bases}


def rays33_closure() -> dict:
    """Dimension-3 system: the 33 rays with components from {0, ±1, ±sqrt(2)},
    closed under cross-product completion of orthogonal pairs so every
    orthogonality constraint lives inside a complete basis (57 rays, 40 bases)."""
    r2 = np.sqrt(2.0)

    def canon(v: np.ndarray) -> np.ndarray:
        v = v / np.linalg.norm(v)
        for x in v:
            if abs(x) > 1e-12:
                return -v if x < 0 else v
        return v

    rays: list[np.ndarray] = []

    def add(v: np.ndarray) -> None:
        c = canon(np.asarray(v, dtype=float))
        if not any(np.allclose(c, u, atol=1e-9) for u in rays):
            rays.append(c)

    patterns = ([0.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                [0.0, 1.0, round(r2, 6)], [1.0, 1.0, round(r2, 6)])
    for v in product([0.0, 1.0, -1.0, r2, -r2], repeat=3):
        v = np.array(v)
        if np.linalg.norm(v) < 1e-12:
            continue
        if sorted(round(abs(x), 6) for x in v) in patterns:
            add(v)
    assert len(rays) == 33

    changed = True
    while changed:
        changed = False
        n = len(rays)
        for i, j in combinations(range(n), 2):
            if abs(rays[i] @ rays[j]) < 1e-9:
                before = len(rays)
                add(np.cross(rays[i], rays[j]))
                changed = changed or len(rays) > before

    mat = np.stack(rays)
    gram = np.abs(mat @ mat.T)
    bases = [list(t) for t in combinations(range(len(rays)), 3)
             if gram[t[0], t[1]] < 1e-9 and gram[t[0], t[2]] < 1e-9
             and gram[t[1], t[2]] < 1e-9]
    return {
        "dim": 3,
        "vectors": [[float(x) for x in v] for v in rays],
        "bases": bases,
    }


def gen_ks_instances() -> None:
    write("ks_dim4_18vectors.json", ceg18())
    write("ks_dim3_33rays_closure.json", rays33_closure())


def gen_permutations() -> None:
    write("perm_transposition_n3.json", {"n": 3, "images": [1, 0, 2]})
    write("perm_4cycle_n4.json", {"n": 4, "images": [1, 2, 3, 0]})


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    gen_contexts_and_densities()
    gen_gleason_demo()
    gen_ray_maps()
    gen_ks_instances()
    gen_permutations()


if __name__ == "__main__":
    main()
