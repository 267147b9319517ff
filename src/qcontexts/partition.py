"""Search for partition-style {0,1} valuations on vector systems.

A noncontextual assignment gives every vector a definite value, shared
across all bases it belongs to, with exactly one vector valued 1 per
basis. The solver is a complete backtracking search with unit
propagation; instances where every vector sits in an even number of
bases while the basis count is odd additionally carry a two-line
counting refutation (the parity certificate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KSInstance",
    "AssignmentResult",
    "ParityCertificate",
    "search_assignment",
    "parity_certificate",
    "verify_assignment",
]


@dataclass(frozen=True, eq=False)
class KSInstance:
    """Unit vectors with designated orthogonal bases (index lists).

    Documents are parsed and validated by jsonio.ks_instance_from_json.
    """

    dim: int
    vectors: np.ndarray  # (M, dim) complex, rows unit-norm
    bases: tuple[tuple[int, ...], ...]

    @property
    def n_vectors(self) -> int:
        return self.vectors.shape[0]

    def multiplicities(self) -> np.ndarray:
        """How many bases each vector belongs to."""
        counts = np.zeros(self.n_vectors, dtype=int)
        for basis in self.bases:
            for i in basis:
                counts[i] += 1
        return counts


@dataclass(frozen=True)
class ParityCertificate:
    """Counting refutation: per-basis sums total an odd basis count,
    but the same total counts each vector an even number of times."""

    basis_count: int
    multiplicities: tuple[int, ...]

    def describe(self) -> str:
        return (
            f"sum over {self.basis_count} bases of exactly-one-per-basis is "
            f"{self.basis_count} (odd), yet the same sum weights every vector "
            "by its even multiplicity and so must be even"
        )


@dataclass(frozen=True)
class AssignmentResult:
    """Outcome of the valuation search."""

    status: str  # "SAT" | "UNSAT"
    assignment: tuple[int, ...] | None
    nodes_explored: int
    certificate: ParityCertificate | None


def parity_certificate(inst: KSInstance) -> ParityCertificate | None:
    """Counting refutation when every multiplicity is even and B is odd."""
    mult = inst.multiplicities()
    if len(inst.bases) % 2 == 1 and np.all(mult % 2 == 0):
        return ParityCertificate(basis_count=len(inst.bases),
                                 multiplicities=tuple(int(x) for x in mult))
    return None


def verify_assignment(inst: KSInstance, assignment) -> bool:
    """Independent re-check: exactly one vector valued 1 in every basis."""
    values = list(assignment)
    if len(values) != inst.n_vectors or any(v not in (0, 1) for v in values):
        return False
    return all(sum(values[i] for i in basis) == 1 for basis in inst.bases)


def search_assignment(inst: KSInstance) -> AssignmentResult:
    """Complete backtracking search with unit propagation.

    Variable order is fixed (descending basis membership, index
    tie-break) and value order tries 1 before 0, so nodes_explored is
    identical across runs. UNSAT means the whole tree was refuted.
    """
    n = inst.n_vectors
    membership: list[list[int]] = [[] for _ in range(n)]
    for b, basis in enumerate(inst.bases):
        for i in basis:
            membership[i].append(b)
    order = sorted(range(n), key=lambda i: (-len(membership[i]), i))
    values = [-1] * n
    nodes = 0

    def propagate(var: int, val: int, trail: list[int]) -> bool:
        stack = [(var, val)]
        while stack:
            i, x = stack.pop()
            if values[i] != -1:
                if values[i] != x:
                    return False
                continue
            values[i] = x
            trail.append(i)
            for b in membership[i]:
                basis = inst.bases[b]
                ones = sum(1 for q in basis if values[q] == 1)
                free = [q for q in basis if values[q] == -1]
                if ones > 1:
                    return False
                if ones == 1:
                    for q in free:
                        stack.append((q, 0))
                elif not free:
                    return False  # all zero: basis has no designated outcome
                elif len(free) == 1:
                    stack.append((free[0], 1))
        return True

    def solve() -> bool:
        nonlocal nodes
        var = next((i for i in order if values[i] == -1), None)
        if var is None:
            return True
        for val in (1, 0):
            nodes += 1
            trail: list[int] = []
            if propagate(var, val, trail) and solve():
                return True
            for q in trail:
                values[q] = -1
        return False

    certificate = parity_certificate(inst)
    if solve():
        assignment = tuple(values)
        assert verify_assignment(inst, assignment)
        return AssignmentResult(status="SAT", assignment=assignment,
                                nodes_explored=nodes, certificate=certificate)
    return AssignmentResult(status="UNSAT", assignment=None,
                            nodes_explored=nodes, certificate=certificate)
