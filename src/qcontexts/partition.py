"""Search for partition-style {0,1} valuations on vector systems.

A noncontextual assignment gives every vector a definite value, shared
across all bases it belongs to, with exactly one vector valued 1 per
basis. The solver is a complete backtracking search with unit
propagation; instances where every vector sits in an even number of
bases while the basis count is odd additionally carry a two-line
counting refutation (the parity certificate).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import Frozen

__all__ = [
    "KSInstance",
    "AssignmentResult",
    "ParityCertificate",
    "search_assignment",
    "parity_certificate",
    "verify_assignment",
]


class KSInstance(Frozen):
    """Unit vectors, an (M, dim) complex array of unit-norm rows, with
    designated orthogonal bases (tuples of row indices).

    Documents are parsed and validated by jsonio.ks_instance_from_json.
    """

    def __init__(self, dim: int, vectors: np.ndarray,
                 bases: tuple[tuple[int, ...], ...]):
        self.__dict__.update(dim=dim, vectors=vectors, bases=bases)

    @property
    def n_vectors(self) -> int:
        return self.vectors.shape[0]

    def multiplicities(self) -> np.ndarray:
        """How many bases each vector belongs to."""
        members = np.array([i for basis in self.bases for i in basis], dtype=int)
        return np.bincount(members, minlength=self.n_vectors)


class ParityCertificate(NamedTuple):
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


class AssignmentResult(NamedTuple):
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

    The search loops over an explicit stack of decisions, so no recursion
    limit bounds its depth. The variables before a decision's position in
    the order are all set, so the next free one is sought from there on.
    """
    n = inst.n_vectors
    membership: list[list[tuple[int, ...]]] = [[] for _ in range(n)]  # the bases of each vector
    for basis in inst.bases:
        for i in basis:
            membership[i].append(basis)
    order = sorted(range(n), key=lambda i: (-len(membership[i]), i))
    values = [-1] * n
    trail: list[int] = []  # variables in the order they were set

    def propagate(var: int, val: int) -> bool:
        stack = [(var, val)]
        while stack:
            i, x = stack.pop()
            if values[i] != -1:
                if values[i] != x:
                    return False
                continue
            values[i] = x
            trail.append(i)
            for basis in membership[i]:
                ones = sum(1 for q in basis if values[q] == 1)
                free = [q for q in basis if values[q] == -1]
                if ones > 1:
                    return False
                if ones == 1:
                    stack.extend((q, 0) for q in free)
                elif not free:
                    return False  # all zero: basis has no designated outcome
                elif len(free) == 1:
                    stack.append((free[0], 1))
        return True

    decisions: list[tuple[int, int]] = []  # still at 1: (position in order, trail length)
    nodes = pos = 0
    while True:
        while pos < n and values[order[pos]] != -1:
            pos += 1
        if pos == n:
            break
        decisions.append((pos, len(trail)))
        nodes += 1
        ok = propagate(order[pos], 1)
        while not ok and decisions:  # refuted: the latest decision still at 1 moves to 0
            pos, mark = decisions.pop()
            for q in trail[mark:]:
                values[q] = -1
            del trail[mark:]
            nodes += 1
            ok = propagate(order[pos], 0)
        if not ok:
            break
    certificate = parity_certificate(inst)
    if pos < n:
        return AssignmentResult("UNSAT", None, nodes, certificate)
    assignment = tuple(values)
    if not verify_assignment(inst, assignment):  # kept under python -O
        raise AssertionError("the search's assignment fails verification")
    return AssignmentResult("SAT", assignment, nodes, certificate)
