"""Output oracles: each checks one CLI result against what the input implies.

An oracle is a callable taking a ``Result`` and returning None when the
output is correct, or a one-line reason when it is not. The references
are computed here with numpy alone, never with the program under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Frobenius / max-norm accuracy promised on exact inputs.
EXACT = 1e-8
# Orthogonality threshold the CLI applies by default (--tol).
ORTHOGONAL_TOL = 1e-9


@dataclass(frozen=True)
class Result:
    """What one child process left behind."""

    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_kb: int = 0


def _payload(r: Result, code: int) -> tuple[dict | None, str | None]:
    if r.code != code:
        return None, f"exit {r.code}, expected {code}"
    try:
        return json.loads(r.stdout), None
    except ValueError:
        return None, "stdout is not JSON"


def _complex(rows) -> np.ndarray:
    """Array of [re, im] pairs (any nesting) as complex numbers."""
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def golden(expected: bytes):
    def check(r: Result) -> str | None:
        if r.code != 0:
            return f"exit {r.code}, expected 0"
        return None if r.stdout == expected else "stdout differs from the golden file"
    return check


def usage_error():
    """Malformed input: exit 2, nothing on stdout, a one-line error on stderr."""
    def check(r: Result) -> str | None:
        if r.code != 2:
            return f"exit {r.code}, expected 2"
        if r.stdout:
            return "payload printed for malformed input"
        if not r.stderr.startswith(b"error:") or b"Traceback" in r.stderr:
            return "stderr is not a one-line error"
        return None
    return check


def crash_signature(exception: str):
    """An uncaught exception: exit 1, empty stdout, traceback naming it."""
    def matches(r: Result) -> bool:
        return (r.code == 1 and not r.stdout and b"Traceback" in r.stderr
                and exception.encode() in r.stderr)
    return matches


def negative_seed_signature(r: Result) -> bool:
    """``--seed -1`` accepted: exit 0 with the negative seed echoed."""
    try:
        return r.code == 0 and json.loads(r.stdout)["seed"] == -1
    except (ValueError, KeyError, TypeError):
        return False


class SimulateOracle:
    """Independent per-seed reference for ``simulate``.

    Run k draws from Philox keyed ``seed + k``; step t samples by inverse
    CDF from the Born distribution of the previous outcome's ray (the
    initial state's top eigenvector at step 0). Every per-step count and
    the first run's sequence must match exactly.
    """

    def __init__(self, initial_doc: dict, contexts_doc: dict, seed: int, repeats: int):
        self.initial = _complex(initial_doc["matrix"])
        # columns are the unit representatives, normalized one by one as
        # Projector.from_vector does, so the arithmetic matches to the last bit
        self.bases = [np.column_stack([v / np.linalg.norm(v) for v in _complex(c["vectors"])])
                      for c in contexts_doc["contexts"]]
        self.labels = [c["label"] for c in contexts_doc["contexts"]]
        self.seed, self.repeats = seed, repeats
        self._reference = None

    @staticmethod
    def _cdf(state: np.ndarray, basis: np.ndarray) -> np.ndarray:
        rho = np.outer(state, state.conj())
        probs = np.einsum("ij,jk,ki->i", basis.conj().T, rho, basis).real
        return np.cumsum(np.clip(probs, 0.0, 1.0))

    def reference(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """(outcomes of shape (repeats, steps), per-step counts)."""
        if self._reference is None:
            m = self.initial
            _, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
            top = vecs[:, -1] / np.linalg.norm(vecs[:, -1])
            steps = len(self.bases)
            draws = np.array([
                np.random.Generator(np.random.Philox(key=(self.seed + k) % 2**64)).random(steps)
                for k in range(self.repeats)])
            outcomes = np.zeros((self.repeats, steps), dtype=int)
            prev_states = top[None, :]
            prev = np.zeros(self.repeats, dtype=int)
            for t, basis in enumerate(self.bases):
                table = np.array([self._cdf(s, basis) for s in prev_states])[prev]
                u = draws[:, t] * table[:, -1]
                outcomes[:, t] = np.minimum((table <= u[:, None]).sum(axis=1), basis.shape[0] - 1)
                prev, prev_states = outcomes[:, t], basis.T
            counts = [np.bincount(outcomes[:, t], minlength=b.shape[0])
                      for t, b in enumerate(self.bases)]
            self._reference = (outcomes, counts)
        return self._reference

    def __call__(self, r: Result) -> str | None:
        p, why = _payload(r, 0)
        if p is None:
            return why
        outcomes, counts = self.reference()
        if p.get("seed") != self.seed or p.get("repeats") != self.repeats:
            return "seed or repeats not echoed"
        sequence = [{"context_label": lab, "outcome_index": int(o)}
                    for lab, o in zip(self.labels, outcomes[0])]
        if p.get("sequence") != sequence:
            return "first run's sequence differs from the reference"
        expected = [{"context_label": lab, "counts": [int(x) for x in c],
                     "frequencies": [float(x) / self.repeats for x in c]}
                    for lab, c in zip(self.labels, counts)]
        if p.get("frequencies") != expected:
            return "per-step counts differ from the reference"
        return None


def first_violating_pair(sources, targets, tol: float = ORTHOGONAL_TOL):
    """First (i, j), i < j, in lexicographic order where orthogonality of the
    sources and of the targets disagree; None when the map preserves it.

    For unit vectors ||P_i P_j||_max = |<v_i, v_j>| max|v_i| max|v_j|.
    """
    def products(vectors):
        b = np.column_stack([v / np.linalg.norm(v) for v in vectors])
        peak = np.abs(b).max(axis=0)
        return np.abs(b.conj().T @ b) * np.outer(peak, peak) <= tol

    differ = np.triu(products(sources) != products(targets), k=1)
    hits = np.argwhere(differ)
    return None if hits.size == 0 else (int(hits[0][0]), int(hits[0][1]))


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm distance between a and b after the best global phase on b."""
    z = np.trace(b.conj().T @ a)
    return float(np.abs(a - (z / abs(z)) * b).max())


def certified(branch: str, hidden: np.ndarray, k: int):
    """Accepted map: hidden branch, and the hidden operator up to phase."""
    def check(r: Result) -> str | None:
        p, why = _payload(r, 0)
        if p is None:
            return why
        if p.get("n_rays") != k or p.get("orthogonality_preserving") is not True:
            return "map not reported as orthogonality preserving"
        if p.get("verdict") != branch or p.get("antiunitary") != (branch == "Antiunitary"):
            return f"verdict {p.get('verdict')!r}, expected {branch!r}"
        if phase_distance(_complex(p["matrix"]), hidden) > EXACT:
            return "fitted matrix differs from the hidden operator"
        return None
    return check


def rejected(pair: tuple[int, int], k: int):
    """Broken map: exit 1 naming the first violating pair."""
    def check(r: Result) -> str | None:
        p, why = _payload(r, 1)
        if p is None:
            return why
        if p.get("n_rays") != k or p.get("orthogonality_preserving") is not False:
            return "broken map not rejected"
        if p.get("violating_pair") != list(pair):
            return f"violating pair {p.get('violating_pair')}, expected {list(pair)}"
        return None
    return check


def reconstructed(rho: np.ndarray):
    """gleason-fit on exact Born values recovers rho within 1e-8 Frobenius."""
    def check(r: Result) -> str | None:
        p, why = _payload(r, 0)
        if p is None:
            return why
        n = rho.shape[0]
        if p.get("design_rank") != n * n:
            return f"design rank {p.get('design_rank')}, expected {n * n}"
        error = float(np.linalg.norm(_complex(p["rho"]["matrix"]) - rho))
        return None if error <= EXACT else f"rho is {error:.2e} from its source"
    return check


def ks_verdict(unsat: bool, bases: list[list[int]]):
    """UNSAT only where expected; a SAT assignment puts exactly one 1 in
    every basis (the rule of partition.verify_assignment)."""
    n_vectors = 1 + max(i for b in bases for i in b)

    def check(r: Result) -> str | None:
        p, why = _payload(r, 0 if unsat else 1)
        if p is None:
            return why
        if p.get("n_vectors") != n_vectors or p.get("n_bases") != len(bases):
            return "instance size not echoed"
        if p.get("status") != ("UNSAT" if unsat else "SAT"):
            return f"status {p.get('status')!r}"
        if unsat:
            return None if p.get("assignment") is None else "UNSAT with an assignment"
        values = p.get("assignment")
        if (not isinstance(values, list) or len(values) != n_vectors
                or any(v not in (0, 1) for v in values)):
            return "assignment is not a 0/1 vector over all vectors"
        if any(sum(values[i] for i in b) != 1 for b in bases):
            return "assignment violates a basis"
        return None
    return check
