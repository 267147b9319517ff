import json
import sys
from itertools import combinations

import numpy as np
import pytest

from helpers import brute_force_valuation_count, peak_allocation
from qcontexts import linalg
from qcontexts.core import make_generator
from qcontexts.errors import BasisNotOrthogonal, MalformedDocument
from qcontexts.jsonio import dataset_path, ks_instance_from_json
from qcontexts.linalg import DEFAULT_TOL, Tolerance
from qcontexts.partition import (
    KSInstance,
    parity_certificate,
    search_assignment,
    verify_assignment,
)
from qcontexts.sampling import random_unitary


def ref_load_ks_instance(document: dict, tol: Tolerance = DEFAULT_TOL) -> KSInstance:
    """The ks loader as it stood in partition, kept as a reference for jsonio,
    plus the repeated-ray rule checked on every pair of projector matrices."""
    if not isinstance(document, dict):
        raise MalformedDocument("instance document must be an object")
    try:
        dim = document["dim"]
        raw_vectors = document["vectors"]
        raw_bases = document["bases"]
    except KeyError as exc:
        raise MalformedDocument(f"missing or invalid field: {exc}") from exc
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise MalformedDocument(f"field 'dim' must be an integer, got {dim!r}")
    if dim < 1:
        raise MalformedDocument(f"dimension must be positive, got {dim}")
    if not isinstance(raw_vectors, list) or not isinstance(raw_bases, list):
        raise MalformedDocument("'vectors' and 'bases' must be lists")
    if not raw_vectors or not raw_bases:
        raise MalformedDocument("instance needs at least one vector and one basis")

    vectors = np.zeros((len(raw_vectors), dim), dtype=np.complex128)
    for m, entries in enumerate(raw_vectors):
        if not isinstance(entries, list):
            raise MalformedDocument(f"vector {m} must be a list of entries")
        if len(entries) != dim:
            raise MalformedDocument(f"vector {m} has {len(entries)} entries, "
                                    f"expected {dim}")
        for a, entry in enumerate(entries):
            if isinstance(entry, (int, float)):
                vectors[m, a] = float(entry)
            else:
                try:
                    re, im = entry
                    vectors[m, a] = complex(float(re), float(im))
                except (TypeError, ValueError) as exc:
                    raise MalformedDocument(
                        f"vector {m} entry {a} is not a number or [re, im] pair"
                    ) from exc
        norm = float(np.linalg.norm(vectors[m]))
        if norm <= tol.bound():
            raise MalformedDocument(f"vector {m} is (numerically) zero")
        if abs(norm - 1) > 8 * dim * 2.0**-53:  # else unit to rounding, kept as written
            vectors[m] /= norm

    bases: list[tuple[int, ...]] = []
    for b, basis in enumerate(raw_bases):
        if not isinstance(basis, list):
            raise MalformedDocument(f"basis {b} must be a list of vector indices")
        if len(basis) != dim:
            raise MalformedDocument(
                f"basis {b} has {len(basis)} members, expected {dim}")
        idx = []
        for i in basis:
            if not isinstance(i, int) or not (0 <= i < len(raw_vectors)):
                raise MalformedDocument(f"basis {b} has invalid vector index {i!r}")
            idx.append(i)
        if len(set(idx)) != dim:
            raise MalformedDocument(f"basis {b} repeats a vector index")
        for i, j in combinations(idx, 2):
            overlap = abs(complex(np.vdot(vectors[i], vectors[j])))
            if overlap > tol.bound():
                raise BasisNotOrthogonal(b, i, j, overlap)
        bases.append(tuple(idx))

    covered = set(i for basis in bases for i in basis)
    missing = sorted(set(range(len(raw_vectors))) - covered)
    if missing:
        raise MalformedDocument(f"vectors {missing} belong to no basis")
    for i, j in combinations(range(len(vectors)), 2):
        if np.abs(np.outer(vectors[i], vectors[i].conj())
                  - np.outer(vectors[j], vectors[j].conj())).max() <= tol.abs_eps:
            raise MalformedDocument(f"vectors {i} and {j} are the same ray")

    vectors.flags.writeable = False
    return KSInstance(dim=dim, vectors=vectors, bases=tuple(bases))


def ref_search(bases, n: int) -> tuple[tuple[int, ...] | None, int]:
    """The recursive search as it stood before the decision loop, kept as the
    reference for its node count: (assignment or None, nodes_explored)."""
    membership = [[b for b, basis in enumerate(bases) if i in basis] for i in range(n)]
    order = sorted(range(n), key=lambda i: (-len(membership[i]), i))
    values, nodes = [-1] * n, 0

    def propagate(var, val, trail):
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
                ones = sum(1 for q in bases[b] if values[q] == 1)
                free = [q for q in bases[b] if values[q] == -1]
                if ones > 1 or (ones == 0 and not free):
                    return False
                if ones == 1:
                    stack.extend((q, 0) for q in free)
                elif len(free) == 1:
                    stack.append((free[0], 1))
        return True

    def solve():
        nonlocal nodes
        var = next((i for i in order if values[i] == -1), None)
        if var is None:
            return True
        for val in (1, 0):
            nodes += 1
            trail = []
            if propagate(var, val, trail) and solve():
                return True
            for q in trail:
                values[q] = -1
        return False

    return (tuple(values) if solve() else None), nodes


def load_dataset(name: str):
    with open(dataset_path(name), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def ceg18():
    return ks_instance_from_json(load_dataset("ks_dim4_18vectors.json"))


@pytest.fixture(scope="module")
def rays33_closure():
    return ks_instance_from_json(load_dataset("ks_dim3_33rays_closure.json"))


def single_basis_doc():
    return {
        "dim": 3,
        "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "bases": [[0, 1, 2]],
    }


MALFORMED_MUTATIONS = [
    lambda d: d.pop("dim"),
    lambda d: d.pop("vectors"),
    lambda d: d.pop("bases"),
    lambda d: d["bases"].append([0, 1]),          # wrong length
    lambda d: d["bases"].append([0, 1, 99]),      # index out of range
    lambda d: d["bases"].__setitem__(0, [0, 0, 1]),  # repeated index
    lambda d: d["vectors"].append([1, 0, 0]),     # vector in no basis
    lambda d: d["vectors"].__setitem__(0, [0, 0, 0]),  # zero vector
    # vector 3 is the ray of vector 0, in a basis of its own
    lambda d: (d["vectors"].append([[0, -2], 0, 0]), d["bases"].append([3, 1, 2])),
]


class TestLoadKSInstance:
    def test_single_standard_basis(self):
        inst = ks_instance_from_json(single_basis_doc())
        assert inst.dim == 3 and inst.n_vectors == 3 and len(inst.bases) == 1

    def test_bundled_dim4_instance(self, ceg18):
        assert ceg18.dim == 4
        assert ceg18.n_vectors == 18
        assert len(ceg18.bases) == 9
        # every vector in exactly two bases; orthogonality was re-checked at load
        assert np.array_equal(ceg18.multiplicities(), np.full(18, 2))

    def test_orthogonality_recheck(self, ceg18):
        for basis in ceg18.bases:
            for a in range(4):
                for b in range(a + 1, 4):
                    i, j = basis[a], basis[b]
                    assert abs(np.vdot(ceg18.vectors[i], ceg18.vectors[j])) <= 1e-9

    def test_non_orthogonal_basis_rejected(self):
        doc = {
            "dim": 3,
            "vectors": [[1, 0, 0], [1, 1, 0], [0, 0, 1]],
            "bases": [[0, 1, 2]],
        }
        with pytest.raises(BasisNotOrthogonal) as err:
            ks_instance_from_json(doc)
        assert err.value.basis_index == 0
        assert err.value.pair == (0, 1)

    def test_complex_pair_entries_accepted(self):
        doc = {
            "dim": 3,
            "vectors": [[[1, 0], [0, 0], [0, 0]],
                        [[0, 0], [0, 1], [0, 0]],
                        [[0, 0], [0, 0], [1, 0]]],
            "bases": [[0, 1, 2]],
        }
        inst = ks_instance_from_json(doc)
        assert inst.vectors[1][1] == pytest.approx(1j)

    def test_vectors_are_normalized(self):
        doc = {
            "dim": 3,
            "vectors": [[2, 0, 0], [0, 3, 0], [0, 0, -1]],
            "bases": [[0, 1, 2]],
        }
        inst = ks_instance_from_json(doc)
        assert np.allclose(np.linalg.norm(inst.vectors, axis=1), 1.0)

    def test_vector_norm_overflow_rejected(self):
        # finite entries whose norm overflows would normalize to the zero vector
        doc = single_basis_doc()
        doc["vectors"][0] = [1e308, 1e308, 0]
        doc["vectors"][1] = [1, -1, 0]
        with pytest.raises(MalformedDocument):
            ks_instance_from_json(doc)

    @pytest.mark.parametrize("mutate", MALFORMED_MUTATIONS)
    def test_malformed_documents_rejected(self, mutate):
        doc = single_basis_doc()
        mutate(doc)
        with pytest.raises(MalformedDocument):
            ks_instance_from_json(doc)


def _seeded_ks_doc(seed: int, pairs: bool) -> dict:
    """Two orthonormal bases sharing their first vector, rescaled and
    rephased entry by entry, written as bare reals (real bases) or as
    [re, im] pairs (complex bases)."""
    rng = make_generator(seed)
    dim = 3 + seed % 3
    first = random_unitary(dim, rng)
    second = random_unitary(dim - 1, rng)
    if not pairs:
        first, second = first.real.copy(), second.real.copy()
        first, _ = np.linalg.qr(first)
        second, _ = np.linalg.qr(second)
    # the second basis spans the complement of the first basis's column 0
    second = first[:, 1:] @ second
    columns = [first[:, k] for k in range(dim)] + [second[:, k] for k in range(dim - 1)]
    scales = rng.uniform(0.5, 4.0, size=len(columns))
    vectors = [c * s for c, s in zip(columns, scales)]
    if pairs:
        entries = [[[float(z.real), float(z.imag)] for z in v] for v in vectors]
    else:
        entries = [[float(x.real) for x in v] for v in vectors]
    bases = [list(range(dim)), [0] + list(range(dim, 2 * dim - 1))]
    return {"dim": dim, "vectors": entries, "bases": bases}


def _reference_docs():
    docs = [(name, load_dataset(name)) for name in
            ("ks_dim4_18vectors.json", "ks_dim3_33rays_closure.json")]
    docs += [(f"seeded-{'pairs' if pairs else 'reals'}-{seed}", _seeded_ks_doc(seed, pairs))
             for seed in range(6) for pairs in (False, True)]
    for k, mutate in enumerate(MALFORMED_MUTATIONS):
        doc = single_basis_doc()
        mutate(doc)
        docs.append((f"malformed-{k}", doc))
    doc = single_basis_doc()
    doc["vectors"][1] = [1, 1, 0]
    docs.append(("non-orthogonal", doc))
    return docs


def _rotation(theta: float) -> np.ndarray:
    """Rotation by theta about z after theta about x: it moves every
    standard basis ray by about theta in projector distance."""
    c, s = np.cos(theta), np.sin(theta)
    return (np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
            @ np.array([[1, 0, 0], [0, c, -s], [0, s, c]]))


class TestRepeatedRays:
    @pytest.mark.parametrize("eps, theta, repeated", [
        (1e-9, 0.5e-9, True), (1e-9, 2e-9, False), (1e-6, 0.5e-6, True), (1e-6, 2e-6, False)])
    def test_projector_distance_decides_at_the_tolerance(self, eps, theta, repeated):
        # 1 - |<u, v>|^2 is about theta^2 here, far below what the Gram entry resolves
        turned = _rotation(theta)
        doc = {"dim": 3,
               "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
               + [turned[:, k].tolist() for k in range(3)],
               "bases": [[0, 1, 2], [3, 4, 5]]}
        tol = Tolerance(abs_eps=eps)
        if repeated:
            with pytest.raises(MalformedDocument, match="vectors 0 and 3 are the same ray"):
                ks_instance_from_json(doc, tol)
        else:
            assert ks_instance_from_json(doc, tol).n_vectors == 6

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocked_screen_reports_the_reference_pair(self, monkeypatch, block):
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", block)
        for seed in range(4):
            doc = _seeded_ks_doc(seed, pairs=True)
            rng = make_generator(100 + seed)
            # copy two vectors, rephased, into a new basis each: the reference
            # reports the first repeated pair in lexicographic order
            for src in sorted(rng.choice(len(doc["vectors"]), size=2, replace=False)):
                phase = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
                copy = [[re * phase.real - im * phase.imag, re * phase.imag + im * phase.real]
                        for re, im in doc["vectors"][src]]
                basis = next(b for b in doc["bases"] if src in b)
                doc["vectors"].append(copy)
                doc["bases"].append([len(doc["vectors"]) - 1 if i == src else i for i in basis])
            with pytest.raises(MalformedDocument) as expected:
                ref_load_ks_instance(doc)
            with pytest.raises(MalformedDocument) as got:
                ks_instance_from_json(doc)
            assert str(got.value) == str(expected.value)


class TestReferenceLoader:
    """jsonio.ks_instance_from_json against the loader it replaced."""

    @pytest.mark.parametrize("name, doc", _reference_docs(),
                             ids=[name for name, _ in _reference_docs()])
    def test_same_instance_or_same_error(self, name, doc):
        try:
            expected = ref_load_ks_instance(doc)
        except Exception as exc:  # the reference's error class is the expectation
            with pytest.raises(type(exc)) as err:
                ks_instance_from_json(doc)
            assert type(err.value) is type(exc)
            if isinstance(exc, BasisNotOrthogonal):
                assert (err.value.basis_index, err.value.pair) == (exc.basis_index, exc.pair)
            return
        got = ks_instance_from_json(doc)
        assert got.dim == expected.dim
        assert np.array_equal(got.vectors, expected.vectors)
        assert got.vectors.dtype == expected.vectors.dtype
        assert got.bases == expected.bases
        assert not got.vectors.flags.writeable

    def test_seeded_documents_load(self):
        # the seeded documents are valid instances, not only equal failures
        for seed in range(6):
            for pairs in (False, True):
                inst = ks_instance_from_json(_seeded_ks_doc(seed, pairs))
                assert len(inst.bases) == 2


class TestSearchAssignment:
    def test_single_basis_sat(self):
        inst = ks_instance_from_json(single_basis_doc())
        result = search_assignment(inst)
        assert result.status == "SAT"
        assert verify_assignment(inst, result.assignment)
        assert sum(result.assignment) == 1

    def test_bundled_dim4_unsat_matches_brute_force(self, ceg18):
        # oracle: exhaustive enumeration over all 2^18 valuations
        assert brute_force_valuation_count(18, ceg18.bases) == 0
        result = search_assignment(ceg18)
        assert result.status == "UNSAT"
        assert result.assignment is None
        assert result.certificate is not None

    def test_deleting_any_basis_gives_sat(self, ceg18):
        from qcontexts.partition import KSInstance
        for drop in range(9):
            bases = tuple(b for k, b in enumerate(ceg18.bases) if k != drop)
            kept = sorted({i for b in bases for i in b})
            assert kept == list(range(18))  # all vectors still covered
            sub = KSInstance(dim=4, vectors=ceg18.vectors, bases=bases)
            result = search_assignment(sub)
            assert result.status == "SAT", f"deleting basis {drop} should give SAT"
            assert verify_assignment(sub, result.assignment)

    def test_dim3_closure_unsat(self, rays33_closure):
        inst = rays33_closure
        assert inst.dim == 3
        assert inst.n_vectors == 57
        assert len(inst.bases) == 40
        result = search_assignment(inst)
        assert result.status == "UNSAT"

    def test_monotonicity_under_basis_deletion(self):
        # deleting a basis never shrinks the satisfying set (enumeration oracle)
        doc = {
            "dim": 3,
            "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                        [0, 1, 1], [0, 1, -1]],
            "bases": [[0, 1, 2], [0, 3, 4]],
        }
        inst = ks_instance_from_json(doc)
        full = brute_force_valuation_count(inst.n_vectors, inst.bases)
        for drop in range(len(inst.bases)):
            remaining = [b for k, b in enumerate(inst.bases) if k != drop]
            assert brute_force_valuation_count(inst.n_vectors, remaining) >= full

    @pytest.mark.parametrize("seed", range(4))
    def test_same_tree_as_the_recursive_search(self, seed):
        # exactly-one constraints on random index sets: the search reads only the bases
        rng = make_generator(seed)
        for _ in range(100):
            n = int(rng.integers(3, 25))
            bases = tuple(tuple(int(i) for i in rng.choice(n, size=3, replace=False))
                          for _ in range(int(rng.integers(1, 16))))
            result = search_assignment(KSInstance(dim=3, vectors=np.zeros((n, 3)), bases=bases))
            assert (result.assignment, result.nodes_explored) == ref_search(bases, n), bases

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # one decision per disjoint basis: 1200 levels deep
        assert sys.getrecursionlimit() < 1200
        rng = make_generator(7919)
        vectors = np.concatenate([random_unitary(3, rng).T for _ in range(1200)])
        bases = tuple((3 * b, 3 * b + 1, 3 * b + 2) for b in range(1200))
        inst = KSInstance(dim=3, vectors=vectors, bases=bases)
        result = search_assignment(inst)
        assert result.status == "SAT" and result.nodes_explored == 1200
        assert verify_assignment(inst, result.assignment)

    def test_instance_is_immutable(self, ceg18):
        for name in ("dim", "vectors", "bases"):
            with pytest.raises(AttributeError):
                setattr(ceg18, name, None)
            with pytest.raises(AttributeError):
                delattr(ceg18, name)

    def test_search_is_deterministic(self, ceg18):
        a = search_assignment(ceg18)
        b = search_assignment(ceg18)
        assert a.nodes_explored == b.nodes_explored
        assert a.status == b.status


class TestParityCertificate:
    def test_bundled_dim4_instance_has_certificate(self, ceg18):
        cert = parity_certificate(ceg18)
        assert cert is not None
        assert cert.basis_count == 9
        assert all(m % 2 == 0 for m in cert.multiplicities)
        assert "odd" in cert.describe() and "even" in cert.describe()

    def test_single_basis_has_none(self):
        # B = 1 is odd but multiplicities are all 1 (odd)
        inst = ks_instance_from_json(single_basis_doc())
        assert parity_certificate(inst) is None

    def test_two_disjoint_bases_have_none(self):
        # every multiplicity is 1 anyway, and B = 2 is even
        doc = {
            "dim": 3,
            "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                        [1, 1, 1], [1, -1, 0], [1, 1, -2]],
            "bases": [[0, 1, 2], [3, 4, 5]],
        }
        assert parity_certificate(ks_instance_from_json(doc)) is None

    def test_certificate_implies_unsat(self, ceg18, rays33_closure):
        for inst in (ceg18, rays33_closure):
            cert = parity_certificate(inst)
            if cert is not None:
                assert search_assignment(inst).status == "UNSAT"

    def test_sat_witness_reverified_independently(self):
        doc = {
            "dim": 3,
            "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                        [0, 1, 1], [0, 1, -1]],
            "bases": [[0, 1, 2], [0, 3, 4]],
        }
        inst = ks_instance_from_json(doc)
        result = search_assignment(inst)
        assert result.status == "SAT"
        values = result.assignment
        for basis in inst.bases:
            assert sum(values[i] for i in basis) == 1


def _disjoint_bases_documents(sizes):
    """One ks document per size m: m vectors in m/3 disjoint real bases of dimension 3."""
    rng = make_generator(33)
    vectors = [column for _ in range(max(sizes) // 3)
               for column in np.linalg.qr(rng.standard_normal((3, 3)))[0].T.tolist()]
    return [{"dim": 3, "vectors": vectors[:m],
             "bases": [[i, i + 1, i + 2] for i in range(0, m, 3)]} for m in sizes]


def test_loader_memory_grows_linearly_in_vectors():
    """Peak allocation of ks_instance_from_json on 1200 and 2400 vectors in
    disjoint real bases of dimension 3. O(M n) arrays plus the fixed blocks
    of the orthogonality and same-ray screens give a ratio of at most 2;
    the slack of 1.25 rejects the 4 of an (M, M) table."""
    peaks = []
    for m, doc in zip((1200, 2400), _disjoint_bases_documents((1200, 2400))):
        instance, peak = peak_allocation(ks_instance_from_json, doc)
        assert instance.n_vectors == m
        peaks.append(peak)
    assert peaks[1] / peaks[0] <= 2 * 1.25


def test_search_memory_grows_linearly_in_vectors():
    """Peak allocation of search_assignment on the loaded instances of 1200
    and 2400 vectors in disjoint bases: one decision per basis, so the
    membership lists, the trail and the decision stack are all O(M), and
    the ratio is at most 2; the slack of 1.25 rejects the 4 of an (M, M) table."""
    peaks = []
    for doc in _disjoint_bases_documents((1200, 2400)):
        result, peak = peak_allocation(search_assignment, ks_instance_from_json(doc))
        assert result.status == "SAT" and result.nodes_explored == len(doc["bases"])
        peaks.append(peak)
    assert peaks[1] / peaks[0] <= 2 * 1.25
