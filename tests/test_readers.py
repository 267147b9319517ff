"""The bulk document readers against the element-wise rule they replaced.

The reference reader here reads one complex entry at a time, through a
pair_to_complex and a _number per scalar, and normalizes one row at a
time with np.linalg.norm: a row whose norm lies within 8 n u of 1 (n
entries, u = 2^-53) is kept as it is, any other divided by its norm.
Every bulk reader must give bit-identical arrays, and every single-fault
document the error line the element-wise readers printed.
"""

import json
import math

import numpy as np
import pytest

from helpers import random_ray_map, reread
from qcontexts.cli import main
from qcontexts.core import DensityOperator, make_generator
from qcontexts.errors import MalformedDocument
from qcontexts.jsonio import (
    _complex_array,
    complex_to_json,
    context_from_json,
    context_to_json,
    contexts_from_json,
    dataset_path,
    density_from_json,
    density_to_json,
    frame_samples_from_json,
    ks_instance_from_json,
    permutation_from_json,
    ray_map_from_json,
    ray_map_to_json,
)
from qcontexts.linalg import DEFAULT_TOL, unit_rows
from qcontexts.sampling import random_context, random_density, random_unitary

DATASETS = sorted(p.name for p in dataset_path("").glob("*.json"))


def _load(name: str) -> dict:
    return json.loads(dataset_path(name).read_text())


# ------------------------------------------------------------------
# Reference: the element-wise reader and the per-row norm

def ref_number(value, what: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise MalformedDocument(f"{what} must be a finite number, got {value!r}")


def ref_pair(entry) -> complex:
    if not isinstance(entry, (list, tuple)):
        return complex(ref_number(entry, "a complex entry"), 0.0)
    if len(entry) != 2:
        raise MalformedDocument(f"expected a number or [re, im] pair, got {entry!r}")
    return complex(ref_number(entry[0], "a real part"), ref_number(entry[1], "an imaginary part"))


def ref_vector(entries, dim: int) -> np.ndarray:
    if not isinstance(entries, (list, tuple)):
        raise MalformedDocument(f"expected a vector (list), got {type(entries).__name__}")
    if len(entries) != dim:
        raise MalformedDocument(f"vector has {len(entries)} entries, expected {dim}")
    return np.array([ref_pair(e) for e in entries], dtype=np.complex128)


def ref_unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    return v if abs(norm - 1) <= 8 * len(v) * 2.0**-53 else v / norm


def ref_unit_rows(rows, dim: int) -> np.ndarray:
    return np.array([ref_unit(ref_vector(r, dim)) for r in rows])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_context(doc: dict, context) -> None:
    assert same_bits(context.vectors, ref_unit_rows(doc["vectors"], doc["dim"]))


def check_document(name: str, doc: dict) -> None:
    """Assert that the bulk reader of doc's kind matches the reference bit for bit."""
    if name.startswith("context_"):
        check_context(doc, context_from_json(doc))
    elif name.startswith("contexts_"):
        for entry, context in zip(doc["contexts"], contexts_from_json(doc)):
            check_context(entry, context)
    elif name.startswith("density_"):
        mat = np.array([[ref_pair(e) for e in row] for row in doc["matrix"]])
        ref = DensityOperator.from_matrix(mat)
        assert same_bits(density_from_json(doc).matrix, ref.matrix)
    elif name.startswith("gleason_"):
        samples = frame_samples_from_json(doc)
        ref = ref_unit_rows([s["vector"] for s in doc["samples"]], doc["dim"])
        assert same_bits(np.array([s.projector.vector for s in samples]), ref)
        assert [s.value for s in samples] == [ref_number(s["value"], "") for s in doc["samples"]]
    elif name.startswith("ks_"):
        ref = ref_unit_rows(doc["vectors"], doc["dim"])
        assert same_bits(ks_instance_from_json(doc).vectors, ref)
    elif name.startswith("raymap_"):
        m = ray_map_from_json(doc)
        for side, rows in (("source", m.source_vectors), ("target", m.target_vectors)):
            ref = ref_unit_rows([p[side] for p in doc["pairs"]], doc["dim"])
            assert same_bits(rows, ref)
    else:
        assert name.startswith("perm_")
        assert permutation_from_json(doc).images == tuple(doc["images"])


class TestBitIdenticalToReference:
    def test_every_bundled_document_is_covered(self):
        assert len(DATASETS) == 12

    @pytest.mark.parametrize("name", DATASETS)
    def test_bundled_document(self, name):
        check_document(name, _load(name))

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_documents(self, seed):
        rng = make_generator(400 + seed)
        n = 3 + seed % 3
        check_document("context_", context_to_json(random_context(n, rng, "c")))
        check_document("contexts_", {"contexts": [context_to_json(random_context(n, rng))
                                                  for _ in range(3)]})
        check_document("density_", density_to_json(random_density(n, rng)))
        m, _ = random_ray_map(n, rng, antiunitary=bool(seed % 2), n_extra=12)
        check_document("raymap_", ray_map_to_json(m))
        rho = random_density(n, rng)
        vectors = [random_unitary(n, rng)[:, 0] * rng.uniform(0.1, 10) for _ in range(40)]
        check_document("gleason_", {"dim": n, "samples": [
            {"vector": complex_to_json(v),
             "value": float(np.vdot(v, rho.matrix @ v).real / np.vdot(v, v).real)}
            for v in vectors]})
        columns = [u[:, k] * rng.uniform(0.5, 2) for u in
                   (random_unitary(n, rng) for _ in range(5)) for k in range(n)]
        check_document("ks_", {"dim": n, "vectors": [complex_to_json(v) for v in columns],
                               "bases": [list(range(b * n, b * n + n)) for b in range(5)]})

    def test_documents_that_mix_pairs_and_bare_numbers(self):
        # ints, floats, -0.0 and ints beyond 2^53 and 2^64, bare or in pairs
        rng = make_generator(410)
        leaves = [0, 1, -3, 2**53 + 1, 2**64 + 1, -(10**300), 0.5, -0.0, 1e-300, 1e300, 7.25]

        def leaf():
            return leaves[int(rng.integers(len(leaves)))]

        for _ in range(20):
            rows = [[leaf() if rng.random() < 0.4 else [leaf(), leaf()] for _ in range(5)]
                    for _ in range(7)]
            ref = np.array([[ref_pair(e) for e in row] for row in rows])
            assert same_bits(_complex_array(rows, (7, 5)), ref)
        check_document("ks_", {"dim": 3, "bases": [[0, 1, 2], [3, 4, 5]], "vectors": [
            [1, 0, 0], [0, [1, 0], 0.0], [0, 0, [-1.0, -0.0]],
            [[1, 0], 1.0, [1, -0.0]], [1, [-1, 0], 0], [[2**53 + 1, 0], 2**53 + 1, -(2**54 + 2)]]})


@pytest.mark.parametrize("name", DATASETS)
def test_bundled_document_reads_back_bit_for_bit(name):
    first, again = reread(name, _load(name))
    assert first == again


def ray_containers(name: str, doc: dict) -> list:
    """(rows, the document's rows they were read from, dim) for every ray array
    a reader builds from doc: context vectors, ray-map sides, KS vectors."""
    if name.startswith("context_"):
        return [(context_from_json(doc).vectors, doc["vectors"], doc["dim"])]
    if name.startswith("contexts_"):
        return [(c.vectors, e["vectors"], e["dim"])
                for c, e in zip(contexts_from_json(doc), doc["contexts"])]
    if name.startswith("raymap_"):
        m = ray_map_from_json(doc)
        return [(m.source_vectors, [p["source"] for p in doc["pairs"]], doc["dim"]),
                (m.target_vectors, [p["target"] for p in doc["pairs"]], doc["dim"])]
    if name.startswith("ks_"):
        return [(ks_instance_from_json(doc).vectors, doc["vectors"], doc["dim"])]
    return []


@pytest.mark.parametrize("name", [n for n in DATASETS if n.startswith(("context", "raymap_", "ks_"))])
def test_every_ray_container_is_read_only_unit_rows(name):
    # one layout for every ray set: a read-only, C-contiguous (k, n) complex array of unit rows
    containers = ray_containers(name, _load(name))
    assert containers
    for rows, raw, dim in containers:
        assert not rows.flags.writeable and rows.flags.c_contiguous
        assert rows.dtype == np.complex128 and rows.shape == (len(raw), dim)
        assert same_bits(rows, ref_unit_rows(raw, dim))


class TestRowNorms:
    """unit_rows takes each row's norm bit for bit as np.linalg.norm does."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_per_row_norm_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        scales = 10.0 ** rng.uniform(-6, 150, size=60)
        v = (rng.standard_normal((60, n)) + 1j * rng.standard_normal((60, n))) * scales[:, None]
        v[::4] = [r / np.linalg.norm(r) for r in v[::4]]  # rows unit to rounding
        got = unit_rows(v, DEFAULT_TOL, ValueError)
        assert same_bits(got, np.array([ref_unit(r) for r in v]))
        # strided rows and a leading stack axis give the same bits
        assert same_bits(unit_rows(np.asfortranarray(v), DEFAULT_TOL, ValueError), got)
        stack = unit_rows(np.stack([v, v[::-1]]), DEFAULT_TOL, ValueError)
        assert same_bits(stack, np.stack([got, got[::-1]]))

    def test_overflowing_rows_give_inf_like_the_per_row_norm(self):
        v = np.array([[1, 2, 3], [1e308, 1e308, 0], [1e200j, 1, 1]], dtype=complex)
        with np.errstate(over="ignore"):
            assert np.isinf([np.linalg.norm(r) for r in v[1:]]).all()
        for start, row in ((0, 1), (1, 0), (2, 0)):  # the lowest overflowing row is named
            with pytest.raises(IndexError, match=f"^{row}$"):
                unit_rows(v[start:], DEFAULT_TOL, IndexError)


def test_ray_map_reader_builds_no_pairs():
    m = ray_map_from_json(_load("raymap_unitary_dim3.json"))
    assert "pairs" not in vars(m)
    assert [p[0].vector.tolist() for p in m.pairs] == m.source_vectors.tolist()


# ------------------------------------------------------------------
# Error lines: each single-fault document prints exactly the line the
# element-wise readers printed; one multi-fault document per reader
# pins the order structure, then leaves, then norms.

def _grouped() -> dict:
    """The bundled samples as a context-grouped document, one group per basis."""
    flat = _load("gleason_demo_dim3.json")["samples"]
    groups = [flat[k:k + 3] for k in range(0, len(flat), 3)]
    return {"contexts": [{"label": f"g{g}", "vectors": [s["vector"] for s in group],
                          "values": [s["value"] for s in group]}
                         for g, group in enumerate(groups)]}


# reader -> (base document, its rows of complex entries, argv with DOC for the document)
READERS = {
    "density": (lambda: _load("density_mixed_dim3.json"), lambda d: d["matrix"],
                ["born", "DOC", "context_standard_dim3.json"]),
    "context": (lambda: _load("context_fourier_dim3.json"), lambda d: d["vectors"],
                ["born", "density_mixed_dim3.json", "DOC"]),
    "contexts": (lambda: _load("contexts_fourier_seq_dim3.json"),
                 lambda d: d["contexts"][0]["vectors"],
                 ["simulate", "density_e1_dim3.json", "DOC"]),
    "raymap": (lambda: _load("raymap_unitary_dim3.json"),
               lambda d: [p["source"] for p in d["pairs"]], ["uhlhorn", "DOC"]),
    "samples": (lambda: _load("gleason_demo_dim3.json"),
                lambda d: [s["vector"] for s in d["samples"]], ["gleason-fit", "DOC"]),
    "grouped": (_grouped, lambda d: d["contexts"][1]["vectors"], ["gleason-fit", "DOC"]),
    "ks": (lambda: _load("ks_dim4_18vectors.json"), lambda d: d["vectors"], ["ks", "DOC"]),
}


def _set_leaf(rows, value) -> None:
    """Put value where row 1, entry 1 keeps its real part."""
    if isinstance(rows[1][1], list):
        rows[1][1][0] = value
    else:
        rows[1][1] = value


def _drop_a_row(reader: str, doc: dict) -> None:
    if reader == "raymap":  # a pair's source one entry short
        doc["pairs"][0]["source"].pop()
    elif reader == "samples":
        doc["dim"] = 4
    else:
        READERS[reader][1](doc).pop()


def _fill(rows, values) -> None:
    rows[1][:] = list(values) + [0] * (len(rows[1]) - len(values))


FAULTS = {
    "bool-leaf": lambda r, d: _set_leaf(READERS[r][1](d), True),
    "string-leaf": lambda r, d: _set_leaf(READERS[r][1](d), "0.5"),
    "nan-leaf": lambda r, d: _set_leaf(READERS[r][1](d), float("nan")),
    "huge-int-leaf": lambda r, d: _set_leaf(READERS[r][1](d), 10**400),
    "three-element-entry": lambda r, d: READERS[r][1](d)[1].__setitem__(1, [1, 0, 0]),
    "short-row": lambda r, d: READERS[r][1](d)[1].pop(),
    "wrong-row-count": _drop_a_row,
    "zero-row": lambda r, d: _fill(READERS[r][1](d), []),
    "overflowing-row": lambda r, d: _fill(READERS[r][1](d), [1e308, 1e308, 0]),
}

# the line each single-fault document printed with the element-wise readers
EXPECTED = {
    ('density', 'bool-leaf'):
        'MalformedDocument: a real part must be a finite number, got True',
    ('density', 'string-leaf'):
        "MalformedDocument: a real part must be a finite number, got '0.5'",
    ('density', 'nan-leaf'):
        'MalformedDocument: a real part must be a finite number, got nan',
    ('density', 'huge-int-leaf'):
        f"MalformedDocument: a real part must be a finite number, got {10**400}",
    ('density', 'three-element-entry'):
        'MalformedDocument: expected a number or [re, im] pair, got [1, 0, 0]',
    ('density', 'short-row'):
        'MalformedDocument: matrix rows must be lists of one length',
    ('density', 'wrong-row-count'):
        'MalformedDocument: matrix has shape (2, 3), expected (3, 3)',
    ('density', 'zero-row'):
        'MalformedDocument: invalid density matrix: density matrix has trace 0.6666666666666666, expected 1',
    ('density', 'overflowing-row'):
        'MalformedDocument: invalid density matrix: density matrix is not self-adjoint',
    ('context', 'bool-leaf'):
        'MalformedDocument: a real part must be a finite number, got True',
    ('context', 'string-leaf'):
        "MalformedDocument: a real part must be a finite number, got '0.5'",
    ('context', 'nan-leaf'):
        'MalformedDocument: a real part must be a finite number, got nan',
    ('context', 'huge-int-leaf'):
        f"MalformedDocument: a real part must be a finite number, got {10**400}",
    ('context', 'three-element-entry'):
        'MalformedDocument: expected a number or [re, im] pair, got [1, 0, 0]',
    ('context', 'short-row'):
        'MalformedDocument: vector has 2 entries, expected 3',
    ('context', 'wrong-row-count'):
        'MalformedDocument: context needs exactly 3 vectors',
    ('context', 'zero-row'):
        'NotOrthonormal: vectors 1 and 1 are not orthonormal: <v1|v1> = 0j',
    ('context', 'overflowing-row'):
        'NotOrthonormal: vectors 0 and 1 are not orthonormal: <v0|v1> = (1.1547005383792517e+308+0j)',
    ('contexts', 'bool-leaf'):
        'MalformedDocument: a real part must be a finite number, got True',
    ('contexts', 'string-leaf'):
        "MalformedDocument: a real part must be a finite number, got '0.5'",
    ('contexts', 'nan-leaf'):
        'MalformedDocument: a real part must be a finite number, got nan',
    ('contexts', 'huge-int-leaf'):
        f"MalformedDocument: a real part must be a finite number, got {10**400}",
    ('contexts', 'three-element-entry'):
        'MalformedDocument: expected a number or [re, im] pair, got [1, 0, 0]',
    ('contexts', 'short-row'):
        'MalformedDocument: vector has 2 entries, expected 3',
    ('contexts', 'wrong-row-count'):
        'MalformedDocument: context needs exactly 3 vectors',
    ('contexts', 'zero-row'):
        'NotOrthonormal: vectors 1 and 1 are not orthonormal: <v1|v1> = 0j',
    ('contexts', 'overflowing-row'):
        'NotOrthonormal: vectors 0 and 1 are not orthonormal: <v0|v1> = (1.1547005383792517e+308+0j)',
    ('raymap', 'bool-leaf'):
        'MalformedDocument: a real part must be a finite number, got True',
    ('raymap', 'string-leaf'):
        "MalformedDocument: a real part must be a finite number, got '0.5'",
    ('raymap', 'nan-leaf'):
        'MalformedDocument: a real part must be a finite number, got nan',
    ('raymap', 'huge-int-leaf'):
        f"MalformedDocument: a real part must be a finite number, got {10**400}",
    ('raymap', 'three-element-entry'):
        'MalformedDocument: expected a number or [re, im] pair, got [1, 0, 0]',
    ('raymap', 'short-row'):
        'MalformedDocument: vector has 2 entries, expected 3',
    ('raymap', 'wrong-row-count'):
        'MalformedDocument: vector has 2 entries, expected 3',
    ('raymap', 'zero-row'):
        'MalformedDocument: pair 1: cannot project onto the zero vector or one whose norm overflows',
    ('raymap', 'overflowing-row'):
        'MalformedDocument: pair 1: cannot project onto the zero vector or one whose norm overflows',
    ('samples', 'bool-leaf'):
        'MalformedDocument: a real part must be a finite number, got True',
    ('samples', 'string-leaf'):
        "MalformedDocument: a real part must be a finite number, got '0.5'",
    ('samples', 'nan-leaf'):
        'MalformedDocument: a real part must be a finite number, got nan',
    ('samples', 'huge-int-leaf'):
        f"MalformedDocument: a real part must be a finite number, got {10**400}",
    ('samples', 'three-element-entry'):
        'MalformedDocument: expected a number or [re, im] pair, got [1, 0, 0]',
    ('samples', 'short-row'):
        'MalformedDocument: vector has 2 entries, expected 3',
    ('samples', 'wrong-row-count'):
        'MalformedDocument: vector has 3 entries, expected 4',
    ('samples', 'zero-row'):
        'MalformedDocument: sample 1: cannot project onto the zero vector or one whose norm overflows',
    ('samples', 'overflowing-row'):
        'MalformedDocument: sample 1: cannot project onto the zero vector or one whose norm overflows',
    ('grouped', 'bool-leaf'):
        'MalformedDocument: a real part must be a finite number, got True',
    ('grouped', 'string-leaf'):
        "MalformedDocument: a real part must be a finite number, got '0.5'",
    ('grouped', 'nan-leaf'):
        'MalformedDocument: a real part must be a finite number, got nan',
    ('grouped', 'huge-int-leaf'):
        f"MalformedDocument: a real part must be a finite number, got {10**400}",
    ('grouped', 'three-element-entry'):
        'MalformedDocument: expected a number or [re, im] pair, got [1, 0, 0]',
    ('grouped', 'short-row'):
        'MalformedDocument: vector has 2 entries, expected 3',
    ('grouped', 'wrong-row-count'):
        'MalformedDocument: vector has 3 entries, expected 2',
    ('grouped', 'zero-row'):
        'NotOrthonormal: vectors 1 and 1 are not orthonormal: <v1|v1> = 0j',
    ('grouped', 'overflowing-row'):
        'NotOrthonormal: vectors 0 and 1 are not orthonormal: <v0|v1> = (1.1547005383792517e+308+0j)',
    ('ks', 'bool-leaf'):
        'MalformedDocument: a complex entry must be a finite number, got True',
    ('ks', 'string-leaf'):
        "MalformedDocument: a complex entry must be a finite number, got '0.5'",
    ('ks', 'nan-leaf'):
        'MalformedDocument: a complex entry must be a finite number, got nan',
    ('ks', 'huge-int-leaf'):
        f"MalformedDocument: a complex entry must be a finite number, got {10**400}",
    ('ks', 'three-element-entry'):
        'MalformedDocument: expected a number or [re, im] pair, got [1, 0, 0]',
    ('ks', 'short-row'):
        'MalformedDocument: vector has 3 entries, expected 4',
    ('ks', 'wrong-row-count'):
        'MalformedDocument: basis 7 has a vector index out of range',
    ('ks', 'zero-row'):
        'MalformedDocument: vector 1 has a zero or overflowing norm',
    ('ks', 'overflowing-row'):
        'MalformedDocument: vector 1 has a zero or overflowing norm',
    ('ks', 'non-orthogonal-basis'):
        'BasisNotOrthogonal: basis 0: vectors 0 and 1 are not orthogonal (|<v0|v1>| = 1.000e-03)',
}


# reader -> its argv: READERS' and a permutation's, which has no complex rows
ARGV = {**{reader: entry[2] for reader, entry in READERS.items()}, "perm": ["perm-path", "DOC"]}


def _run(capsys, tmp_path, reader: str, doc: dict) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [str(path) if a == "DOC" else str(dataset_path(a)) if a.endswith(".json") else a
            for a in ARGV[reader]]
    assert main(argv) == 2
    return capsys.readouterr().err


def single_fault_documents():
    for reader in READERS:
        for fault, mutate in FAULTS.items():
            doc = READERS[reader][0]()
            mutate(reader, doc)
            yield reader, fault, doc
    doc = _load("ks_dim4_18vectors.json")
    doc["vectors"][0] = [0, 0, 0.001, 1]
    yield "ks", "non-orthogonal-basis", doc


def multi_fault_documents():
    """One document per reader whose faults the element-wise readers met
    in another order; the first fault of the earliest kind is reported."""
    doc = _load("density_mixed_dim3.json")  # a bad leaf in row 0, a missing row
    doc["matrix"][0][0] = True
    doc["matrix"].pop()
    yield "density", doc
    for reader in ("context", "contexts", "grouped"):  # a bad leaf in row 0, a short row 2
        doc = READERS[reader][0]()
        rows = READERS[reader][1](doc)
        rows[0][0] = "x"
        rows[2].pop()
        yield reader, doc
    doc = _load("raymap_unitary_dim3.json")  # a zero source in pair 0, a bad leaf in pair 3
    doc["pairs"][0]["source"] = [0, 0, 0]
    doc["pairs"][3]["target"][0] = None
    yield "raymap", doc
    doc = _load("gleason_demo_dim3.json")  # a zero vector in sample 0, a bad value in sample 2
    doc["samples"][0]["vector"] = [0, 0, 0]
    doc["samples"][2]["value"] = "x"
    yield "samples", doc
    doc = _load("ks_dim4_18vectors.json")  # a zero vector 0, a bad leaf in vector 3
    doc["vectors"][0] = [0, 0, 0, 0]
    doc["vectors"][3][1] = False
    yield "ks", doc
    doc = _load("ks_dim4_18vectors.json")  # a non-orthogonal basis 0, an index out of range in 5
    doc["vectors"][0] = [0, 0, 0.001, 1]
    doc["bases"][5][0] = 99
    yield "ks", doc
    doc = _load("raymap_unitary_dim3.json")  # pair 0 without a source, pair 2 not an object
    del doc["pairs"][0]["source"]
    doc["pairs"][2] = 5
    yield "raymap", doc
    doc = _load("gleason_demo_dim3.json")  # sample 0 without a value, sample 3 not an object
    del doc["samples"][0]["value"]
    doc["samples"][3] = None
    yield "samples", doc
    doc = _grouped()  # group 0 without values and with a bad leaf
    del doc["contexts"][0]["values"]
    doc["contexts"][0]["vectors"][0][0] = "x"
    yield "grouped", doc


# the line each multi-fault document prints, after the one the element-wise readers printed
MULTI = [
    # was 'MalformedDocument: a complex entry must be a finite number, got True'
    ('density', 'MalformedDocument: matrix has shape (2, 3), expected (3, 3)'),
    # was "MalformedDocument: a complex entry must be a finite number, got 'x'"
    ('context', 'MalformedDocument: vector has 2 entries, expected 3'),
    # was "MalformedDocument: a complex entry must be a finite number, got 'x'"
    ('contexts', 'MalformedDocument: vector has 2 entries, expected 3'),
    # was "MalformedDocument: a complex entry must be a finite number, got 'x'"
    ('grouped', 'MalformedDocument: vector has 2 entries, expected 3'),
    # was 'MalformedDocument: pair 0: cannot project onto the zero vector or one whose norm overflows'
    ('raymap', 'MalformedDocument: a complex entry must be a finite number, got None'),
    # was 'MalformedDocument: sample 0: cannot project onto the zero vector or one whose norm overflows'
    ('samples', "MalformedDocument: the value of sample 2 must be a finite number, got 'x'"),
    # was 'MalformedDocument: vector 0 has a zero or overflowing norm'
    ('ks', 'MalformedDocument: a complex entry must be a finite number, got False'),
    # was 'BasisNotOrthogonal: basis 0: vectors 0 and 1 are not orthogonal (|<v0|v1>| = 1.000e-03)'
    ('ks', 'MalformedDocument: basis 5 has a vector index out of range'),
    # was "MalformedDocument: missing required field 'source'"
    ('raymap', 'MalformedDocument: pair 2 must be an object'),
    # was "MalformedDocument: missing required field 'value'"
    ('samples', 'MalformedDocument: sample 3 must be an object'),
    # was "MalformedDocument: a complex entry must be a finite number, got 'x'"
    ('grouped', "MalformedDocument: missing required field 'values'"),
]


@pytest.mark.parametrize("reader,fault,doc", list(single_fault_documents()),
                         ids=[f"{r}-{f}" for r, f, _ in single_fault_documents()])
def test_single_fault_gives_the_element_wise_line(capsys, tmp_path, reader, fault, doc):
    assert _run(capsys, tmp_path, reader, doc) == f"error: {EXPECTED[reader, fault]}\n"


def test_every_reader_meets_every_fault():
    assert {r for r, _ in EXPECTED} == set(READERS)
    assert len(EXPECTED) == len(READERS) * len(FAULTS) + 1


def nonpositive_dim_documents():
    """Every reader's document with a dimension below 1: a context, a
    contexts list, a ray map, flat samples, a ks document, a density, a
    permutation (its n), grouped samples."""
    for dim in (0, -1):
        for reader in ("context", "raymap", "samples", "ks", "density"):
            doc = READERS[reader][0]()
            doc["dim"] = dim
            yield reader, dim, doc
        doc = READERS["contexts"][0]()
        doc["contexts"][0]["dim"] = dim
        yield "contexts", dim, doc
        yield "perm", dim, {"n": dim, "images": []}
    doc = _grouped()  # a group's dimension is its number of vectors
    doc["contexts"][1]["vectors"] = []
    yield "grouped", 0, doc


@pytest.mark.parametrize("reader,dim,doc", list(nonpositive_dim_documents()),
                         ids=[f"{r}-dim{d}" for r, d, _ in nonpositive_dim_documents()])
def test_context_dimension_must_be_positive(capsys, tmp_path, reader, dim, doc):
    assert (_run(capsys, tmp_path, reader, doc)
            == f"error: MalformedDocument: dimension must be positive, got {dim}\n")


@pytest.mark.parametrize("case", range(len(MULTI)))
def test_multi_fault_reports_structure_then_leaves_then_norms(capsys, tmp_path, case):
    reader, doc = list(multi_fault_documents())[case]
    assert (reader, _run(capsys, tmp_path, reader, doc)[len("error: "):-1]) == MULTI[case]
