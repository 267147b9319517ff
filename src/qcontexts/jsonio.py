"""JSON readers/writers for every file format the CLI speaks.

This is the only module that reads documents. Every scalar field is
read by one rule:

- a number is a JSON int or float, never a bool or a string, and finite;
- a complex entry is a number or an [re, im] pair of numbers (complex
  scalars serialize as [re, im]; a bare number is shorthand for [x, 0]);
- an integer field (dim, n, permutation images, basis indices) is a
  JSON int, never a bool;
- a label is a JSON string.

All loaders raise MalformedDocument on structural problems so the CLI
can map them to a uniform exit code.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

from .core import Context, DensityOperator, Projector, make_context
from .errors import BasisNotOrthogonal, MalformedDocument
from .gleason import FrameSample
from .linalg import DEFAULT_TOL, Tolerance, first_repeated_ray
from .partition import KSInstance
from .topology import Permutation
from .uhlhorn import RayMap

__all__ = [
    "complex_to_pair",
    "pair_to_complex",
    "vector_to_json",
    "json_to_vector",
    "matrix_to_json",
    "json_to_matrix",
    "load_json_file",
    "context_to_json",
    "context_from_json",
    "contexts_from_json",
    "density_to_json",
    "density_from_json",
    "ray_map_from_json",
    "ray_map_to_json",
    "frame_samples_from_json",
    "grouped_samples_from_json",
    "permutation_from_json",
    "ks_instance_from_json",
]


def complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def pair_to_complex(entry) -> complex:
    """A complex entry: a number, or an [re, im] pair of numbers."""
    if not isinstance(entry, (list, tuple)):
        return complex(_number(entry, "a complex entry"), 0.0)
    if len(entry) != 2:
        raise MalformedDocument(f"expected a number or [re, im] pair, got {entry!r}")
    return complex(_number(entry[0], "a real part"), _number(entry[1], "an imaginary part"))


def vector_to_json(v: np.ndarray) -> list[list[float]]:
    return [complex_to_pair(complex(z)) for z in np.asarray(v)]


def json_to_vector(entries, dim: int | None = None) -> np.ndarray:
    if not isinstance(entries, (list, tuple)):
        raise MalformedDocument(f"expected a vector (list), got {type(entries).__name__}")
    if dim is not None and len(entries) != dim:
        raise MalformedDocument(f"vector has {len(entries)} entries, expected {dim}")
    return np.array([pair_to_complex(e) for e in entries], dtype=np.complex128)


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    return [[complex_to_pair(complex(z)) for z in row] for row in np.asarray(m)]


def json_to_matrix(rows, dim: int | None = None) -> np.ndarray:
    if not isinstance(rows, (list, tuple)) or not rows:
        raise MalformedDocument("expected a non-empty matrix (list of rows)")
    if not all(isinstance(row, (list, tuple)) and len(row) == len(rows[0]) for row in rows):
        raise MalformedDocument("matrix rows must be lists of one length")
    mat = np.array([[pair_to_complex(e) for e in row] for row in rows],
                   dtype=np.complex128)
    if dim is not None and mat.shape != (dim, dim):
        raise MalformedDocument(f"matrix has shape {mat.shape}, expected ({dim}, {dim})")
    return mat


def load_json_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MalformedDocument(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, huge int
        raise MalformedDocument(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument(f"{path}: top level must be an object")
    return doc


def _require(doc: dict, key: str):
    if key not in doc:
        raise MalformedDocument(f"missing required field '{key}'")
    return doc[key]


def _require_int(doc: dict, key: str) -> int:
    return _int(_require(doc, key), f"field '{key}'")


def _int(value, what: str) -> int:
    """An integer: a JSON int, never a bool, float, string or list."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise MalformedDocument(f"{what} must be an integer, got {value!r}")


def _number(value, what: str) -> float:
    """A number: a JSON int or float, never a bool or string, and finite."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise MalformedDocument(f"{what} must be a finite number, got {value!r}")


def _label(value, what: str) -> str:
    """A label: a JSON string."""
    if isinstance(value, str):
        return value
    raise MalformedDocument(f"{what} must be a string, got {value!r}")


def context_to_json(c: Context) -> dict:
    return {
        "dim": c.dim,
        "label": c.label,
        "vectors": [vector_to_json(v) for v in c.basis.T],
    }


def context_from_json(doc: dict, tol: Tolerance = DEFAULT_TOL) -> Context:
    if not isinstance(doc, dict):
        raise MalformedDocument(f"a context must be an object, got {type(doc).__name__}")
    dim = _require_int(doc, "dim")
    label = _label(doc.get("label", ""), "a context label")
    raw = _require(doc, "vectors")
    if not isinstance(raw, list) or len(raw) != dim:
        raise MalformedDocument(f"context needs exactly {dim} vectors")
    vectors = [json_to_vector(v, dim) for v in raw]
    return make_context(vectors, label=label, tol=tol)


def contexts_from_json(doc: dict, tol: Tolerance = DEFAULT_TOL) -> list[Context]:
    """Accept either one context object or {"contexts": [...]}."""
    if "contexts" in doc:
        entries = doc["contexts"]
        if not isinstance(entries, list) or not entries:
            raise MalformedDocument("'contexts' must be a non-empty list")
        return [context_from_json(e, tol) for e in entries]
    return [context_from_json(doc, tol)]


def density_to_json(rho: DensityOperator) -> dict:
    return {"dim": rho.dim, "matrix": matrix_to_json(rho.matrix)}


def density_from_json(doc: dict, tol: Tolerance = DEFAULT_TOL) -> DensityOperator:
    dim = _require_int(doc, "dim")
    mat = json_to_matrix(_require(doc, "matrix"), dim)
    try:
        return DensityOperator.from_matrix(mat, tol)
    except ValueError as exc:
        raise MalformedDocument(f"invalid density matrix: {exc}") from exc


def ray_map_to_json(m: RayMap) -> dict:
    return {
        "dim": m.dim,
        "pairs": [
            {"source": vector_to_json(s.vector), "target": vector_to_json(t.vector)}
            for s, t in m.pairs
        ],
        "covering_contexts": [
            {"label": c.label, "vectors": [vector_to_json(v) for v in c.basis.T]}
            for c in m.covering_contexts
        ],
    }


def ray_map_from_json(doc: dict, tol: Tolerance = DEFAULT_TOL) -> RayMap:
    """Covering contexts may be inline objects, bare vector lists, or
    labels resolved against an optional top-level "contexts" table."""
    dim = _require_int(doc, "dim")
    raw_pairs = _require(doc, "pairs")
    if not isinstance(raw_pairs, list) or not raw_pairs:
        raise MalformedDocument("'pairs' must be a non-empty list")
    pairs = []
    for k, entry in enumerate(raw_pairs):
        if not isinstance(entry, dict):
            raise MalformedDocument(f"pair {k} must be an object")
        try:
            src = Projector.from_vector(json_to_vector(_require(entry, "source"), dim), tol)
            tgt = Projector.from_vector(json_to_vector(_require(entry, "target"), dim), tol)
        except ValueError as exc:
            raise MalformedDocument(f"pair {k}: {exc}") from exc
        pairs.append((src, tgt))

    table = doc.get("contexts", {})
    covering = doc.get("covering_contexts", [])
    if not isinstance(table, dict) or not isinstance(covering, list):
        raise MalformedDocument(
            "'contexts' must be an object and 'covering_contexts' a list")
    contexts = []
    for k, entry in enumerate(covering):
        if isinstance(entry, str):
            if entry not in table:
                raise MalformedDocument(
                    f"covering context '{entry}' not found in the 'contexts' table")
            contexts.append(context_from_json(
                {"dim": dim, "label": entry, "vectors": table[entry]}, tol))
        elif isinstance(entry, dict):
            entry = dict(entry)
            entry.setdefault("dim", dim)
            contexts.append(context_from_json(entry, tol))
        elif isinstance(entry, list):
            contexts.append(context_from_json(
                {"dim": dim, "label": f"covering-{k}", "vectors": entry}, tol))
        else:
            raise MalformedDocument(f"covering context {k} has unsupported type")
    try:
        return RayMap(dim=dim, pairs=tuple(pairs), covering_contexts=tuple(contexts), tol=tol)
    except ValueError as exc:
        raise MalformedDocument(str(exc)) from exc


def frame_samples_from_json(doc: dict,
                            tol: Tolerance = DEFAULT_TOL) -> list[FrameSample]:
    """Flat sample file {"dim", "samples": [{"vector", "value"}]} or the
    context-grouped variant (converted by pairing vectors with values)."""
    if "contexts" in doc and "samples" not in doc:
        groups = grouped_samples_from_json(doc, tol)
        return [FrameSample(projector=c.projectors[i], value=values[i])
                for c, values in groups for i in range(c.dim)]
    dim = _require_int(doc, "dim")
    raw = _require(doc, "samples")
    if not isinstance(raw, list) or not raw:
        raise MalformedDocument("'samples' must be a non-empty list")
    samples = []
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise MalformedDocument(f"sample {k} must be an object")
        vec = json_to_vector(_require(entry, "vector"), dim)
        value = _number(_require(entry, "value"), f"the value of sample {k}")
        try:
            samples.append(FrameSample(Projector.from_vector(vec, tol), value))
        except ValueError as exc:
            raise MalformedDocument(f"sample {k}: {exc}") from exc
    return samples


def grouped_samples_from_json(doc: dict, tol: Tolerance = DEFAULT_TOL
                              ) -> list[tuple[Context, list[float]]]:
    entries = _require(doc, "contexts")
    if not isinstance(entries, list) or not entries:
        raise MalformedDocument("'contexts' must be a non-empty list")
    groups = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise MalformedDocument(f"context group {k} must be an object")
        vectors = _require(entry, "vectors")
        if not isinstance(vectors, list):
            raise MalformedDocument(f"context group {k}: 'vectors' must be a list")
        entry_ctx = {"dim": len(vectors), "label": entry.get("label", f"group-{k}"),
                     "vectors": vectors}
        context = context_from_json(entry_ctx, tol)
        values = _require(entry, "values")
        if not isinstance(values, list) or len(values) != context.dim:
            raise MalformedDocument(
                f"context group {k} needs exactly {context.dim} values")
        groups.append((context, [_number(v, f"a value of context group {k}") for v in values]))
    return groups


def permutation_from_json(doc: dict) -> Permutation:
    n = _require_int(doc, "n")
    images = _require(doc, "images")
    if not isinstance(images, list):
        raise MalformedDocument("'images' must be a list")
    try:
        return Permutation(n=n, images=tuple(_int(i, "a permutation image") for i in images))
    except ValueError as exc:
        raise MalformedDocument(f"invalid permutation: {exc}") from exc


def ks_instance_from_json(doc: dict, tol: Tolerance = DEFAULT_TOL) -> KSInstance:
    """Vector-system document {"dim", "vectors", "bases"}.

    Each vector is divided by its own norm. Every basis must list dim
    distinct vector indices and be pairwise orthogonal (the first
    offending basis and pair is reported), every vector must belong to at
    least one basis, and no two vectors may be the same ray
    (linalg.first_repeated_ray at tol.abs_eps, the rule RayMap applies to
    its sources and targets). A repeated ray would become two independent
    variables of the search.
    """
    if not isinstance(doc, dict):
        raise MalformedDocument("instance document must be an object")
    dim = _require_int(doc, "dim")
    raw_vectors = _require(doc, "vectors")
    raw_bases = _require(doc, "bases")
    if dim < 1:
        raise MalformedDocument(f"dimension must be positive, got {dim}")
    if not isinstance(raw_vectors, list) or not isinstance(raw_bases, list):
        raise MalformedDocument("'vectors' and 'bases' must be lists")
    if not raw_vectors or not raw_bases:
        raise MalformedDocument("instance needs at least one vector and one basis")

    zero = tol.bound()
    rows = []  # no array is sized by dim before the entries are counted
    with np.errstate(over="ignore"):  # finite entries may overflow the norm
        for m, entries in enumerate(raw_vectors):
            v = json_to_vector(entries, dim)
            norm = np.linalg.norm(v)
            if not zero < norm < math.inf:
                raise MalformedDocument(f"vector {m} has a zero or overflowing norm")
            rows.append(v / norm)
    vectors = np.array(rows)

    bases = []
    for b, basis in enumerate(raw_bases):
        if not isinstance(basis, list) or len(basis) != dim:
            raise MalformedDocument(f"basis {b} must be a list of {dim} vector indices")
        idx = tuple(_int(i, f"a vector index of basis {b}") for i in basis)
        if not all(0 <= i < len(vectors) for i in idx):
            raise MalformedDocument(f"basis {b} has a vector index out of range")
        if len(set(idx)) != dim:
            raise MalformedDocument(f"basis {b} repeats a vector index")
        for i, j in combinations(idx, 2):
            overlap = abs(complex(np.vdot(vectors[i], vectors[j])))
            if overlap > zero:
                raise BasisNotOrthogonal(b, i, j, overlap)
        bases.append(idx)

    missing = sorted(set(range(len(vectors))) - {i for basis in bases for i in basis})
    if missing:
        raise MalformedDocument(f"vectors {missing} belong to no basis")
    repeated = first_repeated_ray(vectors, tol.abs_eps)
    if repeated is not None:
        raise MalformedDocument("vectors %d and %d are the same ray" % repeated)
    vectors.flags.writeable = False
    return KSInstance(dim=dim, vectors=vectors, bases=tuple(bases))


def dataset_path(name: str) -> Path:
    """Path of a bundled dataset file."""
    return Path(__file__).parent / "datasets" / name
