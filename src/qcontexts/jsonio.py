"""JSON readers/writers for every file format the CLI speaks.

This is the only module that reads documents. Every scalar field is
read by one rule:

- a number is a JSON int or float, never a bool or a string, and finite;
- a complex entry is a number or an [re, im] pair of numbers (a bare
  number is shorthand for [x, 0]); complex_to_json writes any complex
  scalar or array as [re, im] pairs, nested as its axes, in one pass;
- an integer field (dim, n, permutation images, basis indices) is a
  JSON int, never a bool;
- a label is a JSON string.

Each complex field becomes an array in one bulk conversion; the
element-wise rule runs only to name the first bad entry. Each part of a
document is read structure first, then its leaves, then its row norms
(linalg.unit_rows keeps a row unit to rounding, so what the writers emit
reads back bit for bit), and the first fault of the earliest kind is reported.

All loaders raise MalformedDocument on structural problems so the CLI
can map them to a uniform exit code.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from . import linalg
from .core import Context, DensityOperator, Projector, make_context
from .errors import BasisNotOrthogonal, MalformedDocument
from .gleason import FrameSample
from .linalg import DEFAULT_TOL, Tolerance, first_repeated_ray, unit_rows
from .partition import KSInstance
from .topology import Permutation
from .uhlhorn import RayMap

__all__ = [
    "complex_to_json",
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


def complex_to_json(a) -> list:
    """A complex scalar or array as nested lists ending in [re, im] pairs of floats."""
    return np.stack([a.real, a.imag], -1).tolist()


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


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise MalformedDocument(f"dimension must be positive, got {dim}")


def _objects(doc: dict, key: str, item: str, fields: tuple[str, ...]) -> list[tuple]:
    """The required fields of every entry of doc[key], a non-empty list of
    objects: the list is checked first, then every entry's type, then the
    fields, entry by entry."""
    entries = _require(doc, key)
    if not isinstance(entries, list) or not entries:
        raise MalformedDocument(f"'{key}' must be a non-empty list")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise MalformedDocument(f"{item} {k} must be an object")
    return [tuple(_require(entry, field) for field in fields) for entry in entries]


def _int(value, what: str) -> int:
    """An integer: a JSON int, never a bool, float, string or list."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise MalformedDocument(f"{what} must be an integer, got {value!r}")


def _number(value, what: str) -> float:
    """A number: a JSON int or float, never a bool or string, and finite."""
    if type(value) in (int, float):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise MalformedDocument(f"{what} must be a finite number, got {value!r}")


def _complex_array(rows, shape: tuple[int, ...]) -> np.ndarray:
    """The complex array of the given shape whose vectors of shape[-1]
    entries rows lists in order. The row lengths are checked before any
    array is made, so no array is sized by a claimed dim alone."""
    for row in rows:
        if not isinstance(row, (list, tuple)):
            raise MalformedDocument(f"expected a vector (list), got {type(row).__name__}")
        if len(row) != shape[-1]:
            raise MalformedDocument(f"vector has {len(row)} entries, expected {shape[-1]}")
    entries = [e for row in rows for e in row]
    pairs = [e if isinstance(e, (list, tuple)) else (e, 0.0) for e in entries]
    leaf_types = set(map(type, chain.from_iterable(pairs)))
    if all(len(p) == 2 for p in pairs) and leaf_types <= {int, float}:
        try:
            parts = np.array(pairs, dtype=float)
            if np.isfinite(parts).all():
                return parts.view(np.complex128).reshape(shape)
        except OverflowError:  # an int beyond the float range, named below
            pass
    for e in entries:  # the element-wise rule names the first bad entry
        if not isinstance(e, (list, tuple)):
            _number(e, "a complex entry")
        elif len(e) != 2:
            raise MalformedDocument(f"expected a number or [re, im] pair, got {e!r}")
        else:
            _number(e[0], "a real part")
            _number(e[1], "an imaginary part")
    raise AssertionError("the bulk and the element-wise rule disagree")


def _label(value, what: str) -> str:
    """A label: a JSON string."""
    if isinstance(value, str):
        return value
    raise MalformedDocument(f"{what} must be a string, got {value!r}")


def context_to_json(c: Context) -> dict:
    return {
        "dim": c.dim,
        "label": c.label,
        "vectors": complex_to_json(c.vectors),
    }


def context_from_json(doc: dict, tol: Tolerance = DEFAULT_TOL) -> Context:
    if not isinstance(doc, dict):
        raise MalformedDocument(f"a context must be an object, got {type(doc).__name__}")
    dim = _require_int(doc, "dim")
    label = _label(doc.get("label", ""), "a context label")
    raw = _require(doc, "vectors")
    _check_dim(dim)
    if not isinstance(raw, list) or len(raw) != dim:
        raise MalformedDocument(f"context needs exactly {dim} vectors")
    return make_context(_complex_array(raw, (dim, dim)), label=label, tol=tol)


def contexts_from_json(doc: dict, tol: Tolerance = DEFAULT_TOL) -> list[Context]:
    """Accept either one context object or {"contexts": [...]}."""
    if "contexts" in doc:
        entries = doc["contexts"]
        if not isinstance(entries, list) or not entries:
            raise MalformedDocument("'contexts' must be a non-empty list")
        return [context_from_json(e, tol) for e in entries]
    return [context_from_json(doc, tol)]


def density_to_json(rho: DensityOperator) -> dict:
    return {"dim": rho.dim, "matrix": complex_to_json(rho.matrix)}


def density_from_json(doc: dict, tol: Tolerance = DEFAULT_TOL) -> DensityOperator:
    dim = _require_int(doc, "dim")
    rows = _require(doc, "matrix")
    _check_dim(dim)
    if not isinstance(rows, (list, tuple)) or not rows:
        raise MalformedDocument("expected a non-empty matrix (list of rows)")
    if not all(isinstance(row, (list, tuple)) and len(row) == len(rows[0]) for row in rows):
        raise MalformedDocument("matrix rows must be lists of one length")
    if (len(rows), len(rows[0])) != (dim, dim):
        raise MalformedDocument(
            f"matrix has shape {(len(rows), len(rows[0]))}, expected ({dim}, {dim})")
    mat = _complex_array(rows, (dim, dim))
    try:
        return DensityOperator.from_matrix(mat, tol)
    except ValueError as exc:
        raise MalformedDocument(f"invalid density matrix: {exc}") from exc


def ray_map_to_json(m: RayMap) -> dict:
    return {
        "dim": m.dim,
        "pairs": [{"source": s, "target": t} for s, t in
                  zip(complex_to_json(m.source_vectors), complex_to_json(m.target_vectors))],
    }


def ray_map_from_json(doc: dict, tol: Tolerance = DEFAULT_TOL) -> RayMap:
    """{"dim", "pairs": [{"source", "target"}]}; other keys are ignored."""
    dim = _require_int(doc, "dim")
    pairs = _objects(doc, "pairs", "pair", ("source", "target"))
    _check_dim(dim)
    vectors = _complex_array([row for pair in pairs for row in pair], (len(pairs), 2, dim))
    try:  # RayMap checks the row norms
        return RayMap(dim, vectors[:, 0], vectors[:, 1], tol)
    except ValueError as exc:
        raise MalformedDocument(str(exc)) from exc


def frame_samples_from_json(doc: dict,
                            tol: Tolerance = DEFAULT_TOL) -> list[FrameSample]:
    """Flat sample file {"dim", "samples": [{"vector", "value"}]} or the
    context-grouped variant (converted by pairing vectors with values)."""
    if "contexts" in doc and "samples" not in doc:
        groups = grouped_samples_from_json(doc, tol)
        return [FrameSample(c.projectors[i], values[i], tol)
                for c, values in groups for i in range(c.dim)]
    dim = _require_int(doc, "dim")
    rows, values = zip(*_objects(doc, "samples", "sample", ("vector", "value")))
    _check_dim(dim)
    v = _complex_array(rows, (len(rows), dim))
    values = [_number(x, f"the value of sample {k}") for k, x in enumerate(values)]
    unit = unit_rows(v, tol, lambda k: MalformedDocument(
        f"sample {k}: cannot project onto the zero vector or one whose norm overflows"))
    return [FrameSample(Projector(row), value, tol) for row, value in zip(unit, values)]


def grouped_samples_from_json(doc: dict, tol: Tolerance = DEFAULT_TOL
                              ) -> list[tuple[Context, list[float]]]:
    entries = _objects(doc, "contexts", "context group", ("vectors", "values"))
    groups = []
    for k, (vectors, values) in enumerate(entries):
        if not isinstance(vectors, list):
            raise MalformedDocument(f"context group {k}: 'vectors' must be a list")
        label = doc["contexts"][k].get("label", f"group-{k}")
        context = context_from_json({"dim": len(vectors), "label": label, "vectors": vectors}, tol)
        if not isinstance(values, list) or len(values) != context.dim:
            raise MalformedDocument(
                f"context group {k} needs exactly {context.dim} values")
        groups.append((context, [_number(v, f"a value of context group {k}") for v in values]))
    return groups


def permutation_from_json(doc: dict) -> Permutation:
    n = _require_int(doc, "n")
    images = _require(doc, "images")
    _check_dim(n)
    if not isinstance(images, list):
        raise MalformedDocument("'images' must be a list")
    try:
        return Permutation(n=n, images=tuple(_int(i, "a permutation image") for i in images))
    except ValueError as exc:
        raise MalformedDocument(f"invalid permutation: {exc}") from exc


def ks_instance_from_json(doc: dict, tol: Tolerance = DEFAULT_TOL) -> KSInstance:
    """Vector-system document {"dim", "vectors", "bases"}.

    Each vector is made a unit ray by linalg.unit_rows. Every basis must
    list dim distinct vector indices and be pairwise orthogonal (the first
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
    _check_dim(dim)
    if not isinstance(raw_vectors, list) or not isinstance(raw_bases, list):
        raise MalformedDocument("'vectors' and 'bases' must be lists")
    if not raw_vectors or not raw_bases:
        raise MalformedDocument("instance needs at least one vector and one basis")

    vectors = unit_rows(_complex_array(raw_vectors, (len(raw_vectors), dim)), tol,
                        lambda k: MalformedDocument(f"vector {k} has a zero or overflowing norm"))

    bases = []
    for b, basis in enumerate(raw_bases):
        if not isinstance(basis, list) or len(basis) != dim:
            raise MalformedDocument(f"basis {b} must be a list of {dim} vector indices")
        idx = tuple(_int(i, f"a vector index of basis {b}") for i in basis)
        if not all(0 <= i < len(vectors) for i in idx):
            raise MalformedDocument(f"basis {b} has a vector index out of range")
        if len(set(idx)) != dim:
            raise MalformedDocument(f"basis {b} repeats a vector index")
        bases.append(idx)
    i, j = np.triu_indices(dim, 1)  # the pairs of a basis in combinations order
    for s in linalg.row_blocks(len(bases), dim * dim):  # bases per batched Gram
        block = vectors[np.array(bases[s])]
        overlaps = linalg.overlap_moduli(block)[:, i, j]
        hits = np.argwhere(overlaps > tol.abs_eps)  # in (basis, pair) order
        if hits.size:
            (b, p), a = hits[0], s.start
            basis = bases[a + b]
            raise BasisNotOrthogonal(a + int(b), basis[i[p]], basis[j[p]], float(overlaps[b, p]))

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
