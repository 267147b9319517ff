"""JSON readers/writers for every file format the CLI speaks.

Complex scalars serialize as two-element [re, im] arrays; bare numbers
are accepted on input as shorthand for [x, 0]. All loaders raise
MalformedDocument on structural problems so the CLI can map them to a
uniform exit code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import Context, DensityOperator, Projector, make_context
from .errors import MalformedDocument
from .gleason import FrameSample
from .linalg import DEFAULT_TOL, Tolerance
from .partition import KSInstance, load_ks_instance
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
    if isinstance(entry, (int, float)):
        return complex(float(entry), 0.0)
    try:
        re, im = entry
        return complex(float(re), float(im))
    except (TypeError, ValueError) as exc:
        raise MalformedDocument(
            f"expected a number or [re, im] pair, got {entry!r}") from exc


def vector_to_json(v: np.ndarray) -> list[list[float]]:
    return [complex_to_pair(complex(z)) for z in np.asarray(v)]


def json_to_vector(entries, dim: int | None = None) -> np.ndarray:
    if not isinstance(entries, (list, tuple)):
        raise MalformedDocument(f"expected a vector (list), got {type(entries).__name__}")
    v = np.array([pair_to_complex(e) for e in entries], dtype=np.complex128)
    if dim is not None and v.shape != (dim,):
        raise MalformedDocument(f"vector has {v.shape[0]} entries, expected {dim}")
    return v


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    return [[complex_to_pair(complex(z)) for z in row] for row in np.asarray(m)]


def json_to_matrix(rows, dim: int | None = None) -> np.ndarray:
    if not isinstance(rows, (list, tuple)) or not rows:
        raise MalformedDocument("expected a non-empty matrix (list of rows)")
    if not all(isinstance(row, (list, tuple)) for row in rows):
        raise MalformedDocument("every matrix row must be a list")
    mat = np.array([[pair_to_complex(e) for e in row] for row in rows],
                   dtype=np.complex128)
    if mat.ndim != 2:
        raise MalformedDocument("matrix rows have inconsistent lengths")
    if dim is not None and mat.shape != (dim, dim):
        raise MalformedDocument(f"matrix has shape {mat.shape}, expected ({dim}, {dim})")
    return mat


def load_json_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MalformedDocument(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument(f"{path}: top level must be an object")
    return doc


def _require(doc: dict, key: str):
    if key not in doc:
        raise MalformedDocument(f"missing required field '{key}'")
    return doc[key]


def _require_int(doc: dict, key: str) -> int:
    """An integer field: a JSON integer, never a bool, float, string or list."""
    value = _require(doc, key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedDocument(f"field '{key}' must be an integer, got {value!r}")
    return value


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
    label = str(doc.get("label", ""))
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
        return RayMap(dim=dim, pairs=tuple(pairs), covering_contexts=tuple(contexts))
    except ValueError as exc:
        raise MalformedDocument(str(exc)) from exc


def frame_samples_from_json(doc: dict,
                            tol: Tolerance = DEFAULT_TOL) -> list[FrameSample]:
    """Flat sample file {"dim", "samples": [{"vector", "value"}]} or the
    context-grouped variant (converted by pairing vectors with values)."""
    if "contexts" in doc and "samples" not in doc:
        groups = grouped_samples_from_json(doc, tol)
        return [FrameSample(projector=c.projectors[i], value=float(values[i]))
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
        try:
            value = float(_require(entry, "value"))
        except (TypeError, ValueError) as exc:
            raise MalformedDocument(f"sample {k} has a non-numeric value") from exc
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
        try:
            numbers = [float(v) for v in values]
        except (TypeError, ValueError) as exc:
            raise MalformedDocument(f"context group {k} has a non-numeric value") from exc
        groups.append((context, numbers))
    return groups


def permutation_from_json(doc: dict) -> Permutation:
    n = _require_int(doc, "n")
    images = _require(doc, "images")
    if not isinstance(images, list):
        raise MalformedDocument("'images' must be a list")
    try:
        return Permutation(n=n, images=tuple(int(i) for i in images))
    except (TypeError, ValueError) as exc:
        raise MalformedDocument(f"invalid permutation: {exc}") from exc


def ks_instance_from_json(doc: dict, tol: Tolerance = DEFAULT_TOL) -> KSInstance:
    return load_ks_instance(doc, tol)


def dataset_path(name: str) -> Path:
    """Path of a bundled dataset file."""
    return Path(__file__).parent / "datasets" / name
