"""Traced child: one ``qcontexts`` CLI invocation with spans at layer boundaries.

    python perfbench/traced.py SPANS_JSON OP_ID SPAWN_NS MEMTRACE -- CLI_ARGS...

It behaves like ``python -m qcontexts.cli CLI_ARGS...`` (same stdout,
stderr and exit code) but wraps the layer entry points that
``qcontexts.cli`` imports, plus the uhlhorn checks the certification
pipeline calls again internally. Each span records its name, start, end,
parent and operation id; spans stay in memory and are written to
SPANS_JSON at exit, together with the start-up split (interpreter, numpy
import, qcontexts import) measured from SPAWN_NS, the parent's
``time.monotonic_ns()`` just before it started this process. With
MEMTRACE=1 the first classify_transform on a map of at least
MEMTRACE_MIN_RAYS rays runs under tracemalloc, which records its peak
allocation and slows it several-fold; the parent asks for this once per
traced pass.

The parent aggregates the files with ``pass_metrics``.
"""

import time

_T_START = time.monotonic_ns()

import functools  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from math import comb  # noqa: E402

# name imported by qcontexts.cli -> layer
ENTRY_POINTS = {
    "load_json_file": "jsonio",
    "density_from_json": "jsonio",
    "context_from_json": "jsonio",
    "contexts_from_json": "jsonio",
    "frame_samples_from_json": "jsonio",
    "ray_map_from_json": "jsonio",
    "ks_instance_from_json": "jsonio",
    "permutation_from_json": "jsonio",
    "repeat_simulation": "core",
    "context_distribution": "core",
    "reconstruct_density": "gleason",
    "born_case_check": "gleason",
    "check_orthogonality_preserving": "uhlhorn",
    "classify_transform": "uhlhorn",
    "fit_transform": "uhlhorn",
    "search_assignment": "partition",
    "unitary_path_to_identity": "topology",
}
# entry points also called from inside their own module
NESTED = {"uhlhorn": ("check_orthogonality_preserving", "classify_transform")}
# ray maps at least this large may get one classify_transform under tracemalloc
MEMTRACE_MIN_RAYS = 200


def _attrs_before(name: str, args) -> dict:
    if name in ("check_orthogonality_preserving", "classify_transform", "fit_transform"):
        return {"k": len(args[0].pairs)}
    if name == "reconstruct_density":
        return {"n": args[0][0].projector.dim}
    return {}


def _attrs_after(name: str, result) -> dict:
    if name == "repeat_simulation":
        return {"runs": len(result), "steps": sum(len(r) for r in result)}
    if name == "reconstruct_density":
        return {"rank": result.design_rank, "cond": result.condition_number}
    if name == "search_assignment":
        return {"nodes": result.nodes_explored}
    return {}


class Tracer:
    def __init__(self, op_id: str, memtrace: bool):
        self.op_id = op_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.memtrace_pending = memtrace
        self.memtracing = False

    def wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = _attrs_before(name, args)
            span = {"id": len(self.spans), "name": f"{layer}.{name}", "layer": layer,
                    "op": self.op_id, "parent": self.stack[-1] if self.stack else None,
                    "start_ns": 0, "end_ns": 0, "projectors": 0, "attrs": attrs}
            memtrace = (name == "classify_transform" and self.memtrace_pending
                        and attrs["k"] >= MEMTRACE_MIN_RAYS)
            if self.memtracing or memtrace:
                attrs["memtraced"] = True
            self.spans.append(span)
            self.stack.append(span["id"])
            if memtrace:
                self.memtracing, self.memtrace_pending = True, False
                tracemalloc.start()
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                attrs["error"] = True
                raise
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self.stack.pop()
                if memtrace:
                    attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.memtracing = False
            attrs.update(_attrs_after(name, result))
            return result
        return wrapper

    def count_projector(self) -> None:
        if self.stack:
            self.spans[self.stack[-1]]["projectors"] += 1


def _run(out_path: str, op_id: str, spawn_ns: int, memtrace: bool, argv: list[str]) -> int:
    startup = {"interpreter_ms": (_T_START - spawn_ns) / 1e6}
    t = time.monotonic_ns()
    import numpy  # noqa: F401
    startup["numpy_import_ms"] = (time.monotonic_ns() - t) / 1e6
    t = time.monotonic_ns()
    import qcontexts.cli as cli
    from qcontexts import core
    startup["qcontexts_import_ms"] = (time.monotonic_ns() - t) / 1e6

    tracer = Tracer(op_id, memtrace)
    modules = {"uhlhorn": sys.modules["qcontexts.uhlhorn"]}
    for name, layer in ENTRY_POINTS.items():
        wrapped = tracer.wrap(name, layer, getattr(cli, name))
        setattr(cli, name, wrapped)
        if name in NESTED.get(layer, ()):
            setattr(modules[layer], name, wrapped)
    post_init = core.Projector.__post_init__

    def counted_post_init(self):
        tracer.count_projector()
        post_init(self)

    core.Projector.__post_init__ = counted_post_init
    main = tracer.wrap("main", "cli", cli.main)
    try:
        return main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"op": op_id, "startup": startup, "spans": tracer.spans}, fh)


# ---------------------------------------------------------- aggregation

def per_layer_names(gleason_dims, certify_sizes) -> list[str]:
    """Every per-layer metric, in report order."""
    return (["startup.interpreter_ms", "startup.numpy_import_ms", "startup.qcontexts_import_ms",
             "cli.self_ms", "jsonio.load_ms", "jsonio.projectors_built",
             "core.simulate_ms", "core.runs", "core.steps_per_s"]
            + [f"gleason.reconstruct_ms.n{n}" for n in gleason_dims]
            + ["gleason.born_case_check_ms", "gleason.design_rank", "gleason.condition_number"]
            + [f"uhlhorn.{part}_ms.k{k}" for part in ("check", "classify", "fit")
               for k in certify_sizes]
            + ["uhlhorn.triples", f"uhlhorn.classify_peak_mb.k{max(certify_sizes)}",
               "partition.search_ms", "partition.nodes", "partition.nodes_per_ms",
               "partition.errors", "topology.path_ms"])


# spans whose self time is summed over the pass into one metric
_TOTALS = {"cli.main": "cli.self_ms", "core.repeat_simulation": "core.simulate_ms",
           "gleason.born_case_check": "gleason.born_case_check_ms",
           "partition.search_assignment": "partition.search_ms",
           "topology.unitary_path_to_identity": "topology.path_ms"}


def _self_ms(spans: list[dict]) -> list[float]:
    """Duration minus the time direct children cover, per span, in ms."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    return [(s["end_ns"] - s["start_ns"] - c) / 1e6 for s, c in zip(spans, child_ns)]


def pass_metrics(traces: list[dict], gleason_dims, certify_sizes) -> dict[str, float]:
    """Per-layer metrics of one traced pass (one trace document per op).

    Times without a size suffix are totals over the pass; times with one
    (``.n3``, ``.k210``) are the median per call of that size, leaving out
    calls slowed by tracemalloc. Layers the workload never reaches read 0.
    """
    m = dict.fromkeys(per_layer_names(gleason_dims, certify_sizes), 0)
    for key in ("interpreter_ms", "numpy_import_ms", "qcontexts_import_ms"):
        m[f"startup.{key}"] = statistics.median(t["startup"][key] for t in traces)
    per_call: dict[str, list[float]] = {}
    simulate_steps = 0
    search_ok_ms = 0.0
    for trace in traces:
        spans = trace["spans"]
        for s, ms in zip(spans, _self_ms(spans)):
            name, a = s["name"], s["attrs"]
            if name in _TOTALS:
                m[_TOTALS[name]] += ms
            if s["layer"] == "jsonio":
                m["jsonio.load_ms"] += ms
                m["jsonio.projectors_built"] += s["projectors"]
            if name == "core.repeat_simulation":
                m["core.runs"] += a["runs"]
                simulate_steps += a["steps"]
            elif name == "gleason.reconstruct_density":
                per_call.setdefault(f"gleason.reconstruct_ms.n{a['n']}", []).append(ms)
                m["gleason.design_rank"] += a["rank"]
                m["gleason.condition_number"] = max(m["gleason.condition_number"], a["cond"])
            elif s["layer"] == "uhlhorn":
                part = name.split(".")[1].split("_")[0]  # check / classify / fit
                if not a.get("memtraced"):
                    per_call.setdefault(f"uhlhorn.{part}_ms.k{a['k']}", []).append(ms)
                if part == "classify":
                    m["uhlhorn.triples"] += comb(a["k"], 3)
                    if "peak_mb" in a:
                        key = f"uhlhorn.classify_peak_mb.k{a['k']}"
                        m[key] = max(m.get(key, 0), a["peak_mb"])
            elif name == "partition.search_assignment":
                if a.get("error"):
                    m["partition.errors"] += 1
                else:
                    m["partition.nodes"] += a["nodes"]
                    search_ok_ms += ms
    for key, values in per_call.items():
        if key in m:
            m[key] = statistics.median(values)
    if m["core.simulate_ms"]:
        m["core.steps_per_s"] = simulate_steps / (m["core.simulate_ms"] / 1e3)
    if search_ok_ms:
        m["partition.nodes_per_ms"] = m["partition.nodes"] / search_ok_ms
    return {k: m[k] for k in per_layer_names(gleason_dims, certify_sizes)}


if __name__ == "__main__":
    sep = sys.argv.index("--")
    out_path, op_id, spawn_ns, memtrace = sys.argv[1:sep]
    sys.exit(_run(out_path, op_id, int(spawn_ns), memtrace == "1", sys.argv[sep + 1:]))
