"""Layering guards: what the CLI loads, its BLAS thread policy, its frozen
import heap, how records are built, which module reads documents, the
one function that evaluates Born's rule, the one distance between rays,
the one Gram product of a ray-map certification and contexts read as rows."""

import ast
import gc
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qcontexts
import qcontexts.cli
from helpers import golden_cases

SRC = Path(qcontexts.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _env(**settings: str) -> dict:
    """The test's environment without the BLAS thread variables, plus settings."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return dict(env, PYTHONPATH=str(SRC.parent), **settings)


def _probe(code: str, **settings: str) -> str:
    """Run code in a fresh interpreter and return its stripped stdout."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(**settings), check=True)
    return proc.stdout.strip()


def test_cli_import_leaves_sampling_unloaded():
    assert _probe("import sys, qcontexts.cli; print('qcontexts.sampling' in sys.modules)") \
        == "False"


def test_sampling_loads_core_and_no_engine():
    engines = ("uhlhorn", "jsonio", "gleason", "partition", "topology")
    probe = ("import sys, qcontexts.sampling as s; "
             f"print(sorted(m for m in {engines} if 'qcontexts.' + m in sys.modules), s.__all__)")
    assert _probe(probe) == ("[] ['random_unitary', 'random_state_vector', 'random_context', "
                             "'random_density']")


def test_package_import_leaves_numpy_unloaded():
    assert _probe("import sys, qcontexts; print('numpy' in sys.modules)") == "False"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_cli_runs_one_blas_thread_by_default():
    probe = ("import os, qcontexts.cli; "
             "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))")
    assert _probe(probe) == "1 1"


@pytest.mark.parametrize("var", BLAS_THREAD_VARS)
def test_cli_keeps_a_user_thread_setting(var):
    probe = "import os, qcontexts.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    expected = "2" if var == "OPENBLAS_NUM_THREADS" else "None"
    assert _probe(probe, **{var: "2"}) == expected


def test_cli_import_after_numpy_leaves_the_environment_alone():
    probe = ("import os, numpy; before = dict(os.environ); import qcontexts.cli; "
             "print(dict(os.environ) == before)")
    assert _probe(probe) == "True"


@pytest.mark.parametrize("name, argv", sorted(golden_cases().items()))
def test_output_does_not_depend_on_blas_threads(name, argv):
    # a program that imports numpy before the CLI keeps the inherited threads,
    # so one and two threads must print the same bytes
    procs = [subprocess.Popen([sys.executable, "-m", "qcontexts.cli", *argv],
                              stdout=subprocess.PIPE, env=_env(OPENBLAS_NUM_THREADS=n))
             for n in ("1", "2")]
    (one, _), (two, _) = (p.communicate(timeout=60) for p in procs)
    assert one == two and one
    assert procs[0].returncode == procs[1].returncode == 0


def test_only_jsonio_raises_malformed_document():
    raisers = sorted(p.name for p in SRC.glob("*.py")
                     if re.search(r"(?<!class )MalformedDocument\(", p.read_text(encoding="utf-8")))
    assert raisers == ["jsonio.py"]


RECORDS = {"UnitaryCheck", "FrameValidation", "ReconstructionReport", "ParityCertificate",
           "AssignmentResult", "ObstructionResult", "PathReport", "OrthogonalityCheck",
           "TransformClassification", "FitResult"}
VALUE_TYPES = {"Tolerance", "Projector", "Context", "DensityOperator", "ContextTransform",
               "FrameSample", "KSInstance", "Permutation", "RayMap"}


def test_no_record_type_is_a_dataclass():
    # dataclass compiles each class's methods with exec at every import
    import qcontexts.sampling  # noqa: F401 - the one module the CLI does not load
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qcontexts"]
    classes = [c for m in modules for c in vars(m).values()
               if inspect.isclass(c) and c.__module__ == m.__name__]
    assert RECORDS | VALUE_TYPES <= {c.__name__ for c in classes}
    assert all(issubclass(c, tuple) for c in classes if c.__name__ in RECORDS)
    assert [c.__name__ for c in classes if hasattr(c, "__dataclass_fields__")] == []
    assert not [p.name for p in SRC.glob("*.py")
                if re.search(r"^\s*(from|import) dataclasses", p.read_text(encoding="utf-8"), re.M)]


def test_main_leaves_the_callers_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert qcontexts.cli.main(["perm-path", str(SRC / "datasets" / "perm_4cycle_n4.json")]) == 0
    assert gc.get_freeze_count() == before


def test_process_entry_freezes_the_import_heap():
    # `python -m qcontexts.cli` as runpy runs it; --version exits inside main()
    probe = ("import gc, runpy, sys; sys.argv = ['qcontexts', '--version']\n"
             "before = gc.get_freeze_count()\n"
             "try: runpy.run_module('qcontexts.cli', run_name='__main__')\n"
             "except SystemExit: pass\n"
             "print(before, gc.get_freeze_count() > 1000)")
    assert _probe(probe).splitlines()[-1] == "0 True"
    # the console script runs the same entry
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert '\nqcontexts = "qcontexts.cli:entry"\n' in pyproject


def test_objects_a_command_creates_stay_collectable():
    probe = ("import gc, qcontexts.cli as cli\n"
             "def main():\n"
             "    cycle = []; cycle.append(cycle); del cycle\n"
             "    return gc.collect()\n"
             "cli.main = main\n"
             "print(cli.entry() >= 1)")
    assert _probe(probe) == "True"


def _scan(label) -> dict[tuple[str, str], set[str]]:
    """(file, enclosing function) -> the labels label(node) gives the nodes
    in it, over every module of the package; None labels nothing."""
    found: dict[tuple[str, str], set[str]] = {}

    def visit(node, file: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            child_scope = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                child_scope = f"{scope}.{child.name}" if scope else child.name
            elif (name := label(child)) is not None:
                found.setdefault((file, scope), set()).add(name)
            visit(child, file, child_scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    return found


def _called(node) -> str | None:
    """The name a call calls, a bare function or an attribute."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", getattr(node.func, "id", None))
    return None


CONTRACTIONS = {"einsum", "trace", "vdot", "inner", "dot", "tensordot"}


def _contraction(node) -> str | None:
    """A contraction call, or "@" for a matrix product with an operand that names rho."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in CONTRACTIONS:
        return node.func.attr
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) \
            and "rho" in ast.unparse(node):
        return "@"
    return None


def test_born_rule_is_contracted_in_one_function():
    # the traces compute a trace and a normalization, not <v|rho|v>
    assert _scan(_contraction) == {
        ("core.py", "born_values"): {"einsum"},
        ("core.py", "DensityOperator.from_matrix"): {"trace"},
        ("sampling.py", "random_density"): {"trace"},
    }


@pytest.mark.parametrize("name, caller", [("born_mixed_fourier.json", "context_distribution"),
                                          ("gleason_demo.json", "reconstruct_density"),
                                          ("simulate_fourier_100.json", "_sample_outcomes")])
def test_born_commands_reach_the_one_born_function(name, caller, capsys):
    from qcontexts.core import born_values

    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is born_values.__code__:
            calls.append(frame.f_back.f_code.co_name)

    sys.setprofile(profile)
    try:
        status = qcontexts.cli.main(golden_cases()[name])
    finally:
        sys.setprofile(None)
    assert status == 0 and set(calls) == {caller}


RAY_RULES = {"ray_distance", "same_ray_pairs", "first_repeated_ray", "projector_stack", "outer"}


def _ray_comparison(node) -> str | None:
    """A call of a ray rule or of a projector-matrix builder, or "-" for a
    difference with an operand that is a projector matrix."""
    if _called(node) in RAY_RULES:
        return _called(node)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and any(
            ".matrix" in ast.unparse(side) or _called(side) in RAY_RULES
            for side in (node.left, node.right)):
        return "-"
    return None


def test_rays_are_compared_by_one_distance():
    # same_ray_pairs decides with ray_distance, the fit residual is its max,
    # and projector matrices are built only for Projector.matrix and simulate
    assert _scan(_ray_comparison) == {
        ("linalg.py", "same_ray_pairs"): {"ray_distance"},
        ("linalg.py", "first_repeated_ray"): {"same_ray_pairs"},
        ("uhlhorn.py", "RayMap.__init__"): {"first_repeated_ray"},
        ("uhlhorn.py", "fit_transform"): {"ray_distance"},
        ("jsonio.py", "ks_instance_from_json"): {"first_repeated_ray"},
        ("core.py", "extravalence_classes"): {"same_ray_pairs"},
        ("core.py", "Projector.matrix"): {"outer"},
        ("core.py", "_sample_outcomes"): {"projector_stack"},
    }


def _gram_product(node) -> str | None:
    """"@" for a matrix product whose left operand is a conjugate, v.conj() @ ..."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) \
            and _called(node.left) == "conj":
        return "@"
    return None


def _column_layout(node) -> str | None:
    """A column_stack call or a read of a .basis attribute: rays laid out as columns."""
    if _called(node) == "column_stack":
        return "column_stack"
    if isinstance(node, ast.Attribute) and node.attr == "basis":
        return ".basis"
    return None


def test_contexts_are_read_as_rows():
    # a context is its (n, n) array of unit rows, like every other ray set
    assert _scan(_column_layout) == {}


def test_certification_takes_one_gram_stack():
    # the check takes both Gram matrices and hands them on: classify_transform,
    # the gauge fits, the witnesses and bargmann_invariant multiply no rows
    assert {scope for (file, scope) in _scan(_gram_product) if file == "uhlhorn.py"} == {
        "check_orthogonality_preserving"}
