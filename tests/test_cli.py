import copy
import functools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

import qcontexts
from helpers import (
    check_witness,
    fourier_basis,
    golden_cases,
    payload_witnesses,
    peak_allocation,
    phase_aligned_distance,
    random_ray_map,
    reread,
    simulate_reference,
)
from qcontexts import cli
from qcontexts.cli import main
from qcontexts.core import make_generator
from qcontexts.gleason import born_case_check
from qcontexts.jsonio import (
    complex_to_json,
    context_to_json,
    contexts_from_json,
    dataset_path,
    density_from_json,
    density_to_json,
    load_json_file,
    ray_map_from_json,
    ray_map_to_json,
)
from qcontexts.sampling import (
    random_context,
    random_density,
    random_state_vector,
    random_unitary,
)
from qcontexts.uhlhorn import RayMap, Verdict

GOLDEN = Path(__file__).parent / "golden"
SCHEMAS = Path(__file__).parents[1] / "src" / "qcontexts" / "schemas"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload: dict, schema_name: str) -> None:
    with open(SCHEMAS / f"{schema_name}.schema.json", encoding="utf-8") as fh:
        schema = json.load(fh)
    Draft202012Validator.check_schema(schema)
    Draft202012Validator(schema).validate(payload)


def ds(name: str) -> str:
    return str(dataset_path(name))


def run_optimized(*args: str) -> subprocess.CompletedProcess:
    """`python -O *args` with the package on the path: assert statements are stripped."""
    src = str(Path(qcontexts.__file__).parents[1])
    return subprocess.run([sys.executable, "-O", *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))


class TestBorn:
    def test_mixed_state_uniform(self, capsys):
        code, out, _ = run(capsys, "born", ds("density_mixed_dim3.json"),
                           ds("context_fourier_dim3.json"))
        assert code == 0
        payload = json.loads(out)
        validate(payload, "born")
        assert payload["probabilities"] == pytest.approx([1 / 3] * 3, abs=1e-10)
        assert payload["sum"] == pytest.approx(1.0, abs=1e-10)

    def test_pure_state_in_own_context_gives_one(self, capsys):
        code, out, _ = run(capsys, "born", ds("density_e1_dim3.json"),
                           ds("context_standard_dim3.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["probabilities"][0] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "ctx4.json"
        bad.write_text(json.dumps({
            "dim": 4, "label": "std4",
            "vectors": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        }))
        code, _, err = run(capsys, "born", ds("density_mixed_dim3.json"), str(bad))
        assert code == 2
        assert "DimensionMismatch" in err

    def test_memory_grows_as_n_squared(self, capsys, tmp_path):
        """Peak allocation of born through cli.main on a random density and
        context at n=64 and n=128. The O(n^2) documents and matrices give a
        ratio of at most 4; the slack of 1.25 rejects the 8 of an (n, n, n) table."""
        rng = make_generator(41)
        peaks = []
        for n in (64, 128):
            density, context = tmp_path / f"density_{n}.json", tmp_path / f"context_{n}.json"
            density.write_text(json.dumps(density_to_json(random_density(n, rng))))
            context.write_text(json.dumps(context_to_json(random_context(n, rng))))
            code, peak = peak_allocation(cli.main, ["born", str(density), str(context)])
            assert code == 0
            assert len(json.loads(capsys.readouterr().out)["probabilities"]) == n
            peaks.append(peak)
        assert peaks[1] / peaks[0] <= 4 * 1.25


class TestGleasonFit:
    def test_bundled_demo(self, capsys):
        code, out, _ = run(capsys, "gleason-fit", ds("gleason_demo_dim3.json"))
        assert code == 0
        payload = json.loads(out)
        validate(payload, "gleason-fit")
        assert payload["residual_rms"] <= 1e-10
        assert payload["design_rank"] == 9
        diag = [payload["rho"]["matrix"][i][i][0] for i in range(3)]
        assert diag == pytest.approx([0.5, 0.3, 0.2], abs=1e-9)

    def test_reconstructed_rho_feeds_back_into_born(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gleason-fit", ds("gleason_demo_dim3.json"))
        assert code == 0
        rho_doc = json.loads(out)["rho"]
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(rho_doc))
        code, out, _ = run(capsys, "born", str(path), ds("context_standard_dim3.json"))
        assert code == 0
        assert json.loads(out)["probabilities"] == pytest.approx(
            [0.5, 0.3, 0.2], abs=1e-9)

    @pytest.mark.parametrize("value, flags, code", [
        (-1e-11, (), 0), (1 + 1e-7, ("--tol", "1e-4"), 0), (-1e-8, (), 2),
        (1 + 1e-7, (), 2)])
    def test_frame_values_are_read_at_tol(self, capsys, tmp_path, value, flags, code):
        """A sample value may leave [0, 1] by --tol, as validate_frame_function
        and born_probability allow, and no further."""
        doc = _load("gleason_demo_dim3.json")
        doc["samples"][0]["value"] = value
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(doc))
        got, _, err = run(capsys, "gleason-fit", str(path), *flags)
        assert got == code
        assert err == ("" if code == 0 else
                       f"error: ValueOutOfRange: frame value {value} outside the unit interval\n")

    def test_grouped_frame_values_are_read_at_tol(self, capsys, tmp_path):
        doc = {"contexts": [{"vectors": basis, "values": [1 + 1e-7, -1e-7, 0.0]}
                            for basis in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                          [[0, 0, 1], [1, 0, 0], [0, 1, 0]])]}
        path = tmp_path / "grouped.json"
        path.write_text(json.dumps(doc))
        assert "ValueOutOfRange" in run(capsys, "gleason-fit", str(path))[2]
        # accepted at --tol 1e-6, the samples then fail on the design rank
        assert "NotInformationallyComplete" in run(capsys, "gleason-fit", str(path),
                                                   "--tol", "1e-6")[2]

    def test_single_context_exits_two_with_error_name(self, capsys, tmp_path):
        doc = {"contexts": [{
            "label": "only",
            "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "values": [0.2, 0.3, 0.5],
        }]}
        path = tmp_path / "single.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "gleason-fit", str(path))
        assert code == 2
        assert "NotInformationallyComplete" in err

    def test_dim2_exits_two_with_error_name(self, capsys, tmp_path):
        doc = {"dim": 2, "samples": [
            {"vector": [[1, 0], [0, 0]], "value": 0.5},
            {"vector": [[0, 0], [1, 0]], "value": 0.5},
        ]}
        path = tmp_path / "dim2.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "gleason-fit", str(path))
        assert code == 2
        assert "DimensionTooSmall" in err


class TestUhlhorn:
    def test_bundled_unitary_map(self, capsys):
        code, out, _ = run(capsys, "uhlhorn", ds("raymap_unitary_dim3.json"))
        assert code == 0
        payload = json.loads(out)
        validate(payload, "uhlhorn")
        assert payload["verdict"] == "Unitary"
        assert payload["antiunitary"] is False
        assert payload["residual"] <= 1e-8
        assert payload["orthogonality_preserving"] is True
        m = ray_map_from_json(load_json_file(ds("raymap_unitary_dim3.json")))
        check_witness(m, Verdict.UNITARY, payload_witnesses(payload))

    def test_bundled_antiunitary_map(self, capsys):
        code, out, _ = run(capsys, "uhlhorn", ds("raymap_antiunitary_dim3.json"))
        assert code == 0
        payload = json.loads(out)
        validate(payload, "uhlhorn")
        assert payload["verdict"] == "Antiunitary"
        assert payload["antiunitary"] is True
        assert payload["residual"] <= 1e-8
        m = ray_map_from_json(load_json_file(ds("raymap_antiunitary_dim3.json")))
        check_witness(m, Verdict.ANTIUNITARY, payload_witnesses(payload))

    def test_map_without_covering_context_certifies(self, capsys, tmp_path):
        # twelve random rays through a random unitary, and nothing else
        rng = make_generator(12)
        u = random_unitary(3, rng)
        rays = [random_state_vector(3, rng) for _ in range(12)]
        doc = ray_map_to_json(RayMap(3, rays, [u @ r for r in rays]))
        code, out, err = _run_with_documents(capsys, tmp_path, "uhlhorn", doc)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        validate(payload, "uhlhorn")
        assert (payload["verdict"], payload["antiunitary"]) == ("Unitary", False)
        assert payload["residual"] <= 1e-8
        matrix = np.array(payload["matrix"]) @ [1, 1j]
        assert phase_aligned_distance(matrix, u) <= 1e-8

    @pytest.mark.parametrize("image", ["identity", "fourier", "inverse-fourier"])
    def test_near_rays_certify_in_any_basis(self, capsys, tmp_path, image):
        # e1 and a ray 1.4e-9 from it stay 1.4e-9 apart under the Fourier
        # matrix F, so s -> F s and its inverse are bijective as the identity is
        near = np.array([1, 1.4e-9, 0]) / np.hypot(1, 1.4e-9)
        rays = np.array([[1, 0, 0], near, [0, 0, 1], np.ones(3) / np.sqrt(3)], dtype=complex)
        turned = rays @ np.column_stack(fourier_basis(3)).T
        sources, targets = {"identity": (rays, rays), "fourier": (rays, turned),
                            "inverse-fourier": (turned, rays)}[image]
        doc = {"dim": 3, "pairs": [{"source": s, "target": t} for s, t in
                                   zip(complex_to_json(sources), complex_to_json(targets))]}
        code, out, err = _run_with_documents(capsys, tmp_path, "uhlhorn", doc)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        validate(payload, "uhlhorn")
        assert payload["residual"] <= 1e-8

    def test_orthogonality_violation_exits_one(self, capsys, tmp_path):
        with open(ds("raymap_unitary_dim3.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        # orthogonal sources e1, e2; make their targets overlap
        doc["pairs"][1]["target"] = [[0.8, 0.0], [0.6, 0.0], [0.0, 0.0]]
        doc["pairs"][0]["target"] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "uhlhorn", str(path))
        assert code == 1
        payload = json.loads(out)
        validate(payload, "uhlhorn")
        assert payload["orthogonality_preserving"] is False
        assert "violating_pair" in payload

    def test_same_ray_is_decided_at_the_run_tolerance(self, capsys, tmp_path):
        # a 14th source 1e-7 from source 12, with another target
        m, _ = random_ray_map(3, make_generator(5))
        rng = make_generator(6)
        doc = ray_map_to_json(m)
        doc["pairs"].append({
            "source": complex_to_json(m.source_vectors[12] + 1e-7 * random_state_vector(3, rng)),
            "target": complex_to_json(random_state_vector(3, rng))})
        path = _paths(tmp_path, [doc])[0]
        code, out, err = run(capsys, "uhlhorn", path, "--tol", "1e-6")
        assert (code, out) == (2, "")
        assert err == ("error: MalformedDocument: sources 12 and 13 coincide; "
                       "map must be bijective\n")
        code, out, _ = run(capsys, "uhlhorn", path)
        assert code == 1
        assert json.loads(out)["verdict"] == "Neither"

    def test_failed_fit_exits_one_with_its_residual(self, capsys, tmp_path):
        # the last target nudged by 1e-5 along e1 passes classification at
        # --tol 1e-4, but no operator fits it: a failed certification
        m, _ = random_ray_map(3, make_generator(76))
        doc = ray_map_to_json(m)
        doc["pairs"][-1]["target"] = complex_to_json(m.target_vectors[-1] + [1e-5, 0, 0])
        path = _paths(tmp_path, [doc])[0]
        code, out, err = run(capsys, "uhlhorn", path, "--tol", "1e-4")
        payload = json.loads(out)
        validate(payload, "uhlhorn")
        assert (code, err, payload["verdict"]) == (1, "", "Unitary")
        assert payload["residual"] > 1e-8 and "matrix" not in payload
        code, out, _ = run(capsys, "uhlhorn", path)
        payload = json.loads(out)
        validate(payload, "uhlhorn")
        assert (code, payload["verdict"]) == (1, "Neither")
        check_witness(ray_map_from_json(doc), Verdict.NEITHER, payload_witnesses(payload))
        # the nudged ray 12 lies on the unitary branch's cycle
        assert {branch: w["cycle"] for branch, w in payload["witnesses"].items()} == {
            "Unitary": [0, 7, 9, 11, 1, 12, 4], "Antiunitary": [0, 7, 3]}

    def test_tolerance_below_float_resolution_exits_two(self, capsys):
        code, out, err = run(capsys, "uhlhorn", ds("raymap_unitary_dim3.json"), "--tol", "0")
        assert (code, out) == (2, "")
        assert err == "error: ValueError: --tol must be in [1e-12, 1e-3), got 0.0\n"

    def test_corrupted_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "uhlhorn", str(path))
        assert code == 2
        assert "MalformedDocument" in err


class TestKS:
    def test_bundled_dim4_unsat_exit_zero(self, capsys):
        code, out, _ = run(capsys, "ks", ds("ks_dim4_18vectors.json"))
        assert code == 0
        payload = json.loads(out)
        validate(payload, "ks")
        assert payload["status"] == "UNSAT"
        assert payload["certificate"] is not None
        assert payload["assignment"] is None

    def test_single_basis_sat_exit_one(self, capsys, tmp_path):
        path = tmp_path / "single.json"
        path.write_text(json.dumps({
            "dim": 3,
            "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "bases": [[0, 1, 2]],
        }))
        code, out, _ = run(capsys, "ks", str(path))
        assert code == 1
        payload = json.loads(out)
        validate(payload, "ks")
        assert payload["status"] == "SAT"
        assert sum(payload["assignment"]) == 1

    def test_non_orthogonal_basis_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "dim": 3,
            "vectors": [[1, 0, 0], [1, 1, 0], [0, 0, 1]],
            "bases": [[0, 1, 2]],
        }))
        code, _, err = run(capsys, "ks", str(path))
        assert code == 2
        assert "BasisNotOrthogonal" in err

    def test_repeated_ray_exits_two(self, capsys, tmp_path):
        # a copy of vector 0 in its last basis: read as two rays, the set is colourable
        doc = _load("ks_dim4_18vectors.json")
        doc["vectors"].append(doc["vectors"][0])
        last = [b for b in doc["bases"] if 0 in b][-1]
        last[last.index(0)] = 18
        code, out, err = _run_with_documents(capsys, tmp_path, "ks", doc)
        assert (code, out) == (2, "")
        assert err == "error: MalformedDocument: vectors 0 and 18 are the same ray\n"

    def test_failed_verification_exits_two_under_python_O(self, tmp_path):
        path = tmp_path / "single.json"
        path.write_text(json.dumps({"dim": 3, "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                    "bases": [[0, 1, 2]]}))
        proc = run_optimized("-c", f"""
import sys
from qcontexts import cli, partition
assert False, "-O strips this"
partition.verify_assignment = lambda inst, assignment: False
sys.exit(cli.main(["ks", {str(path)!r}]))
""")
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr == "error: AssertionError: the search's assignment fails verification\n"


class TestPermPath:
    def test_transposition(self, capsys):
        code, out, _ = run(capsys, "perm-path", ds("perm_transposition_n3.json"))
        assert code == 0
        payload = json.loads(out)
        validate(payload, "perm-path")
        assert payload["det_sign"] == -1
        assert payload["connected_in_orthogonal_group"] is False
        assert max(payload["endpoint_errors"]) <= 1e-9
        assert payload["samples_included"] == "endpoints"
        assert len(payload["samples"]) == 2

    def test_identity_connected(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"n": 3, "images": [0, 1, 2]}))
        code, out, _ = run(capsys, "perm-path", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["det_sign"] == 1
        assert payload["connected_in_orthogonal_group"] is True

    def test_emit_samples_includes_all(self, capsys):
        code, out, _ = run(capsys, "perm-path", ds("perm_4cycle_n4.json"),
                           "--steps", "11", "--emit-samples")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "perm-path")
        assert payload["samples_included"] == "all"
        assert len(payload["samples"]) == 11

    @pytest.mark.parametrize("n, endpoint", [(0, []), (1, [[[1.0, 0.0]]])])
    def test_trivial_permutations(self, capsys, tmp_path, n, endpoint):
        # n = 1 builds blocks of 1 x 1 samples: all errors are zero; n = 0
        # names no permutation (the schema asks n >= 1), so the reader rejects it
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps({"n": n, "images": list(range(n))}))
        if n == 0:
            assert run(capsys, "perm-path", str(path)) == (
                2, "", "error: MalformedDocument: dimension must be positive, got 0\n")
            return
        expected = {
            "command": "perm-path", "n": n, "images": list(range(n)), "steps": 101,
            "endpoint_errors": [0.0, 0.0], "max_unitarity_deviation": 0.0,
            "max_step_distance": 0.0, "det_sign": 1, "connected_in_orthogonal_group": True,
            "samples_included": "endpoints", "samples": [endpoint, endpoint],
        }
        code, out, _ = run(capsys, "perm-path", str(path))
        assert code == 0
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_malformed_images_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "images": [0, 0, 2]}))
        code, _, err = run(capsys, "perm-path", str(path))
        assert code == 2
        assert "MalformedDocument" in err


class TestSimulate:
    def test_constant_outcome_in_own_context(self, capsys):
        code, out, _ = run(capsys, "simulate", ds("density_e1_dim3.json"),
                           ds("context_standard_dim3.json"), "--repeats", "5")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "simulate")
        assert payload["sequence"] == [
            {"context_label": "standard", "outcome_index": 0}]
        assert payload["frequencies"][0]["frequencies"][0] == 1.0

    def test_fourier_frequencies_near_uniform(self, capsys):
        code, out, _ = run(capsys, "simulate", ds("density_e1_dim3.json"),
                           ds("contexts_fourier_seq_dim3.json"),
                           "--repeats", "3000", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        for f in payload["frequencies"][0]["frequencies"]:
            assert abs(f - 1 / 3) < 0.03

    def test_mixed_initial_state_exits_two(self, capsys):
        code, _, err = run(capsys, "simulate", ds("density_mixed_dim3.json"),
                           ds("context_standard_dim3.json"))
        assert code == 2
        assert "rank-1" in err

    def test_multi_context_sequence(self, capsys, tmp_path):
        with open(ds("context_fourier_dim3.json"), encoding="utf-8") as fh:
            fourier = json.load(fh)
        with open(ds("context_standard_dim3.json"), encoding="utf-8") as fh:
            standard = json.load(fh)
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"contexts": [fourier, standard, standard]}))
        code, out, _ = run(capsys, "simulate", ds("density_e1_dim3.json"),
                           str(path), "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "simulate")
        labels = [s["context_label"] for s in payload["sequence"]]
        assert labels == ["fourier", "standard", "standard"]
        # repeated standard context repeats its outcome
        assert payload["sequence"][1]["outcome_index"] == \
            payload["sequence"][2]["outcome_index"]

    def test_seed_wraps_past_two_to_the_64(self, capsys):
        initial_path = ds("density_e1_dim3.json")
        contexts_path = ds("contexts_fourier_seq_dim3.json")
        code, out, _ = run(capsys, "simulate", initial_path, contexts_path,
                           "--seed", str(2**64 - 2), "--repeats", "5")
        assert code == 0
        payload = json.loads(out)
        initial = born_case_check(density_from_json(load_json_file(initial_path)))
        contexts = contexts_from_json(load_json_file(contexts_path))
        # runs 2-4 continue at keys 0, 1 and 2
        runs = [simulate_reference(initial, contexts, key)
                for key in (2**64 - 2, 2**64 - 1, 0, 1, 2)]
        assert payload["sequence"] == [
            {"context_label": c.label, "outcome_index": o}
            for c, o in zip(contexts, runs[0])]
        for step, c in enumerate(contexts):
            counts = [0] * c.dim
            for outcomes in runs:
                counts[outcomes[step]] += 1
            assert payload["frequencies"][step]["counts"] == counts

    @pytest.mark.parametrize("seed", [3, 2**64 - 10])
    def test_chunked_repeats_give_the_same_output(self, capsys, monkeypatch, seed):
        # 30 runs in chunks of 7; from 2^64 - 10 the keys wrap inside the second chunk
        args = ["simulate", ds("density_e1_dim3.json"), ds("contexts_fourier_seq_dim3.json"),
                "--repeats", "30", "--seed", str(seed)]
        whole = run(capsys, *args)
        chunks = []
        sample = cli.repeat_simulation

        def recorded(initial, contexts, seed, repeats):
            chunks.append((seed, repeats))
            return sample(initial, contexts, seed, repeats)

        monkeypatch.setattr(cli, "repeat_simulation", recorded)
        monkeypatch.setattr(cli, "_SIMULATE_CHUNK", 7)
        assert run(capsys, *args) == whole
        assert chunks == [((seed + start) % 2**64, min(7, 30 - start))
                          for start in range(0, 30, 7)]

    def test_memory_does_not_grow_with_repeats(self, capsys):
        """Peak allocation of simulate on the bundled Fourier sequence at 2^17
        and 2^18 repeats: one chunk of 2^16 runs at a time gives a ratio near
        1; the slack of 1.25 rejects the 2 of holding every run."""
        peaks = []
        for repeats in (2**17, 2**18):
            code, peak = peak_allocation(cli.main, [
                "simulate", ds("density_e1_dim3.json"), ds("contexts_fourier_seq_dim3.json"),
                "--repeats", str(repeats)])
            assert code == 0
            assert json.loads(capsys.readouterr().out)["repeats"] == repeats
            peaks.append(peak)
        assert peaks[1] / peaks[0] <= 1.25


# the nine cases of tools/gen_golden.py, in its order: file under tests/golden, CLI arguments
GOLDEN_CASES = list(golden_cases().items())
# one of them per subcommand
SUBCOMMAND_ARGV = {argv[0]: argv for _, argv in GOLDEN_CASES}


def text_reference(payload: dict, indent: str = "") -> str:
    """--format text as documented: keys sorted, a dict value as `key:` over its
    entries indented two spaces, any other value as `key: ` and its compact JSON."""
    out = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            out.append(f"{indent}{key}:\n" + text_reference(value, indent + "  "))
        else:
            out.append(f"{indent}{key}: {json.dumps(value, sort_keys=True)}\n")
    return "".join(out)


class TestDeterminismAndGolden:
    @pytest.mark.parametrize("name,argv", GOLDEN_CASES)
    def test_golden_output(self, capsys, name, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        expected = (GOLDEN / name).read_text(encoding="utf-8")
        assert out == expected

    @pytest.mark.parametrize("name,argv", GOLDEN_CASES)
    def test_golden_output_under_python_O(self, name, argv):
        proc = run_optimized("-m", "qcontexts.cli", *argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (GOLDEN / name).read_text(encoding="utf-8")

    def test_golden_directory_holds_exactly_the_cases(self):
        assert len(GOLDEN_CASES) == 9
        assert sorted(SUBCOMMAND_ARGV) == ["born", "gleason-fit", "ks", "perm-path",
                                           "simulate", "uhlhorn"]
        assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(dict(GOLDEN_CASES))

    @pytest.mark.parametrize("name,argv", GOLDEN_CASES)
    def test_text_output_flattens_the_golden(self, capsys, name, argv):
        code, out, err = run(capsys, *argv, "--format", "text")
        assert (code, err) == (0, "")
        assert out == text_reference(json.loads((GOLDEN / name).read_text(encoding="utf-8")))

    def test_rerun_is_byte_identical(self, capsys):
        args = ["simulate", ds("density_e1_dim3.json"),
                ds("contexts_fourier_seq_dim3.json"), "--repeats", "50",
                "--seed", "7"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


def _load(name: str) -> dict:
    with open(ds(name), encoding="utf-8") as fh:
        return json.load(fh)


def _with(name: str, path: tuple, value) -> dict:
    """A bundled document with the leaf at `path` replaced by `value`."""
    doc = _load(name)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_KS_BASIS = {"dim": 3, "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "bases": [[0, 1, 2]]}


# documents whose fields have the wrong JSON type, one per loader
WRONG_TYPE_CASES = {
    "born-dim-list": ("born", {**_load("density_mixed_dim3.json"), "dim": [3]},
                      ds("context_fourier_dim3.json")),
    "perm-path-n-list": ("perm-path", {"n": [3], "images": [1, 0, 2]}),
    "ks-vector-numbers": ("ks", {"dim": 3, "vectors": [5, 6, 7], "bases": [[0, 1, 2]]}),
    "ks-basis-number": ("ks", {"dim": 3, "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                               "bases": [7]}),
    # one-basis documents: a dim read with int() would make each satisfiable (exit 1)
    "ks-dim-float": ("ks", {"dim": 3.7, "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                            "bases": [[0, 1, 2]]}),
    "ks-dim-string": ("ks", {"dim": "3", "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                             "bases": [[0, 1, 2]]}),
    "ks-dim-bool": ("ks", {"dim": True, "vectors": [[1]], "bases": [[0]]}),
    "gleason-fit-vectors-number": ("gleason-fit", {"contexts": [
        {"label": "c0", "vectors": 5, "values": [1, 0, 0]}]}),
    "born-matrix-row-number": ("born", {"dim": 3, "matrix": [5, [0, 1, 0], [0, 0, 1]]},
                               ds("context_fourier_dim3.json")),
    # the contexts document is the second file argument
    "simulate-context-number": ("simulate", ds("density_e1_dim3.json"), {"contexts": [5]}),
    "gleason-fit-values-lists": ("gleason-fit", {"contexts": [
        {"label": "c0", "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
         "values": [[1], [0], [0]]}]}),
    # scalars of the wrong kind: strings, bools, floats for ints, NaN
    "perm-path-images-mixed": ("perm-path", {"n": 3, "images": ["2", 0.0, True]}),
    "perm-path-images-float": ("perm-path", {"n": 3, "images": [1.9, 0, 2]}),
    "gleason-fit-value-string": ("gleason-fit",
                                 _with("gleason_demo_dim3.json", ("samples", 0, "value"), "0.5")),
    "born-matrix-entry-strings": ("born",
                                  _with("density_e1_dim3.json", ("matrix", 0, 0), ["1", "0"]),
                                  ds("context_standard_dim3.json")),
    "born-context-entry-bool": ("born", ds("density_mixed_dim3.json"),
                                _with("context_standard_dim3.json", ("vectors", 0, 0), True)),
    "ks-vector-entry-bool": ("ks", {**_KS_BASIS, "vectors": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]}),
    "ks-vector-entry-nan": ("ks", {**_KS_BASIS,
                                   "vectors": [[float("nan"), 0, 0], [0, 1, 0], [0, 0, 1]]}),
    "ks-basis-index-bool": ("ks", {**_KS_BASIS, "bases": [[0, True, 2]]}),
    # a dim far beyond the entries given is reported, not allocated
    "ks-dim-huge": ("ks", {**_KS_BASIS, "dim": 10**10}),
    # an integer beyond the float range is not a finite number
    "ks-vector-entry-huge-int": ("ks", {**_KS_BASIS, "vectors": [[10**400, 0, 0], [0, 1, 0],
                                                                 [0, 0, 1]]}),
}


# keys a ray-map document may carry besides dim and pairs; the reader ignores them
IGNORED_RAY_MAP_KEYS = {
    "inline-context": {"covering_contexts": [{"label": "fiduciary",
                                              "vectors": _KS_BASIS["vectors"]}]},
    "bare-vectors": {"covering_contexts": [[[1, 1, 1], [1, 1, -2], [1, -1, 0]]]},
    "unknown-label": {"covering_contexts": ["ghost"]},
    "number": {"covering_contexts": 5},
    "label-table-list": {"contexts": ["c0"]},
}


def _paths(tmp_path, files) -> list[str]:
    """File arguments; dict arguments are written to files first."""
    args = []
    for k, f in enumerate(files):
        if isinstance(f, dict):  # a document to write; otherwise a bundled path
            path = tmp_path / f"doc{k}.json"
            path.write_text(json.dumps(f))
            f = str(path)
        args.append(f)
    return args


def _run_with_documents(capsys, tmp_path, command: str, *files) -> tuple[int, str, str]:
    """Run a command; dict arguments are written to files first."""
    return run(capsys, command, *_paths(tmp_path, files))


# each bundled document as one file argument (None) of a command line
SWEEP_COMMANDS = {
    "context_fourier_dim3.json": ("born", ds("density_mixed_dim3.json"), None),
    "context_standard_dim3.json": ("born", ds("density_mixed_dim3.json"), None),
    "contexts_fourier_seq_dim3.json": ("simulate", ds("density_e1_dim3.json"), None),
    "density_e1_dim3.json": ("born", None, ds("context_standard_dim3.json")),
    "density_mixed_dim3.json": ("born", None, ds("context_fourier_dim3.json")),
    "gleason_demo_dim3.json": ("gleason-fit", None),
    "ks_dim3_33rays_closure.json": ("ks", None),
    "ks_dim4_18vectors.json": ("ks", None),
    "perm_4cycle_n4.json": ("perm-path", None),
    "perm_transposition_n3.json": ("perm-path", None),
    "raymap_antiunitary_dim3.json": ("uhlhorn", None),
    "raymap_unitary_dim3.json": ("uhlhorn", None),
}
SWEEP_LEAVES = 40
# every scalar the readers accept is a number or a label (a string)
NUMBER_REPLACEMENTS = (True, "1", float("nan"))


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from _leaves(child, path + (k,))
    else:
        yield path, node


class TestUsage:
    @pytest.mark.parametrize("case", sorted(WRONG_TYPE_CASES))
    def test_wrong_json_type_exits_two_with_one_line_error(self, capsys, tmp_path, case):
        code, out, err = _run_with_documents(capsys, tmp_path, *WRONG_TYPE_CASES[case])
        assert code == 2
        assert out == ""
        assert err.startswith("error: MalformedDocument:") and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(IGNORED_RAY_MAP_KEYS))
    def test_ray_map_keys_beyond_the_pairs_are_ignored(self, capsys, tmp_path, case):
        doc = _load("raymap_unitary_dim3.json")
        expected = _run_with_documents(capsys, tmp_path, "uhlhorn", doc)
        assert expected[0] == 0
        got = _run_with_documents(capsys, tmp_path, "uhlhorn",
                                  {**doc, **IGNORED_RAY_MAP_KEYS[case]})
        assert got == expected

    def test_sweep_covers_every_bundled_document(self):
        bundled = sorted(p.name for p in dataset_path("").glob("*.json"))
        assert bundled == sorted(SWEEP_COMMANDS)

    @pytest.mark.parametrize("name", sorted(SWEEP_COMMANDS))
    def test_mutated_scalar_leaf_exits_two(self, capsys, tmp_path, name):
        # a seeded sample of leaves: numbers become true, "1" or NaN, labels 1
        leaves = list(_leaves(_load(name)))
        rng = make_generator(7919)
        picks = rng.choice(len(leaves), size=min(SWEEP_LEAVES, len(leaves)), replace=False)
        command, *slots = SWEEP_COMMANDS[name]
        for k, pick in enumerate(sorted(picks)):
            path, leaf = leaves[pick]
            assert isinstance(leaf, (int, float, str)) and not isinstance(leaf, bool), path
            value = 1 if isinstance(leaf, str) else NUMBER_REPLACEMENTS[k % 3]
            doc = _with(name, path, value)
            files = [doc if slot is None else slot for slot in slots]
            code, out, err = _run_with_documents(capsys, tmp_path, command, *files)
            assert (code, out) == (2, ""), (path, value, err)
            assert err.startswith("error: MalformedDocument:"), (path, value, err)

    @pytest.mark.parametrize("command, files", [
        ("ks", [{**_KS_BASIS, "vectors": [[1e308, 1e308, 0], [1, -1, 0], [0, 0, 1]]}]),
        ("born", [ds("density_mixed_dim3.json"),
                  {"dim": 3, "vectors": [[1e308, 1e308, 0], [1, -1, 0], [0, 0, 1]]}]),
        ("gleason-fit", [_with("gleason_demo_dim3.json", ("samples", 0, "vector"),
                               [1e308, 1e308, 0])]),
        ("born", [{"dim": 3, "matrix": [[1e308, 1e308, 0], [1e308, 1e308, 0], [0, 0, 0]]},
                  ds("context_fourier_dim3.json")]),
        ("born", [{"dim": 3, "matrix": [[1e308, 0, 0], [0, 0, 0], [0, 0, 0]]},
                  ds("context_fourier_dim3.json")]),
    ], ids=["ks", "born-context", "gleason-fit-sample", "born-density", "born-density-diagonal"])
    def test_overflowing_norm_is_a_one_line_error(self, tmp_path, command, files):
        # numpy's overflow warning would print to stderr before the error line
        src = str(Path(qcontexts.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-m", "qcontexts.cli", command,
                               *_paths(tmp_path, files)],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr

    def test_unexpected_exception_exits_two_on_one_line(self, capsys, monkeypatch):
        # exit 1 would read as a negative result, and a traceback is not an error line
        def broken(args, tol):
            raise RuntimeError("handler broke")

        monkeypatch.setattr(cli, "cmd_born", broken)
        code, out, err = run(capsys, "born", ds("density_mixed_dim3.json"),
                             ds("context_fourier_dim3.json"))
        assert (code, out) == (2, "")
        assert err == "error: RuntimeError: handler broke\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", list(SUBCOMMAND_ARGV))
    def test_seed_outside_64_bits_exits_two(self, capsys, tmp_path, command, seed):
        argv = SUBCOMMAND_ARGV[command]
        error = f"error: ValueError: seed must be a 64-bit unsigned integer, got {seed}\n"
        assert run(capsys, *argv, "--seed", seed) == (2, "", error)
        # the seed is checked before any document is read
        missing = [str(tmp_path / "missing.json") if a.endswith(".json") else a for a in argv]
        assert run(capsys, *missing, "--seed", seed) == (2, "", error)
        code, out, err = run(capsys, *missing)
        assert (code, out) == (2, "") and err.startswith("error: MalformedDocument:")
        # and after the tolerance
        code, _, err = run(capsys, *argv, "--seed", seed, "--tol", "1")
        assert code == 2 and err.startswith("error: ValueError: --tol must be in")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "qcontexts" in capsys.readouterr().out

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", [
        b'{"dim": ' + b"[" * 100000 + b"]" * 100000 + b"}",  # RecursionError in json.load
        b'\xff\xfe{"dim": 3}',                               # not UTF-8
        b'{"dim": 1' + b"0" * 5000 + b"}",                    # int beyond the digit limit
    ], ids=["deep", "not-utf8", "huge-int-literal"])
    def test_unreadable_json_exits_two(self, capsys, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_bytes(text)
        code, out, err = run(capsys, "born", str(path), ds("context_fourier_dim3.json"))
        assert (code, out) == (2, "")
        assert err.startswith("error: MalformedDocument:") and "Traceback" not in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "ks", "/nonexistent/file.json")
        assert code == 2
        assert "MalformedDocument" in err

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "born", ds("density_mixed_dim3.json"),
                           ds("context_fourier_dim3.json"), "--format", "text")
        assert code == 0
        assert "probabilities:" in out
        assert "command: \"born\"" in out


# ------------------------------------------------------------------
# Exit-code contract under structural mutations of the bundled documents,
# and under a size field (dim, n) set below 1: exit 2 is one error line and
# no output, exit 0 or 1 a schema-valid payload.

# one value of each JSON type; a swap picks one of another type, never a
# larger number
JSON_VALUES = (None, True, 0, "x", [], {})


@functools.cache
def _validator(command: str) -> Draft202012Validator:
    with open(SCHEMAS / f"{command}.schema.json", encoding="utf-8") as fh:
        return Draft202012Validator(json.load(fh))


def _json_type(value) -> str:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return "number" if number else type(value).__name__


def _nodes(node, path=()):
    """(path, value) of every value below the top level."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


@st.composite
def mutated_documents(draw):
    name = draw(st.sampled_from(sorted(SWEEP_COMMANDS)))
    doc = _load(name)
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(["drop", "swap", "wrap", "truncate", "repeat", "size"]))
        targets = [(path, value) for path, value in _nodes(doc)
                   if (op != "drop" or isinstance(path[-1], str))
                   and (op not in ("truncate", "repeat") or isinstance(value, list) and value)
                   and (op != "size" or path[-1] in ("dim", "n") and type(value) is int)]
        if not targets:
            continue
        # a depth first, so the few top-level fields are picked as often as vector entries
        depth = draw(st.sampled_from(sorted({len(path) for path, _ in targets})))
        targets = [t for t in targets if len(t[0]) == depth]
        path, value = targets[draw(st.integers(0, len(targets) - 1))]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "drop":
            del parent[path[-1]]
        elif op == "swap":
            parent[path[-1]] = draw(st.sampled_from(
                [v for v in JSON_VALUES if _json_type(v) != _json_type(value)]))
        elif op == "wrap":
            parent[path[-1]] = [value]
        elif op == "truncate":
            del value[draw(st.integers(0, len(value) - 1)):]
        elif op == "size":  # a size field (dim, n) below 1
            parent[path[-1]] = draw(st.sampled_from([0, -1]))
        else:
            k = draw(st.integers(0, len(value) - 1))
            value.insert(k + 1, copy.deepcopy(value[k]))
    return name, doc


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_documents())
def test_mutated_document_keeps_the_exit_code_contract(capsys, tmp_path, case):
    name, doc = case
    command, *slots = SWEEP_COMMANDS[name]
    files = [doc if slot is None else slot for slot in slots]
    with warnings.catch_warnings(record=True) as caught:  # a process would print them
        warnings.simplefilter("always")
        code, out, err = _run_with_documents(capsys, tmp_path, command, *files)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        return
    assert code in (0, 1) and err == ""
    _validator(command).validate(json.loads(out))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=mutated_documents())
def test_mutated_document_that_reads_reads_back_bit_for_bit(case):
    pair = reread(*case)
    assert pair is None or pair[0] == pair[1]
