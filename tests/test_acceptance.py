"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with:  pytest tests/test_acceptance.py -v -s
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
from pathlib import Path

import numpy as np

from helpers import fourier_context, phase_aligned_distance, random_ray_map, standard_basis
from qcontexts.cli import main as cli_main
from qcontexts.core import (
    Projector,
    context_distribution,
    make_context,
    make_generator,
    repeat_simulation,
)
from qcontexts.gleason import FrameSample, reconstruct_density
from qcontexts.jsonio import dataset_path, ks_instance_from_json as load_ks_instance
from qcontexts.partition import (
    KSInstance,
    parity_certificate,
    search_assignment,
)
from qcontexts.sampling import random_context, random_density
from qcontexts.topology import (
    Permutation,
    orthogonal_obstruction,
    unitary_path_to_identity,
)
from qcontexts.uhlhorn import (
    Verdict,
    check_orthogonality_preserving,
    classify_transform,
    fit_transform,
)

GOLDEN = Path(__file__).parent / "golden"


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nacceptance {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_frame_function_normalization():
    rng = make_generator(1001)
    worst = 0.0
    for n in (3, 4, 5):
        contexts = [random_context(n, rng) for _ in range(1000)]
        for _ in range(100):
            rho = random_density(n, rng)
            for c in contexts:
                worst = max(worst, abs(float(context_distribution(rho, c).sum()) - 1.0))
    report(1, "frame-function normalization", worst <= 1e-10,
           f"max |sum - 1| = {worst:.3e} over 100 densities x 1000 contexts, "
           f"N in {{3,4,5}} (limit 1e-10)")


def test_criterion_2_gleason_round_trip():
    rng = make_generator(1002)
    worst_exact = 0.0
    worst_noise_ratio = 0.0
    sigma = 1e-4
    for n in (3, 4, 5):
        for _ in range(100):
            rho = random_density(n, rng)
            projectors = []
            for k in range(n + 1):
                projectors.extend(random_context(n, rng).projectors)
            values = [float(np.trace(rho.matrix @ p.matrix).real)
                      for p in projectors]
            exact = reconstruct_density(
                [FrameSample(p, v) for p, v in zip(projectors, values)])
            worst_exact = max(worst_exact, float(
                np.linalg.norm(exact.rho.matrix - rho.matrix)))

            noisy_values = [min(1.0, max(0.0, v + sigma * rng.standard_normal()))
                            for v in values]
            noisy = reconstruct_density(
                [FrameSample(p, v) for p, v in zip(projectors, noisy_values)])
            err = float(np.linalg.norm(noisy.rho.matrix - rho.matrix))
            worst_noise_ratio = max(
                worst_noise_ratio, err / (sigma * noisy.condition_number))
    ok = worst_exact <= 1e-8 and worst_noise_ratio <= 10.0
    report(2, "density reconstruction round trip", ok,
           f"max exact Frobenius error {worst_exact:.3e} (limit 1e-8); "
           f"max noisy error / (sigma x cond) = {worst_noise_ratio:.2f} (limit 10)")


def test_criterion_3_ray_map_certification():
    rng = make_generator(1003)
    worst_residual = 0.0
    worst_recovery = 0.0
    classified = 0
    for n in (3, 4):
        for anti in (False, True):
            for _ in range(50):
                m, hidden = random_ray_map(n, rng, antiunitary=anti)
                check = check_orthogonality_preserving(m)
                assert check.ok
                classification = classify_transform(m, check)
                verdict = classification.verdict
                expected = Verdict.ANTIUNITARY if anti else Verdict.UNITARY
                assert verdict is expected, f"misclassified: {verdict} != {expected}"
                classified += 1
                fit = fit_transform(m, classification)
                worst_residual = max(worst_residual, fit.residual)
                worst_recovery = max(worst_recovery, phase_aligned_distance(
                    fit.transform.matrix, hidden.matrix))
    ok = worst_residual <= 1e-8 and worst_recovery <= 1e-8
    report(3, "ray-map certification", ok,
           f"{classified} maps verified and correctly branched; "
           f"max fit residual {worst_residual:.3e}, max generator recovery "
           f"distance {worst_recovery:.3e} (limits 1e-8)")


def test_criterion_4_partition_impossibility():
    with open(dataset_path("ks_dim4_18vectors.json"), encoding="utf-8") as fh:
        inst = load_ks_instance(json.load(fh))
    result = search_assignment(inst)
    cert = parity_certificate(inst)
    deletions_sat = True
    for drop in range(len(inst.bases)):
        bases = tuple(b for k, b in enumerate(inst.bases) if k != drop)
        sub = KSInstance(dim=inst.dim, vectors=inst.vectors, bases=bases)
        deletions_sat = deletions_sat and search_assignment(sub).status == "SAT"
    ok = result.status == "UNSAT" and cert is not None and deletions_sat
    report(4, "partition impossibility", ok,
           f"18-vector instance {result.status} by exhaustive backtracking "
           f"({result.nodes_explored} nodes), parity certificate "
           f"{'present' if cert else 'absent'}, every single-basis deletion SAT: "
           f"{deletions_sat}")


def test_criterion_5_connectivity_dichotomy():
    from itertools import permutations as all_perms
    worst_endpoint = 0.0
    worst_unitarity = 0.0
    dichotomy_ok = True
    checked = 0
    for n in (3, 4):
        for images in all_perms(range(n)):
            sigma = Permutation(n, images)
            path = unitary_path_to_identity(sigma, steps=101)
            worst_endpoint = max(worst_endpoint, max(path.endpoint_errors))
            worst_unitarity = max(worst_unitarity, path.max_unitarity_deviation)
            res = orthogonal_obstruction(sigma)
            odd = sigma.sign() == -1
            dichotomy_ok = dichotomy_ok and (
                res.connected_in_orthogonal_group == (not odd))
            checked += 1
    ok = worst_endpoint <= 1e-9 and worst_unitarity <= 1e-9 and dichotomy_ok
    report(5, "connectivity dichotomy", ok,
           f"{checked} permutations: max endpoint error {worst_endpoint:.3e}, "
           f"max unitarity deviation {worst_unitarity:.3e} (limits 1e-9); "
           f"orthogonal-group connectivity matches parity: {dichotomy_ok}")


def test_criterion_6_repeatability_and_extracontextuality():
    rng = make_generator(1006)
    # repeatability: whenever a context repeats immediately, the outcome repeats
    repeat_trials = 0
    repeat_hits = 0
    for seed in range(100):
        n = 3
        pool = [random_context(n, rng, f"pool{seed}-{k}") for k in range(3)]
        seq = []
        for _ in range(4):
            c = pool[int(rng.integers(0, 3))]
            seq.extend([c, c])  # forced immediate repetition
        initial = random_context(n, rng).projectors[0]
        outcomes = repeat_simulation(initial, seq, seed, 1)[0]
        for k in range(1, len(outcomes)):
            if seq[k].label == seq[k - 1].label:
                repeat_trials += 1
                if outcomes[k] == outcomes[k - 1]:
                    repeat_hits += 1
    repeat_exact = repeat_trials > 0 and repeat_hits == repeat_trials

    # extracontextuality: a shared projector transfers certainty across contexts
    e = standard_basis(3)
    c1 = make_context(e, "C1")
    c2 = make_context([e[0], (e[1] + e[2]) / np.sqrt(2),
                       (e[1] - e[2]) / np.sqrt(2)], "C2")
    transfer_trials = 0
    transfer_hits = 0
    for seed in range(100):
        initial = random_context(3, rng).projectors[0]
        outcomes = repeat_simulation(initial, [c1, c2], seed, 1)[0]
        if outcomes[0] == 0:  # landed on the shared ray in C1
            transfer_trials += 1
            if outcomes[1] == 0:  # certainty carried into C2
                transfer_hits += 1
    transfer_exact = transfer_trials > 0 and transfer_hits == transfer_trials

    ok = repeat_exact and transfer_exact
    report(6, "repeatability and extracontextuality", ok,
           f"immediate-repeat outcome frequency {repeat_hits}/{repeat_trials} "
           f"(must be all); extravalent transfer frequency "
           f"{transfer_hits}/{transfer_trials} (must be all)")


def test_criterion_7_born_frequencies():
    fc = fourier_context(3)
    e1 = Projector.from_vector([1, 0, 0])
    counts = np.bincount(repeat_simulation(e1, [fc], 0, 30000)[:, 0], minlength=3)
    freqs = counts / 30000
    worst = float(np.max(np.abs(freqs - 1 / 3)))
    report(7, "Born frequencies", worst < 0.01,
           f"30000 seeded runs through the dim-3 Fourier context: frequencies "
           f"{np.round(freqs, 4).tolist()}, max |f - 1/3| = {worst:.4f} (limit 0.01)")


def test_criterion_8_cli_determinism(capsys):
    cases = {
        "born_mixed_fourier.json": [
            "born", str(dataset_path("density_mixed_dim3.json")),
            str(dataset_path("context_fourier_dim3.json"))],
        "gleason_demo.json": [
            "gleason-fit", str(dataset_path("gleason_demo_dim3.json"))],
        "uhlhorn_unitary.json": [
            "uhlhorn", str(dataset_path("raymap_unitary_dim3.json"))],
        "uhlhorn_antiunitary.json": [
            "uhlhorn", str(dataset_path("raymap_antiunitary_dim3.json"))],
        "ks_dim4.json": ["ks", str(dataset_path("ks_dim4_18vectors.json"))],
        "ks_dim3_closure.json": [
            "ks", str(dataset_path("ks_dim3_33rays_closure.json"))],
        "perm_transposition.json": [
            "perm-path", str(dataset_path("perm_transposition_n3.json"))],
        "perm_4cycle.json": [
            "perm-path", str(dataset_path("perm_4cycle_n4.json"))],
        "simulate_fourier_100.json": [
            "simulate", str(dataset_path("density_e1_dim3.json")),
            str(dataset_path("contexts_fourier_seq_dim3.json")),
            "--repeats", "100", "--seed", "0"],
    }
    identical = True
    golden_ok = True
    for name, argv in cases.items():
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        identical = identical and (first == second)
        golden_ok = golden_ok and (
            first == (GOLDEN / name).read_text(encoding="utf-8"))
    with capsys.disabled():
        report(8, "CLI determinism", identical and golden_ok,
               f"{len(cases)} commands re-run byte-identical: {identical}; "
               f"golden files match: {golden_ok}")
