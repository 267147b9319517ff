import json
import os
import re
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    check_witness,
    fourier_basis,
    gadget_sources,
    induced_ray_map,
    payload_witnesses,
    peak_allocation,
    phase_aligned_distance,
    planted_rays,
    projector_distance,
    projector_pairs,
    projector_residual,
    random_ray_map,
    ray_map,
    ref_find_source,
    ref_fit,
    ref_gauge_residual,
    standard_basis,
    standard_context,
    trace_invariant,
)
from qcontexts import cli, jsonio, linalg, uhlhorn
from qcontexts.core import ContextTransform, Projector, make_context, make_generator
from qcontexts.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    FitFailed,
    HypothesisViolated,
)
from qcontexts.jsonio import ray_map_to_json
from qcontexts.linalg import DEFAULT_TOL, Tolerance, max_abs
from qcontexts.sampling import random_state_vector, random_unitary
from qcontexts.uhlhorn import (
    FIT_RESIDUAL_LIMIT,
    OrthogonalityCheck,
    RayMap,
    TransformClassification,
    Verdict,
    bargmann_invariant,
    check_orthogonality_preserving,
    classify_transform,
    fit_transform,
)


def proj(v) -> Projector:
    return Projector.from_vector(np.asarray(v, dtype=complex))


def identity_map(dim: int, extra=()):
    ident = ContextTransform.from_matrix(np.eye(dim))
    return induced_ray_map(ident, standard_context(dim), extra)


class TestRayMap:
    def test_dimension_two_rejected(self):
        pairs = ((proj([1, 0]), proj([1, 0])), (proj([0, 1]), proj([0, 1])))
        with pytest.raises(DimensionTooSmall):
            ray_map(2, pairs)

    def test_duplicate_sources_rejected(self):
        p, q = proj([1, 0, 0]), proj([0, 1, 0])
        with pytest.raises(ValueError):
            ray_map(3, ((p, p), (p, q)))

    def test_same_ray_is_decided_at_the_given_tolerance(self):
        # a source 1e-7 from source 12 is the same ray at 1e-6, another at 1e-9
        m, _ = random_ray_map(3, make_generator(5))
        rng = make_generator(6)
        near = proj(m.source_vectors[12] + 1e-7 * random_state_vector(3, rng))
        pairs = projector_pairs(m) + [(near, proj(random_state_vector(3, rng)))]
        assert len(ray_map(3, pairs).source_vectors) == 14
        with pytest.raises(ValueError, match="sources 12 and 13 coincide"):
            ray_map(3, pairs, tol=Tolerance(1e-6))

    def test_immutable_and_certified_without_cached_stacks(self):
        m = identity_map(3)
        fields = ["dim", "source_vectors", "target_vectors", "tol"]
        assert sorted(vars(m)) == fields
        assert m.tol is DEFAULT_TOL
        loose = Tolerance(1e-4)
        assert RayMap(3, m.source_vectors, m.target_vectors, tol=loose).tol is loose
        check = check_orthogonality_preserving(m)
        assert check
        fit_transform(m, classify_transform(m, check))
        # a full certification leaves the map holding what it was built with
        assert sorted(vars(m)) == fields
        for name in ("dim", "pairs", "source_vectors", "target_vectors", "tol"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
            with pytest.raises(AttributeError):
                delattr(m, name)

    def test_vectors_are_read_only_rows_of_the_pairs(self):
        rng = make_generator(72)
        hidden = ContextTransform.from_matrix(random_unitary(3, rng))
        m = induced_ray_map(hidden, standard_context(3), [random_state_vector(3, rng)])
        pairs = projector_pairs(m)  # a Projector accepts only a unit row
        for rows, side in ((m.source_vectors, 0), (m.target_vectors, 1)):
            assert rows.shape == (8, 3) and rows.dtype == np.complex128
            assert not rows.flags.writeable
            for row, pair in zip(rows, pairs):
                assert np.array_equal(row, pair[side].vector)
            with pytest.raises(ValueError):
                rows[0, 0] = 0
            # linalg.projector_stack builds the pairs' matrices, entry for entry
            for mat, pair in zip(linalg.projector_stack(rows), pairs):
                assert np.array_equal(mat, pair[side].matrix)
        assert not [name for name, value in vars(m).items()
                    if isinstance(value, np.ndarray) and value.ndim == 3]

    def test_degenerate_rows_name_the_lowest_pair(self):
        # a zero target in pair 2 and an overflowing source in pair 4
        m, _ = random_ray_map(3, make_generator(7))
        sources, targets = m.source_vectors.copy(), m.target_vectors.copy()
        targets[2] = 0
        sources[4] = [1e308, 1e308, 0]
        with pytest.raises(ValueError, match="^pair 2: cannot project onto the zero vector"):
            RayMap(3, sources, targets)
        targets[2] = 2 * m.target_vectors[2]
        with pytest.raises(ValueError, match="^pair 4: .* norm overflows$"):
            RayMap(3, sources, targets)

    def test_mismatched_pair_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            ray_map(3, ((proj([1, 0, 0, 0]), proj([1, 0, 0, 0])),))


class TestOrthogonalityPreservation:
    def test_unitary_induced_map_preserves(self):
        rng = make_generator(50)
        u = ContextTransform.from_matrix(random_unitary(4, rng))
        rays = [random_state_vector(4, rng) for _ in range(30)]
        pairs = tuple((proj(r), proj(u.act_vector(r))) for r in rays)
        m = ray_map(4, pairs)
        assert check_orthogonality_preserving(m).ok

    def test_conjugation_induced_map_preserves(self):
        rng = make_generator(51)
        conj = ContextTransform.from_matrix(np.eye(3), antiunitary=True)
        rays = [random_state_vector(3, rng) for _ in range(20)]
        pairs = tuple((proj(r), proj(conj.act_vector(r))) for r in rays)
        m = ray_map(3, pairs)
        assert check_orthogonality_preserving(m).ok

    def test_constructed_violation_is_caught(self):
        e = standard_basis(3)
        # e1 and e2 are orthogonal sources, but their targets overlap
        pairs = (
            (proj(e[0]), proj(e[0])),
            (proj(e[1]), proj((e[0] + e[1]) / np.sqrt(2))),
            (proj(e[2]), proj(e[2])),
        )
        m = ray_map(3, pairs)
        check = check_orthogonality_preserving(m)
        assert not check.ok and not check
        assert check.violating_pair == (0, 1)
        assert check.source_product_norm <= 1e-9
        assert check.target_product_norm > 1e-9

    def test_spread_pair_of_an_induced_map_certifies(self, capsys, tmp_path):
        """The map s -> W s on 8 rays in dimension 3, sources 0 and 1 at
        overlap 2e-9, written in the Fourier basis, where every entry has
        modulus 1/sqrt3, and W the Fourier transform, which writes their
        images in the standard basis. Both overlaps are 2e-9, so the map
        certifies; the max-entry norm of P_0 P_1, a basis-dependent rule,
        lies on opposite sides of the tolerance on the two sides."""
        f = np.column_stack(fourier_basis(3))
        rng = make_generator(53)
        targets = [np.array([1, 0, 0]), np.array([2e-9, np.sqrt(1 - 4e-18), 0])]
        targets += [random_state_vector(3, rng) for _ in range(6)]
        m = RayMap(3, [f.conj().T @ t for t in targets], targets)
        s, t = (max_abs(np.outer(v[0], v[0].conj()) @ np.outer(v[1], v[1].conj()))
                for v in (m.source_vectors, m.target_vectors))
        assert s < 1e-9 < t
        path = tmp_path / "spread.json"
        path.write_text(json.dumps(ray_map_to_json(m)))
        assert cli.main(["uhlhorn", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "Unitary" and payload["residual"] <= 1e-15

    @pytest.mark.parametrize("n", [3, 4, 8])
    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-4])
    def test_verdict_is_basis_free(self, n, eps):
        """Rays 0 and 1 at overlap x among the sources and y among the
        targets, for x, y in eps/n, eps/2, 2 eps and n eps, written in the
        standard basis, and four random rays mapped by a random unitary. The
        check decides as x and y do, and gives the same verdict and pair
        when a seeded unitary turns every source and another every target."""
        rng, tol = make_generator(54 + n), Tolerance(eps)
        e = standard_basis(n)
        overlaps = (eps / n, eps / 2, 2 * eps, n * eps)

        def edge(x):
            return [e[0], x * e[0] + np.sqrt(1 - x * x) * e[1]]

        for x in overlaps:
            for y in overlaps:
                extra = [random_state_vector(n, rng) for _ in range(4)]
                u = random_unitary(n, rng)
                m = RayMap(n, edge(x) + extra, edge(y) + [u @ r for r in extra], tol)
                a, b = random_unitary(n, rng), random_unitary(n, rng)
                turned = RayMap(n, m.source_vectors @ a.T, m.target_vectors @ b.T, tol)
                expected = (x <= eps) == (y <= eps)
                check = check_orthogonality_preserving(m)
                assert check[:2] == (expected, None if expected else (0, 1))
                assert check_orthogonality_preserving(turned)[:2] == check[:2]

    def test_randomized_unitary_trials(self):
        rng = make_generator(52)
        for n in (3, 4, 5):
            for _ in range(334):
                u = ContextTransform.from_matrix(random_unitary(n, rng))
                rays = [random_state_vector(n, rng) for _ in range(6)]
                pairs = tuple((proj(r), proj(u.act_vector(r))) for r in rays)
                assert check_orthogonality_preserving(ray_map(n, pairs)).ok


class TestBargmannInvariant:
    def test_coincident_projectors_give_one(self):
        p = proj(random_state_vector(3, make_generator(1)))
        assert bargmann_invariant(p, p, p) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair_gives_zero(self):
        e = standard_basis(3)
        assert bargmann_invariant(proj(e[0]), proj(e[1]), proj(e[2])) == (
            pytest.approx(0.0, abs=1e-12))

    def test_frozen_complex_value(self):
        # oracle: <psi1|psi2><psi2|psi3><psi3|psi1> computed directly
        v1 = np.array([1, 0, 0], dtype=complex)
        v2 = np.array([1, 1, 0], dtype=complex) / np.sqrt(2)
        v3 = np.array([1, 1j, 0], dtype=complex) / np.sqrt(2)
        oracle = np.vdot(v1, v2) * np.vdot(v2, v3) * np.vdot(v3, v1)
        got = bargmann_invariant(proj(v1), proj(v2), proj(v3))
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(complex(0.25, 0.25), abs=1e-12)
        assert abs(got.imag) > 1e-3  # genuinely nonreal: it separates the branches

    def test_unitary_conjugation_invariance(self):
        rng = make_generator(3)
        ps = [proj(random_state_vector(3, rng)) for _ in range(3)]
        u = random_unitary(3, rng)
        qs = [proj(u @ p.vector) for p in ps]
        assert bargmann_invariant(*qs) == pytest.approx(
            bargmann_invariant(*ps), abs=1e-12)

    def test_antiunitary_action_conjugates(self):
        rng = make_generator(4)
        ps = [proj(random_state_vector(3, rng)) for _ in range(3)]
        u = random_unitary(3, rng)
        qs = [proj(u @ p.vector.conj()) for p in ps]
        assert bargmann_invariant(*qs) == pytest.approx(
            np.conj(bargmann_invariant(*ps)), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bargmann_invariant(proj([1, 0, 0]), proj([1, 0, 0, 0]), proj([1, 0, 0]))

    def test_cycles_of_any_length(self):
        # oracle: a pair gives |<u|v>|^2, a 4-cycle the product of its four overlaps
        rng = make_generator(5)
        ps = [proj(random_state_vector(3, rng)) for _ in range(4)]
        v = [p.vector for p in ps]
        assert bargmann_invariant(ps[0], ps[1]) == pytest.approx(
            abs(np.vdot(v[0], v[1])) ** 2, abs=1e-15)
        oracle = np.prod([np.vdot(v[a], v[(a + 1) % 4]) for a in range(4)])
        assert bargmann_invariant(*ps) == pytest.approx(oracle, abs=1e-15)
        with pytest.raises(ValueError, match="at least two projectors"):
            bargmann_invariant(ps[0])

    @pytest.mark.parametrize("n", [3, 8])
    def test_matches_the_trace_of_projector_products(self, n):
        # oracle: Tr(P_1 ... P_m) of the projector matrices, within rounding
        rng = make_generator(6)
        ps = [proj(random_state_vector(n, rng)) for _ in range(6)]
        for m in range(2, 7):
            slack = 16 * (m + n) * 2.0**-53
            assert abs(bargmann_invariant(*ps[:m]) - trace_invariant(*ps[:m])) <= slack


class TestClassifyTransform:
    def test_unitary_induced(self):
        m, _ = random_ray_map(3, make_generator(60), antiunitary=False)
        c = classify_transform(m, check_orthogonality_preserving(m))
        assert c.verdict is Verdict.UNITARY
        check_witness(m, c.verdict, c.witnesses)

    def test_antiunitary_induced(self):
        m, _ = random_ray_map(3, make_generator(61), antiunitary=True)
        c = classify_transform(m, check_orthogonality_preserving(m))
        assert c.verdict is Verdict.ANTIUNITARY
        check_witness(m, c.verdict, c.witnesses)

    def test_real_rays_inconclusive(self):
        e = standard_basis(3)
        rays = [e[0], e[1], e[2], (e[0] + e[1]) / np.sqrt(2),
                (e[1] + e[2]) / np.sqrt(2), (e[0] - e[2]) / np.sqrt(2)]
        pairs = tuple((proj(r), proj(r)) for r in rays)
        m = ray_map(3, pairs)
        c = classify_transform(m, check_orthogonality_preserving(m))
        assert c.verdict is Verdict.INCONCLUSIVE
        assert c.witnesses == {}

    def test_hypothesis_violation_raises(self):
        e = standard_basis(3)
        pairs = (
            (proj(e[0]), proj(e[0])),
            (proj(e[1]), proj((e[0] + e[1]) / np.sqrt(2))),
            (proj(e[2]), proj(e[2])),
        )
        m = ray_map(3, pairs)
        check = check_orthogonality_preserving(m)
        assert not check
        with pytest.raises(HypothesisViolated, match="does not preserve orthogonality"):
            classify_transform(m, check)

    def test_branches_never_confused(self):
        rng = make_generator(62)
        for anti in (False, True):
            for _ in range(10):
                m, _ = random_ray_map(3, rng, antiunitary=anti)
                verdict = classify_transform(m, check_orthogonality_preserving(m)).verdict
                assert verdict is (Verdict.ANTIUNITARY if anti else Verdict.UNITARY)


class TestFitTransform:
    def test_identity_map_recovers_identity(self):
        m = identity_map(3)
        fit = fit_transform(m, classify_transform(m, check_orthogonality_preserving(m)))
        assert not fit.transform.antiunitary
        assert fit.residual <= 1e-12
        assert max_abs(fit.transform.matrix - np.eye(3)) <= 1e-12

    def test_hidden_unitary_recovered_up_to_phase(self):
        rng = make_generator(70)
        extras = [random_state_vector(4, rng) for _ in range(20)]
        hidden = ContextTransform.from_matrix(random_unitary(4, rng))
        basis = random_unitary(4, rng)
        c = make_context([basis[:, k] for k in range(4)], "fid")
        m = induced_ray_map(hidden, c, extras)
        classification = classify_transform(m, check_orthogonality_preserving(m))
        fit = fit_transform(m, classification)
        assert classification.verdict is Verdict.UNITARY
        assert fit.residual <= 1e-8
        assert phase_aligned_distance(fit.transform.matrix, hidden.matrix) <= 1e-8

    def test_pure_conjugation_fits_antiunitary(self):
        conj = ContextTransform.from_matrix(np.eye(3), antiunitary=True)
        rng = make_generator(71)
        basis = random_unitary(3, rng)
        c = make_context([basis[:, k] for k in range(3)], "fid")
        m = induced_ray_map(conj, c, [random_state_vector(3, rng) for _ in range(5)])
        fit = fit_transform(m, classify_transform(m, check_orthogonality_preserving(m)))
        assert fit.transform.antiunitary
        assert fit.residual <= 1e-8
        assert phase_aligned_distance(fit.transform.matrix, np.eye(3)) <= 1e-8

    def test_basis_only_map_certifies(self):
        # basis rays only, no superpositions: all overlaps vanish, so the
        # branches coincide, and the identity reproduces every pair
        c = standard_context(3)
        pairs = tuple((p, p) for p in c.projectors)
        m = ray_map(3, pairs)
        classification = classify_transform(m, check_orthogonality_preserving(m))
        fit = fit_transform(m, classification)
        assert classification.verdict is Verdict.INCONCLUSIVE and classification.witnesses == {}
        assert fit.residual == 0.0

    def test_undeclared_gadget_certifies(self):
        rng = make_generator(72)
        u = ContextTransform.from_matrix(random_unitary(3, rng))
        rays = gadget_sources(standard_context(3))
        pairs = tuple((proj(r), proj(u.act_vector(r))) for r in rays)
        m = ray_map(3, pairs)  # gadget rays present but undeclared
        classification = classify_transform(m, check_orthogonality_preserving(m))
        fit = fit_transform(m, classification)
        assert classification.verdict is Verdict.UNITARY and fit.residual <= FIT_RESIDUAL_LIMIT
        assert phase_aligned_distance(fit.transform.matrix, u.matrix) <= 1e-8

    def test_neither_verdict_raises_hypothesis_violated(self):
        # compose a unitary on one triple with a conjugation on another by
        # hand-crafting inconsistent targets: exchanging the last two targets
        # of a genuine map breaks operator consistency
        tampered = _swap_last_targets(random_ray_map(3, make_generator(73))[0])
        check = check_orthogonality_preserving(tampered)
        classification = classify_transform(tampered, check)
        assert classification.verdict is Verdict.NEITHER and classification.phases is None
        with pytest.raises(HypothesisViolated):
            fit_transform(tampered, classification)

    def test_loose_tolerance_inconsistency_raises_fit_failed(self):
        # a target nudged by ~1e-5 slips past a 1e-4 classification tolerance
        # but no single operator can reproduce it to 1e-8: FitFailed
        tampered = _nudge_target(random_ray_map(3, make_generator(76))[0], -1, 1e-5,
                                 Tolerance(abs_eps=1e-4))
        classification = classify_transform(tampered, check_orthogonality_preserving(tampered))
        assert classification.verdict is Verdict.UNITARY
        with pytest.raises(FitFailed):
            fit_transform(tampered, classification)

    def test_global_phase_quotient(self):
        # rephasing every stored representative must not change the fitted
        # operator beyond a global phase
        rng = make_generator(74)
        m, hidden = random_ray_map(3, rng)
        fit_a = fit_transform(m, classify_transform(m, check_orthogonality_preserving(m)))
        phases = np.exp(2j * np.pi * rng.random((len(m.source_vectors), 2)))
        rephased = RayMap(3, phases[:, :1] * m.source_vectors, phases[:, 1:] * m.target_vectors)
        fit_b = fit_transform(
            rephased, classify_transform(rephased, check_orthogonality_preserving(rephased)))
        assert phase_aligned_distance(fit_a.transform.matrix,
                                      fit_b.transform.matrix) <= 1e-8

    def test_phase_normalization_deterministic(self):
        m, _ = random_ray_map(4, make_generator(75))
        u1, u2 = (fit_transform(m, classify_transform(m, check_orthogonality_preserving(m)))
                  .transform.matrix for _ in range(2))
        assert max_abs(u1 - u2) == 0.0
        lead = u1[np.flatnonzero(np.abs(u1[:, 0]) > 1e-12)[0], 0]
        assert abs(lead.imag) <= 1e-12 and lead.real > 0


# ------------------------------------------------------------------
# Reference implementations: the per-pair loops and the fully
# materialised triple scan that the Gram products, the ray distances and
# the gauge fits replaced. Checks must reproduce them, bit for bit or within
# overlap_band where one Gram product replaces per-pair dots, verdicts must
# agree wherever the triangles decide (TestGaugeVerdicts has the rest), and
# every witness must pass helpers.check_witness.

def fit_reference(m: RayMap, fit) -> float:
    """max_i ||T_i - U S_i U^dag|| (operator norm) for the fit's U, from the
    projector stacks, S_i conjugated if the fit is anti-unitary."""
    anti = fit.transform.antiunitary
    sources = m.source_vectors.conj() if anti else m.source_vectors
    return projector_residual(m.target_vectors, sources, fit.transform.matrix)


def ref_bijectivity_error(pairs, tol=DEFAULT_TOL) -> str | None:
    for i, j in combinations(range(len(pairs)), 2):
        if projector_distance(pairs[i][0], pairs[j][0]) <= tol.abs_eps:
            return f"sources {i} and {j} coincide; map must be bijective"
        if projector_distance(pairs[i][1], pairs[j][1]) <= tol.abs_eps:
            return f"targets {i} and {j} coincide; map must be bijective"
    return None


def overlap_band(n: int) -> float:
    """How far two computations of one overlap modulus of unit rows of n
    entries may differ: twice linalg.overlap_moduli's (2 sqrt2 n + 1) u."""
    return 8 * n * 2.0 ** -53


def _ref_moduli(m: RayMap):
    """((i, j), |<s_i|s_j>|, |<t_i|t_j>|) over all pairs, each by np.vdot."""
    for i, j in combinations(range(len(m.source_vectors)), 2):
        yield (i, j), *(abs(np.vdot(v[i], v[j])) for v in (m.source_vectors, m.target_vectors))


def ref_check(m: RayMap) -> OrthogonalityCheck:
    """The check pair by pair, on overlap moduli taken one np.vdot each."""
    eps = m.tol.abs_eps
    for pair, s, t in _ref_moduli(m):
        if (s <= eps) != (t <= eps):
            return OrthogonalityCheck(ok=False, violating_pair=pair,
                                      source_product_norm=s, target_product_norm=t)
    return OrthogonalityCheck(ok=True)


def assert_matches_reference(m: RayMap) -> OrthogonalityCheck:
    """check_orthogonality_preserving(m) against ref_check: one Gram product
    and per-pair dots round differently, so verdict and pair must be the
    reference's when every overlap lies outside overlap_band of m.tol, and
    the moduli reported for the same pair within the band of its."""
    check, ref = check_orthogonality_preserving(m), ref_check(m)
    eps, band = m.tol.abs_eps, overlap_band(m.dim)
    if all(abs(x - eps) > band for _, s, t in _ref_moduli(m) for x in (s, t)):
        assert check[:2] == ref[:2]
    if check.violating_pair is not None and check.violating_pair == ref.violating_pair:
        assert abs(check.source_product_norm - ref.source_product_norm) <= band
        assert abs(check.target_product_norm - ref.target_product_norm) <= band
    return check


def ref_classify(m: RayMap) -> Verdict:
    """The verdict of the Bargmann triangles alone: a branch fits if every
    nonreal triangle's invariant matches it; Inconclusive if none is nonreal."""
    eps = m.tol.abs_eps
    if not ref_check(m):
        raise HypothesisViolated("map does not preserve orthogonality both ways")
    k = len(m.source_vectors)
    bs, bt = (np.ascontiguousarray(rows.T) for rows in (m.source_vectors, m.target_vectors))
    gs, gt = bs.conj().T @ bs, bt.conj().T @ bt
    triples = np.array(list(combinations(range(k), 3)), dtype=int)
    if triples.size == 0:
        return Verdict.INCONCLUSIVE
    i, j, l = triples[:, 0], triples[:, 1], triples[:, 2]
    vs = gs[i, j] * gs[j, l] * gs[l, i]
    vt = gt[i, j] * gt[j, l] * gt[l, i]
    nonreal = np.abs(vs.imag) > eps
    if not np.any(nonreal):
        return Verdict.INCONCLUSIVE
    if np.all(np.abs(vt - vs)[nonreal] <= eps):
        return Verdict.UNITARY
    if np.all(np.abs(vt - vs.conj())[nonreal] <= eps):
        return Verdict.ANTIUNITARY
    return Verdict.NEITHER


def _swap_last_targets(m: RayMap) -> RayMap:
    order = [*range(len(m.target_vectors) - 2), -1, -2]
    return RayMap(m.dim, m.source_vectors, m.target_vectors[order])


def _nudge_target(m: RayMap, row: int, shift: float, tol=DEFAULT_TOL) -> RayMap:
    """m with target row moved by shift along e1 and renormalised, built at tol."""
    targets = m.target_vectors.copy()
    targets[row] = proj(targets[row] + [shift, 0, 0]).vector
    return RayMap(m.dim, m.source_vectors, targets, tol)


def _block_map(*antiunitary: bool) -> RayMap:
    """Four rays in each block span(e_2b, e_2b+1), mapped by a unitary or
    an anti-unitary on that block. Cross-block invariants vanish, so with
    both kinds of block every nonreal triple fits one branch only (mixed
    evidence)."""
    rng = make_generator(80)
    dim = 2 * len(antiunitary)
    pairs = []
    for block, anti in enumerate(antiunitary):
        u = random_unitary(2, rng)
        for _ in range(4):
            w = random_state_vector(2, rng)
            v, t = np.zeros(dim, dtype=complex), np.zeros(dim, dtype=complex)
            v[2 * block:2 * block + 2] = w
            t[2 * block:2 * block + 2] = u @ (w.conj() if anti else w)
            pairs.append((proj(v), proj(t)))
    return ray_map(dim, tuple(pairs))


def _shuffled(m: RayMap, seed: int) -> RayMap:
    order = make_generator(seed).permutation(len(m.source_vectors))
    return RayMap(m.dim, m.source_vectors[order], m.target_vectors[order])


def _small_map(k: int) -> RayMap:
    rng = make_generator(81 + k)
    u = random_unitary(3, rng)
    rays = [random_state_vector(3, rng) for _ in range(k)]
    return ray_map(3, tuple((proj(r), proj(u @ r)) for r in rays))


def _real_map() -> RayMap:
    e = standard_basis(3)
    rays = [e[0], e[1], e[2], (e[0] + e[1]) / np.sqrt(2),
            (e[1] + e[2]) / np.sqrt(2), (e[0] - e[2]) / np.sqrt(2)]
    return ray_map(3, tuple((proj(r), proj(r)) for r in rays))


def _violating_map() -> RayMap:
    e = standard_basis(3)
    return ray_map(3, (
        (proj(e[0]), proj(e[0])),
        (proj(e[1]), proj((e[0] + e[1]) / np.sqrt(2))),
        (proj(e[2]), proj(e[2])),
    ))


def reference_cases():
    """(name, map) over the shapes the kernels must agree on, each map
    built at the tolerance its case is decided at."""
    rng = make_generator(90)
    cases = []
    for dim in (3, 4):
        for anti in (False, True):
            for rep in range(3):
                m, _ = random_ray_map(dim, rng, antiunitary=anti, n_extra=6 + 4 * rep)
                cases.append((f"random-d{dim}-anti{anti}-{rep}", m))
                cases.append((f"shuffled-d{dim}-anti{anti}-{rep}", _shuffled(m, rep)))
    swapped = _swap_last_targets(random_ray_map(3, make_generator(73))[0])
    cases += [
        ("swapped-targets", swapped),
        ("swapped-targets-shuffled", _shuffled(swapped, 3)),
        ("nudged-target-loose", _nudge_target(random_ray_map(3, make_generator(76))[0], -1, 1e-5,
                                              Tolerance(abs_eps=1e-4))),
        ("nudged-target", _nudge_target(random_ray_map(3, make_generator(76))[0], -1, 1e-5)),
        ("violating", _violating_map()),
        ("mixed-evidence", _block_map(False, True)),
        ("neither-past-first-chunk", _swap_last_targets(_block_map(False, True))),
        # the first non-unitary triple fits the anti-unitary branch; a triple
        # fitting neither branch comes rows later and is the witness
        ("neither-after-mixed", _swap_last_targets(_block_map(True, False, False))),
        ("all-real", _real_map()),
    ]
    cases += [(f"k{k}", _small_map(k)) for k in (1, 2, 3)]
    return cases


def _outcome(fn, *args):
    """fn(*args), a classification without its phases, or ("raised", message)."""
    try:
        out = fn(*args)
    except HypothesisViolated as exc:
        return ("raised", str(exc))
    return out._replace(phases=None) if isinstance(out, TransformClassification) else out


class TestKernelsMatchReference:
    @pytest.mark.parametrize("name,m", reference_cases(),
                             ids=[c[0] for c in reference_cases()])
    def test_check_matches_reference_and_witnesses_checked(self, name, m):
        check = assert_matches_reference(m)
        got = _outcome(classify_transform, m, check)
        assert getattr(got, "verdict", got) == _outcome(ref_classify, m)
        if check:
            check_witness(m, got.verdict, got.witnesses)

    def test_cases_cover_every_verdict(self):
        outcomes = [_outcome(classify_transform, m, check_orthogonality_preserving(m))
                    for _, m in reference_cases()]
        verdicts = {getattr(c, "verdict", "raised") for c in outcomes}
        assert verdicts == {"raised", *Verdict}
        cycles = [w[0] for c in outcomes if hasattr(c, "witnesses") for w in c.witnesses.values()]
        # pairs, triangles and longer cycles, some of them past row 0
        assert {len(cycle) for cycle in cycles} >= {2, 3, 4, 5}
        assert any(cycle[0] > 0 for cycle in cycles)

    def test_mixed_evidence_witnesses_each_block(self):
        m = _block_map(False, True)
        c = classify_transform(m, check_orthogonality_preserving(m))
        assert c.verdict is Verdict.NEITHER
        check_witness(m, c.verdict, c.witnesses)
        # the unitary branch misfits in the anti-unitary block 1, the other in block 0
        assert min(c.witnesses[Verdict.UNITARY][0]) >= 4
        assert max(c.witnesses[Verdict.ANTIUNITARY][0]) < 4

    def test_bijectivity_error_bit_identical(self):
        rng = make_generator(91)
        # a raw row 5e-10 short of unit norm, which a Projector refuses: RayMap
        # gets it as it is, and the reference sees its unit ray
        short = np.array([1, 1j, -1]) / np.sqrt(3) * (1 - 5e-10)
        for anti in (False, True):
            m, _ = random_ray_map(3, rng, antiunitary=anti, n_extra=8)
            pairs = projector_pairs(m)
            k = len(pairs)
            variants = {
                "none": pairs,
                "source": pairs[:-1] + [(pairs[3][0], pairs[-1][1])],
                "target": pairs[:-1] + [(pairs[-1][0], pairs[5][1])],
                "both-same-pair": pairs[:-1] + [pairs[2]],
                "source-later-than-target":
                    pairs[:4] + [(pairs[4][0], pairs[1][1])] + pairs[5:-1]
                    + [(pairs[2][0], pairs[-1][1])],
                "rephased": pairs + [(proj(1j * pairs[k - 1][0].vector),
                                      proj(pairs[0][1].vector))],
                "short-norm-copies": [(Projector.from_vector(short), t) for _, t in pairs[:2]]
                + pairs[2:],
            }
            for label, ps in variants.items():
                expected = ref_bijectivity_error(ps)
                sources = [s.vector for s, _ in ps]
                if label == "short-norm-copies":
                    sources[:2] = short, short
                try:
                    RayMap(3, sources, [t.vector for _, t in ps])
                    got = None
                except ValueError as exc:
                    got = str(exc)
                assert got == expected, label
                assert (expected is None) == (label == "none"), label
            assert ref_bijectivity_error(variants["short-norm-copies"]) == (
                "sources 0 and 1 coincide; map must be bijective")

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("anti", [False, True])
    def test_seeded_maps_match_the_triangle_reference(self, n, anti):
        for seed in range(20):
            m, _ = random_ray_map(n, make_generator(seed), antiunitary=anti)
            for case in (m, _swap_last_targets(m)):
                check = assert_matches_reference(case)
                classification = classify_transform(case, check)
                assert classification.verdict is ref_classify(case)
                check_witness(case, classification.verdict, classification.witnesses)
            assert classification.verdict is Verdict.NEITHER  # the swapped map's

    def test_find_source_matches_the_stack_rule(self):
        """The first pair of same_ray_pairs over [v; sources], when it starts
        at v, names the source that helpers.ref_find_source finds in operator
        norm: sources as given, rephased and short of unit norm; rays near a
        source a little inside and outside their distance to it; a missing
        ray; all at 1e-9 and at a looser 1e-6, where sources 3 and 9 are the
        same ray, so a match among the sources alone must not count. At
        the distance itself, ray_distance(v, s), the ray is found, and 1 ulp
        below it not."""
        rng = make_generator(99)
        m, _ = random_ray_map(3, rng, n_extra=10)
        sources = m.source_vectors.copy()
        sources[9] = sources[3] + 1e-7 * random_state_vector(3, rng)
        m = RayMap(3, sources, m.target_vectors)
        loose = Tolerance(1e-6)
        assert linalg.first_repeated_ray(m.source_vectors, loose.abs_eps) == (3, 9)
        missing = random_state_vector(3, rng)
        probes = [(missing, DEFAULT_TOL), (missing, loose)]
        edges = []
        for j in (0, 3, 9, 12):
            s = m.source_vectors[j]
            for v in (s, np.exp(0.7j) * s, (1 - 5e-10) * s, (1 - 2e-9) * s):
                probes += [(v, DEFAULT_TOL), (v, loose)]
            near = s + 1e-7 * random_state_vector(3, rng)
            near /= np.linalg.norm(near)
            d = float(linalg.ray_distance(near, s))
            probes += [(near, Tolerance(d * f)) for f in (1 - 1e-3, 1 + 1e-3)]
            edges.append((j, [(near, Tolerance(e)) for e in (np.nextafter(d, 0), d,
                                                             np.nextafter(d, 1))]))

        def found(v, tol):
            stacked = np.vstack([v, m.source_vectors])
            # pairs come in lexicographic order, so those that start at v lead
            hit = next(linalg.same_ray_pairs(stacked, tol.abs_eps), None)
            return None if hit is None or hit[0] else hit[1] - 1

        for v, tol in probes:
            assert found(v, tol) == ref_find_source(m, v, tol)
        assert ref_find_source(m, missing, loose) is None
        assert ref_find_source(m, m.source_vectors[9], loose) == 3
        for j, edge in edges[:1] + edges[-1:]:  # sources 0 and 12 lie far from the rest
            assert [found(*probe) for probe in edge] == [None, j, j]

    def test_classification_is_the_same_in_any_row_blocks(self, monkeypatch):
        # blocks of 1, 7 and 59 entries split every fit and witness row
        cases = [(m, check_orthogonality_preserving(m)) for _, m in reference_cases()]
        expected = [_outcome(classify_transform, *case) for case in cases]
        for entries in (1, 7, 59):
            monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", entries)
            assert [_outcome(classify_transform, *case) for case in cases] == expected

    def test_fit_residual_is_the_operator_norm_residual(self):
        # max_i ||T_i - U S_i U^dag|| from the projector stacks, within rounding
        rng = make_generator(94)
        for dim in (3, 4):
            for anti in (False, True):
                m, _ = random_ray_map(dim, rng, antiunitary=anti, n_extra=10)
                fit = fit_transform(m, classify_transform(m, check_orthogonality_preserving(m)))
                assert abs(fit.residual - fit_reference(m, fit)) <= 1e-14


def _gadget_map(n: int, anti: bool, seed: int):
    """(map, fiducial context): a map on a fiducial basis with one to three
    candidate pairs at +-i per column, up to two candidates without a
    partner and up to three random rays, all in shuffled order after a
    leading pair of column 1 whose ratio is -i, with every source, target
    and fiducial basis vector rephased. On odd seeds the sources also hold
    a basis without a gadget."""
    rng = make_generator(seed)
    hidden = ContextTransform.from_matrix(random_unitary(n, rng), antiunitary=anti)
    e = list(random_unitary(n, rng).T)
    lead = 2 * np.pi * rng.random()
    first = [(e[0] + np.exp(1j * t) * e[1]) / np.sqrt(2.0) for t in (lead + np.pi / 2, lead)]
    rest = e + [random_state_vector(n, rng) for _ in range(int(rng.integers(0, 4)))]
    for k in range(1, n):
        starts = 2 * np.pi * rng.random(int(rng.integers(1, 4)))
        lone = 2 * np.pi * rng.random(int(rng.integers(0, 3)))
        rest += [(e[0] + np.exp(1j * t) * e[k]) / np.sqrt(2.0)
                 for t in np.concatenate([starts, starts + np.pi / 2, lone])]
    fiducial = make_context([np.exp(2j * np.pi * rng.random()) * v for v in e], "fid")
    if seed % 2:
        rest += list(random_unitary(n, rng).T)
    rays = first + [rest[i] for i in rng.permutation(len(rest))]
    phases = np.exp(2j * np.pi * rng.random((2, len(rays))))
    return RayMap(n, [p * r for p, r in zip(phases[0], rays)],
                  [p * hidden.act_vector(r) for p, r in zip(phases[1], rays)]), fiducial


class TestGadgetFit:
    """On maps that carry the phase-fixing gadget the fit once required,
    the Procrustes fit gives the gadget fit's operator (helpers.ref_fit)
    within 1e-13 per entry, on the branch the map was made on."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("anti", [False, True])
    def test_matches_the_gadget_fit(self, n, anti):
        for seed in range(12):
            m, fiducial = _gadget_map(n, anti, seed)
            classification = classify_transform(m, check_orthogonality_preserving(m))
            fit = fit_transform(m, classification)
            matrix, residual = ref_fit(m, fiducial, anti)
            assert classification.verdict is (Verdict.ANTIUNITARY if anti else Verdict.UNITARY)
            assert max_abs(fit.transform.matrix - matrix) <= 1e-13
            assert max(fit.residual, residual) <= FIT_RESIDUAL_LIMIT


def _gadget_free_map(n: int, k: int, anti: bool, seed: int):
    """(map, hidden operator): k random rays in dimension n through a random
    unitary or anti-unitary, every source and target rephased at random,
    with no gadget."""
    rng = make_generator(seed)
    hidden = ContextTransform.from_matrix(random_unitary(n, rng), antiunitary=anti)
    rays = [random_state_vector(n, rng) for _ in range(k)]
    phases = np.exp(2j * np.pi * rng.random((2, k)))
    return RayMap(n, [p * r for p, r in zip(phases[0], rays)],
                  [p * hidden.act_vector(r) for p, r in zip(phases[1], rays)]), hidden


class TestGadgetFreeFit:
    """Any operator-induced map certifies: the fit needs only the gauge
    phases of the branch fit, no fiducial basis and no superposition rays."""

    @pytest.mark.parametrize("n", [3, 4, 8])
    @pytest.mark.parametrize("anti", [False, True])
    def test_recovers_the_hidden_operator(self, n, anti):
        for k in (n + 1, 2 * n, 40, 300):
            m, hidden = _gadget_free_map(n, k, anti, seed=100 * n + k)
            classification = classify_transform(m, check_orthogonality_preserving(m))
            assert classification.verdict is (Verdict.ANTIUNITARY if anti else Verdict.UNITARY)
            check_witness(m, classification.verdict, classification.witnesses)
            fit = fit_transform(m, classification)
            assert fit.transform.antiunitary is anti
            assert fit.residual <= FIT_RESIDUAL_LIMIT
            assert phase_aligned_distance(fit.transform.matrix, hidden.matrix) <= 1e-8

    @pytest.mark.parametrize("anti", [False, True])
    def test_phases_are_the_decided_gauge(self, anti):
        """The classification's phases c satisfy <t_i|t_j> = <c_i s_i|c_j s_j>
        on the decided branch, as a read-only (k,) array."""
        m, _ = _gadget_free_map(4, 30, anti, seed=7)
        phases = classify_transform(m, check_orthogonality_preserving(m)).phases
        assert phases.shape == (30,) and not phases.flags.writeable
        s = phases[:, None] * (m.source_vectors.conj() if anti else m.source_vectors)
        t = m.target_vectors
        assert max_abs(t.conj() @ t.T - s.conj() @ s.T) <= 1e-13
        assert max_abs(np.abs(phases) - 1) <= 1e-15

    def test_inconclusive_keeps_the_unitary_gauge(self):
        m = _real_map()
        classification = classify_transform(m, check_orthogonality_preserving(m))
        assert classification.verdict is Verdict.INCONCLUSIVE
        gs, gt = _grams(m)
        phases = uhlhorn._gauge_fits(gs, gt, m.tol.abs_eps)[1]
        assert np.array_equal(classification.phases, phases[0])

    @pytest.mark.parametrize("anti", [False, True])
    def test_sources_in_a_plane_certify(self, anti):
        """Twenty rays in span(e1, e2) of C^3 fix the operator on that plane
        only; the fit is one of many operators, and reproduces every pair."""
        rng = make_generator(40)
        hidden = ContextTransform.from_matrix(random_unitary(3, rng), antiunitary=anti)
        rays = [np.append(random_state_vector(2, rng), 0) for _ in range(20)]
        m = RayMap(3, rays, [hidden.act_vector(r) for r in rays])
        assert np.linalg.matrix_rank(m.source_vectors) == 2
        classification = classify_transform(m, check_orthogonality_preserving(m))
        assert classification.verdict is (Verdict.ANTIUNITARY if anti else Verdict.UNITARY)
        fit = fit_transform(m, classification)
        assert fit.residual <= FIT_RESIDUAL_LIMIT
        assert abs(fit.residual - fit_reference(m, fit)) <= 1e-14


def _edge_rays(n: int, value: float, rng=None) -> list[np.ndarray]:
    """Rays a, b in dimension n with |<a|b>| = value. Without rng, a = e0
    and b = (value, sqrt(1 - value^2), 0, ...): the Gram entry is value to
    the last bit, an exact tie when value is the tolerance. With rng, the
    same rays turned by a random unitary: their modulus is value in exact
    arithmetic, and each way of computing it carries its own rounding."""
    w = np.eye(n) if rng is None else random_unitary(n, rng)
    return [w[:, 0], value * w[:, 0] + np.sqrt(1 - value * value) * w[:, 1]]


def _edge_maps(eps: float, n: int) -> list[RayMap]:
    """Two-pair maps, built at Tolerance(eps), with one side's pair at eps,
    eps +- 1 ulp, +- half overlap_band and +- twice the band, the other
    side's pair clearly orthogonal (e0, e1) or clearly not (e0, (e0 + e1)/sqrt2)."""
    band = overlap_band(n)
    ulp, tol = np.spacing(eps), Tolerance(eps)
    rng = make_generator(98 + n)
    e = standard_basis(n)
    decisive = ([e[0], e[1]], [e[0], (e[0] + e[1]) / np.sqrt(2)])
    maps = []
    for offset in (0.0, ulp, -ulp, band / 2, -band / 2, 2 * band, -2 * band):
        for turn in (None,) + (rng,) * 8:
            edge = _edge_rays(n, eps + offset, turn)
            for other in decisive:
                maps += [RayMap(n, edge, other, tol=tol), RayMap(n, other, edge, tol=tol)]
    return maps


class TestToleranceEdges:
    """Pairs placed at the tolerance and around overlap_band: the check must
    decide each as ref_check does wherever rounding cannot move the
    decision, decide exact ties as orthogonal, and every map that passes
    it gets witnesses helpers.check_witness accepts."""

    @pytest.mark.parametrize("n", [3, 4, 16])
    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-4])
    def test_edge_table_matches_reference(self, eps, n):
        results = []
        for m in _edge_maps(eps, n):
            results.append(assert_matches_reference(m))
            if results[-1]:
                c = classify_transform(m, results[-1])
                check_witness(m, c.verdict, c.witnesses)
        assert {r.ok for r in results} == {True, False}
        # unturned, the edge pair's modulus is exact: a tie counts as orthogonal
        e = standard_basis(n)
        for value in (eps, np.nextafter(eps, 0), np.nextafter(eps, 1)):
            m = RayMap(n, _edge_rays(n, value), [e[0], e[1]], Tolerance(eps))
            assert linalg.overlap_moduli(m.source_vectors)[0, 1] == value
            check = check_orthogonality_preserving(m)
            assert check.ok == (value <= eps)
            assert check.ok or check.source_product_norm == value


class TestBasisFreeRules:
    """A map an operator induces is bijective on both sides or neither, and
    keeps orthogonality: on rays planted at distances and overlaps that
    straddle tol, RayMap(S, W S) and RayMap(S, W conj(S)) for a random
    unitary W build exactly when RayMap(S, S) does, with its error line,
    and then pass the orthogonality check."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4, 8]),
           eps=st.sampled_from([1e-9, 1e-6]),
           copies=st.lists(st.sampled_from([0.5, 0.9, 1.1, 2.0]), max_size=2),
           orthogonal=st.lists(st.sampled_from([0.5, 2.0]), max_size=2))
    def test_induced_maps_are_bijective_exactly_when_the_identity_is(
            self, seed, n, eps, copies, orthogonal):
        rng = make_generator(seed)
        s, planted = planted_rays(rng, n, eps, copies, orthogonal)
        w = random_unitary(n, rng)
        outcomes = []
        for t in (s, s @ w.T, s.conj() @ w.T):
            try:
                m = RayMap(n, s, t, Tolerance(eps))
            except ValueError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append(check_orthogonality_preserving(m).ok)
        expected = ("sources %d and %d coincide; map must be bijective" % planted[0]
                    if planted else True)
        assert outcomes == [expected] * 3


def _four_cycle_map(anti: bool) -> RayMap:
    """Rays e0, (1,1,1)/sqrt3, e1, (1, i, -1-i)/2 under a unitary or its
    conjugate. The chords e0-e1 and 1-3 vanish, so every Bargmann triangle
    is 0, while the 4-cycle invariant is i/12."""
    e = standard_basis(3)
    rays = [e[0], np.ones(3) / np.sqrt(3), e[1], np.array([1, 1j, -1 - 1j]) / 2]
    u = random_unitary(3, make_generator(96))
    return ray_map(3, tuple((proj(r), proj(u @ (r.conj() if anti else r))) for r in rays))


class TestGaugeVerdicts:
    """Maps the phase-gauge fits decide where the triangle reference cannot."""

    @pytest.mark.parametrize("anti", [False, True])
    def test_nonreal_four_cycle_decides_the_branch(self, anti):
        m = _four_cycle_map(anti)
        gs = m.source_vectors.conj() @ m.source_vectors.T
        assert gs[0, 1] * gs[1, 2] * gs[2, 3] * gs[3, 0] == pytest.approx(1j / 12, abs=1e-15)
        assert ref_classify(m) is Verdict.INCONCLUSIVE
        branch = Verdict.ANTIUNITARY if anti else Verdict.UNITARY
        c = classify_transform(m, check_orthogonality_preserving(m))
        assert c.verdict is branch
        check_witness(m, branch, c.witnesses)
        # the witness is the 4-cycle, whose invariant i/12 the other branch conjugates
        [(cycle, source, target)] = c.witnesses.values()
        assert sorted(cycle) == [0, 1, 2, 3]
        assert source == pytest.approx(-target, abs=1e-15) and abs(source) == pytest.approx(1 / 12)

    def test_changed_overlap_modulus_is_neither(self):
        # orthogonality holds both ways, but |<e0|s3>| goes from 1/sqrt2 to cos 0.3
        e = standard_basis(3)
        sources = [e[0], e[1], e[2], (e[0] + e[1]) / np.sqrt(2)]
        targets = [e[0], e[1], e[2], np.cos(0.3) * e[0] + np.sin(0.3) * e[1]]
        m = ray_map(3, tuple((proj(s), proj(t)) for s, t in zip(sources, targets)))
        check = check_orthogonality_preserving(m)
        assert check.ok
        assert ref_classify(m) is Verdict.INCONCLUSIVE
        c = classify_transform(m, check)
        assert c.verdict is Verdict.NEITHER
        check_witness(m, c.verdict, c.witnesses)
        # on both branches, the pair whose overlap modulus moved
        assert {cycle for cycle, _, _ in c.witnesses.values()} == {(0, 3)}


def nudged_identity_map(tol=DEFAULT_TOL):
    """The identity map on the dimension-3 gadget with the target of e2
    moved 1e-6 toward e1, built at tol: orthogonality fails at 1e-9 and
    holds at 1e-4."""
    return _nudge_target(identity_map(3), 1, 1e-6, tol)


class TestOneStageEach:
    """One uhlhorn CLI run checks orthogonality once and classifies once,
    and fit_transform scans nothing."""

    def certify(self, monkeypatch, capsys, tmp_path, m):
        scans, classify = [], uhlhorn.classify_transform

        def counted(*args):
            scans.append(1)
            return classify(*args)

        monkeypatch.setattr(cli, "classify_transform", counted)
        monkeypatch.setattr(uhlhorn, "classify_transform", counted)
        path = tmp_path / "raymap.json"
        path.write_text(json.dumps(ray_map_to_json(m)))
        code = cli.main(["uhlhorn", str(path)])
        capsys.readouterr()
        return code, len(scans)

    @pytest.mark.parametrize("anti", [False, True])
    def test_accepted_map(self, monkeypatch, capsys, tmp_path, anti):
        m, _ = random_ray_map(3, make_generator(92), antiunitary=anti)
        assert self.certify(monkeypatch, capsys, tmp_path, m) == (0, 1)

    def test_rejected_map_runs_no_scan(self, monkeypatch, capsys, tmp_path):
        assert self.certify(monkeypatch, capsys, tmp_path, nudged_identity_map()) == (1, 0)

    @pytest.mark.parametrize("name", ["raymap_unitary_dim3.json",
                                      "raymap_antiunitary_dim3.json", None])
    def test_one_orthogonality_check_per_run(self, monkeypatch, capsys, tmp_path, name):
        """Each bundled map, and a map that fails the check (name None), is
        checked once: the handler hands its check to classify_transform,
        which runs none of its own."""
        checks, check = [], uhlhorn.check_orthogonality_preserving

        def counted(*args):
            checks.append(1)
            return check(*args)

        for module in (cli, uhlhorn):
            monkeypatch.setattr(module, "check_orthogonality_preserving", counted)
        path = tmp_path / "raymap.json" if name is None else jsonio.dataset_path(name)
        if name is None:
            path.write_text(json.dumps(ray_map_to_json(nudged_identity_map())))
        assert cli.main(["uhlhorn", str(path)]) == (1 if name is None else 0)
        capsys.readouterr()
        assert len(checks) == 1

    @pytest.mark.parametrize("name", ["raymap_unitary_dim3.json",
                                      "raymap_antiunitary_dim3.json"])
    def test_bundled_map_screens_each_ray_once(self, monkeypatch, capsys, name):
        """Two bijectivity screens, one per side; the fit screens nothing."""
        screens, screen = [], linalg.same_ray_pairs

        def counted(vectors, eps):
            screens.append(len(vectors))
            return screen(vectors, eps)

        monkeypatch.setattr(linalg, "same_ray_pairs", counted)
        assert cli.main(["uhlhorn", str(jsonio.dataset_path(name))]) == 0
        capsys.readouterr()
        assert len(screens) == 2


class TestOrthogonalityMemo:
    """Repeated checks on maps built at other tolerances decide each from
    scratch, as ref_check does; a wrong branch still fails the fit."""

    def test_each_tolerance_gets_its_own_verdict(self):
        for tol, ok in ((DEFAULT_TOL, False), (Tolerance(1e-4), True), (DEFAULT_TOL, False)):
            m = nudged_identity_map(tol)
            check = assert_matches_reference(m)
            assert check.ok is ok
        assert check.violating_pair == (0, 1)

    def test_one_map_one_tolerance(self, capsys, tmp_path):
        """Built at 1e-4, the nudged map passes the check and classifies as
        Unitary at 1e-4, and the fit then finds no operator within the
        residual limit, as `uhlhorn --tol 1e-4` does on its document; built
        at the default tolerance, it fails the check at pair (0, 1)."""
        loose = nudged_identity_map(Tolerance(1e-4))
        check = check_orthogonality_preserving(loose)
        assert check.ok
        classification = classify_transform(loose, check)
        assert classification.verdict is Verdict.UNITARY
        with pytest.raises(FitFailed) as failed:
            fit_transform(loose, classification)
        assert 1e-7 < failed.value.residual < 1e-5
        path = tmp_path / "nudged.json"
        path.write_text(json.dumps(ray_map_to_json(loose)))
        assert cli.main(["uhlhorn", "--tol", "1e-4", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        # the written map reads back bit for bit, so the CLI fits the same rows
        assert (payload["verdict"], payload["residual"]) == ("Unitary", failed.value.residual)
        strict = check_orthogonality_preserving(nudged_identity_map())
        assert not strict.ok and strict.violating_pair == (0, 1)

    def test_each_map_gets_its_own_verdict(self):
        good, bad = identity_map(3), nudged_identity_map()
        for m, ok in ((good, True), (bad, False), (good, True), (bad, False)):
            check = assert_matches_reference(m)
            assert check.ok is ok
        with pytest.raises(HypothesisViolated):  # the guard refuses a failed check
            classify_transform(bad, check)

    @pytest.mark.parametrize("anti", [False, True])
    def test_wrong_branch_fails_the_fit(self, anti):
        m, _ = random_ray_map(3, make_generator(95), antiunitary=anti)
        classification = classify_transform(m, check_orthogonality_preserving(m))
        assert classification.verdict is (Verdict.ANTIUNITARY if anti else Verdict.UNITARY)
        wrong = classification._replace(
            verdict=Verdict.UNITARY if anti else Verdict.ANTIUNITARY)
        with pytest.raises(FitFailed):
            fit_transform(m, wrong)


# Runs the CLI as `python -m qcontexts.cli` does, then writes the process's own
# resident peak to stderr. VmHWM starts afresh at exec, while the ru_maxrss
# that wait4 reports keeps the high-water mark of the pytest process it forked from.
_PEAK_WRAPPER = """
import runpy, sys
try:
    runpy.run_module("qcontexts.cli", run_name="__main__")
finally:
    with open("/proc/self/status") as status:
        sys.stderr.write("".join(line for line in status if line.startswith("VmHWM:")))
"""


def _large_map(k: int) -> RayMap:
    """A seeded anti-unitary map of k rays in dimension 3: the gadget on a
    random basis plus k - 7 random rays."""
    rng = make_generator(93)
    hidden = ContextTransform.from_matrix(random_unitary(3, rng), antiunitary=True)
    basis = random_unitary(3, rng)
    context = make_context([basis[:, j] for j in range(3)], "fiduciary")
    return induced_ray_map(hidden, context, [random_state_vector(3, rng) for _ in range(k - 7)])


def test_large_map_certifies_in_bounded_memory(tmp_path):
    """A 400-ray map: the whole uhlhorn CLI run stays under 150 MiB."""
    m = _large_map(400)
    assert len(m.source_vectors) == 400
    path = tmp_path / "raymap_400.json"
    path.write_text(json.dumps(ray_map_to_json(m)))
    import qcontexts
    env = dict(os.environ, PYTHONPATH=str(Path(qcontexts.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _PEAK_WRAPPER, "uhlhorn", str(path)],
                          capture_output=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "Antiunitary" and payload["antiunitary"] is True
    peak = re.search(r"^VmHWM:\s+(\d+) kB$", proc.stderr.decode(), re.MULTILINE)
    assert peak, proc.stderr  # other stderr lines, such as warnings, are skipped
    assert int(peak.group(1)) / 1024 < 150


def _real_neither_map(k: int) -> RayMap:
    """k real rays in dimension 3 through a real orthogonal matrix, with
    target k // 2 then moved by a real nudge of about 1e-3: the branches
    coincide on real data, and the moved overlaps fit neither."""
    rng = make_generator(94)
    sources = rng.standard_normal((k, 3))
    targets = sources @ np.linalg.qr(rng.standard_normal((3, 3)))[0].T
    targets[k // 2] += 1e-3 * rng.standard_normal(3)
    return RayMap(3, sources, targets)


def test_large_real_neither_map_is_witnessed_in_quadratic_time(tmp_path):
    """A 1200-ray real map with one target moved, run as a CLI child:
    uhlhorn exits 1 with Neither and, for each branch, the pair (0, 600)
    whose overlap modulus moved, as helpers.check_witness confirms on the
    map read back, well inside 10 s of wall time; no triangle is nonreal,
    so a scan of the triangles would run through all C(1200, 3) of them."""
    path = tmp_path / "raymap_real_1200.json"
    path.write_text(json.dumps(ray_map_to_json(_real_neither_map(1200))))
    import qcontexts
    env = dict(os.environ, PYTHONPATH=str(Path(qcontexts.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qcontexts.cli", "uhlhorn", str(path)],
                          capture_output=True, env=env, check=False, timeout=60)
    wall = time.perf_counter() - start
    assert proc.returncode == 1, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "Neither"
    witnesses = payload_witnesses(payload)
    check_witness(jsonio.ray_map_from_json(json.loads(path.read_text())), Verdict.NEITHER,
                  witnesses)
    assert {cycle for cycle, _, _ in witnesses.values()} == {(0, 600)}
    assert wall < 10


def test_large_map_is_screened_once_per_side(monkeypatch):
    """Building a 1200-ray map runs two bijectivity screens, one over the
    1200 sources and one over the 1200 targets, and no other scan of the rows."""
    m = _large_map(1200)
    calls, blocks = [], linalg.row_blocks

    def counted(stop, width):
        calls.append((stop, width))
        return blocks(stop, width)

    monkeypatch.setattr(linalg, "row_blocks", counted)
    RayMap(3, m.source_vectors, m.target_vectors)
    # widths of 9 are the projector blocks that decide each candidate pair
    assert [call for call in calls if call[1] > 9] == [(1199, 1200), (1199, 1200)]


def _sweep_map(k: int) -> RayMap:
    return random_ray_map(3, make_generator(97), antiunitary=True, n_extra=k - 7)[0]


def _grams(m: RayMap) -> tuple[np.ndarray, np.ndarray]:
    return (m.source_vectors.conj() @ m.source_vectors.T,
            m.target_vectors.conj() @ m.target_vectors.T)


@pytest.mark.parametrize("anti", [False, True])
def test_gauge_residual_is_the_same_in_any_row_blocks(monkeypatch, anti):
    """Both residuals of the shared forest equal the per-branch reference
    bit for bit, on a unitary and an anti-unitary map, so on the fitting
    branch and on the other one: at the default block, which holds all 60
    rows, and at blocks of 1, 7 and 59 rows."""
    m = random_ray_map(3, make_generator(97), antiunitary=anti, n_extra=60 - 7)[0]
    gs, gt = _grams(m)
    expected = (ref_gauge_residual(gs, gt), ref_gauge_residual(gs.conj(), gt))
    assert (expected[0] <= 1e-9, expected[1] <= 1e-9) == (not anti, anti)
    assert uhlhorn._gauge_fits(gs, gt, 1e-9)[0] == expected
    for rows in (1, 7, 59):
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 60 * rows)
        assert uhlhorn._gauge_fits(gs, gt, 1e-9)[0] == expected


def test_witness_is_the_same_in_any_row_blocks(monkeypatch):
    """On an anti-unitary map of 60 rays with the target overlap (45, 50)
    turned by i, off the forest, the unitary branch misfits in row 0 and the
    anti-unitary one first at (45, 50), closed by the forest path from 45
    to 50. At k=60 the default block holds every row; blocks of 1, 7 and
    59 rows find the same witnesses, bit for bit."""
    gs, gt = _grams(_sweep_map(60))
    gt[45, 50] *= 1j
    gt[50, 45] = gt[45, 50].conjugate()
    witnesses = uhlhorn._gauge_fits(gs, gt, 1e-9)[2]
    unitary, anti = (witnesses[branch][0] for branch in (Verdict.UNITARY, Verdict.ANTIUNITARY))
    assert unitary[0] == 0 and (anti[0], anti[-1]) == (45, 50) and len(anti) > 2
    for branch, (cycle, source, target) in witnesses.items():
        # products of Gram entries around the cycle, as the goldens print them
        edges = (list(cycle), list(cycle[1:] + cycle[:1]))
        value = complex(np.prod(gs[edges]))
        assert source == (value.conjugate() if branch is Verdict.ANTIUNITARY else value)
        assert target == complex(np.prod(gt[edges]))
    for rows in (1, 7, 59):
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 60 * rows)
        assert uhlhorn._gauge_fits(gs, gt, 1e-9)[2] == witnesses


def _check_and_classify(m: RayMap) -> TransformClassification:
    return classify_transform(m, check_orthogonality_preserving(m))


def test_classification_memory_grows_as_k_squared():
    """Peak allocation of check_orthogonality_preserving and
    classify_transform together, which share one Gram stack, at k=200 and
    k=400. O(k^2) memory gives a ratio of 4; the slack of 1.25 covers fixed
    overheads and still rejects the 8 of an O(k^3) table."""
    peaks = []
    for k in (200, 400):
        classification, peak = peak_allocation(_check_and_classify, _sweep_map(k))
        assert classification.verdict is Verdict.ANTIUNITARY
        peaks.append(peak)
    assert peaks[1] / peaks[0] <= 4 * 1.25


def test_classification_peak_at_1200_rays():
    """The check's (2, k, k) complex Gram stack (43.9 MiB at k=1200) sets
    the peak of the check and classify_transform together: the moduli and
    the residuals take row blocks of about 1 MiB, the forest one row of
    |G_s| a step, and the witnesses single entries. Given the check,
    classify_transform allocates less than one (k, k) float array (11 MiB)."""
    m = _large_map(1200)
    classification, peak = peak_allocation(_check_and_classify, m)
    assert classification.verdict is Verdict.ANTIUNITARY
    assert peak / 2**20 < 48
    check = check_orthogonality_preserving(m)
    classification, peak = peak_allocation(classify_transform, m, check)
    assert classification.verdict is Verdict.ANTIUNITARY
    assert peak / 2**20 < 8


def test_orthogonality_check_memory_grows_as_k_squared():
    """Peak allocation of check_orthogonality_preserving at k=200 and
    k=400: the (k, k) moduli give a ratio of 4; the slack of 1.25
    rejects the 8 of an O(k^3) table."""
    peaks = []
    for k in (200, 400):
        check, peak = peak_allocation(check_orthogonality_preserving, _sweep_map(k))
        assert check.ok
        peaks.append(peak)
    assert peaks[1] / peaks[0] <= 4 * 1.25


@pytest.mark.parametrize("n", [3, 4, 8, 16])
def test_gram_stack_is_the_per_side_products(n):
    """The check's grams are the read-only (2, k, k) stack of the per-side
    products v.conj() @ v.T, bit for bit, passed or failed; its moduli are
    linalg.overlap_moduli's, bit for bit."""
    rng = make_generator(n)
    for anti in (False, True):
        m = random_ray_map(n, rng, antiunitary=anti, n_extra=40)[0]
        cases = (m, _swap_last_targets(m), _turned_map(m, [(5, 30)]))
        checks = [check_orthogonality_preserving(case) for case in cases]
        assert [check.ok for check in checks] == [True, True, False]
        for case, grams in zip(cases, (check.grams for check in checks)):
            assert grams.shape == (2, len(case.source_vectors), len(case.source_vectors))
            assert not grams.flags.writeable
            assert [g.tobytes() for g in grams] == [g.tobytes() for g in _grams(case)]
            moduli = [linalg.overlap_moduli(v) for v in (case.source_vectors, case.target_vectors)]
            assert np.abs(grams).tobytes() == np.stack(moduli).tobytes()


def _turned_map(m: RayMap, pairs) -> RayMap:
    """m with source j of each (i, j) in pairs turned orthogonal to source i
    and target j a random ray: those pairs, and almost surely no others,
    violate orthogonality preservation."""
    rng = make_generator(len(pairs))
    sources, targets = m.source_vectors.copy(), m.target_vectors.copy()
    for i, j in pairs:
        v = random_state_vector(m.dim, rng)
        sources[j] = v - np.vdot(sources[i], v) * sources[i]
        targets[j] = random_state_vector(m.dim, rng)
    return RayMap(m.dim, sources, targets)


@pytest.mark.parametrize("pairs", [[(7, 30)], [(59, 65)], [(59, 65), (7, 30)]])
def test_check_is_the_same_in_any_row_blocks(monkeypatch, pairs):
    """A passing 70-ray map and one violating at pairs: blocks of 1, 7 and
    59 rows give the verdict, the first violating pair and its moduli of the
    default block, which holds every row, bit for bit. Rows 7 and 59 are
    the first past a block boundary of 7 and of 59 rows."""
    m = _sweep_map(70)
    maps = [m, _turned_map(m, pairs)]
    expected = [check_orthogonality_preserving(case)[:4] for case in maps]
    assert expected[0] == (True, None, None, None)
    assert expected[1][1] == min(pairs) == ref_check(maps[1]).violating_pair
    for rows in (1, 7, 59):
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 70 * rows)
        assert [check_orthogonality_preserving(case)[:4] for case in maps] == expected


class _CountedRows(np.ndarray):
    """Rows that record the shape of every matrix product taken from them,
    or from arrays made from them."""

    products: list[tuple[int, ...]] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _CountedRows) else x for x in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.matmul:
            _CountedRows.products.append(out.shape)
        return out.view(_CountedRows) if isinstance(out, np.ndarray) else out

    def __array_function__(self, func, types, args, kwargs):
        out = super().__array_function__(func, types, args, kwargs)
        return out.view(_CountedRows) if isinstance(out, np.ndarray) else out


@pytest.mark.parametrize("anti", [False, True])
def test_one_gram_product_per_certification(monkeypatch, anti):
    """Check, classification and fit of a 60-ray map take one product with
    a (k, k) result, the (2, k, k) Gram stack, and give the fit's bits."""
    m = random_ray_map(3, make_generator(98), antiunitary=anti, n_extra=60 - 7)[0]
    counted = object.__new__(RayMap)
    vars(counted).update(vars(m), source_vectors=m.source_vectors.view(_CountedRows),
                         target_vectors=m.target_vectors.view(_CountedRows))
    monkeypatch.setattr(_CountedRows, "products", [])
    fit = fit_transform(counted, _check_and_classify(counted))
    assert [s for s in _CountedRows.products if s[-2:] == (60, 60)] == [(2, 60, 60)]
    expected = fit_transform(m, _check_and_classify(m))
    assert fit.residual == expected.residual
    assert fit.transform.matrix.tobytes() == expected.transform.matrix.tobytes()
