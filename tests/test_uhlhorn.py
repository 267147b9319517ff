import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    act_matrix,
    peak_allocation,
    phase_aligned_distance,
    ray_map,
    standard_basis,
    standard_context,
)
from qcontexts import cli, uhlhorn
from qcontexts.core import ContextTransform, Projector, make_context, make_generator
from qcontexts.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    FitFailed,
    HypothesisViolated,
    MissingGadget,
)
from qcontexts.jsonio import ray_map_to_json
from qcontexts.linalg import DEFAULT_TOL, Tolerance, max_abs
from qcontexts.sampling import random_ray_map, random_state_vector, random_unitary
from qcontexts.uhlhorn import (
    OrthogonalityCheck,
    RayMap,
    TransformClassification,
    Verdict,
    bargmann_invariant,
    check_orthogonality_preserving,
    classify_transform,
    fit_transform,
    gadget_sources,
    induced_ray_map,
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

    def test_covering_context_must_be_inside_sources(self):
        c = standard_context(3)
        pairs = tuple((p, p) for p in c.projectors[:2])
        with pytest.raises(ValueError):
            ray_map(3, pairs, covering_contexts=(c,))

    def test_same_ray_is_decided_at_the_given_tolerance(self):
        # a source 1e-7 from source 12 is the same ray at 1e-6, another at 1e-9
        m, _ = random_ray_map(3, make_generator(5))
        rng = make_generator(6)
        near = proj(m.source_vectors[12] + 1e-7 * random_state_vector(3, rng))
        pairs = m.pairs + ((near, proj(random_state_vector(3, rng))),)
        assert len(ray_map(3, pairs).pairs) == 14
        with pytest.raises(ValueError, match="sources 12 and 13 coincide"):
            ray_map(3, pairs, tol=Tolerance(1e-6))

    def test_covering_context_is_located_at_the_given_tolerance(self):
        c = standard_context(3)
        turned = np.array([[1, 1e-7, 0], [-1e-7, 1, 0], [0, 0, 1]], dtype=complex)
        pairs = tuple((proj(turned @ v), proj(turned @ v)) for v in standard_basis(3))
        with pytest.raises(ValueError, match="missing from the sources"):
            ray_map(3, pairs, covering_contexts=(c,))
        m = ray_map(3, pairs, covering_contexts=(c,), tol=Tolerance(1e-6))
        assert m.covering_contexts == (c,)

    def test_immutable_and_certified_without_cached_stacks(self):
        m = identity_map(3)
        assert check_orthogonality_preserving(m)
        fit_transform(m, classify_transform(m))
        # a full certification leaves the map holding its rows and nothing derived
        assert sorted(vars(m)) == ["covering_contexts", "dim", "source_vectors",
                                   "target_vectors"]
        for name in ("dim", "pairs", "covering_contexts", "source_vectors"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
            with pytest.raises(AttributeError):
                delattr(m, name)

    def test_vectors_are_read_only_rows_of_the_pairs(self):
        rng = make_generator(72)
        hidden = ContextTransform.from_matrix(random_unitary(3, rng))
        m = induced_ray_map(hidden, standard_context(3), [random_state_vector(3, rng)])
        for rows, side in ((m.source_vectors, 0), (m.target_vectors, 1)):
            assert rows.shape == (len(m.pairs), 3) and rows.dtype == np.complex128
            assert not rows.flags.writeable
            for row, pair in zip(rows, m.pairs):
                assert np.array_equal(row, pair[side].vector)
            with pytest.raises(ValueError):
                rows[0, 0] = 0
            # the stacks the checks build are the pairs' matrices, entry for entry
            for mat, pair in zip(uhlhorn._projector_stack(rows), m.pairs):
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


class TestClassifyTransform:
    def test_unitary_induced(self):
        m, _ = random_ray_map(3, make_generator(60), antiunitary=False)
        c = classify_transform(m)
        assert c.verdict is Verdict.UNITARY
        assert c.witness_triple is not None
        assert abs(c.witness_source_value.imag) > 1e-9
        assert c.witness_target_value == pytest.approx(c.witness_source_value,
                                                       abs=1e-9)

    def test_antiunitary_induced(self):
        m, _ = random_ray_map(3, make_generator(61), antiunitary=True)
        c = classify_transform(m)
        assert c.verdict is Verdict.ANTIUNITARY
        assert c.witness_target_value == pytest.approx(
            np.conj(c.witness_source_value), abs=1e-9)

    def test_real_rays_inconclusive(self):
        e = standard_basis(3)
        rays = [e[0], e[1], e[2], (e[0] + e[1]) / np.sqrt(2),
                (e[1] + e[2]) / np.sqrt(2), (e[0] - e[2]) / np.sqrt(2)]
        pairs = tuple((proj(r), proj(r)) for r in rays)
        c = classify_transform(ray_map(3, pairs))
        assert c.verdict is Verdict.INCONCLUSIVE
        assert c.witness_triple is None

    def test_hypothesis_violation_raises(self):
        e = standard_basis(3)
        pairs = (
            (proj(e[0]), proj(e[0])),
            (proj(e[1]), proj((e[0] + e[1]) / np.sqrt(2))),
            (proj(e[2]), proj(e[2])),
        )
        with pytest.raises(HypothesisViolated):
            classify_transform(ray_map(3, pairs))

    def test_branches_never_confused(self):
        rng = make_generator(62)
        for anti in (False, True):
            for _ in range(10):
                m, _ = random_ray_map(3, rng, antiunitary=anti)
                verdict = classify_transform(m).verdict
                assert verdict is (Verdict.ANTIUNITARY if anti else Verdict.UNITARY)


class TestFitTransform:
    def test_identity_map_recovers_identity(self):
        m = identity_map(3)
        fit = fit_transform(m, classify_transform(m))
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
        fit = fit_transform(m, classify_transform(m))
        assert fit.verdict is Verdict.UNITARY
        assert fit.residual <= 1e-8
        assert phase_aligned_distance(fit.transform.matrix, hidden.matrix) <= 1e-8

    def test_pure_conjugation_fits_antiunitary(self):
        conj = ContextTransform.from_matrix(np.eye(3), antiunitary=True)
        rng = make_generator(71)
        basis = random_unitary(3, rng)
        c = make_context([basis[:, k] for k in range(3)], "fid")
        m = induced_ray_map(conj, c, [random_state_vector(3, rng) for _ in range(5)])
        fit = fit_transform(m, classify_transform(m))
        assert fit.transform.antiunitary
        assert fit.residual <= 1e-8
        assert phase_aligned_distance(fit.transform.matrix, np.eye(3)) <= 1e-8

    def test_missing_gadget_raises(self):
        # basis rays only, no superpositions
        c = standard_context(3)
        ident = ContextTransform.from_matrix(np.eye(3))
        pairs = tuple((p, p) for p in c.projectors)
        m = ray_map(3, pairs, covering_contexts=(c,))
        with pytest.raises(MissingGadget):
            fit_transform(m, classify_transform(m))

    def test_no_covering_context_raises(self):
        rng = make_generator(72)
        u = ContextTransform.from_matrix(random_unitary(3, rng))
        rays = gadget_sources(standard_context(3))
        pairs = tuple((proj(r), proj(u.act_vector(r))) for r in rays)
        m = ray_map(3, pairs)  # gadget rays present but undeclared
        with pytest.raises(MissingGadget):
            fit_transform(m, classify_transform(m))

    def test_neither_verdict_raises_hypothesis_violated(self):
        # compose a unitary on one triple with a conjugation on another by
        # hand-crafting inconsistent targets: swap two targets of a genuine map
        m, _ = random_ray_map(3, make_generator(73))
        pairs = list(m.pairs)
        n = len(pairs)
        # exchanging the last two targets breaks operator consistency
        pairs[n - 1] = (pairs[n - 1][0], m.pairs[n - 2][1])
        pairs[n - 2] = (pairs[n - 2][0], m.pairs[n - 1][1])
        tampered = ray_map(3, tuple(pairs),
                          covering_contexts=m.covering_contexts)
        with pytest.raises((HypothesisViolated, MissingGadget)):
            fit_transform(tampered, classify_transform(tampered))

    def test_loose_tolerance_inconsistency_raises_fit_failed(self):
        # a target nudged by ~1e-5 slips past a 1e-4 classification tolerance
        # but no single operator can reproduce it to 1e-8: FitFailed
        m, _ = random_ray_map(3, make_generator(76))
        pairs = list(m.pairs)
        last_target = pairs[-1][1]
        nudge = np.array([1e-5, 0, 0])
        tampered_target = proj(last_target.vector + nudge)
        pairs[-1] = (pairs[-1][0], tampered_target)
        tampered = ray_map(3, tuple(pairs),
                          covering_contexts=m.covering_contexts)
        loose = Tolerance(abs_eps=1e-4)
        classification = classify_transform(tampered, loose)
        assert classification.verdict is Verdict.UNITARY
        with pytest.raises(FitFailed):
            fit_transform(tampered, classification, loose)

    def test_global_phase_quotient(self):
        # rephasing every stored representative must not change the fitted
        # operator beyond a global phase
        rng = make_generator(74)
        m, hidden = random_ray_map(3, rng)
        fit_a = fit_transform(m, classify_transform(m))
        phases = np.exp(2j * np.pi * rng.random(2 * len(m.pairs)))
        pairs = tuple(
            (Projector.from_vector(phases[2 * k] * s.vector),
             Projector.from_vector(phases[2 * k + 1] * t.vector))
            for k, (s, t) in enumerate(m.pairs)
        )
        contexts = tuple(
            make_context([phases[2 * m_._find_source(p.vector)] * p.vector
                          for p in c.projectors], c.label)
            for m_, c in ((m, c) for c in m.covering_contexts)
        )
        rephased = ray_map(3, pairs, covering_contexts=contexts)
        fit_b = fit_transform(rephased, classify_transform(rephased))
        assert phase_aligned_distance(fit_a.transform.matrix,
                                      fit_b.transform.matrix) <= 1e-8

    def test_phase_normalization_deterministic(self):
        m, _ = random_ray_map(4, make_generator(75))
        u1 = fit_transform(m, classify_transform(m)).transform.matrix
        u2 = fit_transform(m, classify_transform(m)).transform.matrix
        assert max_abs(u1 - u2) == 0.0
        lead = u1[np.flatnonzero(np.abs(u1[:, 0]) > 1e-12)[0], 0]
        assert abs(lead.imag) <= 1e-12 and lead.real > 0


# ------------------------------------------------------------------
# Reference implementations: the per-pair loops and the fully
# materialised triple scan that the Gram screen, the stacked kernels and
# the gauge fits replaced. Checks and witnesses must reproduce them bit for
# bit, and verdicts must agree wherever the triangles decide
# (TestGaugeVerdicts has the rest).

def ref_bijectivity_error(pairs, tol=DEFAULT_TOL) -> str | None:
    for i, j in combinations(range(len(pairs)), 2):
        if pairs[i][0].distance(pairs[j][0]) <= tol.abs_eps:
            return f"sources {i} and {j} coincide; map must be bijective"
        if pairs[i][1].distance(pairs[j][1]) <= tol.abs_eps:
            return f"targets {i} and {j} coincide; map must be bijective"
    return None


def ref_check(m: RayMap, tol=DEFAULT_TOL) -> OrthogonalityCheck:
    for i, j in combinations(range(len(m.pairs)), 2):
        s = max_abs(m.pairs[i][0].matrix @ m.pairs[j][0].matrix)
        t = max_abs(m.pairs[i][1].matrix @ m.pairs[j][1].matrix)
        if (s <= tol.abs_eps) != (t <= tol.abs_eps):
            return OrthogonalityCheck(ok=False, violating_pair=(i, j),
                                      source_product_norm=s,
                                      target_product_norm=t)
    return OrthogonalityCheck(ok=True)


def ref_classify(m: RayMap, tol=DEFAULT_TOL) -> TransformClassification:
    if not ref_check(m, tol):
        raise HypothesisViolated("map does not preserve orthogonality both ways")
    k = len(m.pairs)
    bs = np.column_stack([s.vector for s, _ in m.pairs])
    bt = np.column_stack([t.vector for _, t in m.pairs])
    gs, gt = bs.conj().T @ bs, bt.conj().T @ bt
    triples = np.array(list(combinations(range(k), 3)), dtype=int)
    if triples.size == 0:
        return TransformClassification(Verdict.INCONCLUSIVE)
    i, j, l = triples[:, 0], triples[:, 1], triples[:, 2]
    vs = gs[i, j] * gs[j, l] * gs[l, i]
    vt = gt[i, j] * gt[j, l] * gt[l, i]
    nonreal = np.abs(vs.imag) > tol.abs_eps
    if not np.any(nonreal):
        return TransformClassification(Verdict.INCONCLUSIVE)
    unitary_ok = np.abs(vt - vs) <= tol.abs_eps
    anti_ok = np.abs(vt - vs.conj()) <= tol.abs_eps

    def witness(mask):
        idx = int(np.argmax(mask))
        return tuple(int(x) for x in triples[idx]), complex(vs[idx]), complex(vt[idx])

    if np.all(unitary_ok[nonreal]):
        return TransformClassification(Verdict.UNITARY, *witness(nonreal))
    if np.all(anti_ok[nonreal]):
        return TransformClassification(Verdict.ANTIUNITARY, *witness(nonreal))
    bad = nonreal & ~unitary_ok & ~anti_ok
    if not np.any(bad):
        bad = nonreal & ~unitary_ok
    return TransformClassification(Verdict.NEITHER, *witness(bad))


def _swap_last_targets(m: RayMap) -> RayMap:
    pairs = list(m.pairs)
    pairs[-1], pairs[-2] = (pairs[-1][0], m.pairs[-2][1]), (pairs[-2][0], m.pairs[-1][1])
    return ray_map(m.dim, tuple(pairs), covering_contexts=m.covering_contexts)


def _nudge_last_target(m: RayMap) -> RayMap:
    pairs = list(m.pairs)
    pairs[-1] = (pairs[-1][0], proj(pairs[-1][1].vector + np.array([1e-5, 0, 0])))
    return ray_map(m.dim, tuple(pairs), covering_contexts=m.covering_contexts)


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
    order = make_generator(seed).permutation(len(m.pairs))
    return ray_map(m.dim, tuple(m.pairs[i] for i in order),
                  covering_contexts=m.covering_contexts)


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
    """(name, map, tol) over the shapes the kernels must agree on."""
    rng = make_generator(90)
    loose = Tolerance(abs_eps=1e-4)
    cases = []
    for dim in (3, 4):
        for anti in (False, True):
            for rep in range(3):
                m, _ = random_ray_map(dim, rng, antiunitary=anti, n_extra=6 + 4 * rep)
                cases.append((f"random-d{dim}-anti{anti}-{rep}", m, DEFAULT_TOL))
                cases.append((f"shuffled-d{dim}-anti{anti}-{rep}", _shuffled(m, rep),
                              DEFAULT_TOL))
    swapped = _swap_last_targets(random_ray_map(3, make_generator(73))[0])
    cases += [
        ("swapped-targets", swapped, DEFAULT_TOL),
        ("swapped-targets-shuffled", _shuffled(swapped, 3), DEFAULT_TOL),
        ("nudged-target-loose", _nudge_last_target(random_ray_map(3, make_generator(76))[0]),
         loose),
        ("nudged-target", _nudge_last_target(random_ray_map(3, make_generator(76))[0]),
         DEFAULT_TOL),
        ("violating", _violating_map(), DEFAULT_TOL),
        ("mixed-evidence", _block_map(False, True), DEFAULT_TOL),
        ("neither-past-first-chunk", _swap_last_targets(_block_map(False, True)), DEFAULT_TOL),
        # the first non-unitary triple fits the anti-unitary branch; a triple
        # fitting neither branch comes rows later and is the witness
        ("neither-after-mixed", _swap_last_targets(_block_map(True, False, False)),
         DEFAULT_TOL),
        ("all-real", _real_map(), DEFAULT_TOL),
    ]
    cases += [(f"k{k}", _small_map(k), DEFAULT_TOL) for k in (1, 2, 3)]
    return cases


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HypothesisViolated as exc:
        return ("raised", str(exc))


class TestKernelsMatchReference:
    @pytest.mark.parametrize("name,m,tol", reference_cases(),
                             ids=[c[0] for c in reference_cases()])
    def test_check_and_classification_bit_identical(self, name, m, tol):
        assert check_orthogonality_preserving(m, tol) == ref_check(m, tol)
        assert _outcome(classify_transform, m, tol) == _outcome(ref_classify, m, tol)

    def test_cases_cover_every_verdict(self):
        outcomes = [_outcome(classify_transform, m, tol) for _, m, tol in reference_cases()]
        verdicts = {getattr(c, "verdict", "raised") for c in outcomes}
        assert verdicts == {"raised", *Verdict}
        # some witnesses lie past row 0 of the triple scan
        assert any(c.witness_triple[0] > 0 for c in outcomes
                   if getattr(c, "witness_triple", None))

    def test_mixed_evidence_witnesses_first_non_unitary_triple(self):
        c = classify_transform(_block_map(False, True))
        assert c.verdict is Verdict.NEITHER
        # a block-1 triple: anti-unitary only
        assert min(c.witness_triple) >= 4
        assert abs(c.witness_target_value - c.witness_source_value.conjugate()) <= 1e-9

    def test_bijectivity_error_bit_identical(self):
        rng = make_generator(91)
        # a Projector accepts |norm - 1| <= 1e-9, enough to move |<u, u>|^2 below
        # a same-ray screen that assumes unit rows
        short = Projector(np.array([1, 1j, -1]) / np.sqrt(3) * (1 - 5e-10))
        for anti in (False, True):
            m, _ = random_ray_map(3, rng, antiunitary=anti, n_extra=8)
            pairs = list(m.pairs)
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
                "short-norm-copies": [(short, pairs[0][1]), (short, pairs[1][1])] + pairs[2:],
            }
            for label, ps in variants.items():
                expected = ref_bijectivity_error(ps)
                try:
                    ray_map(3, tuple(ps))
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
            swapped = _swap_last_targets(m)
            assert classify_transform(swapped).verdict is Verdict.NEITHER
            for case in (m, swapped):
                assert check_orthogonality_preserving(case) == ref_check(case)
                assert classify_transform(case) == ref_classify(case)

    def test_fit_residual_bit_identical(self):
        # the stacked residual against the per-pair act_matrix loop it replaced
        rng = make_generator(94)
        for dim in (3, 4):
            for anti in (False, True):
                m, _ = random_ray_map(dim, rng, antiunitary=anti, n_extra=10)
                fit = fit_transform(m, classify_transform(m))
                assert fit.residual == max(
                    max_abs(t.matrix - act_matrix(fit.transform, s.matrix)) for s, t in m.pairs)


def _edge_rays(n: int, value: float, rng=None) -> list[np.ndarray]:
    """Rays a, b in dimension n with max|P_a P_b| = value. Without rng,
    a = e0 and b = d e0 + c e1, with d stepped by ulps until the product
    ref_check takes is value to the last bit; the Gram estimate then
    agrees with it bit for bit. With rng, the same rays turned by a
    random unitary, placed at value in exact arithmetic: the product and
    the estimate each carry their own rounding, a few 1e-16."""
    w = np.eye(n) if rng is None else random_unitary(n, rng)
    a = w[:, 0]

    def ray(d):
        return d * a + np.sqrt(1 - d * d) * w[:, 1]

    d = value
    for _ in range(4):  # max|b| moves with d only slightly
        d = value / (np.abs(a).max() * np.abs(ray(d)).max())
    for _ in range(64 if rng is None else 0):
        (pa, _), (pb, _) = RayMap(n, [a, ray(d)], [a, ray(d)]).pairs
        got = max_abs(pa.matrix @ pb.matrix)
        if got == value:
            break
        d = np.nextafter(d, np.inf if got < value else 0.0)
    return [a, ray(d)]


def _edge_maps(eps: float, n: int) -> list[RayMap]:
    """Two-pair maps with one side's pair at eps, eps +- 1 ulp, +- half the
    check's band and +- twice the band, the other side's pair clearly
    orthogonal (e0, e1) or clearly not (e0, (e0 + e1)/sqrt2)."""
    band = 16 * (n + 2) * 2.0 ** -53  # the band of check_orthogonality_preserving
    ulp = np.spacing(eps)
    rng = make_generator(98 + n)
    e = standard_basis(n)
    decisive = ([e[0], e[1]], [e[0], (e[0] + e[1]) / np.sqrt(2)])
    maps = []
    for offset in (0.0, ulp, -ulp, band / 2, -band / 2, 2 * band, -2 * band):
        for turn in (None,) + (rng,) * 8:
            edge = _edge_rays(n, eps + offset, turn)
            for other in decisive:
                maps += [RayMap(n, edge, other), RayMap(n, other, edge)]
    return maps


class TestToleranceEdges:
    """Pairs placed at the tolerance and around the Gram screen's band: the
    check must decide and report each as the product test does."""

    @pytest.mark.parametrize("n", [3, 4, 16])
    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-4])
    def test_edge_table_matches_reference(self, eps, n):
        tol = Tolerance(eps)
        results = []
        for m in _edge_maps(eps, n):
            results.append(ref_check(m, tol))
            assert check_orthogonality_preserving(m, tol) == results[-1]
        assert {r.ok for r in results} == {True, False}
        # exact ties: a product of exactly eps counts as orthogonal
        assert any(eps in (r.source_product_norm, r.target_product_norm) for r in results)


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
        assert ref_classify(m) == TransformClassification(Verdict.INCONCLUSIVE)
        branch = Verdict.ANTIUNITARY if anti else Verdict.UNITARY
        assert classify_transform(m) == TransformClassification(branch)  # no witness

    def test_changed_overlap_modulus_is_neither(self):
        # orthogonality holds both ways, but |<e0|s3>| goes from 1/sqrt2 to cos 0.3
        e = standard_basis(3)
        sources = [e[0], e[1], e[2], (e[0] + e[1]) / np.sqrt(2)]
        targets = [e[0], e[1], e[2], np.cos(0.3) * e[0] + np.sin(0.3) * e[1]]
        m = ray_map(3, tuple((proj(s), proj(t)) for s, t in zip(sources, targets)))
        assert check_orthogonality_preserving(m).ok
        assert ref_classify(m) == TransformClassification(Verdict.INCONCLUSIVE)
        assert classify_transform(m) == TransformClassification(Verdict.NEITHER)


def nudged_identity_map():
    """The identity map on the dimension-3 gadget with the target of e2
    moved 1e-6 toward e1: orthogonality fails at 1e-9 and holds at 1e-4."""
    m = identity_map(3)
    pairs = list(m.pairs)
    pairs[1] = (pairs[1][0], proj(pairs[1][1].vector + [1e-6, 0, 0]))
    return ray_map(3, tuple(pairs), covering_contexts=m.covering_contexts)


class TestOneStageEach:
    """One uhlhorn CLI run classifies once, fit_transform scans nothing, and
    projector products are taken only on pairs the Gram screen leaves open."""

    def certify(self, monkeypatch, capsys, tmp_path, m):
        scans, products = [], []
        classify, product_norm = uhlhorn.classify_transform, uhlhorn._product_norm

        def counted(*args):
            scans.append(1)
            return classify(*args)

        def counted_product(v, i, j):
            products.append((int(i), int(j)))
            return product_norm(v, i, j)

        monkeypatch.setattr(cli, "classify_transform", counted)
        monkeypatch.setattr(uhlhorn, "classify_transform", counted)
        monkeypatch.setattr(uhlhorn, "_product_norm", counted_product)
        path = tmp_path / "raymap.json"
        path.write_text(json.dumps(ray_map_to_json(m)))
        code = cli.main(["uhlhorn", str(path)])
        capsys.readouterr()
        return code, len(scans), sorted(set(products))

    @pytest.mark.parametrize("anti", [False, True])
    def test_accepted_map(self, monkeypatch, capsys, tmp_path, anti):
        m, _ = random_ray_map(3, make_generator(92), antiunitary=anti)
        # every pair's estimates lie outside the band and agree on both sides
        assert self.certify(monkeypatch, capsys, tmp_path, m) == (0, 1, [])

    def test_rejected_map_runs_no_scan(self, monkeypatch, capsys, tmp_path):
        # the violating pair is the one product taken, on each side
        assert self.certify(monkeypatch, capsys, tmp_path, nudged_identity_map()) == (
            1, 0, [(0, 1)])


class TestOrthogonalityMemo:
    """Repeated checks on other tolerances and maps decide each from scratch,
    as the product test does; a wrong branch still fails the fit."""

    def test_each_tolerance_gets_its_own_verdict(self):
        m, loose = nudged_identity_map(), Tolerance(1e-4)
        for tol, ok in ((DEFAULT_TOL, False), (loose, True), (DEFAULT_TOL, False)):
            check = check_orthogonality_preserving(m, tol)
            assert check.ok is ok
            assert check == ref_check(m, tol)
        assert check.violating_pair == (0, 1)

    def test_each_map_gets_its_own_verdict(self):
        good, bad = identity_map(3), nudged_identity_map()
        for m, ok in ((good, True), (bad, False), (good, True), (bad, False)):
            check = check_orthogonality_preserving(m)
            assert check.ok is ok
            assert check == ref_check(m)
        check_orthogonality_preserving(good)
        with pytest.raises(HypothesisViolated):  # the guard checks its own input
            classify_transform(bad)

    @pytest.mark.parametrize("anti", [False, True])
    def test_wrong_branch_fails_the_fit(self, anti):
        m, _ = random_ray_map(3, make_generator(95), antiunitary=anti)
        classification = classify_transform(m)
        assert classification.verdict is (Verdict.ANTIUNITARY if anti else Verdict.UNITARY)
        wrong = classification._replace(
            verdict=Verdict.UNITARY if anti else Verdict.ANTIUNITARY)
        with pytest.raises(FitFailed):
            fit_transform(m, wrong)


def test_large_map_certifies_in_bounded_memory(tmp_path):
    """A 400-ray map: the whole uhlhorn CLI run stays under 150 MiB."""
    rng = make_generator(93)
    hidden = ContextTransform.from_matrix(random_unitary(3, rng), antiunitary=True)
    basis = random_unitary(3, rng)
    context = make_context([basis[:, k] for k in range(3)], "fiduciary")
    extras = [random_state_vector(3, rng) for _ in range(400 - 7)]
    m = induced_ray_map(hidden, context, extras)
    assert len(m.source_vectors) == 400
    path = tmp_path / "raymap_400.json"
    path.write_text(json.dumps(ray_map_to_json(m)))
    import qcontexts
    env = dict(os.environ, PYTHONPATH=str(Path(qcontexts.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "qcontexts.cli", "uhlhorn", str(path)],
                            stdout=subprocess.PIPE, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Antiunitary" and payload["antiunitary"] is True
    assert usage.ru_maxrss / 1024 < 150  # KiB on Linux


def _sweep_map(k: int) -> RayMap:
    return random_ray_map(3, make_generator(97), antiunitary=True, n_extra=k - 7)[0]


def test_classification_memory_grows_as_k_squared():
    """Peak allocation of classify_transform at k=200 and k=400. O(k^2)
    memory gives a ratio of 4; the slack of 1.25 covers fixed overheads
    and still rejects the 8 of an O(k^3) table."""
    peaks = []
    for k in (200, 400):
        classification, peak = peak_allocation(classify_transform, _sweep_map(k))
        assert classification.verdict is Verdict.ANTIUNITARY
        peaks.append(peak)
    assert peaks[1] / peaks[0] <= 4 * 1.25


def test_orthogonality_check_memory_grows_as_k_squared():
    """Peak allocation of check_orthogonality_preserving at k=200 and
    k=400: the (k, k) estimate tables give a ratio of 4; the slack of 1.25
    rejects the 8 of an O(k^3) table."""
    peaks = []
    for k in (200, 400):
        check, peak = peak_allocation(check_orthogonality_preserving, _sweep_map(k))
        assert check.ok
        peaks.append(peak)
    assert peaks[1] / peaks[0] <= 4 * 1.25
