import numpy as np
import pytest

from helpers import mub_bases_dim3, peak_allocation, standard_context
from qcontexts.core import DensityOperator, Projector, context_distribution, make_generator
from qcontexts.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    NotInformationallyComplete,
    ValueOutOfRange,
)
from qcontexts.gleason import (
    FrameSample,
    born_case_check,
    informational_completeness,
    reconstruct_density,
    validate_frame_function,
)
from qcontexts.linalg import max_abs
from qcontexts.sampling import random_context, random_density, random_projector


def mub_projectors():
    return [Projector.from_vector(v) for basis in mub_bases_dim3() for v in basis]


def born_samples(rho: DensityOperator, projectors) -> list[FrameSample]:
    return [FrameSample(p, float(np.trace(rho.matrix @ p.matrix).real))
            for p in projectors]


def ic_family(n: int, rng) -> list:
    """n+1 random contexts: generically informationally complete."""
    projectors = []
    for k in range(n + 1):
        projectors.extend(random_context(n, rng, f"c{k}").projectors)
    return projectors


def assert_matches_embedding(projs) -> None:
    """Rank and condition number of the design against the flattened real
    embedding P -> [Re vec P | Im vec P], an isometry of the self-adjoint
    matrices, so its singular values are those of any orthonormal design."""
    flat = np.stack([p.matrix.reshape(-1) for p in projs])
    embedding = np.hstack([flat.real, flat.imag])
    s = np.linalg.svd(embedding, compute_uv=False)
    rank = np.linalg.matrix_rank(embedding)
    cond = s[0] / s[rank - 1]
    report = informational_completeness(projs)
    assert report.rank == rank
    assert report.condition_number == pytest.approx(cond, rel=1e-12)
    n = projs[0].dim
    if rank == n * n:
        fit = reconstruct_density([FrameSample(p, 1 / n) for p in projs])
        assert fit.design_rank == rank
        assert fit.condition_number == pytest.approx(cond, rel=1e-12)


class TestValidateFrameFunction:
    def test_born_values_pass(self):
        rng = make_generator(21)
        rho = random_density(4, rng)
        groups = []
        for _ in range(200):
            c = random_context(4, rng)
            groups.append((c, context_distribution(rho, c)))
        report = validate_frame_function(groups)
        assert report.passes
        assert report.max_deviation <= 1e-10

    def test_half_half_half_fails_with_deviation_half(self):
        c = standard_context(3)
        report = validate_frame_function([(c, [0.5, 0.5, 0.5])])
        assert not report.passes
        assert report.max_deviation == pytest.approx(0.5, abs=1e-12)
        assert report.worst_context_label == "standard"

    def test_constant_over_dimension_passes(self):
        rng = make_generator(3)
        groups = [(random_context(3, rng), [1 / 3] * 3) for _ in range(20)]
        report = validate_frame_function(groups)
        assert report.passes

    def test_deviation_just_above_tolerance_fails(self):
        # adversarial fixture: sums off by 2e-9 against the 1e-9 threshold
        c = standard_context(3)
        report = validate_frame_function([(c, [1 / 3 + 2e-9, 1 / 3, 1 / 3])])
        assert not report.passes
        assert report.max_deviation == pytest.approx(2e-9, rel=1e-3)

    def test_wrong_length_raises(self):
        with pytest.raises(DimensionMismatch):
            validate_frame_function([(standard_context(3), [0.5, 0.5])])

    def test_out_of_range_raises(self):
        with pytest.raises(ValueOutOfRange):
            validate_frame_function([(standard_context(3), [1.2, -0.1, -0.1])])


class TestInformationalCompleteness:
    def test_single_context_has_rank_n(self):
        report = informational_completeness(list(standard_context(4).projectors))
        assert report.rank == 4
        assert report.condition_number == pytest.approx(1.0, abs=1e-9)

    def test_four_mubs_dim3_have_full_rank(self):
        # oracle: numerical rank of the flattened 12 x 9 design matrix
        projs = mub_projectors()
        flat = np.stack([p.matrix.reshape(-1) for p in projs])
        real_design = np.hstack([flat.real, flat.imag])
        assert np.linalg.matrix_rank(real_design, tol=1e-10) == 9
        report = informational_completeness(projs)
        assert report.rank == 9
        assert_matches_embedding(projs)

    @pytest.mark.parametrize("family, n", [
        ("random", 3), ("random", 4), ("random", 5), ("random", 6), ("two-contexts", 4)])
    def test_rank_and_condition_match_the_flattened_embedding(self, family, n):
        rng = make_generator(400 + n)
        if family == "random":
            assert_matches_embedding(ic_family(n, rng))
        else:
            assert_matches_embedding([*random_context(n, rng).projectors,
                                      *random_context(n, rng).projectors])

    def test_single_projector_rank_one(self):
        p = random_projector(3, make_generator(8))
        assert informational_completeness([p]).rank == 1

    def test_mixed_dimensions_rejected(self):
        rng = make_generator(1)
        with pytest.raises(DimensionMismatch):
            informational_completeness(
                [random_projector(3, rng), random_projector(4, rng)])


class TestReconstructDensity:
    def test_exact_recovery_of_diagonal_density_over_mubs(self):
        rho0 = DensityOperator.from_matrix(np.diag([0.5, 0.3, 0.2]))
        report = reconstruct_density(born_samples(rho0, mub_projectors()))
        assert np.linalg.norm(report.rho.matrix - rho0.matrix) <= 1e-8
        assert report.psd_correction <= 1e-8
        assert report.residual_rms <= 1e-10
        assert report.design_rank == 9

    def test_constant_frame_function_gives_maximally_mixed(self):
        samples = [FrameSample(p, 1 / 3) for p in mub_projectors()]
        report = reconstruct_density(samples)
        assert np.linalg.norm(report.rho.matrix - np.eye(3) / 3) <= 1e-8

    def test_single_context_not_informationally_complete(self):
        rho = random_density(3, make_generator(4))
        samples = born_samples(rho, list(standard_context(3).projectors))
        with pytest.raises(NotInformationallyComplete):
            reconstruct_density(samples)

    def test_dimension_two_rejected(self):
        rng = make_generator(6)
        p = random_projector(2, rng)
        with pytest.raises(DimensionTooSmall):
            reconstruct_density([FrameSample(p, 0.5)] * 4)

    def test_round_trip_random_densities(self):
        rng = make_generator(99)
        for n in (3, 4, 5):
            for _ in range(5):
                rho = random_density(n, rng)
                report = reconstruct_density(born_samples(rho, ic_family(n, rng)))
                assert np.linalg.norm(report.rho.matrix - rho.matrix) <= 1e-8
                assert report.psd_correction <= 1e-8

    def test_reconstructed_rho_is_valid_density(self):
        rng = make_generator(13)
        rho = random_density(4, rng)
        report = reconstruct_density(born_samples(rho, ic_family(4, rng)))
        out = report.rho
        assert max_abs(out.matrix - out.matrix.conj().T) <= 1e-9
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-9
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-9

    def test_noise_error_bounded_by_condition_number(self):
        rng = make_generator(1234)
        for sigma in (1e-6, 1e-4):
            rho = random_density(3, rng)
            projs = ic_family(3, rng)
            samples = [
                FrameSample(p, min(1.0, max(0.0, v + sigma * rng.standard_normal())))
                for p, v in ((p, float(np.trace(rho.matrix @ p.matrix).real))
                             for p in projs)
            ]
            report = reconstruct_density(samples)
            err = np.linalg.norm(report.rho.matrix - rho.matrix)
            assert err <= 10 * sigma * report.condition_number

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_noisy_fit_solves_the_normal_equations_on_the_slice(self, n):
        # an interior rho keeps the PSD projection idle, so the report is the
        # least-squares fit itself: the residuals r_k weight the P_k into a
        # multiple of the identity, the normal to the trace-1 slice
        rng = make_generator(700 + n)
        rho = 0.5 * random_density(n, rng).matrix + 0.5 * np.eye(n) / n
        projs = ic_family(n, rng)
        samples = [FrameSample(p, float(np.trace(rho @ p.matrix).real)
                               + 1e-4 * rng.standard_normal()) for p in projs]
        fit = reconstruct_density(samples)
        residuals = [np.trace(fit.rho.matrix @ s.projector.matrix).real - s.value
                     for s in samples]
        weighted = sum(r * p.matrix for r, p in zip(residuals, projs))
        traceless = weighted - np.trace(weighted) / n * np.eye(n)
        assert fit.residual_rms > 1e-6
        assert np.linalg.norm(traceless) <= 1e-12

    def test_works_on_unit_vectors_without_projector_matrices(self):
        rng = make_generator(31)
        projs = ic_family(4, rng)
        rho = random_density(4, rng).matrix
        samples = [FrameSample(p, float(np.vdot(p.vector, rho @ p.vector).real))
                   for p in projs]
        informational_completeness(projs)
        report = reconstruct_density(samples)
        assert np.linalg.norm(report.rho.matrix - rho) <= 1e-8
        assert not any("matrix" in p.__dict__ for p in projs)

    def test_memory_grows_linearly_in_samples(self):
        """Peak allocation at 400 and 800 samples in dimension 4: the O(k n^2)
        design gives a ratio of 2; the slack of 1.25 covers fixed overheads
        and still rejects a (k, k) table."""
        rng = make_generator(32)
        rho = random_density(4, rng).matrix
        projs = [p for c in range(200) for p in random_context(4, rng, f"c{c}").projectors]
        samples = [FrameSample(p, float(np.vdot(p.vector, rho @ p.vector).real))
                   for p in projs]
        peaks = [peak_allocation(reconstruct_density, samples[:k])[1] for k in (400, 800)]
        assert peaks[1] / peaks[0] <= 2 * 1.25


class TestBornCaseCheck:
    def test_pure_state_returns_projector(self):
        p = random_projector(3, make_generator(2))
        got = born_case_check(DensityOperator.from_projector(p))
        assert got is not None
        assert got.distance(p) <= 1e-9

    def test_maximally_mixed_returns_none(self):
        assert born_case_check(DensityOperator.maximally_mixed(3)) is None

    def test_slightly_mixed_returns_none(self):
        # top eigenvalue 0.999 + 0.001/3 = 0.999333..., short of 1 by ~6.7e-4
        p = random_projector(3, make_generator(11))
        m = 0.999 * p.matrix + 0.001 * np.eye(3) / 3
        rho = DensityOperator.from_matrix(m)
        top = np.linalg.eigvalsh(rho.matrix)[-1]
        assert top == pytest.approx(0.999 + 0.001 / 3, abs=1e-12)
        assert born_case_check(rho) is None

    def test_born_formula_from_pure_case(self):
        # once the top eigenvalue reaches 1 the probabilities are squared overlaps
        rng = make_generator(17)
        p = random_projector(3, rng)
        q = born_case_check(DensityOperator.from_projector(p))
        other = random_projector(3, rng)
        lhs = float(np.trace(q.matrix @ other.matrix).real)
        assert lhs == pytest.approx(abs(np.vdot(p.vector, other.vector)) ** 2,
                                    abs=1e-12)


class TestFrameSample:
    def test_value_range_enforced(self):
        p = random_projector(3, make_generator(0))
        with pytest.raises(ValueOutOfRange):
            FrameSample(p, 1.5)
        with pytest.raises(ValueOutOfRange):
            FrameSample(p, -0.2)
        FrameSample(p, 1.0)
        FrameSample(p, 0.0)

    def test_immutable_value(self):
        p = random_projector(3, make_generator(0))
        s = FrameSample(p, 0.25)
        assert s == FrameSample(p, 0.25) and hash(s) == hash(FrameSample(p, 0.25))
        assert s != FrameSample(p, 0.5)
        # projectors compare by identity, so an equal ray is another sample
        assert s != FrameSample(Projector(p.vector), 0.25)
        with pytest.raises(AttributeError):
            s.value = 0.5
        with pytest.raises(AttributeError):
            del s.projector
