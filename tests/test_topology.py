from itertools import permutations

import numpy as np
import pytest

from helpers import peak_allocation, permutation_log_generator, ref_path, series_expm
from qcontexts import linalg
from qcontexts.core import make_generator
from qcontexts.linalg import is_unitary, max_abs
from qcontexts.topology import (
    ObstructionResult,
    Permutation,
    orthogonal_obstruction,
    path_samples,
    permutation_matrix,
    unitary_path_to_identity,
)


def all_permutations(n):
    return [Permutation(n, images) for images in permutations(range(n))]


class TestPermutation:
    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            Permutation(3, (0, 0, 2))
        with pytest.raises(ValueError):
            Permutation(3, (0, 1))

    def test_sign_matches_numeric_determinant(self):
        # oracle: numpy determinant of the permutation matrix
        for n in (3, 4):
            for sigma in all_permutations(n):
                det = np.linalg.det(permutation_matrix(sigma)).real
                assert abs(det - sigma.sign()) <= 1e-12

    def test_immutable_value(self):
        sigma = Permutation(3, (1, 0, 2))
        assert sigma == Permutation(3, (1, 0, 2)) != Permutation.identity(3)
        assert len({sigma, Permutation(3, (1, 0, 2)), Permutation.identity(3)}) == 2
        with pytest.raises(AttributeError):
            sigma.images = (0, 1, 2)
        with pytest.raises(AttributeError):
            del sigma.n

    def test_cycles_partition_indices(self):
        sigma = Permutation(5, (1, 0, 3, 4, 2))
        flat = sorted(i for c in sigma.cycles() for i in c)
        assert flat == list(range(5))


class TestPermutationMatrix:
    def test_identity(self):
        assert max_abs(permutation_matrix(Permutation.identity(3)) - np.eye(3)) == 0

    def test_transposition_det_minus_one(self):
        m = permutation_matrix(Permutation(3, (1, 0, 2)))
        assert np.linalg.det(m).real == pytest.approx(-1.0, abs=1e-12)
        assert is_unitary(m).ok

    def test_three_cycle_det_plus_one(self):
        m = permutation_matrix(Permutation(3, (1, 2, 0)))
        assert np.linalg.det(m).real == pytest.approx(1.0, abs=1e-12)

    def test_entry_convention(self):
        sigma = Permutation(3, (2, 0, 1))
        m = permutation_matrix(sigma)
        for i in range(3):
            assert m[sigma.images[i], i] == 1.0


class TestLogGenerator:
    def test_generator_is_hermitian_and_exponentiates_back(self):
        # oracle: Taylor-series matrix exponential, independent of the
        # eigen-decomposition used in the implementation
        for sigma in all_permutations(4):
            h = permutation_log_generator(sigma)
            assert max_abs(h - h.conj().T) <= 1e-12
            assert max_abs(series_expm(1j * h) - permutation_matrix(sigma)) <= 1e-12

    def test_eigenphases_in_branch(self):
        # a transposition has eigenvalue -1, which must map to phase +pi
        h = permutation_log_generator(Permutation(2 + 1, (1, 0, 2)))
        eigs = np.linalg.eigvalsh(h)
        assert eigs.max() == pytest.approx(np.pi, abs=1e-12)
        assert eigs.min() >= -np.pi + 1e-9


class TestUnitaryPath:
    def test_identity_permutation_constant_path(self):
        report = unitary_path_to_identity(Permutation.identity(3), steps=11)
        assert report.endpoint_errors == (0.0, 0.0) or max(report.endpoint_errors) <= 1e-15
        assert report.max_step_distance <= 1e-15
        assert report.max_unitarity_deviation <= 1e-12

    def test_transposition_midpoint_value(self):
        # oracle: exp(i pi K / 2) on the swap block has entries (1 +- i)/2
        sigma = Permutation(3, (1, 0, 2))
        report = unitary_path_to_identity(sigma, steps=101)
        mid = path_samples(sigma, report.times)[50]
        expected = np.array([
            [0.5 + 0.5j, 0.5 - 0.5j, 0],
            [0.5 - 0.5j, 0.5 + 0.5j, 0],
            [0, 0, 1],
        ])
        assert max_abs(mid - expected) <= 1e-12

    def test_four_cycle_endpoints_and_unitarity(self):
        report = unitary_path_to_identity(Permutation(4, (1, 2, 3, 0)), steps=101)
        assert report.endpoint_errors[0] <= 1e-9
        assert report.endpoint_errors[1] <= 1e-9
        assert report.max_unitarity_deviation <= 1e-9

    def test_exhaustive_small_dims(self):
        for n in (3, 4):
            for sigma in all_permutations(n):
                report = unitary_path_to_identity(sigma, steps=101)
                assert max(report.endpoint_errors) <= 1e-9
                assert report.max_unitarity_deviation <= 1e-9

    def test_random_n5(self):
        rng = make_generator(31)
        for _ in range(50):
            sigma = Permutation(5, tuple(int(x) for x in rng.permutation(5)))
            report = unitary_path_to_identity(sigma, steps=101)
            assert max(report.endpoint_errors) <= 1e-9
            assert report.max_unitarity_deviation <= 1e-9

    def test_doubling_steps_at_least_halves_step_distance(self):
        for n in (3, 4):
            for sigma in all_permutations(n):
                if sigma.images == tuple(range(n)):
                    continue  # constant path: distances are all zero
                d1 = unitary_path_to_identity(sigma, steps=101).max_step_distance
                d2 = unitary_path_to_identity(sigma, steps=202).max_step_distance
                assert d2 <= d1 / 2

    def test_steps_validated(self):
        with pytest.raises(ValueError):
            unitary_path_to_identity(Permutation.identity(3), steps=1)

    def test_times_grid(self):
        report = unitary_path_to_identity(Permutation.identity(3), steps=5)
        assert np.allclose(report.times, [0, 0.25, 0.5, 0.75, 1.0])


def _seeded_permutation(n: int) -> Permutation:
    return Permutation(n, tuple(int(x) for x in make_generator(n).permutation(n)))


REF_PATH_CASES = [sigma for n in range(5) for sigma in all_permutations(n)] + \
    [_seeded_permutation(n) for n in (16, 64)]


@pytest.mark.parametrize("steps", [2, 3, 101, 257])
def test_streamed_path_matches_the_three_pass_reference(steps):
    """Bit for bit against ref_path. Blocks hold 128 samples at n=16 and 8
    at n=64, so 257 steps end in a partial block. At n=200 a block holds one
    sample, so every step distance is carried across blocks; the reference
    stores 640 KiB a sample there, so it runs at 2 and 3 steps only: children
    that later tests spawn inherit this process's resident peak."""
    assert linalg._BLOCK_ENTRIES // 200**2 == 0
    cases = REF_PATH_CASES + ([_seeded_permutation(200)] if steps <= 3 else [])
    for sigma in cases:
        samples, unit_dev, endpoint_errors, step_dist = ref_path(sigma, steps)
        report = unitary_path_to_identity(sigma, steps)
        assert report.max_unitarity_deviation == unit_dev, sigma
        assert report.endpoint_errors == endpoint_errors, sigma
        assert report.max_step_distance == step_dist, sigma
        for k in range(0, steps, 8):
            rebuilt = path_samples(sigma, report.times[k:k + 8])
            assert rebuilt.tobytes() == samples[k:k + 8].tobytes(), (sigma, k)


def test_path_memory_does_not_grow_with_steps():
    """Peak allocation of unitary_path_to_identity on the 4-cycle at 20000 and
    40000 steps. One block of samples plus the O(steps) time grid gives a
    ratio near 1; the slack of 1.25 rejects the 2 of a stored (steps, n, n) path."""
    sigma = Permutation(4, (1, 2, 3, 0))
    peaks = [peak_allocation(unitary_path_to_identity, sigma, steps)[1]
             for steps in (20000, 40000)]
    assert peaks[1] / peaks[0] <= 1.25


class TestOrthogonalObstruction:
    def test_transposition_disconnected(self):
        res = orthogonal_obstruction(Permutation(3, (1, 0, 2)))
        assert res.det_sign == -1
        assert res.connected_in_orthogonal_group is False

    def test_identity_connected(self):
        res = orthogonal_obstruction(Permutation.identity(4))
        assert res.det_sign == 1
        assert res.connected_in_orthogonal_group is True

    def test_double_transposition_connected(self):
        res = orthogonal_obstruction(Permutation(4, (1, 0, 3, 2)))
        assert res == ObstructionResult(det_sign=1, connected_in_orthogonal_group=True)

    def test_connectivity_iff_even(self):
        for n in (3, 4):
            for sigma in all_permutations(n):
                res = orthogonal_obstruction(sigma)
                assert res.connected_in_orthogonal_group == (sigma.sign() == 1)
