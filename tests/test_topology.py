from itertools import permutations

import numpy as np
import pytest

from helpers import (
    peak_allocation,
    permutation_log_generator,
    ref_eigensystem,
    ref_path,
    series_expm,
)
from qcontexts import linalg
from qcontexts.core import make_generator
from qcontexts.linalg import is_unitary, max_abs
from qcontexts.topology import (
    ObstructionResult,
    Permutation,
    _eigensystem,
    _times,
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
        mid = path_samples(sigma, 101)[50]
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

    def test_endpoints_are_the_samples_at_0_and_1(self):
        sigma = Permutation(3, (1, 2, 0))
        report = unitary_path_to_identity(sigma, steps=5)
        assert report.endpoints.shape == (2, 3, 3)
        assert report.endpoints.tobytes() == path_samples(sigma, 5)[[0, -1]].tobytes()


def _seeded_permutation(n: int) -> Permutation:
    return Permutation(n, tuple(int(x) for x in make_generator(n).permutation(n)))


REF_PATH_CASES = [sigma for n in range(5) for sigma in all_permutations(n)] + \
    [_seeded_permutation(n) for n in (16, 64)]


@pytest.mark.parametrize("steps", [2, 3, 101, 257])
def test_streamed_path_matches_the_three_pass_reference(steps):
    """Bit for bit against ref_path. Blocks hold 128 samples at n=16 and 8
    at n=64, so 257 steps end in a partial block. At n=200 a block holds one
    sample, so every step distance is carried across blocks; the reference
    stores 640 KiB a sample there, so it runs at 2 and 3 steps only."""
    assert linalg._BLOCK_ENTRIES // 200**2 == 0
    cases = REF_PATH_CASES + ([_seeded_permutation(200)] if steps <= 3 else [])
    for sigma in cases:
        samples, unit_dev, endpoint_errors, step_dist = ref_path(sigma, steps)
        report = unitary_path_to_identity(sigma, steps)
        assert report.max_unitarity_deviation == unit_dev, sigma
        assert report.endpoint_errors == endpoint_errors, sigma
        assert report.max_step_distance == step_dist, sigma
        assert report.endpoints.tobytes() == samples[[0, -1]].tobytes(), sigma
        assert path_samples(sigma, steps).tobytes() == samples.tobytes(), sigma


def _cycles_permutation(lengths) -> Permutation:
    """Consecutive cycles of the given lengths, each i -> i + 1 within its cycle."""
    images, start = [], 0
    for length in lengths:
        images += [start + (i + 1) % length for i in range(length)]
        start += length
    return Permutation(start, tuple(images))


EIGENSYSTEM_CASES = (
    [_seeded_permutation(n) for n in list(range(1, 13)) + [50, 200, 300]]
    + [Permutation.identity(n) for n in (1, 12)]
    + [_cycles_permutation([2] * 6), _cycles_permutation([2] * 25)]  # theta = pi
    + [_cycles_permutation([n]) for n in (2, 3, 12, 50, 200, 300)]
    + [_cycles_permutation([1, 2, 3, 4, 1, 7, 2])])


@pytest.mark.parametrize("sigma", EIGENSYSTEM_CASES, ids=lambda s: f"n{s.n}")
def test_eigensystem_matches_the_nested_loop_bit_for_bit(sigma):
    """The array expression gives the loop's phases and Fourier columns,
    signed zeros included (compared as int64 words)."""
    for got, want in zip(_eigensystem(sigma), ref_eigensystem(sigma)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("width", [1, 9, 16])
def test_block_times_are_the_linspace_grid_bit_for_bit(width):
    """Each block builds its own times; joined, they are np.linspace(0, 1,
    steps) to the last bit, the final 1.0 included, for every step count up
    to 599 and for 4099 and 200001 (the widths of 1 stop at 599)."""
    counts = list(range(2, 600)) + ([4099, 200001] if width > 1 else [])
    for steps in counts:
        blocks = [_times(slice(a, a + width), steps) for a in range(0, steps, width)]
        assert np.concatenate(blocks).tobytes() == np.linspace(0.0, 1.0, steps).tobytes(), steps
    for steps in (0, 1):
        assert _times(slice(0, steps), steps).tobytes() == np.linspace(0.0, 1.0, steps).tobytes()


def test_path_memory_does_not_grow_with_steps():
    """Peak allocation of unitary_path_to_identity on the 4-cycle at 20000 and
    400000 steps. Each block builds its own samples and times, so the peak is
    one block's whatever the step count; the slack of 1.05 rejects any
    per-step array held across blocks."""
    sigma = Permutation(4, (1, 2, 3, 0))
    peaks = [peak_allocation(unitary_path_to_identity, sigma, steps)[1]
             for steps in (20000, 400000)]
    assert peaks[1] / peaks[0] <= 1.05


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
