from itertools import combinations

import numpy as np
import pytest

from qcontexts.core import make_generator
from qcontexts.linalg import Tolerance, first_repeated_ray, is_unitary


def test_tolerance_defaults_and_sanity_bound():
    tol = Tolerance()
    assert tol.abs_eps == 1e-9
    assert Tolerance(1e-12).abs_eps == 1e-12
    # above the sanity bound, negative, or so small that rounding noise decides
    for bad in (1e-2, -1.0, 0.0, 1e-300, float("nan")):
        with pytest.raises(ValueError):
            Tolerance(abs_eps=bad)


def test_tolerance_is_an_immutable_value():
    tol = Tolerance(1e-8)
    assert tol == Tolerance(abs_eps=1e-8) != Tolerance()
    assert hash(tol) == hash(Tolerance(1e-8))
    with pytest.raises(AttributeError):
        tol.abs_eps = 1e-6
    with pytest.raises(AttributeError):
        del tol.abs_eps
    assert tol.abs_eps == 1e-8


class TestIsUnitary:
    def test_identity(self):
        check = is_unitary(np.eye(4))
        assert check.ok and check.deviation == 0.0

    def test_diagonal_phases(self):
        m = np.diag([1.0, np.exp(1j * 0.7), np.exp(1j * 2.1)])
        assert is_unitary(m).ok

    def test_diag_1_2_deviation_three(self):
        check = is_unitary(np.diag([1.0, 2.0]))
        assert not check.ok
        assert check.deviation == pytest.approx(3.0, abs=1e-12)

    def test_truthiness(self):
        assert bool(is_unitary(np.eye(2)))
        assert not bool(is_unitary(2 * np.eye(2)))


def ref_first_repeated_ray(vectors, eps):
    """Pairwise reference: the first (i, j) whose projector matrices differ by <= eps."""
    mats = [np.outer(v, v.conj()) for v in vectors]
    for i, j in combinations(range(len(mats)), 2):
        if np.abs(mats[i] - mats[j]).max() <= eps:
            return i, j
    return None


class TestFirstRepeatedRay:
    def test_distinct_and_short_inputs_give_none(self):
        rays = np.vstack([np.eye(3), [[1, 1j, 0]] / np.sqrt(2)]).astype(complex)
        assert first_repeated_ray(rays, 1e-9) is None
        assert first_repeated_ray(rays[:1], 1e-9) is None
        assert first_repeated_ray(rays[:0], 1e-9) is None

    def test_rephased_copy_is_the_same_ray(self):
        rays = np.array([[1, 0, 0], [0, 1, 0], [1j, 0, 0]], dtype=complex)
        assert first_repeated_ray(rays, 1e-9) == (0, 2)

    def test_first_pair_in_lexicographic_order(self):
        # (1, 2) is found first in row order of i but (0, 4) is smaller
        e = np.eye(4, dtype=complex)
        rays = np.array([e[0], e[1], -e[1], e[2], 1j * e[0]])
        assert first_repeated_ray(rays, 1e-9) == (0, 4)

    def test_short_norm_copies_are_found(self):
        # a Projector keeps |norm - 1| <= 1e-9; a floor taken from unit rows misses these
        short = np.array([1, 1j, -1]) / np.sqrt(3) * (1 - 5e-10)
        rays = np.array([short, short, [0, 1, 1j] / np.sqrt(2)])
        assert first_repeated_ray(rays, 1e-9) == (0, 1)

    @pytest.mark.parametrize("block", [None, 1, 40])
    def test_agrees_with_pairwise_reference(self, monkeypatch, block):
        from qcontexts import linalg
        if block is not None:
            monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", block)
        rng = make_generator(303)
        for n in (3, 5):
            for _ in range(6):
                v = rng.standard_normal((10, n)) + 1j * rng.standard_normal((10, n))
                v /= np.linalg.norm(v, axis=1, keepdims=True)
                # near copies straddling eps = 1e-9, rephased, some short of unit norm
                for i, j, step in ((7, 2, 2e-10), (9, 4, 4e-9), (8, 5, 8e-10)):
                    moved = v[i] + step * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                    moved *= np.exp(1j * rng.uniform(0, 2 * np.pi)) / np.linalg.norm(moved)
                    v[j] = moved * (1 - 5e-10 * rng.integers(0, 2))
                assert first_repeated_ray(v, 1e-9) == ref_first_repeated_ray(v, 1e-9)
