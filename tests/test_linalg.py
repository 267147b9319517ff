from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fourier_basis, mub_bases_dim3, planted_rays, projector_distance
from qcontexts.core import Projector, make_generator
from qcontexts.linalg import (
    Tolerance,
    first_repeated_ray,
    in_unit_interval,
    is_unitary,
    overlap_moduli,
    ray_distance,
    same_ray_pairs,
    unit_rows,
)
from qcontexts.sampling import random_unitary


def test_tolerance_defaults_and_sanity_bound():
    tol = Tolerance()
    assert tol.abs_eps == 1e-9
    assert Tolerance(1e-12).abs_eps == 1e-12
    # above the sanity bound, negative, or so small that rounding noise decides
    for bad in (1e-2, -1.0, 0.0, 1e-300, float("nan")):
        with pytest.raises(ValueError):
            Tolerance(abs_eps=bad)


def test_unit_interval_within_tolerance_rejects_nan():
    tol = Tolerance(1e-6)
    assert in_unit_interval(0.5, tol) and in_unit_interval([-1e-6, 1 + 1e-6], tol)
    assert in_unit_interval(np.array([[0.0, 1.0]]), tol) and in_unit_interval([], tol)
    assert in_unit_interval(np.empty((0, 3)), tol)
    for bad in (-2e-6, 1 + 2e-6, np.nan, [0.5, np.nan], [np.inf, 0.5], -np.inf, [0.5, -np.inf]):
        assert not in_unit_interval(bad, tol), bad
    # both edges: the last value in and the first one out, on either side
    for edge, inside in ((-1e-6, True), (1 + 1e-6, True),
                         (np.nextafter(-1e-6, -1), False), (np.nextafter(1 + 1e-6, 2), False)):
        assert in_unit_interval(edge, tol) is inside, edge
    stack = make_generator(410).random((8, 8, 8))
    assert in_unit_interval(stack, tol) is True
    for bad in (np.nan, np.inf, -np.inf, -2e-6, 1 + 2e-6):
        spoiled = stack.copy()
        spoiled[7, 3, 5] = bad
        assert in_unit_interval(spoiled, tol) is False, bad


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


def ray_band(n: int) -> float:
    """How far ray_distance and projector_distance, the SVD of P - Q, may
    differ on rows of n entries: 32 (n + 1) u, u = 2^-53, above the sum of
    ray_distance's (6 n + 8) u and the reference's rounding."""
    return 32 * (n + 1) * 2.0 ** -53


def ref_same_ray_pairs(vectors, eps):
    """Every pair i < j of rows whose rays' projectors lie within eps by
    projector_distance, in lexicographic order; asserts that no pair lies
    within ray_band of eps, where the reference and ray_distance may round
    to opposite sides. Projector.from_vector makes each row unit first."""
    projectors = [Projector.from_vector(v) for v in vectors]
    band = ray_band(vectors.shape[1])
    pairs = []
    for i, j in combinations(range(len(vectors)), 2):
        d = projector_distance(projectors[i], projectors[j])
        assert abs(d - eps) > band, (i, j, d)
        if d <= eps:
            pairs.append((i, j))
    return pairs


def ref_first_repeated_ray(vectors, eps):
    """The first pair of ref_same_ray_pairs, or None."""
    return next(iter(ref_same_ray_pairs(vectors, eps)), None)


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


def _random_rays(rng, k: int, n: int) -> np.ndarray:
    v = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def exact_sin_squared(u, v) -> Fraction:
    """sin^2 of the angle between the rays of u and v, 1 - |<v|u>|^2 /
    (<u|u> <v|v>), in exact rational arithmetic on the float parts."""
    vs, us = ([(Fraction(z.real), Fraction(z.imag)) for z in w] for w in (v, u))
    re = sum(p * r + q * s for (p, q), (r, s) in zip(vs, us))
    im = sum(p * s - q * r for (p, q), (r, s) in zip(vs, us))
    uu, vv = (sum(p * p + q * q for p, q in w) for w in (us, vs))
    return 1 - (re * re + im * im) / (uu * vv)


class TestRayDistance:
    """ray_distance is ||P_u - P_v|| to within (6 n + 8) u, from copies
    1e-12 apart to orthogonal rays, on rows of any norm; the same under a
    unitary change of basis and under conjugation; the same bits alone or
    stacked."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
    def test_within_its_rounding_bound_of_the_exact_distance(self, n):
        rng = make_generator(411 + n)
        bound = (6 * n + 8) * 2.0 ** -53
        for k in range(42):
            u = _random_rays(rng, 1, n)[0] * (1, 1 - 5e-10, 3.0)[k % 3]
            scale = (1.0, 1e-3, 1e-6, 1e-9, 1e-12, 0.0)[k % 6]
            v = np.exp(1j * rng.uniform(0, 2 * np.pi)) * u + scale * _random_rays(rng, 1, n)[0]
            d = float(ray_distance(u, v))
            low = Fraction(max(d - bound, 0.0))
            assert low * low <= exact_sin_squared(u, v) <= Fraction(d + bound) ** 2, (k, d)

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_is_the_operator_norm_and_basis_free(self, n):
        rng = make_generator(420 + n)
        w = random_unitary(n, rng)
        u, v = _random_rays(rng, 20, n), _random_rays(rng, 20, n)
        v[:10] = u[:10] + 1e-7 * v[:10]
        d = ray_distance(u, v)
        for row, (a, b) in enumerate(zip(u, v)):
            assert abs(d[row] - projector_distance(Projector.from_vector(a),
                                                   Projector.from_vector(b))) <= ray_band(n)
        for turned in (ray_distance(u @ w.T, v @ w.T), ray_distance(u.conj(), v.conj()),
                       ray_distance(v, u)):
            assert np.abs(turned - d).max() <= 2 * (6 * n + 8) * 2.0 ** -53

    @pytest.mark.parametrize("n", [3, 8, 9, 17, 64])
    def test_same_bits_alone_and_stacked(self, n):
        rng = make_generator(430 + n)
        u, v = _random_rays(rng, 30, n), _random_rays(rng, 30, n)
        stacked = ray_distance(u, v)
        assert stacked.shape == (30,)
        assert [ray_distance(a, b).tobytes() for a, b in zip(u, v)] == \
            [x.tobytes() for x in stacked]
        assert np.concatenate([ray_distance(u[a:a + 7], v[a:a + 7])
                               for a in range(0, 30, 7)]).tobytes() == stacked.tobytes()


class TestSameRayPairs:
    """same_ray_pairs yields the brute-force pair list of projector_distance,
    in lexicographic order, at any block size, wherever no distance lies
    within ray_band of eps; first_repeated_ray is its first pair."""

    @pytest.mark.parametrize("block", [None, 1, 40])
    def test_random_rays_with_copies(self, monkeypatch, block):
        from qcontexts import linalg
        if block is not None:
            monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", block)
        rng = make_generator(404)
        for n in (3, 4, 6):
            v = _random_rays(rng, 24, n)
            # rephased copies, one short of unit norm, and a chain of three
            for i, j in ((0, 5), (5, 17), (3, 20), (11, 12)):
                v[j] = v[i] * np.exp(1j * rng.uniform(0, 2 * np.pi)) * (1 - 5e-10 * (j == 20))
            expected = ref_same_ray_pairs(v, 1e-9)
            assert expected == [(0, 5), (0, 17), (3, 20), (5, 17), (11, 12)]
            assert list(same_ray_pairs(v, 1e-9)) == expected
            assert first_repeated_ray(v, 1e-9) == expected[0]

    def test_flat_modulus_rays(self):
        """Fourier rays and the MUB rays off the standard basis have entries
        of one modulus, so every entry
        of their projectors has modulus 1/n and distinct rays differ in
        phases only; rephased copies among them are the only pairs found,
        at the default and at a loose tolerance."""
        rays = np.array(fourier_basis(4) + [np.exp(0.3j) * fourier_basis(4)[2]])
        mub = np.array([v for basis in mub_bases_dim3() for v in basis])
        mub = np.vstack([mub, -1j * mub[7], mub[4]])
        for v in (rays, mub):
            for eps in (1e-9, 1e-4):
                assert list(same_ray_pairs(v, eps)) == ref_same_ray_pairs(v, eps)
        assert list(same_ray_pairs(rays, 1e-9)) == [(2, 4)]
        assert list(same_ray_pairs(mub, 1e-9)) == [(4, 13), (7, 12)]

    def test_tolerance_edge_pairs(self):
        """A near copy is found at eps equal to its ray_distance and above,
        not 1 ulp below; the reference agrees a little off the edge."""
        rng = make_generator(405)
        v = _random_rays(rng, 8, 3)
        near = v[2] + 1e-7 * _random_rays(rng, 1, 3)[0]
        v[6] = near / np.linalg.norm(near)
        d = float(ray_distance(v[2], v[6]))
        for eps, expected in ((np.nextafter(d, 0), []), (d, [(2, 6)]),
                              (np.nextafter(d, 1), [(2, 6)])):
            assert list(same_ray_pairs(v, eps)) == expected
        assert ref_same_ray_pairs(v, d * (1 - 1e-3)) == []
        assert ref_same_ray_pairs(v, d * (1 + 1e-3)) == [(2, 6)]

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4, 8]),
           eps=st.sampled_from([1e-9, 1e-6]),
           copies=st.lists(st.sampled_from([0.5, 0.9, 1.1, 2.0]), max_size=4),
           orthogonal=st.lists(st.sampled_from([0.5, 2.0]), max_size=2))
    def test_rules_are_basis_free(self, seed, n, eps, copies, orthogonal):
        """Copies planted at distances straddling eps are found exactly when
        within it, in the rows as given, turned by a unitary and conjugated;
        the orthogonality verdicts of overlap_moduli agree the same way."""
        rng = make_generator(seed)
        v, planted = planted_rays(rng, n, eps, copies, orthogonal)
        variants = (v, v @ random_unitary(n, rng).T, v.conj())
        assert [list(same_ray_pairs(rows, eps)) for rows in variants] == [planted] * 3
        assert ref_same_ray_pairs(v, eps) == planted
        verdicts = [overlap_moduli(rows) <= eps for rows in variants]
        assert np.array_equal(verdicts[0], verdicts[1]) and np.array_equal(verdicts[0], verdicts[2])
        assert np.triu(verdicts[0], 1).sum() == orthogonal.count(0.5)


def test_unit_rows_divide_or_name_the_first_bad_row():
    """Norms in (tol.bound(), inf) away from 1 divide; otherwise the lowest
    bad row is reported, counted over the second-to-last axis with leading
    axes as sides."""
    tol = Tolerance()
    v = np.array([[3, 4j, 0], [0, 0, 2]], dtype=complex)
    assert np.array_equal(unit_rows(v, tol, ValueError), v / np.linalg.norm(v, axis=1)[:, None])
    assert np.array_equal(unit_rows(v[0], tol, ValueError), v[0] / 5)
    big = np.full(3, 1e200, dtype=complex)
    for bad, row in ((np.zeros(3), 1), (1e-10 * v[1], 1), (big, 1)):
        with pytest.raises(IndexError, match=f"^{row}$"):
            unit_rows(np.array([v[0], bad]), tol, IndexError)
    with pytest.raises(IndexError, match="^0$"):
        unit_rows(np.zeros(3, dtype=complex), tol, IndexError)
    sides = np.array([[v[0], v[1], v[0]], [v[0], v[1], np.zeros(3)]])
    sides[0, 1] = 0  # pair 1 on the first side, pair 2 on the second: pair 1 is reported
    with pytest.raises(IndexError, match="^1$"):
        unit_rows(sides, tol, IndexError)
    assert unit_rows(v, Tolerance(1e-4), ValueError).shape == (2, 3)
    with pytest.raises(ValueError, match="^0$"):
        unit_rows(np.array([[1e-5, 0, 0]], dtype=complex), Tolerance(1e-4), ValueError)


class TestUnitRowsKeepUnitRows:
    """A row whose norm lies within 8 n u of 1 is kept bit for bit; one
    division lands inside that bound, so a second pass changes no bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 64])
    def test_rows_at_the_bound_are_kept_and_beyond_it_divided(self, n):
        tol = Tolerance()
        bound = 8 * n * 2.0**-53
        v = np.zeros((4, n), dtype=complex)
        v[:, 0] = [1 - bound, 1 + bound, 1 - bound - 2**-53, 1 + bound + 2**-52]  # exact norms
        got = unit_rows(v, tol, ValueError)
        assert got is not v
        assert got[:2].tobytes() == v[:2].tobytes()
        assert got[2:].tobytes() == (v[2:] / np.abs(v[2:, :1])).tobytes()

    @pytest.mark.parametrize("n", range(1, 17))
    def test_a_second_pass_changes_no_bit(self, n):
        tol = Tolerance()
        rng = make_generator(500 + n)
        for scale in (1.0, 1e-6, 3.0, 1e150):
            v = (rng.standard_normal((2000, n)) + 1j * rng.standard_normal((2000, n))) * scale
            v[::5, 1:] *= 1e-9  # rows led by one entry
            v[1::5, :] = np.exp(1j * rng.uniform(0, 2 * np.pi, (400, n))) / np.sqrt(n)
            once = unit_rows(v, tol, ValueError)
            assert unit_rows(once, tol, ValueError).tobytes() == once.tobytes()
            assert np.abs(np.linalg.norm(once, axis=1) - 1).max() <= 8 * n * 2.0**-53


@pytest.mark.parametrize("n", [1, 3, 4, 16])
def test_overlap_moduli_are_the_projector_operator_norms(n):
    """|<v_i|v_j>| within (2 sqrt2 n + 1) u of each np.vdot and of
    ||P_i P_j|| in operator norm, the same under a unitary change of basis,
    and bit for bit the same whether stacked along leading axes or not."""
    rng = make_generator(407 + n)
    v = _random_rays(rng, 2 * 5, n).reshape(2, 5, n)
    got = overlap_moduli(v)
    assert got.shape == (2, 5, 5)
    assert [overlap_moduli(rows).tobytes() for rows in v] == [g.tobytes() for g in got]
    bound = (2 * np.sqrt(2) * n + 1) * 2.0 ** -53
    w = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    turned = overlap_moduli(v @ w.T)
    for rows, g, t in zip(v, got, turned):
        for i, j in combinations(range(5), 2):
            assert abs(g[i, j] - abs(np.vdot(rows[i], rows[j]))) <= bound
            p, q = (np.outer(rows[k], rows[k].conj()) for k in (i, j))
            assert abs(g[i, j] - np.linalg.norm(p @ q, 2)) <= 1e-14
            assert abs(t[i, j] - g[i, j]) <= 1e-14
    # e0 against (eps, sqrt(1 - eps^2), 0): the modulus is eps to the last bit
    eps = 1e-9
    tie = overlap_moduli(np.array([[1, 0, 0], [eps, np.sqrt(1 - eps * eps), 0]], dtype=complex))
    assert tie[0, 1] == eps and overlap_moduli(np.eye(3))[0, 1] == 0.0


def test_row_blocks_hold_the_entry_budget(monkeypatch):
    """Blocks of max(1, _BLOCK_ENTRIES // width) rows from 0 up to stop;
    the last one may reach past stop, as a slice of the rows clips it."""
    from qcontexts import linalg
    monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 60)
    assert linalg.row_blocks(7, 20) == [slice(0, 3), slice(3, 6), slice(6, 9)]
    assert linalg.row_blocks(3, 100) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert linalg.row_blocks(2, 0) == [slice(0, 60)]
    assert linalg.row_blocks(0, 5) == []
