import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontexts.core import make_generator
from qcontexts.errors import DependentInput
from qcontexts.linalg import (
    Tolerance,
    gram_schmidt,
    is_unitary,
    max_abs,
)


def test_tolerance_defaults_and_sanity_bound():
    tol = Tolerance()
    assert tol.abs_eps == 1e-9 and tol.rel_eps == 1e-9
    with pytest.raises(ValueError):
        Tolerance(abs_eps=1e-2)
    with pytest.raises(ValueError):
        Tolerance(rel_eps=-1.0)


def test_tolerance_is_an_immutable_value():
    tol = Tolerance(1e-8, 1e-7)
    assert tol == Tolerance(abs_eps=1e-8, rel_eps=1e-7) != Tolerance()
    assert hash(tol) == hash(Tolerance(1e-8, 1e-7))
    with pytest.raises(AttributeError):
        tol.abs_eps = 1e-6
    with pytest.raises(AttributeError):
        del tol.rel_eps
    assert tol.abs_eps == 1e-8


class TestGramSchmidt:
    def test_already_orthonormal_is_unchanged(self):
        vs = [np.array([1, 0, 0]), np.array([0, 1, 0])]
        out = gram_schmidt(vs)
        for given_v, got in zip(vs, out):
            assert max_abs(got - given_v) < 1e-12

    def test_textbook_two_step(self):
        out = gram_schmidt([np.array([1, 0]), np.array([1, 1])])
        assert max_abs(out[0] - np.array([1, 0])) < 1e-12
        assert max_abs(out[1] - np.array([0, 1])) < 1e-12

    def test_random_complex_vectors_gram_matrix_is_identity(self):
        # oracle: the Gram matrix of the output must be the identity
        rng = make_generator(101)
        vs = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(5)]
        out = gram_schmidt(vs)
        basis = np.column_stack(out)
        assert max_abs(basis.conj().T @ basis - np.eye(5)) <= 1e-9

    def test_span_preserved(self):
        rng = make_generator(7)
        vs = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3)]
        out = gram_schmidt(vs)
        # every input vector must be reproduced by its projection on the output
        basis = np.column_stack(out)
        for v in vs:
            proj = basis @ (basis.conj().T @ v)
            assert max_abs(proj - v) < 1e-9

    def test_dependent_input_raises(self):
        with pytest.raises(DependentInput):
            gram_schmidt([np.array([1, 0, 0]), np.array([1, 0, 0])])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotence(self, seed):
        rng = make_generator(seed)
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        vs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(k)]
        once = gram_schmidt(vs)
        twice = gram_schmidt(once)
        for a, b in zip(once, twice):
            assert max_abs(a - b) <= 1e-9


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
