import numpy as np
import pytest

from conftest import finite_diff_grad, frobenius_sq
from masktune.errors import NumericError
from masktune.linalg import Rng


class TestFrobeniusSq:
    def test_zero(self):
        assert frobenius_sq(np.zeros((3, 4))) == 0.0

    def test_identity(self):
        assert frobenius_sq(np.eye(3)) == 3.0

    def test_hand(self):
        assert frobenius_sq(np.array([[1.0, 2.0], [3.0, 4.0]])) == 30.0

    def test_matches_hadamard_sum(self, np_rng):
        a = np_rng.normal(size=(5, 7))
        assert frobenius_sq(a) == float(np.sum(a * a))


class TestFiniteDiff:
    def test_frobenius_grad(self, np_rng):
        a = np_rng.normal(size=(3, 4))
        g = finite_diff_grad(frobenius_sq, a, 1e-5)
        assert np.linalg.norm(g - 2 * a) < 1e-6 * np.linalg.norm(2 * a)

    def test_constant(self):
        g = finite_diff_grad(lambda x: 3.0, np.ones((2, 2)), 1e-5)
        assert np.array_equal(g, np.zeros((2, 2)))

    def test_linear(self, np_rng):
        c = np_rng.normal(size=(2, 3))
        g = finite_diff_grad(lambda x: float(np.sum(c * x)), np.zeros((2, 3)), 1e-5)
        assert np.allclose(g, c, rtol=1e-8, atol=1e-9)

    def test_nonfinite_raises(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda x: float("nan"), np.ones((1, 1)), 1e-5)


class TestRng:
    def test_replay_bitwise(self):
        a = Rng(42).standard_normal(100)
        b = Rng(42).standard_normal(100)
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        assert not np.array_equal(Rng(1).standard_normal(10), Rng(2).standard_normal(10))

    def test_child_streams_independent_and_deterministic(self):
        r = Rng(7)
        a = r.child(0).standard_normal(10)
        b = r.child(1).standard_normal(10)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, Rng(7).child(0).standard_normal(10))

    def test_permutation_deterministic(self):
        assert np.array_equal(Rng(5).permutation(50), Rng(5).permutation(50))
