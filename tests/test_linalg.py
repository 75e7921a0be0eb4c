import numpy as np
import pytest

from qcapsim.linalg import symmetric_eigenvalues


def test_eigenvalues_match_reference_on_random_matrices():
    rng = np.random.default_rng(101)
    for _ in range(60):
        n = int(rng.integers(1, 70))
        a = rng.normal(size=(n, n))
        a = a + a.T
        ours = symmetric_eigenvalues(a)
        ref = np.linalg.eigvalsh(a)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(ours - ref)) <= 1e-12 * scale


def test_eigenvalues_diagonal_matrix_exact():
    a = np.diag([3.0, 1.0, 1.0, -2.0])
    assert np.array_equal(symmetric_eigenvalues(a), np.array([-2.0, 1.0, 1.0, 3.0]))


def test_eigenvalues_zero_matrix():
    assert np.array_equal(symmetric_eigenvalues(np.zeros((6, 6))), np.zeros(6))


def test_eigenvalues_clustered_spectrum():
    rng = np.random.default_rng(5)
    d = np.array([1.0, 1.0 + 1e-12, 1.0 + 2e-12, 5.0])
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    a = q @ np.diag(d) @ q.T
    a = (a + a.T) / 2
    got = symmetric_eigenvalues(a)
    assert np.max(np.abs(got - np.sort(d))) <= 1e-12 * 5.0


def test_eigenvalues_rejects_non_square():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.zeros((3, 4)))


def test_eigenvalues_empty_and_scalar_matrices():
    empty = symmetric_eigenvalues(np.zeros((0, 0)))
    assert empty.shape == (0,) and empty.dtype == np.float64
    assert np.array_equal(symmetric_eigenvalues([[-2.5]]), np.array([-2.5]))


@pytest.mark.parametrize("shape", [(3,), (2, 3, 3)])
def test_eigenvalues_rejects_vectors_and_stacks(shape):
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.zeros(shape))
