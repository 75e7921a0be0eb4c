import numpy as np
import pytest

from qcapsim.circulator import cramer_solve
from qcapsim.errors import SingularSystem
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


# --- the circulator's closed-form 3 x 3 solve --------------------------------------

def solve(a, k):
    """``cramer_solve`` on an (n, 3, 3) complex stack: X = A^-1 diag(k), (n, 3, 3)."""
    a = np.moveaxis(np.asarray(a, dtype=np.complex128), 0, -1)
    return cramer_solve(a.real, a.imag, np.asarray(k, dtype=np.float64))


def _random_stack(rng, k):
    return rng.normal(size=(k, 3, 3)) + 1j * rng.normal(size=(k, 3, 3))


def test_solve_identity_returns_rhs():
    k = np.array([1.0, 2.0, 0.5])
    x = solve(np.eye(3)[None], k)
    assert np.allclose(x[0], np.diag(k), rtol=0, atol=1e-15)


def test_solve_diagonal_inverse():
    a = np.diag([2.0, 4.0j, -1.0])
    k = np.array([1.5, 2.0, 3.0])
    x = solve(a[None], k)
    expected = np.diag([k[0] / 2.0, -0.25j * k[1], -k[2]])
    assert np.allclose(x[0], expected, rtol=1e-14, atol=0)


def test_solve_random_residuals():
    rng = np.random.default_rng(103)
    a = _random_stack(rng, 300)
    k = rng.uniform(0.1, 3.0, size=3)
    x = solve(a, k)
    for ai, xi in zip(a, x):
        assert np.linalg.norm(ai @ xi - np.diag(k)) <= 1e-12 * np.linalg.norm(k)


def test_solve_singular_raises():
    with pytest.raises(SingularSystem):
        solve(np.zeros((1, 3, 3)), np.ones(3))


def test_solve_rank_deficient_raises():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SingularSystem):
        solve(a[None], np.ones(3))


def test_solve_stack_equals_each_member():
    rng = np.random.default_rng(108)
    a = _random_stack(rng, 40)
    k = rng.uniform(0.1, 3.0, size=3)
    x = solve(a, k)
    for i in range(40):
        assert np.array_equal(x[i], solve(a[i:i + 1], k)[0])


def test_solve_stack_with_one_singular_member_raises():
    rng = np.random.default_rng(107)
    a = _random_stack(rng, 9)
    a[4] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]
    with pytest.raises(SingularSystem, match="determinant"):
        solve(a, np.ones(3))


def test_solve_non_finite_residual_raises():
    # det A = 2**-400 is finite and nonzero, but k_3 / det A overflows, so X holds inf and nan
    a = np.stack([np.eye(3), np.diag([1.0, 1.0, 2.0**-400])])
    with pytest.raises(SingularSystem, match="residual nan"):
        with np.errstate(over="ignore", invalid="ignore"):
            solve(a, [1.0, 1.0, 2.0**700])


def test_solve_finite_residual_above_the_bound_raises():
    # det A = -3e-5 is not zero, but A is so close to singular (condition number ~1e7)
    # that the cofactors' rounding leaves a residual of ~1e-9, above SOLVE_RESIDUAL_TOL
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0 + 1e-5]])
    with pytest.raises(SingularSystem, match=r"residual \d\.\d{3}e-09 exceeds 1\.0e-10"):
        solve(a[None], np.ones(3))
