import numpy as np
import pytest

from qcapsim.errors import SingularSystem
from qcapsim.linalg import solve_complex, symmetric_eigenvalues


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


def test_solve_identity_returns_rhs():
    b = np.array([1.0 + 2.0j, -3.0j, 0.5])
    x = solve_complex(np.eye(3, dtype=np.complex128), b)
    assert np.allclose(x, b, rtol=0, atol=1e-15)


def test_solve_diagonal_inverse():
    a = np.diag([2.0, 4.0j, -1.0]).astype(np.complex128)
    b = np.array([1.0 + 1.0j, 2.0, 3.0 - 1.0j])
    x = solve_complex(a, b)
    expected = np.array([b[0] / 2.0, -0.25j * b[1], -b[2]])
    assert np.allclose(x, expected, rtol=1e-14, atol=0)


def test_solve_random_residuals():
    rng = np.random.default_rng(103)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = solve_complex(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_solve_multiple_rhs():
    rng = np.random.default_rng(104)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    b = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    x = solve_complex(a, b)
    assert x.shape == (5, 3)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_solve_singular_raises():
    a = np.zeros((3, 3), dtype=np.complex128)
    with pytest.raises(SingularSystem):
        solve_complex(a, np.ones(3, dtype=np.complex128))


def test_solve_rank_deficient_raises():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]], dtype=np.complex128)
    with pytest.raises(SingularSystem):
        solve_complex(a, np.ones(3, dtype=np.complex128))


def _random_stack(rng, k, n):
    return rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))


@pytest.mark.parametrize("n", [1, 3, 6])
def test_solve_stack_equals_each_member(n):
    rng = np.random.default_rng(105 + n)
    a = _random_stack(rng, 40, n)
    b = rng.normal(size=(40, n, 2)) + 1j * rng.normal(size=(40, n, 2))
    x = solve_complex(a, b)
    for i in range(40):
        assert np.array_equal(x[i], solve_complex(a[i], b[i]))


def test_solve_stack_keeps_rhs_shapes():
    rng = np.random.default_rng(106)
    a = _random_stack(rng, 6, 4).reshape(2, 3, 4, 4)
    vec = rng.normal(size=(2, 3, 4)) + 0j
    mat = rng.normal(size=(2, 3, 4, 5)) + 0j
    assert solve_complex(a, vec).shape == (2, 3, 4)
    assert solve_complex(a, mat).shape == (2, 3, 4, 5)
    x = solve_complex(a, vec)
    assert np.linalg.norm(np.einsum("...ij,...j->...i", a, x) - vec) <= 1e-12 * np.linalg.norm(vec)
    with pytest.raises(ValueError):
        solve_complex(a, vec[:, :2])


def test_solve_stack_with_one_singular_member_raises():
    rng = np.random.default_rng(107)
    a = _random_stack(rng, 9, 3)
    a[4] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]
    with pytest.raises(SingularSystem, match="zero pivot"):
        solve_complex(a, np.ones((9, 3), dtype=np.complex128))


def test_solve_non_finite_residual_raises():
    a = np.eye(3, dtype=np.complex128)
    a[1, 2] = np.nan
    with pytest.raises(SingularSystem, match="residual"), np.errstate(invalid="ignore"):
        solve_complex(np.stack([np.eye(3), a]), np.ones((2, 3), dtype=np.complex128))


def test_solve_finite_residual_above_the_bound_raises():
    # the 12 x 12 Hilbert matrix (condition number ~1e16) solves without a zero pivot,
    # but its residual of ~2e-9 is finite and above SOLVE_RESIDUAL_TOL
    i = np.arange(12)
    hilbert = (1.0 / (i[:, None] + i[None, :] + 1.0)).astype(np.complex128)
    with pytest.raises(SingularSystem, match=r"residual \d\.\d{3}e-09 exceeds 1\.0e-10"):
        solve_complex(hilbert, np.ones(12, dtype=np.complex128))
