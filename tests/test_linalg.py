import numpy as np
import pytest

from qcapsim.linalg import symmetric_eigenvalues


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
