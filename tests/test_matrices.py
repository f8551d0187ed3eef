import numpy as np
import pytest

from qopt.matrices import block_swap, quadrature_rotation, symplectic_metric


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
def test_fixed_blocks_match_np_block_bitwise(n_modes):
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    cases = [(symplectic_metric, np.block([[zero, eye], [-eye, zero]])),
             (block_swap, np.block([[zero, eye], [eye, zero]])),
             (quadrature_rotation, np.block([[-1j * eye, 1j * eye], [eye, eye]]) / np.sqrt(2))]
    for build, want in cases:
        got = build(n_modes)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # signed zeros included


@pytest.mark.parametrize("build", [symplectic_metric, block_swap, quadrature_rotation])
def test_fixed_blocks_are_built_once_and_read_only(build):
    mat = build(2)
    assert build(2) is mat
    with pytest.raises(ValueError, match="read-only"):
        mat[0, 0] = 1.0
