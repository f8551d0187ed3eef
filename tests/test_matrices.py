import numpy as np
import pytest

from qopt.matrices import block_swap, check_symmetric, quadrature_rotation, symplectic_metric


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


def test_check_symmetric_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match=r"disp must be square, got shape \(2, 3\)"):
        check_symmetric(np.zeros((2, 3)), name="disp")


@pytest.mark.parametrize("scale", [1e-320, 1e-300, 1.0, 1e300, 1.2e308])
def test_check_symmetric_is_the_plain_sum_unless_it_overflows(scale):
    # 0.5 (M + M^T) bit for bit wherever that is finite, subnormal entries included, and
    # finite where the sum overflows, which it does for some entries at the largest scale
    rng = np.random.default_rng(7)
    overflowed = False
    for _ in range(50):
        a = rng.uniform(-1, 1, size=(2, 4, 4))
        sym = (a + a.transpose(0, 2, 1)) / 2 * scale
        mat = (sym[0] + 1j * sym[1]) * (1 + 1e-14 * np.triu(rng.uniform(-1, 1, size=(4, 4)), 1))
        with np.errstate(over="ignore", invalid="ignore"):
            want = 0.5 * (mat + mat.T)
        got = check_symmetric(mat)
        finite = np.isfinite(want)
        overflowed |= not finite.all()
        assert np.isfinite(got).all() and np.array_equal(got[finite], want[finite])
    assert overflowed == (scale > 1e308)


def test_check_symmetric_keeps_the_smallest_subnormal():
    # halving 5e-324 alone would round it to 0
    tiny = np.nextafter(0.0, 1.0)
    assert np.array_equal(check_symmetric(np.diag([tiny, 1.0])), np.diag([tiny, 1.0]))
