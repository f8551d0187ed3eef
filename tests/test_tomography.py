import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (backprojection_two_gathers, cat_marginal, even_5_smooth_length,
                     ramp_filter_full_spectrum, wigner_from_symplectic)
from qopt.cats import CatState
from qopt.errors import NonFiniteError
from qopt.gaussian import (GaussianState, make_coherent, make_squeezed_vacuum,
                           make_thermal_oscillator, wigner_eval)
from qopt import tomography
from qopt.io import _BLOCK, PHASE_SPACE_HEADER, SINOGRAM_HEADER, format_lattice
from qopt.tomography import (_FFT_UPSAMPLE, _ROW_BLOCK, Sinogram, WignerGrid,
                             _cubic_spline_coefficients, _ramp_filter_slices, _ramp_response,
                             forward_marginal_numeric, gaussian_sinogram, inverse_radon,
                             sample_lattice, sinogram_from_csv, symplectic_marginal,
                             wigner_grid_from_callable, wigner_grid_from_csv)


def wigner_fn(state):
    return lambda q, p: wigner_eval(state, np.stack([p, q], axis=-1))


def normal_pdf(x, mean, var):
    return np.exp(-(x - mean) ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)


def cat_marginals(amplitude, parity, thetas, x):
    return np.array([cat_marginal(amplitude, parity, t, x) for t in thetas])


def assert_bit_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSampleLattice:
    """Grids are evaluated in blocks of whole rows; a pointwise density must come out
    bit for bit as one evaluation over the whole lattice gives it."""

    STATES = [make_squeezed_vacuum(0.8), make_thermal_oscillator(0.7),
              CatState([1.5], "even"), CatState([1.1 - 0.7j], "odd")]

    # blocks of 40 rows with a short last one, one row per block, a row longer than a block
    @pytest.mark.parametrize("n_q, n_p", [(401, 401), (_BLOCK // 2 + 3, 2), (3, _BLOCK + 7)])
    @pytest.mark.parametrize("state", STATES, ids=["squeezed", "thermal", "even", "odd"])
    def test_blocks_match_one_evaluation(self, state, n_q, n_p):
        q, p = np.linspace(-6.0, 6.0, n_q), np.linspace(-5.0, 5.0, n_p)
        f = wigner_fn(state)
        want = f(*np.meshgrid(q, p, indexing="ij"))
        assert_bit_equal(sample_lattice(f, q, p), want)
        assert_bit_equal(wigner_grid_from_callable(f, q, p).values, want)


class TestForwardGaussian:
    x_grid = np.linspace(-8, 8, 161)

    def test_vacuum_isotropic(self):
        thetas = np.linspace(0, math.pi, 7, endpoint=False)
        sino = gaussian_sinogram(make_coherent(0.0), thetas, self.x_grid)
        assert np.abs(sino.values - normal_pdf(self.x_grid, 0.0, 0.5)).max() < 1e-14

    def test_squeezed_axes(self):
        s = make_squeezed_vacuum(0.8)
        sino = gaussian_sinogram(s, [0.0, math.pi / 2], self.x_grid)
        for row, var in zip(sino.values, (s.disp[1, 1], s.disp[0, 0])):
            np.testing.assert_allclose(row, normal_pdf(self.x_grid, 0.0, var), rtol=1e-12)

    def test_mean_rotation(self):
        s = make_coherent(1.0 + 0.5j)
        theta = 0.7
        row = gaussian_sinogram(s, [theta], self.x_grid).values[0]
        mean = s.mean[1] * math.cos(theta) - s.mean[0] * math.sin(theta)
        np.testing.assert_allclose(row, normal_pdf(self.x_grid, mean, 0.5), rtol=1e-12)

    def test_matches_line_integral_of_wigner(self):
        s = GaussianState([0.3, -0.5], [[0.8, 0.2], [0.2, 0.5]])
        theta = 0.9
        xs = np.linspace(-2, 2, 5)
        row = gaussian_sinogram(s, [theta], xs).values[0]
        vs = np.linspace(-12, 12, 2001)
        c, sn = math.cos(theta), math.sin(theta)
        for x, want in zip(xs, row):
            line = wigner_eval(s, np.stack(
                [-x * sn + vs * c, x * c + vs * sn], axis=-1))
            got = np.trapezoid(line, vs) / (2 * math.pi)
            assert got == pytest.approx(want, abs=1e-6)

    def test_rejects_multimode(self):
        with pytest.raises(ValueError):
            gaussian_sinogram(make_coherent([1.0, 0.5]), [0.0], self.x_grid)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("modulus", [0.3, 1.5, 2.5])
    @pytest.mark.parametrize("phase", [0.0, 0.7, math.pi / 2])
    def test_cat_matches_wavefunction_oracle(self, parity, modulus, phase):
        amplitude = modulus * complex(math.cos(phase), math.sin(phase))
        thetas = np.arange(36) * math.pi / 36
        x = np.linspace(-12, 12, 257)
        sino = gaussian_sinogram(CatState([amplitude], parity), thetas, x)
        assert np.abs(sino.values - cat_marginals(amplitude, parity, thetas, x)).max() < 1e-13


class TestForwardNumeric:
    def setup_method(self):
        self.grid = np.linspace(-10, 10, 401)
        self.thetas = np.linspace(0, math.pi, 40, endpoint=False)

    def test_vacuum_slices_angle_independent(self):
        w = wigner_grid_from_callable(wigner_fn(make_coherent(0.0)),
                                      self.grid, self.grid)
        sino = forward_marginal_numeric(w, self.thetas)
        spread = np.abs(sino.values - sino.values[0]).max()
        assert spread < 1e-6

    def test_matches_closed_form(self):
        s = GaussianState([0.4, 0.8], [[0.9, -0.15], [-0.15, 0.45]])
        w = wigner_grid_from_callable(wigner_fn(s), self.grid, self.grid)
        sino = forward_marginal_numeric(w, self.thetas)
        want = gaussian_sinogram(s, self.thetas, sino.x_grid).values
        assert np.abs(sino.values - want).max() < 1e-5

    def test_slices_normalized(self):
        s = make_thermal_oscillator(1.5)
        w = wigner_grid_from_callable(wigner_fn(s), self.grid, self.grid)
        sino = forward_marginal_numeric(w, self.thetas)
        masses = np.trapezoid(sino.values, sino.x_grid, axis=1)
        assert np.abs(masses - 1.0).max() < 1e-12
        assert sino.normalization_defects.max() < 1e-6

    def test_odd_cat_node_at_origin(self):
        c = CatState([1.2], "odd")
        w = wigner_grid_from_callable(wigner_fn(c), self.grid, self.grid)
        sino = forward_marginal_numeric(w, np.array([0.0]))
        mid = np.abs(sino.x_grid).argmin()
        assert abs(sino.values[0, mid]) < 1e-8
        assert sino.values[0].max() > 0.1

    def test_cat_oracle_matches_numeric_forward(self):
        alpha = 1.2
        fine = np.linspace(-12, 12, 769)
        w = wigner_grid_from_callable(wigner_fn(CatState([alpha], "even")), fine, fine)
        thetas = np.linspace(0, math.pi, 12, endpoint=False)
        x = np.linspace(-12, 12, 257)
        numeric = forward_marginal_numeric(w, thetas, x)
        exact = cat_marginals(alpha, "even", thetas, x)
        assert np.abs(numeric.values - exact).max() < 1e-4

    def test_non_finite_grid_rejected(self):
        # a NaN anywhere once read as a boundary ratio of 0, which passed the support check
        q = np.linspace(-8.0, 8.0, 33)
        values = np.array(wigner_grid_from_callable(wigner_fn(make_coherent(0.0)), q, q).values)
        values[16, 16] = np.nan
        grid = WignerGrid(q, q, values)
        assert math.isnan(grid.boundary_peak_ratio())
        with pytest.raises(NonFiniteError, match="not finite"):
            forward_marginal_numeric(grid, self.thetas)

    def test_insufficient_support_rejected(self):
        tight = np.linspace(-1.5, 1.5, 31)
        w = wigner_grid_from_callable(wigner_fn(make_coherent(0.0)), tight, tight)
        with pytest.raises(ValueError, match="support"):
            forward_marginal_numeric(w, self.thetas)

    # the bench shape (513^2 over +-12) and a non-square grid with dq != dp
    ORACLE_GRIDS = ((np.linspace(-12, 12, 513), np.linspace(-12, 12, 513)),
                    (np.linspace(-12, 12, 513), np.linspace(-10, 10, 401)))

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(modulus=st.floats(0.1, 2.5), phase=st.floats(0.0, 2 * math.pi),
           parity=st.sampled_from(["even", "odd"]),
           angles=st.lists(st.floats(0.0, math.pi, exclude_max=True), max_size=3))
    @example(modulus=2.5, phase=0.0, parity="even", angles=[])
    @example(modulus=2.5, phase=math.pi / 2, parity="odd", angles=[0.0, math.pi / 2])
    def test_cat_marginals_match_wavefunction_oracle(self, modulus, phase, parity, angles):
        # pi/4 and 3pi/4 are where the projection switches between q and p nodes
        amplitude = modulus * complex(math.cos(phase), math.sin(phase))
        c = CatState([amplitude], parity)
        thetas = np.array(sorted({math.pi / 4, 3 * math.pi / 4, *angles}))
        x = np.linspace(-12, 12, 257)
        exact = cat_marginals(amplitude, parity, thetas, x)
        for q, p in self.ORACLE_GRIDS:
            w = wigner_grid_from_callable(wigner_fn(c), q, p)
            numeric = forward_marginal_numeric(w, thetas, x)
            assert np.abs(numeric.values - exact).max() < 1e-4 * exact.max()
            assert numeric.normalization_defects.max() < 1e-6

    def test_steerability(self):
        # marginals of a rotated state appear at shifted angles
        shift = math.pi / 8
        rot = np.array([[math.cos(shift), math.sin(shift)],
                        [-math.sin(shift), math.cos(shift)]])
        s0 = make_squeezed_vacuum(0.7)
        s_rot = GaussianState(rot @ s0.mean, rot @ s0.disp @ rot.T)
        w0 = wigner_grid_from_callable(wigner_fn(s0), self.grid, self.grid)
        w1 = wigner_grid_from_callable(wigner_fn(s_rot), self.grid, self.grid)
        thetas = np.linspace(0, math.pi / 2, 9)
        sino0 = forward_marginal_numeric(w0, thetas + shift)
        sino1 = forward_marginal_numeric(w1, thetas)
        assert np.abs(sino0.values - sino1.values).max() < 1e-5


class TestInverseRadon:
    x_grid = np.linspace(-12, 12, 257)
    thetas = np.arange(180) * math.pi / 180

    def roundtrip_error(self, sino, truth_fn):
        rec = inverse_radon(sino, self.x_grid, self.x_grid, reg_s=1e-2)
        truth = wigner_grid_from_callable(truth_fn, self.x_grid, self.x_grid)
        return np.abs(rec.values - truth.values).max() / np.abs(truth.values).max()

    def test_vacuum_round_trip(self):
        s = make_coherent(0.0)
        sino = gaussian_sinogram(s, self.thetas, self.x_grid)
        assert self.roundtrip_error(sino, wigner_fn(s)) <= 0.02

    def test_squeezed_round_trip(self):
        s = make_squeezed_vacuum(1.0)
        sino = gaussian_sinogram(s, self.thetas, self.x_grid)
        assert self.roundtrip_error(sino, wigner_fn(s)) <= 0.02

    def test_even_cat_round_trip(self):
        alpha = 1.2
        sino = Sinogram(self.thetas, self.x_grid,
                        cat_marginals(alpha, "even", self.thetas, self.x_grid))
        assert self.roundtrip_error(sino, wigner_fn(CatState([alpha], "even"))) <= 0.02

    def test_numeric_forward_round_trip(self):
        # full numeric chain stays within the same bound for smooth states
        s = make_coherent(0.9)
        fine = np.linspace(-12, 12, 513)
        w = wigner_grid_from_callable(wigner_fn(s), fine, fine)
        sino = forward_marginal_numeric(w, self.thetas, self.x_grid)
        assert self.roundtrip_error(sino, wigner_fn(s)) <= 0.02

    def test_smaller_reg_s_sharpens(self):
        # the formal limit reg_s -> 0 is approached monotonically here
        s = make_squeezed_vacuum(1.0)
        sino = gaussian_sinogram(s, self.thetas, self.x_grid)
        truth = wigner_grid_from_callable(wigner_fn(s), self.x_grid, self.x_grid)
        errs = []
        for reg_s in (3e-2, 1e-2, 3e-3):
            rec = inverse_radon(sino, self.x_grid, self.x_grid, reg_s=reg_s)
            errs.append(np.abs(rec.values - truth.values).max())
        assert errs[0] > errs[1] > errs[2]

    def test_fewer_angles_is_worse(self):
        s = make_squeezed_vacuum(1.0)
        full = gaussian_sinogram(s, self.thetas, self.x_grid)
        coarse_th = np.arange(33) * math.pi / 33
        coarse = gaussian_sinogram(s, coarse_th, self.x_grid)
        err_full = self.roundtrip_error(full, wigner_fn(s))
        err_coarse = self.roundtrip_error(coarse, wigner_fn(s))
        assert err_coarse > err_full

    def test_grid_past_the_sinogram_keeps_its_mass(self):
        # the slices of a coherent state on [-12, 12], zero-extended to each grid's reach:
        # mass 1 and the blur's error against the closed form, also on the +-30 grid, where
        # reading the slices' end samples gave mass -0.35, and on the +-12 grid, whose corners
        # lie past the range too (error 7.7e-4 then)
        s = make_coherent(0.5 + 0.3j)
        sino = gaussian_sinogram(s, self.thetas, self.x_grid)
        blurred = GaussianState(s.mean, s.disp + 0.25e-2 * np.eye(2))  # variance reg_s / 4
        for reach in (30.0, 12.0, 6.0):
            grid = np.linspace(-reach, reach, 121)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rec = inverse_radon(sino, grid, grid)
            truth = wigner_grid_from_callable(wigner_fn(blurred), grid, grid).values
            assert rec.mass() == pytest.approx(1.0, abs=2e-5)
            assert np.abs(rec.values - truth).max() <= 2.5e-4 * np.abs(truth).max()

    def test_too_few_angles_rejected(self):
        s = make_coherent(0.0)
        sino = gaussian_sinogram(s, np.arange(16) * math.pi / 16, self.x_grid)
        with pytest.raises(ValueError, match="angles"):
            inverse_radon(sino, self.x_grid, self.x_grid)

    def test_bad_regularization_rejected(self):
        s = make_coherent(0.0)
        sino = gaussian_sinogram(s, self.thetas, self.x_grid)
        with pytest.raises(ValueError, match="reg_s"):
            inverse_radon(sino, self.x_grid, self.x_grid, reg_s=0.0)


class TestKernelOracles:
    """The numpy kernels against scipy's prefilter and the direct filtered backprojection."""

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("n", [2, 3, 5, 40, 513])
    def test_spline_prefilter_matches_scipy(self, n, axis):
        from scipy.ndimage import spline_filter1d

        values = np.moveaxis(np.random.default_rng(n).normal(size=(n, 6)), 0, axis)
        got = np.moveaxis(_cubic_spline_coefficients(np.moveaxis(values, axis, 0)), 0, axis)
        want = spline_filter1d(values, order=3, axis=axis, mode="constant")
        assert np.abs(got - want).max() <= 1e-13 * np.abs(values).max()

    @staticmethod
    def sinogram(n_angles, x_grid):
        thetas = np.arange(n_angles) * math.pi / n_angles
        return gaussian_sinogram(CatState([1.0 + 0.6j], "odd"), thetas, x_grid)

    @pytest.mark.parametrize("n_angles, n_x", [(180, 257), (33, 128), (45, 101)])
    def test_ramp_filter_matches_full_spectrum(self, n_angles, n_x):
        x_grid = np.linspace(-10.0, 10.0, n_x)
        dx = x_grid[1] - x_grid[0]
        values = self.sinogram(n_angles, x_grid).values
        response = _ramp_response(n_x, dx, 1e-2)
        # the smallest even 5-smooth length >= 4 n: 1080 = 2^3 3^3 5 for 257 (4 n = 1028)
        n_pad = {257: 1080, 128: 512, 101: 432}[n_x]
        assert response.shape == (n_pad // 2 + 1,) and even_5_smooth_length(n_x) == n_pad
        got = _ramp_filter_slices(values, response)
        want, want_step = ramp_filter_full_spectrum(values, dx, 1e-2)
        assert want_step == dx / _FFT_UPSAMPLE
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n_angles, n_x", [(180, 257), (33, 128), (45, 101)])
    def test_ramp_filter_blocks_match_one_pass(self, n_angles, n_x):
        # inverse_radon filters _ROW_BLOCK angles at a time; the FFTs transform rows
        # independently, so every block's rows are the whole sinogram's, bit for bit
        x_grid = np.linspace(-10.0, 10.0, n_x)
        values = self.sinogram(n_angles, x_grid).values
        response = _ramp_response(n_x, x_grid[1] - x_grid[0], 1e-2)
        blocks = [_ramp_filter_slices(values[start:start + _ROW_BLOCK], response)
                  for start in range(0, n_angles, _ROW_BLOCK)]
        assert_bit_equal(np.concatenate(blocks), _ramp_filter_slices(values, response))

    @pytest.mark.parametrize("n_angles", [33, 65, 180])
    def test_inverse_radon_blocks_match_one_block(self, n_angles, monkeypatch):
        sino = self.sinogram(n_angles, np.linspace(-10.0, 10.0, 129))
        q_grid, p_grid = np.linspace(-6.0, 7.0, 53), np.linspace(-7.0, 6.0, 41)
        blocked = inverse_radon(sino, q_grid, p_grid).values
        monkeypatch.setattr(tomography, "_ROW_BLOCK", n_angles)   # one block of every angle
        assert_bit_equal(blocked, inverse_radon(sino, q_grid, p_grid).values)

    @pytest.mark.parametrize("block", [1, 77 * 500], ids=["one-row", "whole-grid"])
    def test_backprojection_row_blocks_match_the_default(self, block, monkeypatch):
        # 77 rows of 500 points: blocks of 32 rows by default, the last one of 13
        sino = self.sinogram(45, np.linspace(-10.0, 10.0, 129))
        q_grid, p_grid = np.linspace(-6.0, 7.0, 77), np.linspace(-7.0, 6.0, 500)
        want = inverse_radon(sino, q_grid, p_grid).values
        monkeypatch.setattr(tomography, "_BLOCK", block)
        assert_bit_equal(inverse_radon(sino, q_grid, p_grid).values, want)

    @pytest.mark.parametrize("row_block", [1, 257])
    def test_projector_blocks_match_the_default(self, row_block, monkeypatch):
        # 257 x values: blocks of 32 by default, the last one of 1; a grid of unequal axes
        # and angles on both sides of the diagonal, so both axes are interpolated
        grid = wigner_grid_from_callable(wigner_fn(CatState([1.2 + 0.5j], "odd")),
                                         np.linspace(-7.0, 7.0, 161), np.linspace(-8.0, 8.0, 181))
        thetas = np.arange(12) * math.pi / 12
        x_grid = np.linspace(-9.0, 9.0, 257)
        want = forward_marginal_numeric(grid, thetas, x_grid)
        monkeypatch.setattr(tomography, "_ROW_BLOCK", row_block)
        got = forward_marginal_numeric(grid, thetas, x_grid)
        assert_bit_equal(got.values, want.values)
        assert_bit_equal(got.normalization_defects, want.normalization_defects)

    @pytest.mark.parametrize("n_angles", [32, 45, 180])
    @pytest.mark.parametrize("reach, num", [(10.0, 129), (2.5, 21), (30.0, 151)],
                             ids=["sinogram-range", "inside", "past-the-sinogram"])
    def test_inverse_radon_matches_two_gathers(self, n_angles, reach, num):
        sino = self.sinogram(n_angles, np.linspace(-10.0, 10.0, 129))
        q_grid = np.linspace(-reach, reach + 1.0, num)
        p_grid = np.linspace(-reach - 1.0, reach, num)
        got = inverse_radon(sino, q_grid, p_grid).values
        want = backprojection_two_gathers(sino, q_grid, p_grid, 1e-2)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_memory_grows_with_the_extended_table_only(self):
        # the slices are zero-extended to the grid's reach, so the (value, slope) table grows
        # with it; beyond the table, a block of 32 angles holds a padded spectrum and its
        # inverse FFT, each about twice the table of 32 angles, and nothing else grows
        x_grid = np.linspace(-10.0, 10.0, 129)
        sino = self.sinogram(32, x_grid)
        peaks, tables = [], []
        for reach in (5.0, 100.0):
            grid = np.linspace(-reach, reach, 65)
            tracemalloc.start()
            inverse_radon(sino, grid, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            extension = max(0, math.ceil((math.hypot(reach, reach) - 10.0) / (20.0 / 128)))
            tables.append(32 * _FFT_UPSAMPLE * (129 + 2 * extension) * 16)
        assert tables[0] == 32 * _FFT_UPSAMPLE * 129 * 16
        assert peaks[1] - peaks[0] <= 6 * (tables[1] - tables[0])

    def test_large_grid_peaks_near_one_grid(self):
        # the reconstruction is the grid's one full-size array: WignerGrid takes it over
        # without a copy (a copy would peak at about 2.1 grids)
        sino = self.sinogram(32, np.linspace(-12.0, 12.0, 257))
        grid = np.linspace(-12.0, 12.0, 1201)
        tracemalloc.start()
        got = inverse_radon(sino, grid, grid)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 1.3 * grid.size ** 2 * 8
        assert not got.values.flags.writeable

    def test_public_constructor_copies_and_leaves_the_array_writeable(self):
        values = np.arange(6.0).reshape(3, 2)
        grid = WignerGrid(np.arange(3.0), np.arange(2.0), values)
        assert not np.shares_memory(grid.values, values)
        assert values.flags.writeable and not grid.values.flags.writeable
        values[0, 0] = 7.0
        assert grid.values[0, 0] == 0.0


class TestSymplecticMarginal:
    def setup_method(self):
        grid = np.linspace(-10, 10, 401)
        self.w = wigner_grid_from_callable(
            wigner_fn(make_coherent(0.7 - 0.3j)), grid, grid)

    def test_reduces_to_theta_marginal(self):
        theta = 0.6
        x, density = symplectic_marginal(self.w, math.cos(theta), -math.sin(theta),
                                         x_grid=self.w.q_grid)
        sino = forward_marginal_numeric(self.w, np.array([theta]))
        assert np.abs(density - sino.values[0]).max() < 1e-8

    def test_delta_translates(self):
        x, d0 = symplectic_marginal(self.w, 1.0, 0.0, 0.0, x_grid=np.linspace(-8, 8, 161))
        x2, d1 = symplectic_marginal(self.w, 1.0, 0.0, 2.0, x_grid=np.linspace(-6, 10, 161))
        assert np.abs(d0 - d1).max() < 1e-12

    def test_diagonal_direction_on_vacuum(self):
        grid = np.linspace(-9, 9, 361)
        w = wigner_grid_from_callable(wigner_fn(make_coherent(0.0)), grid, grid)
        x, density = symplectic_marginal(w, 1 / math.sqrt(2), 1 / math.sqrt(2),
                                         x_grid=np.linspace(-6, 6, 241))
        want = np.exp(-x ** 2) / math.sqrt(math.pi)
        assert np.abs(density - want).max() < 1e-6

    def test_degenerate_direction_rejected(self):
        with pytest.raises(ValueError):
            symplectic_marginal(self.w, 0.0, 0.0)

    def test_cat_direction_matches_oracle(self):
        # X = mu q + nu p + delta is |(mu, nu)| X(theta) + delta
        amplitude, mu, nu, delta = 1.3 - 0.8j, 0.6, 1.1, 0.4
        grid = np.linspace(-12, 12, 513)
        w = wigner_grid_from_callable(wigner_fn(CatState([amplitude], "odd")), grid, grid)
        x, density = symplectic_marginal(w, mu, nu, delta, x_grid=np.linspace(-15, 15, 301))
        scale = math.hypot(mu, nu)
        want = cat_marginal(amplitude, "odd", math.atan2(-nu, mu), (x - delta) / scale) / scale
        assert np.abs(density - want).max() < 1e-4 * want.max()

    def test_scaling_normalization(self):
        x, density = symplectic_marginal(self.w, 2.0, 0.0, x_grid=np.linspace(-12, 12, 481))
        assert np.trapezoid(density, x) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n_q, n_x", [(81, 259), (141, 283)])
    def test_default_grid_spans_the_farthest_corner(self, n_q, n_x):
        # 2 max(n_q, 129) + 1 points over +-(r |(mu, nu)| + |delta|), r the distance of the
        # grid's farthest corner (8, -7) from the origin
        q, p = np.linspace(-6, 8, n_q), np.linspace(-7, 5, 121)
        w = wigner_grid_from_callable(wigner_fn(make_coherent(0.7 - 0.3j)), q, p)
        mu, nu, delta = 0.6, 1.1, -0.4
        x, density = symplectic_marginal(w, mu, nu, delta)
        half = math.hypot(8.0, 7.0) * math.hypot(mu, nu) + 0.4
        assert x.shape == (n_x,)
        assert np.allclose(x, np.linspace(-half, half, n_x), rtol=0, atol=1e-13)
        assert np.trapezoid(density, x) == pytest.approx(1.0, abs=1e-6)
        shared, explicit = symplectic_marginal(w, mu, nu, delta, x_grid=x[::2])
        assert np.array_equal(shared, x[::2])
        assert np.abs(explicit - density[::2]).max() <= 1e-14


class TestWignerFromSymplectic:
    x_grid = np.linspace(-12, 12, 257)

    @staticmethod
    def gaussian_family(state):
        def fn(mu, nu):
            theta = math.atan2(-nu, mu)
            return gaussian_sinogram(state, [theta], TestWignerFromSymplectic.x_grid).values[0]
        return fn

    def test_vacuum_peak(self):
        got = wigner_from_symplectic(self.gaussian_family(make_coherent(0.0)),
                                     0.0, 0.0, self.x_grid)
        assert abs(got - 2.0) <= 0.1

    def test_agrees_with_inverse_radon_on_squeezed(self):
        s = make_squeezed_vacuum(1.0)
        thetas = np.arange(180) * math.pi / 180
        sino = gaussian_sinogram(s, thetas, self.x_grid)
        eval_grid = np.linspace(-2, 2, 11)
        rec = inverse_radon(sino, eval_grid, eval_grid, reg_s=1e-2)
        qq, pp = np.meshgrid(eval_grid, eval_grid, indexing="ij")
        direct = wigner_from_symplectic(self.gaussian_family(s), qq, pp, self.x_grid)
        assert np.abs(direct - rec.values).max() <= 0.05 * 2.0

    def test_linearity_of_reconstruction(self):
        fam_a = self.gaussian_family(make_coherent(0.0))
        fam_b = self.gaussian_family(make_coherent(1.0))
        fam_mix = lambda mu, nu: 0.5 * fam_a(mu, nu) + 0.5 * fam_b(mu, nu)
        pts_q = np.array([0.0, 0.5, 1.0])
        pts_p = np.array([0.0, -0.5, 0.3])
        mix = wigner_from_symplectic(fam_mix, pts_q, pts_p, self.x_grid)
        parts = (0.5 * wigner_from_symplectic(fam_a, pts_q, pts_p, self.x_grid)
                 + 0.5 * wigner_from_symplectic(fam_b, pts_q, pts_p, self.x_grid))
        assert np.abs(mix - parts).max() < 1e-6

    def test_insufficient_directions_rejected(self):
        with pytest.raises(ValueError):
            wigner_from_symplectic(self.gaussian_family(make_coherent(0.0)),
                                   0.0, 0.0, self.x_grid, n_angles=8)


def write_sinogram(sino, path):
    path.write_text(format_lattice(SINOGRAM_HEADER, sino.theta_grid, sino.x_grid, sino.values),
                    encoding="utf-8")


def write_wigner_grid(grid, path):
    path.write_text(format_lattice(PHASE_SPACE_HEADER, grid.q_grid, grid.p_grid, grid.values),
                    encoding="utf-8")


class TestCsvRoundTrips:
    def test_sinogram(self, tmp_path):
        s = make_squeezed_vacuum(0.5)
        sino = gaussian_sinogram(s, np.arange(40) * math.pi / 40, np.linspace(-8, 8, 65))
        path = tmp_path / "sino.csv"
        write_sinogram(sino, path)
        back = sinogram_from_csv(path)
        assert np.array_equal(back.values, sino.values)
        assert np.array_equal(back.theta_grid, sino.theta_grid)
        assert np.array_equal(back.x_grid, sino.x_grid)

    def test_wigner_grid(self, tmp_path):
        g = np.linspace(-6, 6, 33)
        w = wigner_grid_from_callable(wigner_fn(make_coherent(0.5)), g, g)
        path = tmp_path / "w.csv"
        write_wigner_grid(w, path)
        back = wigner_grid_from_csv(path)
        assert np.array_equal(back.values, w.values)

    @pytest.mark.parametrize("damage", ["reordered", "missing", "duplicate"])
    def test_readers_reject_broken_lattice(self, tmp_path, damage):
        g = np.linspace(-2, 2, 5)
        w = wigner_grid_from_callable(wigner_fn(make_coherent(0.5)), g, g)
        sino = gaussian_sinogram(make_coherent(0.5), np.arange(4) * math.pi / 4, g)
        for write, read, obj in [(write_wigner_grid, wigner_grid_from_csv, w),
                                 (write_sinogram, sinogram_from_csv, sino)]:
            path = tmp_path / "grid.csv"
            write(obj, path)
            header, *rows = path.read_text(encoding="utf-8").splitlines()
            if damage == "reordered":
                # the same lattice, second coordinate varying slowest
                n_outer, n_inner = obj.values.shape
                rows = [rows[i * n_inner + j] for j in range(n_inner) for i in range(n_outer)]
            elif damage == "missing":
                del rows[7]
            else:
                rows.insert(3, rows[3])
            path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
            with pytest.raises(ValueError, match="lattice"):
                read(path)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            WignerGrid(np.array([0.0, 1.0, 1.5]), np.array([0.0, 1.0]), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Sinogram(np.array([0.0, 4.0]), np.array([0.0, 1.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="q_grid must be strictly increasing"):
            WignerGrid(np.array([1.0, 0.5, 0.0]), np.array([0.0, 1.0]), np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"values shape \(2, 2\) does not match grids "
                                             r"\(2, 3\)"):
            WignerGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"values shape \(2, 2\) does not match grids "
                                             r"\(2, 3\)"):
            Sinogram(np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]), np.zeros((2, 2)))
