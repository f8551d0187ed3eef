import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qopt.gaussian import (GaussianState, QRep, from_qrep, make_coherent,
                           make_squeezed_vacuum, make_thermal_oscillator, photon_moments,
                           photon_pnd, photon_pnd_table, q_eval, to_qrep, validate_state,
                           wigner_eval)
from qopt import hermite
from qopt.cats import CatState
from qopt.errors import ConventionError, NonFiniteError, QoptError, ResourceLimitError
from qopt.hermite import _near_diagonal_entries, _total_degree_indices
from qopt.matrices import symplectic_metric

from oracles import coherent_product_pnd, pure_gaussian_state, trapz_nd


def random_symplectic(n_modes, rng, scale=0.4):
    b = rng.normal(size=(2 * n_modes, 2 * n_modes)) * scale
    return expm(symplectic_metric(n_modes) @ (b + b.T))


def random_valid_state(n_modes, rng, mixed=True, mean_scale=0.8, noise_scale=1.2,
                       symplectic_scale=0.4):
    sigmas = rng.uniform(0.5, noise_scale, size=n_modes) if mixed else 0.5 * np.ones(n_modes)
    disp0 = np.diag(np.concatenate([sigmas, sigmas]))
    S = random_symplectic(n_modes, rng, scale=symplectic_scale)
    mean = rng.normal(size=2 * n_modes) * mean_scale
    return GaussianState(mean, S @ disp0 @ S.T)


class TestConstructors:
    def test_vacuum(self):
        s = make_coherent(0.0)
        assert np.allclose(s.mean, 0.0)
        assert np.allclose(s.disp, 0.5 * np.eye(2))

    def test_coherent_means(self):
        s = make_coherent(1.0)
        assert s.mean[1] == pytest.approx(math.sqrt(2))  # <q>
        assert s.mean[0] == pytest.approx(0.0)            # <p>

    def test_coherent_noise_is_displacement_independent(self):
        for alpha in [0.3, 1.5 - 2.0j, -0.7j]:
            s = make_coherent(alpha)
            assert np.allclose(s.disp, 0.5 * np.eye(2))

    def test_thermal_width(self):
        s = make_thermal_oscillator(1.0, 1.0)
        assert s.disp[0, 0] == pytest.approx(0.5 / math.tanh(0.5), abs=1e-12)
        assert s.disp[0, 0] == pytest.approx(1.0820, abs=2e-4)

    def test_thermal_zero_temperature_limit(self):
        s = make_thermal_oscillator(1e-3, 1.0)
        assert np.allclose(s.disp, 0.5 * np.eye(2), atol=1e-12)

    def test_thermal_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_thermal_oscillator(-1.0, 1.0)
        with pytest.raises(ValueError):
            make_thermal_oscillator(1.0, 0.0)

    def test_state_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            GaussianState([0, 0], [[0.5, 0.2], [0.1, 0.5]])


class TestValidateState:
    def test_vacuum_saturates(self):
        diag = validate_state(make_coherent(0.0))
        assert diag.min_uncertainty_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert diag.purity == pytest.approx(1.0, abs=1e-12)
        assert diag.uncertainty_ok

    def test_below_vacuum_noise_flagged(self):
        diag = validate_state(GaussianState([0, 0], 0.25 * np.eye(2)))
        assert not diag.uncertainty_ok
        assert diag.min_uncertainty_eigenvalue < -0.1

    @pytest.mark.parametrize("r", [8.0, 12.0, 16.5])
    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
    def test_strong_squeezing_is_physical(self, r, theta):
        # the rounding of M + i sigma/2 grows with |M| ~ e^(2r); its scaled form's does not
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        disp = rot @ np.diag([0.5 * math.exp(2 * r), 0.5 * math.exp(-2 * r)]) @ rot.T
        assert validate_state(GaussianState([0.0, 0.0], disp)).uncertainty_ok

    @pytest.mark.parametrize("disp", [np.diag([1e15, -0.499]), -0.6 * np.eye(2),
                                      np.diag([10.0, 0.01])])
    def test_unphysical_states_rejected(self, disp):
        # each has det(M + I/2) > 0, the first also cond(2M + I) > 1e14
        s = GaussianState([0.0, 0.0], disp)
        assert not validate_state(s).uncertainty_ok
        with pytest.raises(ValueError, match="not physical"):
            to_qrep(s)

    def test_thermal_is_mixed(self):
        diag = validate_state(make_thermal_oscillator(1.0))
        assert diag.purity < 1.0
        assert diag.purity == pytest.approx(math.tanh(0.5), abs=1e-12)

    def test_constructors_pass_validation(self):
        rng = np.random.default_rng(2)
        states = [make_coherent(1 + 1j), make_thermal_oscillator(0.7),
                  make_squeezed_vacuum(1.0), random_valid_state(2, rng)]
        for s in states:
            assert validate_state(s).uncertainty_ok

    def test_pure_constructors_have_unit_purity(self):
        for s in [make_coherent(1 + 1j), make_coherent([0.4, -0.8j]),
                  make_squeezed_vacuum(1.3)]:
            assert validate_state(s).purity == pytest.approx(1.0, abs=1e-10)


class TestWigner:
    def test_vacuum_at_origin(self):
        assert wigner_eval(make_coherent(0.0), [0.0, 0.0]) == pytest.approx(2.0, rel=1e-12)

    def test_vacuum_on_unit_circle(self):
        s = make_coherent(0.0)
        for ang in np.linspace(0, 2 * np.pi, 7):
            Q = [math.cos(ang), math.sin(ang)]
            assert wigner_eval(s, Q) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)

    def test_peak_value_is_inverse_root_det(self):
        rng = np.random.default_rng(4)
        s = random_valid_state(1, rng)
        want = np.linalg.det(s.disp) ** -0.5
        assert wigner_eval(s, s.mean) == pytest.approx(want, rel=1e-12)

    def test_grid_broadcasting_and_normalization(self):
        s = make_squeezed_vacuum(0.8)
        p = np.linspace(-14, 14, 701)
        q = np.linspace(-14, 14, 701)
        P, Q = np.meshgrid(p, q, indexing="ij")
        pts = np.stack([P, Q], axis=-1)
        vals = wigner_eval(s, pts)
        total = np.trapezoid(np.trapezoid(vals, q, axis=1), p) / (2 * np.pi)
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_matches_quadratic_form(self, n_modes):
        rng = np.random.default_rng(40 + n_modes)
        s = random_valid_state(n_modes, rng)
        pts = s.mean + rng.normal(size=(50, 2 * n_modes))
        diff = pts - s.mean
        quad = np.einsum("ki,ki->k", diff, np.linalg.solve(s.disp, diff.T).T)
        want = np.exp(-0.5 * quad) / math.sqrt(np.linalg.det(s.disp))
        np.testing.assert_allclose(wigner_eval(s, pts), want, rtol=1e-12, atol=0)


class TestQRep:
    def test_vacuum(self):
        rep = to_qrep(make_coherent(0.0))
        assert rep.p0 == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rep.R).max() < 1e-12

    def test_coherent_p0_is_poisson_weight(self):
        for alpha in [0.5, 1.5, 1.0 - 2.0j]:
            rep = to_qrep(make_coherent(alpha))
            assert rep.p0 == pytest.approx(math.exp(-abs(alpha) ** 2), rel=1e-12)

    def test_squeezed_vacuum_p0(self):
        # sigma_q = |eps|^2/2, sigma_p = |epsdot|^2/2, sigma_pq = Re(eps* epsdot)/2
        eps, epsdot = 1.0 + 0.8j, -0.4 + 1j * (1 + 0.4 * 0.8) / 1.0  # any Wronskian pair
        # enforce eps epsdot* - eps* epsdot = -2i exactly
        eps = 1.2 * np.exp(0.3j)
        epsdot = (0.25 + 1j / abs(eps) ** 0.5) * eps  # placeholder, fixed below
        epsdot = (0.3 + 1j / abs(eps) ** 2) * eps
        w = eps * np.conj(epsdot) - np.conj(eps) * epsdot
        assert w == pytest.approx(-2j, rel=1e-12)
        M = 0.5 * np.array([[abs(epsdot) ** 2, np.real(np.conj(eps) * epsdot)],
                            [np.real(np.conj(eps) * epsdot), abs(eps) ** 2]])
        rep = to_qrep(GaussianState([0, 0], M))
        want = 2.0 / math.sqrt(abs(eps) ** 2 + abs(epsdot) ** 2 + 2.0)
        assert rep.p0 == pytest.approx(want, rel=1e-12)

    def test_roundtrip_vacuum(self):
        s = make_coherent(0.0)
        back = from_qrep(to_qrep(s))
        assert np.allclose(back.mean, s.mean, atol=1e-12)
        assert np.allclose(back.disp, s.disp, atol=1e-12)

    def test_roundtrip_random_two_mode(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            s = random_valid_state(2, rng)
            back = from_qrep(to_qrep(s))
            assert np.abs(back.mean - s.mean).max() < 1e-10
            assert np.abs(back.disp - s.disp).max() < 1e-10

    def test_roundtrip_coherent(self):
        # R is singular here; the exact linear coefficient must survive
        s = make_coherent(1.3 - 0.8j)
        back = from_qrep(to_qrep(s))
        assert np.abs(back.mean - s.mean).max() < 1e-10
        assert np.abs(back.disp - s.disp).max() < 1e-10

    def test_zero_rep_is_vacuum(self):
        s = from_qrep(QRep(np.zeros((2, 2)), np.zeros(2), 1.0))
        assert np.allclose(s.mean, 0.0, atol=1e-12)
        assert np.allclose(s.disp, 0.5 * np.eye(2), atol=1e-12)

    def test_singular_kernel_rejected(self):
        # R + sigma_Nx = 0 cannot be inverted back to a state
        rep = QRep(-np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            from_qrep(rep)


class TestInputChecks:
    """Each malformed argument raises ValueError with its own message."""

    @pytest.mark.parametrize("build, match", [
        (lambda: GaussianState([0.0, 0.0, 0.0], np.eye(3)), "even positive length, got 3"),
        (lambda: GaussianState([], np.eye(2)), "even positive length, got 0"),
        (lambda: GaussianState([0.0, 0.0], np.eye(4)), r"disp shape \(4, 4\) does not match"),
        (lambda: GaussianState([np.nan, 0.0], 0.5 * np.eye(2)), "mean must be finite"),
        (lambda: GaussianState([0.0, np.inf], 0.5 * np.eye(2)), "mean must be finite"),
        (lambda: GaussianState([0.0, 0.0], [[np.inf, 0.0], [0.0, 0.5]]), "disp must be finite"),
        (lambda: GaussianState([0.0, 0.0], [[0.5, np.nan], [np.nan, 0.5]]),
         "disp must be finite"),
        (lambda: QRep(np.zeros((2, 2)), np.zeros(3), 1.0), "ry has length 3"),
        (lambda: QRep(np.zeros((3, 3)), np.zeros(3), 1.0), "R must be 2N x 2N"),
        (lambda: QRep(np.zeros((2, 2)), np.zeros(2), 1.5), r"p0 must lie in \[0, 1\]"),
        (lambda: QRep(np.zeros((2, 2)), np.zeros(2), -0.1), r"p0 must lie in \[0, 1\]"),
        # a complex R whose state would have a complex dispersion matrix
        (lambda: from_qrep(QRep([[0.3j, 0.2], [0.2, -0.1j]], np.zeros(2), 1.0)),
         "dispersion matrix has a large imaginary residue"),
        # a coherent state's R with its linear vector turned a quarter: a complex mean
        (lambda: from_qrep(QRep(np.zeros((2, 2)), [0.5j + 0.2, 0.5j - 0.2], 1.0)),
         "mean has a large imaginary residue"),
        (lambda: q_eval(make_coherent(0.0), [0.0, 0.0]), "beta must have last dimension 1"),
        (lambda: photon_moments(make_coherent([0.0, 1.0]), 2), "mode index 2 out of range"),
        (lambda: photon_moments(make_coherent(0.0), -1), "mode index -1 out of range"),
    ])
    def test_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_largest_finite_dispersion_stays_finite(self):
        # symmetrizing [[1e308, 0], [0, 0.5]] once overflowed to an infinite dispersion
        disp = np.array([[1e308, 0.0], [0.0, 0.5]])
        state = GaussianState([0.0, 0.0], disp)
        assert np.array_equal(state.disp, disp)
        assert wigner_eval(state, [0.0, 0.0]) == pytest.approx(0.5e308 ** -0.5, rel=1e-12)

    def test_bare_int_outcome_of_one_mode(self):
        for state in (make_coherent(1.0), CatState([1.0], "odd")):
            assert photon_pnd(state, 3) == photon_pnd(state, [3])
        assert photon_pnd(make_coherent(1.0), 3) == pytest.approx(math.exp(-1.0) / 6, rel=1e-14)


class TestWignerErrors:
    def test_singular_dispersion_rejected(self):
        s = GaussianState([0.0, 0.0], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            wigner_eval(s, [0.0, 0.0])

    def test_wrong_point_dimension_rejected(self):
        with pytest.raises(ValueError):
            wigner_eval(make_coherent(0.0), [0.0, 0.0, 0.0])


class TestQFunction:
    def test_vacuum_gaussian(self):
        s = make_coherent(0.0)
        for q, p in [(0.0, 0.0), (1.0, 0.0), (0.3, -1.2)]:
            beta = (q + 1j * p) / math.sqrt(2)
            assert q_eval(s, [beta]) == pytest.approx(math.exp(-(q * q + p * p) / 2), rel=1e-10)

    def test_coherent_self_overlap(self):
        alpha = 0.7 + 0.4j
        assert q_eval(make_coherent(alpha), [alpha]) == pytest.approx(1.0, rel=1e-12)

    def test_coherent_cross_overlap(self):
        alpha, beta = 0.9 - 0.2j, -0.3 + 1.1j
        want = math.exp(-abs(alpha - beta) ** 2)
        assert q_eval(make_coherent(alpha), [beta]) == pytest.approx(want, rel=1e-10)

    def test_thermal_matches_closed_form(self):
        temperature, omega = 1.0, 1.0
        s = make_thermal_oscillator(temperature, omega)
        x = omega / temperature
        for q, p in [(0.0, 0.0), (0.8, -0.5), (1.5, 1.0)]:
            beta = (q + 1j * p) / math.sqrt(2)
            want = (2 * math.sinh(x / 2) * math.exp(-x / 2)
                    * math.exp(-0.5 * (p * p + q * q) * (1 - math.exp(-x))))
            assert q_eval(s, [beta]) == pytest.approx(want, rel=1e-10)

    def test_thermal_normalization(self):
        s = make_thermal_oscillator(1.0, 1.0)
        re = np.linspace(-6, 6, 301)
        im = np.linspace(-6, 6, 301)

        def f(x, y):
            return q_eval(s, (x + 1j * y)[..., np.newaxis])

        total = trapz_nd(f, [re, im]) / np.pi
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_q_is_wigner_smoothed_by_vacuum(self):
        rng = np.random.default_rng(31)
        p = np.linspace(-9, 9, 481)
        q = np.linspace(-9, 9, 481)
        for _ in range(5):
            s = random_valid_state(1, rng, mean_scale=0.5)
            beta = (rng.normal(scale=0.5) + 1j * rng.normal(scale=0.5))
            qb, pb = math.sqrt(2) * beta.real, math.sqrt(2) * beta.imag

            def f(pp, qq):
                pts = np.stack([pp, qq], axis=-1)
                return wigner_eval(s, pts) * np.exp(-(pp - pb) ** 2 - (qq - qb) ** 2)

            want = trapz_nd(f, [p, q]) / np.pi
            assert q_eval(s, [beta]) == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("r", [15.0, 16.5, 18.0])
    def test_strongly_squeezed_vacuum(self, r):
        # Q(0) = det(M + I/2)^{-1/2}; the state is physical however large r is
        want = ((math.exp(2 * r) + 1) * (math.exp(-2 * r) + 1) / 4) ** -0.5
        assert q_eval(make_squeezed_vacuum(r), [0.0]) == pytest.approx(want, rel=1e-12)


class TestPureGaussian:
    """Library states against the Wigner moments of a pure wavefunction (``oracles``)."""

    def test_vacuum_spec(self):
        s = pure_gaussian_state(0.5 * np.eye(1), [0.0])
        assert np.allclose(s.disp, 0.5 * np.eye(2), atol=1e-12)
        assert np.allclose(s.mean, 0.0, atol=1e-12)
        vacuum = make_coherent(0.0)
        assert np.allclose(vacuum.disp, s.disp, atol=1e-12)
        assert np.allclose(vacuum.mean, s.mean, atol=1e-12)

    def test_scalar_squeeze(self):
        r = 0.7
        s = pure_gaussian_state([[0.5 * math.exp(2 * r)]], [0.0])
        assert s.disp[1, 1] == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-12)  # sigma_q
        assert s.disp[0, 0] == pytest.approx(0.5 * math.exp(2 * r), rel=1e-12)   # sigma_p
        assert np.allclose(make_squeezed_vacuum(r).disp, s.disp, rtol=1e-12, atol=1e-12)

    def test_complex_m_gives_correlation(self):
        s = pure_gaussian_state([[0.5 + 0.3j]], [0.0])
        assert abs(s.disp[0, 1]) > 0.1
        assert validate_state(s).purity == pytest.approx(1.0, abs=1e-10)

    def test_outputs_are_pure(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            shape = rng.normal(size=(2, 2))
            m = shape @ shape.T + 1.2 * np.eye(2) + 0.3j * (lambda a: a + a.T)(rng.normal(size=(2, 2)))
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            s = pure_gaussian_state(0.5 * m, c)
            diag = validate_state(s)
            assert diag.purity == pytest.approx(1.0, abs=1e-10)
            assert diag.min_uncertainty_eigenvalue > -1e-10

    def test_mean_matches_plane_wave(self):
        # psi ~ exp(-x^2/2 + ikx) has <q> = 0, <p> = k
        k = 1.7
        s = pure_gaussian_state([[0.5]], [1j * k])
        assert s.mean[0] == pytest.approx(k, rel=1e-12)
        assert s.mean[1] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(make_coherent(1j * k / math.sqrt(2.0)).mean, s.mean, atol=1e-12)


class TestPhotonStatistics:
    def test_coherent_poisson(self):
        alpha = 1.5
        s = make_coherent(alpha)
        for n in range(21):
            want = math.exp(-alpha ** 2) * alpha ** (2 * n) / math.factorial(n)
            assert photon_pnd(s, [n]) == pytest.approx(want, abs=1e-10)

    def test_vacuum_pnd(self):
        s = make_coherent(0.0)
        assert photon_pnd(s, [0]) == pytest.approx(1.0, abs=1e-12)
        for n in range(1, 6):
            assert photon_pnd(s, [n]) == pytest.approx(0.0, abs=1e-12)

    def test_squeezed_vacuum_matches_closed_form(self):
        r = 1.0
        s = make_squeezed_vacuum(r)
        for m in range(8):
            want = (math.factorial(2 * m) / math.factorial(m) ** 2
                    * (math.tanh(r) / 2) ** (2 * m) / math.cosh(r))
            assert photon_pnd(s, [2 * m]) == pytest.approx(want, abs=1e-11)
            assert photon_pnd(s, [2 * m + 1]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [144, 190])
    def test_large_photon_number_matches_log_poisson(self, n):
        # the raw Hermite value and n! both overflow here; G_(n,n) does not
        want = math.exp(-144.0 + n * math.log(144.0) - math.lgamma(n + 1))
        assert photon_pnd(make_coherent(12.0), [n]) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n_modes", [20, 40])
    def test_many_modes_match_the_poisson_product(self, n_modes):
        # the near-diagonal set to total 2 holds 1 + 3N(N + 1)/2 offsets: 101,721 entries
        # at 40 modes, whose step table is built by lookup, not by comparing every pair
        alpha = 0.3 * np.exp(1j * np.arange(1, n_modes + 1))
        n = [1] + [0] * (n_modes - 2) + [1]
        want = coherent_product_pnd(alpha, n)
        assert abs(photon_pnd(make_coherent(alpha), n) - want) <= 1e-13 * want

    def test_forty_mode_shells_match_the_poisson_product(self):
        alpha = 0.3 * np.exp(1j * np.arange(1, 41))
        shells = list(make_coherent(alpha).photon_shells(2))
        assert [len(indices) for indices, _ in shells] == [1, 40, 820]
        indices = np.concatenate([indices for indices, _ in shells])
        assert np.array_equal(indices, _total_degree_indices(40, 2))
        got = np.concatenate([values for _, values in shells])
        want = np.array([coherent_product_pnd(alpha, n) for n in indices.tolist()])
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    def test_overflow_raises_typed_error(self):
        with pytest.raises(NonFiniteError):
            photon_pnd(make_coherent(30.0), [900])
        assert issubclass(NonFiniteError, QoptError)

    def test_table_rejects_underflowing_vacuum_probability(self):
        # p0 = exp(-900) underflows; the table would hold only zeros and mass 0
        with pytest.raises(NonFiniteError, match="p0"):
            photon_pnd_table(make_coherent(30.0))

    def test_table_entries_equal_single_evaluations(self):
        # the table reads a larger Hermite box than photon_pnd; values agree exactly
        s = random_valid_state(2, np.random.default_rng(8), mean_scale=0.4,
                               noise_scale=0.7, symplectic_scale=0.2)
        table = photon_pnd_table(s)
        # rows are whole shells, ordered by total and then lexicographically
        want = [[k, d - k] for d in range(table.max_total_degree + 1) for k in range(d + 1)]
        assert table.indices.tolist() == want
        rows = dict(zip(map(tuple, want), table.probabilities.tolist()))
        for idx in [(0, 0), (3, 1), (0, table.max_total_degree)]:
            assert photon_pnd(s, idx) == rows[idx]

    @pytest.mark.parametrize("r", [16.5, 18.0])
    def test_strongly_squeezed_table(self, r):
        # 2M + I >= I for every physical state, so no squeezing makes it singular;
        # P(2m) = tanh(r)^(2m) (2m)! / (4^m (m!)^2 cosh r), and odd counts never occur:
        # their rows are rounding residue of R, below 1e-12 of the vacuum row
        with pytest.warns(UserWarning, match="degree cap 64"):
            table = photon_pnd_table(make_squeezed_vacuum(r))
        assert table.cap_hit and table.max_total_degree == 64
        assert table.indices[:, 0].tolist() == list(range(65))
        assert table.probabilities[1::2].max() <= 1e-12 * table.probabilities[0]
        want = np.array([math.comb(2 * m, m) / 4.0 ** m * math.tanh(r) ** (2 * m) / math.cosh(r)
                         for m in range(33)])
        np.testing.assert_allclose(table.probabilities[::2], want, rtol=1e-12, atol=0)

    def test_two_mode_coherent_factorizes(self):
        s = make_coherent([0.8, 1.1 - 0.5j])
        for n in [(0, 0), (1, 2), (3, 1)]:
            want = 1.0
            for a, k in zip([0.8, 1.1 - 0.5j], n):
                want *= math.exp(-abs(a) ** 2) * abs(a) ** (2 * k) / math.factorial(k)
            assert photon_pnd(s, n) == pytest.approx(want, rel=1e-9)

    @pytest.mark.filterwarnings("ignore:photon enumeration")
    @pytest.mark.parametrize("state_fn", [
        lambda: make_coherent(2.0),
        lambda: make_squeezed_vacuum(1.0),
        lambda: make_thermal_oscillator(2.0),
        lambda: random_valid_state(2, np.random.default_rng(42), mean_scale=0.4,
                                   noise_scale=0.8, symplectic_scale=0.25),
    ])
    def test_pnd_normalizes(self, state_fn):
        # mean photon number <= 10 for all of these
        table = photon_pnd_table(state_fn())
        assert table.cumulative >= 1 - 1e-8

    @pytest.mark.parametrize("n_modes", [3, 4])
    def test_multimode_tables_meet_mass_target(self, n_modes):
        # three modes: S = expm(J (A + A^T)), A = 0.3 normal(6 x 6), disp = S S^T / 2, mean
        # 0.7 normal(6) from default_rng(1), which needs total degree 95 (2.8 million
        # near-diagonal entries); the same draw for four modes needs 130 (3.9e8 entries, 23
        # times the cap), so four modes take a pure state of 2.5 photons needing degree 20
        if n_modes == 3:
            rng = np.random.default_rng(1)
            a = 0.3 * rng.normal(size=(6, 6))
            S = expm(symplectic_metric(3) @ (a + a.T))
            s = GaussianState(0.7 * rng.normal(size=6), S @ S.T / 2)
        else:
            s = random_valid_state(4, np.random.default_rng(2), mixed=False, mean_scale=0.6,
                                   symplectic_scale=0.05)
        table = photon_pnd_table(s)
        assert not table.cap_hit
        assert table.cumulative >= 1 - 1e-10
        series_mean = table.indices.sum(axis=1) @ table.probabilities
        closed = sum(photon_moments(s, j)[0] for j in range(n_modes))
        assert series_mean == pytest.approx(closed, abs=1e-7)

    def test_entry_cap_stop_is_reported(self, monkeypatch):
        # a smaller cap stands in for 2**24, which a unit test cannot afford to fill
        monkeypatch.setattr(hermite, "BOX_ENTRY_CAP", _near_diagonal_entries(2, 6))
        s = random_valid_state(2, np.random.default_rng(8), mean_scale=0.4,
                               noise_scale=0.7, symplectic_scale=0.2)
        with pytest.warns(UserWarning, match="stopped at total degree 6"):
            table = photon_pnd_table(s)
        assert table.cap_hit and table.max_total_degree == 6
        with pytest.warns(UserWarning, match="degree cap 6"):
            capped = photon_pnd_table(s, degree_cap_per_mode=3)
        assert (capped.cumulative, capped.max_total_degree, capped.cap_hit) == (
            table.cumulative, table.max_total_degree, table.cap_hit)
        assert np.array_equal(capped.indices, table.indices)
        assert np.array_equal(capped.probabilities, table.probabilities)

    def test_cap_hit_is_reported(self):
        s = make_thermal_oscillator(5.0)
        with pytest.warns(UserWarning, match="degree cap"):
            table = photon_pnd_table(s, degree_cap_per_mode=3)
        assert table.cap_hit
        assert table.cumulative < 1 - 1e-10

    def test_moments_coherent(self):
        alpha = 1.2 - 0.7j
        mean, var = photon_moments(make_coherent(alpha))
        assert mean == pytest.approx(abs(alpha) ** 2, rel=1e-10)
        assert var == pytest.approx(abs(alpha) ** 2, rel=1e-8)

    def test_moments_vacuum(self):
        mean, var = photon_moments(make_coherent(0.0))
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_moments_squeezed(self):
        mean, var = photon_moments(make_squeezed_vacuum(1.0))
        assert mean == pytest.approx(math.sinh(1.0) ** 2, rel=1e-10)
        assert var == pytest.approx(math.sinh(2.0) ** 2 / 2, rel=1e-12)

    def test_moments_bright_and_thermal(self):
        # coherent(12) needs total degree 227, far past the default photon-table cap
        assert photon_moments(make_coherent(12.0)) == pytest.approx((144.0, 144.0), rel=1e-12)
        n_bar = 1.0 / math.expm1(1.0 / 2.0)
        mean, var = photon_moments(make_thermal_oscillator(2.0))
        assert mean == pytest.approx(n_bar, rel=1e-12)
        assert var == pytest.approx(n_bar ** 2 + n_bar, rel=1e-12)

    @pytest.mark.parametrize("n_modes, seed", [(1, 5), (1, 6), (2, 7)])
    def test_variance_matches_series(self, n_modes, seed):
        s = random_valid_state(n_modes, np.random.default_rng(seed), mean_scale=0.5,
                               noise_scale=0.8, symplectic_scale=0.15)
        table = photon_pnd_table(s, mass_tol=1e-14, degree_cap_per_mode=150)
        assert not table.cap_hit
        for j in range(n_modes):
            m1 = table.indices[:, j] @ table.probabilities
            m2 = table.indices[:, j] ** 2 @ table.probabilities
            assert photon_moments(s, j)[1] == pytest.approx(m2 - m1 * m1, abs=1e-9)

    def test_series_mean_matches_closed_form_one_mode(self):
        # one-mode tables are cheap; a high cap lets strongly squeezed draws converge
        rng = np.random.default_rng(19)
        for _ in range(4):
            s = random_valid_state(1, rng, mean_scale=0.6)
            table = photon_pnd_table(s, mass_tol=1e-12, degree_cap_per_mode=280)
            assert not table.cap_hit
            series_mean = table.indices[:, 0] @ table.probabilities
            assert series_mean == pytest.approx(photon_moments(s)[0], abs=1e-8)

    def test_series_mean_matches_closed_form_two_mode(self):
        s = random_valid_state(2, np.random.default_rng(23), mean_scale=0.4,
                               noise_scale=0.7, symplectic_scale=0.2)
        table = photon_pnd_table(s)
        series_mean = table.indices.sum(axis=1) @ table.probabilities
        closed = sum(photon_moments(s, j)[0] for j in range(2))
        assert series_mean == pytest.approx(closed, abs=1e-8)


def _contract_states():
    """Gaussian and cat states of one to three modes."""
    for n_modes in (1, 2, 3):
        yield random_valid_state(n_modes, np.random.default_rng(n_modes), mean_scale=0.5,
                                 noise_scale=0.8, symplectic_scale=0.2)
        yield CatState([0.9, 0.4j, -0.6 + 0.2j][:n_modes], "odd" if n_modes == 2 else "even")


class TestPhotonTableContract:
    """``photon_shells(D)`` yields exactly the shells 0..D, or the call raises
    ``ResourceLimitError`` when the state's table to D would pass the entry cap."""

    @pytest.mark.parametrize("state", _contract_states(),
                             ids=lambda s: f"{type(s).__name__}-{s.n_modes}")
    def test_shells_reach_the_degree_or_the_call_raises(self, monkeypatch, state):
        # a smaller cap stands in for 2**24: the table to total degree 5 just fits
        monkeypatch.setattr(hermite, "BOX_ENTRY_CAP", state.photon_table_size(5))
        for degree in range(6):
            shells = list(state.photon_shells(degree))
            assert len(shells) == degree + 1
            for total, (indices, _) in enumerate(shells):
                assert np.array_equal(indices, _total_degree_indices(state.n_modes, total, total))
            tail = list(state.photon_shells(degree, degree // 2))  # its last shells alone
            assert len(tail) == len(shells[degree // 2:])
            for (indices, raw), (want_indices, want) in zip(tail, shells[degree // 2:]):
                assert np.array_equal(indices, want_indices) and np.array_equal(raw, want)
        with pytest.raises(ResourceLimitError, match=f"exceeding the cap {hermite.BOX_ENTRY_CAP}"):
            state.photon_shells(6)
        with pytest.raises(ResourceLimitError):
            photon_pnd(state, (6,) + (0,) * (state.n_modes - 1))
        # the table stops at its reach, the last degree that fits, and says so
        with pytest.warns(UserWarning, match="stopped at total degree 5: .* degree 6 would"):
            table = photon_pnd_table(state)
        assert table.cap_hit and table.max_total_degree == 5
        outcome = (5,) + (0,) * (state.n_modes - 1)
        row = np.flatnonzero((table.indices == outcome).all(axis=1))[0]
        assert photon_pnd(state, outcome) == table.probabilities[row]

    @pytest.mark.parametrize("state", _contract_states(),
                             ids=lambda s: f"{type(s).__name__}-{s.n_modes}")
    def test_reach_is_bisected(self, state):
        # a degree cap of 10**6 per mode costs a few dozen size calls, not millions, and
        # gives the default cap's table: the mass target stops both long before either reach
        counted = _Counted(state)
        table = photon_pnd_table(counted, degree_cap_per_mode=10 ** 6)
        assert counted.sizes <= 25
        reach, cap = counted.reach, 10 ** 6 * state.n_modes
        assert state.photon_table_size(reach) <= hermite.BOX_ENTRY_CAP
        assert reach == cap or state.photon_table_size(reach + 1) > hermite.BOX_ENTRY_CAP
        default = photon_pnd_table(state)
        assert not table.cap_hit and table.max_total_degree == default.max_total_degree
        assert np.array_equal(table.indices, default.indices)
        assert np.array_equal(table.probabilities, default.probabilities)

    @pytest.mark.parametrize("state", _contract_states(),
                             ids=lambda s: f"{type(s).__name__}-{s.n_modes}")
    def test_reach_is_that_of_the_linear_search(self, monkeypatch, state):
        # entry caps just under and at the table to each degree 1..7, against a degree cap
        # of 4 per mode: the reach is the one a search down from the cap finds, and the
        # table, which stops there short of the mass target, says which cap stopped it
        cap = 4 * state.n_modes
        for degree in range(1, 8):
            for entries in (state.photon_table_size(degree) - 1,
                            state.photon_table_size(degree)):
                monkeypatch.setattr(hermite, "BOX_ENTRY_CAP", entries)
                linear = cap
                while linear > 0 and state.photon_table_size(linear) > entries:
                    linear -= 1
                counted = _Counted(state)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    table = photon_pnd_table(counted, degree_cap_per_mode=4)
                assert counted.reach == linear
                assert table.cap_hit and table.max_total_degree == linear
                mass = f"{table.cumulative:.12f}"
                if linear == cap:
                    want = [f"photon enumeration hit the degree cap {cap} with cumulative "
                            f"mass {mass}"]
                else:
                    want = [f"photon enumeration stopped at total degree {linear}: the "
                            f"state's table to total degree {linear + 1} would exceed "
                            f"{entries} entries (cumulative mass {mass})"]
                assert [str(w.message) for w in caught] == want

    @pytest.mark.parametrize("state, degree", [
        (random_valid_state(3, np.random.default_rng(3)), 200),
        (CatState([0.9, 0.4j, 0.3], "even"), 1000)])
    def test_no_silent_stop_at_the_real_cap(self, state, degree):
        # both tables to these degrees pass 2**24 entries: the call raises, filling nothing,
        # where a table that stopped short (at 173 and 463) would be a silent truncation
        assert state.photon_table_size(degree) > hermite.BOX_ENTRY_CAP
        with pytest.raises(ResourceLimitError, match="exceeding the cap 16777216"):
            state.photon_shells(degree)


class _Counted:
    """A state that counts its ``photon_table_size`` calls and records the reach, the
    ``max_degree`` of its ``photon_shells`` call."""

    def __init__(self, state):
        self.state, self.n_modes, self.sizes, self.reach = state, state.n_modes, 0, None

    def photon_table_size(self, max_degree):
        self.sizes += 1
        return self.state.photon_table_size(max_degree)

    def photon_shells(self, max_degree, min_degree=0):
        self.reach = max_degree
        return self.state.photon_shells(max_degree, min_degree)


class _StandIn:
    """A one-mode state whose shell of total 1 carries the raw value ``bad``."""

    n_modes = 1

    def __init__(self, bad):
        self.bad = bad

    def photon_table_size(self, max_degree):
        return max_degree + 1

    def photon_shells(self, max_degree, min_degree=0):
        rows = [np.array([0.5 + 0j]), np.array([self.bad])]
        return ((np.array([[t]]), rows[t]) for t in range(min_degree, max_degree + 1))


class TestCheckedProbabilities:
    """A photon row must be finite, real within 1e-9 max(1, |Re|) and at least -1e-12."""

    @pytest.mark.parametrize("bad, error, match", [
        (complex(np.nan, 0.0), NonFiniteError, r"\(1,\) is not finite"),
        (complex(np.inf, 0.0), NonFiniteError, r"\(1,\) is not finite"),
        (0.25 + 2e-9j, ConventionError, r"\(1,\) is not real"),
        (3.0 + 4e-9j, ConventionError, r"\(1,\) is not real"),
        (-2e-12 + 0j, ConventionError, r"\(1,\) is negative"),
    ])
    def test_bad_row_raises(self, bad, error, match):
        with pytest.raises(error, match=match):
            photon_pnd_table(_StandIn(bad), degree_cap_per_mode=1)
        with pytest.raises(error, match=match):
            photon_pnd(_StandIn(bad), [1])

    @pytest.mark.filterwarnings("ignore:photon enumeration")
    @pytest.mark.parametrize("raw, want", [
        (0.25 + 2e-10j, 0.25), (3.0 + 2e-9j, 3.0), (-5e-13 + 0j, 0.0)])
    def test_rows_within_tolerance_pass(self, raw, want):
        assert photon_pnd(_StandIn(raw), [1]) == want
        table = photon_pnd_table(_StandIn(raw), degree_cap_per_mode=1)
        assert table.probabilities.tolist() == [0.5, want]
