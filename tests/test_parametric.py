import math

import numpy as np
import pytest
from scipy.integrate import quad

from qopt.dynamics import parametric_oscillator
from qopt.errors import ResourceLimitError
from qopt.gaussian import photon_pnd, to_qrep
from qopt.hermite import fock_wavefunction_eval
from qopt.parametric import (expression_profile, packet_wavefunction_eval,
                             parametric_cat_wavefunction, preset_profile, solve_epsilon,
                             squeezed_number_wavefunction, squeezed_vacuum_pnd,
                             squeezing_coefficient, tabulated_profile, to_gaussian_state,
                             variances_correlation)

from oracles import (PRESET_OMEGA_SQUARED, closed_form_epsilon,
                     closed_form_epsilon_derivative, closed_form_epsilon_phase, flow_by_ode)


def make_traj(preset="free", t_end=5.0, tol=1e-10):
    return solve_epsilon(preset_profile(preset), t_end, tol)


def complex_l2_norm(f, lo=-30.0, hi=30.0, n=120001):
    xs = np.linspace(lo, hi, n)
    return np.trapezoid(np.abs(f(xs)) ** 2, xs)


class TestSolveEpsilon:
    @pytest.mark.parametrize("preset", ["free", "oscillator", "repulsive"])
    @pytest.mark.parametrize("make_profile", [
        preset_profile, lambda preset: expression_profile(str(PRESET_OMEGA_SQUARED[preset]))],
        ids=["preset", "expression"])
    def test_constant_profiles_reproduce_closed_forms(self, make_profile, preset):
        # a named preset and the same constant as an expression take the same flow path
        t_end = 10.0 if preset != "repulsive" else 6.0
        w2 = PRESET_OMEGA_SQUARED[preset]
        traj = solve_epsilon(make_profile(preset), t_end, tol=1e-11)
        for t in np.linspace(0, t_end, 41):
            eps, epsdot = traj.at(t)
            want = closed_form_epsilon(w2, t)
            assert abs(eps - want) < 1e-9 * max(1.0, abs(want))
            want_dot = closed_form_epsilon_derivative(w2, t)
            assert abs(epsdot - want_dot) < 1e-9 * max(1.0, abs(want_dot))

    @pytest.mark.parametrize("w2", [-1.0, 0.0, 1.0, 400.0, 2500.0])
    def test_phase_follows_continuous_branch(self, w2):
        # one exact step per constant profile: at w^2 = 400 and 2500 a fixed 0.25 phase
        # grid let eps turn by more than pi between samples and dropped whole turns
        traj = solve_epsilon(expression_profile(repr(w2)), 3.0)
        ts = np.linspace(0.0, 3.0, 301)
        want = closed_form_epsilon_phase(w2, ts)
        got = np.array([traj.phase_at(t) for t in ts])
        assert np.abs(got - want).max() < 1e-9
        for t, phase in zip(ts, want):
            eps = closed_form_epsilon(w2, t)
            assert traj.sqrt_inv_eps(t) == pytest.approx(
                abs(eps) ** -0.5 * np.exp(-0.5j * phase), rel=1e-9)

    def test_trial_steps_are_bounded(self):
        # about 19,000 jumps of w^2, each costing ~40 trial steps: unbounded, this ran for hours
        with pytest.raises(ResourceLimitError, match=r"t=0\.\d+ of 6\.0 after 25000 trial steps"):
            solve_epsilon(expression_profile("1 + (sin(1e4*t) > 0)"), 6.0)

    def test_initial_data(self):
        traj = make_traj()
        eps, epsdot = traj.at(0.0)
        assert eps == pytest.approx(1.0, abs=1e-14)
        assert epsdot == pytest.approx(1j, abs=1e-14)

    def test_wronskian_conserved(self):
        tol = 1e-9
        for profile in [preset_profile("free"), preset_profile("oscillator"),
                        tabulated_profile([[0, 1.0], [5, 0.5], [10, 1.4], [20, 0.9]]),
                        expression_profile("1 + 0.3*sin(2*t)")]:
            traj = solve_epsilon(profile, 20.0, tol)
            assert traj.wronskian_defect < 100 * tol

    def test_table_rows_match_ode_reference(self):
        # eps = l00 - i l10 of the flow, between the table's kinks as well as at them
        tol = 1e-9
        profile = tabulated_profile([[0, 1.0], [5, 0.5], [10, 1.4], [20, 0.9]])
        traj = solve_epsilon(profile, 20.0, tol)
        ts = np.linspace(0.0, 20.0, 201)
        lams, _ = flow_by_ode(parametric_oscillator(profile), ts, [5, 10])
        eps, _ = traj.at(ts)  # all rows in one call
        assert abs(eps[37] - traj.at(ts[37])[0]) < 1e-14
        err = np.abs(eps - (lams[:, 0, 0] - 1j * lams[:, 1, 0])).max()
        assert err <= 10 * tol
        assert err <= 10 * traj.error_estimate
        assert make_traj().error_estimate == 0.0
        with pytest.raises(ValueError):
            traj.at(np.array([1.0, 20.5]))

    @pytest.mark.parametrize("jump_at, t_end", [(3.0, 6.0), (1.3, 20.0)])
    def test_sudden_frequency_jump(self, jump_at, t_end):
        # w^2 jumps from 1 to 3: eps = e^{it} up to the jump, then the w = sqrt(3)
        # solution from there; a step whose samples all miss the jump would hide it
        traj = solve_epsilon(expression_profile(f"1 + 2*(t > {jump_at})"), t_end, tol=1e-9)
        w, tau, e0 = math.sqrt(3.0), t_end - jump_at, np.exp(1j * jump_at)
        want = e0 * math.cos(w * tau) + 1j * e0 * math.sin(w * tau) / w
        assert abs(traj.at(t_end)[0] - want) < 1e-8

    def test_wronskian_conserved_repulsive(self):
        # the conserved combination cancels e^{2t}-sized terms, so float64 can
        # only witness conservation while e^{2t} * eps_machine stays small
        tol = 1e-9
        traj = solve_epsilon(preset_profile("repulsive"), 8.0, tol)
        assert traj.wronskian_defect < 100 * tol

    def test_out_of_range_rejected(self):
        traj = make_traj(t_end=2.0)
        with pytest.raises(ValueError):
            traj.at(3.0)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            solve_epsilon(preset_profile("free"), 1.0, tol=0.0)
        with pytest.raises(ValueError):
            solve_epsilon(preset_profile("free"), -1.0)
        with pytest.raises(ValueError):
            preset_profile("quartic")

    def test_phase_tracking_winds(self):
        traj = make_traj("oscillator", t_end=13.0, tol=1e-11)
        # eps = e^{it}: phase should reach 4 turns without wrapping
        assert traj.phase_at(4 * math.pi) == pytest.approx(4 * math.pi, abs=1e-8)
        assert traj.sqrt_inv_eps(4 * math.pi) == pytest.approx(
            np.exp(-2j * math.pi), abs=1e-8)


class TestProfiles:
    def test_expression_profile(self):
        prof = expression_profile("1 + 0.5*cos(t)")
        assert prof(0.0) == pytest.approx(1.5)
        assert prof(math.pi) == pytest.approx(0.5)

    def test_expression_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            expression_profile("outside(t)")

    def test_table_interpolates(self):
        prof = tabulated_profile([[0, 0.0], [2, 4.0]])
        assert prof(1.0) == pytest.approx(2.0)

    def test_table_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            tabulated_profile([[0, 1.0], [0, 2.0]])


class TestVariances:
    def test_initial_point(self):
        sx, sp, r = variances_correlation(make_traj(), 0.0)
        assert (sx, sp, r) == pytest.approx((0.5, 0.5, 0.0), abs=1e-12)

    def test_stationary_oscillator_stays_minimal(self):
        traj = make_traj("oscillator")
        for t in [0.5, 2.0, 4.5]:
            sx, sp, r = variances_correlation(traj, t)
            assert sx == pytest.approx(0.5, abs=1e-9)
            assert sp == pytest.approx(0.5, abs=1e-9)
            assert abs(r) < 1e-4

    def test_free_motion_correlates(self):
        sx, sp, r = variances_correlation(make_traj("free"), 1.0)
        assert sx == pytest.approx(1.0, abs=1e-9)
        assert sp == pytest.approx(0.5, abs=1e-9)
        assert r == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_uncertainty_saturation(self):
        traj = solve_epsilon(expression_profile("1 + 0.4*sin(3*t)"), 12.0, 1e-10)
        for t in np.linspace(0.3, 12.0, 15):
            sx, sp, r = variances_correlation(traj, t)
            assert sx * sp * (1 - r * r) == pytest.approx(0.25, abs=1e-7)


class TestSqueezedVacuumPnd:
    def test_initial_vacuum(self):
        traj = make_traj()
        assert squeezed_vacuum_pnd(traj, 0.0, 0) == pytest.approx(1.0, abs=1e-10)
        for n in range(1, 6):
            assert squeezed_vacuum_pnd(traj, 0.0, n) == pytest.approx(0.0, abs=1e-10)

    def test_odd_terms_vanish_exactly(self):
        traj = make_traj("repulsive", t_end=3.0)
        for m in range(10):
            assert squeezed_vacuum_pnd(traj, 2.0, 2 * m + 1) == 0.0

    def test_fock_overlap_oracle(self):
        # W(n) = |int Psi_0*(x, t) psi_n(x) dx|^2 by direct quadrature
        traj = make_traj("repulsive", t_end=2.0, tol=1e-11)
        t = 1.2
        for n in [0, 2, 4, 6]:
            def integrand_re(x, n=n):
                val = np.conj(packet_wavefunction_eval(traj, t, 0.0, x)) \
                    * fock_wavefunction_eval(n, x)
                return val.real

            def integrand_im(x, n=n):
                val = np.conj(packet_wavefunction_eval(traj, t, 0.0, x)) \
                    * fock_wavefunction_eval(n, x)
                return val.imag

            re, _ = quad(integrand_re, -20, 20, limit=400, epsabs=1e-12)
            im, _ = quad(integrand_im, -20, 20, limit=400, epsabs=1e-12)
            want = re * re + im * im
            assert squeezed_vacuum_pnd(traj, t, n) == pytest.approx(want, abs=1e-9)

    def test_zero_correlation_squeeze_values(self):
        # engineered trajectory with |eps| = e^{-r}, |epsdot| = e^{r}, no correlation
        r = 1.0
        traj = make_traj("free", t_end=1.0)
        eps, epsdot = math.exp(-r), 1j * math.exp(r)
        w = eps * np.conj(epsdot) - np.conj(eps) * epsdot
        assert w == pytest.approx(-2j)
        mu = (np.conj(eps) - 1j * np.conj(epsdot)) / (2 * (np.conj(eps) + 1j * np.conj(epsdot)))
        w0 = 2.0 / math.sqrt(abs(eps) ** 2 + abs(epsdot) ** 2 + 2)
        assert w0 == pytest.approx(1.0 / math.cosh(r), rel=1e-12)
        assert abs(mu) == pytest.approx(math.tanh(r) / 2, rel=1e-12)
        w2 = w0 * math.factorial(2) / 1 * abs(mu) ** 2
        assert w2 == pytest.approx(math.tanh(r) ** 2 / (2 * math.cosh(r)), rel=1e-12)

    def test_matches_gaussian_module(self):
        traj = solve_epsilon(expression_profile("1 + 0.25*cos(2*t)"), 8.0, 1e-11)
        for t in [1.0, 4.0, 7.5]:
            state = to_gaussian_state(traj, t)
            for n in range(12):
                assert squeezed_vacuum_pnd(traj, t, n) == pytest.approx(
                    photon_pnd(state, [n]), abs=1e-9)

    def test_normalization(self):
        traj = make_traj("repulsive", t_end=1.2)
        t = 1.0
        assert abs(squeezing_coefficient(traj, t)) <= 0.45
        total = sum(squeezed_vacuum_pnd(traj, t, 2 * m) for m in range(200))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_p0_matches_qrep(self):
        traj = solve_epsilon(tabulated_profile([[0, 1.0], [3, 0.6], [8, 1.3]]), 8.0, 1e-11)
        for t in np.linspace(0.5, 8.0, 10):
            eps, epsdot = traj.at(t)
            want = 2.0 / math.sqrt(abs(eps) ** 2 + abs(epsdot) ** 2 + 2)
            rep = to_qrep(to_gaussian_state(traj, t))
            assert rep.p0 == pytest.approx(want, abs=1e-9)


class TestGaussianCarrier:
    @pytest.mark.parametrize("expr,tol", [("1 + 0.3*cos(2*t)", 1e-11),
                                          ("1 + 0.3*cos(2*t)", 1e-9),
                                          ("1 + 0.4*sin(3*t)", 1e-9)])
    def test_carrier_is_never_sub_vacuum(self, expr, tol):
        # integrator noise in (eps, epsdot) must not push det disp below 1/4,
        # where photon_pnd rejects the carrier with P(1) < 0
        traj = solve_epsilon(expression_profile(expr), 12.0, tol)
        for t in np.linspace(0.1, 12.0, 400):
            state = to_gaussian_state(traj, t)
            assert abs(photon_pnd(state, [1])) < 1e-12
            assert np.linalg.det(state.disp) == pytest.approx(0.25, rel=1e-12)


class TestPacketWavefunctions:
    def test_ground_state_at_zero_time(self):
        traj = make_traj()
        for x in [0.0, 0.7, -1.3]:
            want = math.pi ** -0.25 * math.exp(-0.5 * x * x)
            got = packet_wavefunction_eval(traj, 0.0, 0.0, x)
            assert got == pytest.approx(want, rel=1e-9)

    def test_packet_is_normalized(self):
        traj = make_traj("free", t_end=2.0, tol=1e-11)
        norm = complex_l2_norm(lambda x: packet_wavefunction_eval(traj, 1.0, 1 + 1j, x))
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_lowering_invariant_eigenvalue(self):
        # (i/sqrt2)(eps p - epsdot x) Psi = alpha Psi by finite differences
        traj = make_traj("free", t_end=2.0, tol=1e-11)
        t, alpha, h = 1.0, 0.6 - 0.3j, 1e-4
        eps, epsdot = traj.at(t)
        xs = np.linspace(-1.5, 1.5, 11)
        psi = lambda x: packet_wavefunction_eval(traj, t, alpha, x)
        dpsi = (psi(xs + h) - psi(xs - h)) / (2 * h)
        applied = 1j / math.sqrt(2) * (eps * (-1j) * dpsi - epsdot * xs * psi(xs))
        residual = np.abs(applied - alpha * psi(xs)).max()
        assert residual < 1e-5

    def test_number_family_orthonormal(self):
        traj = make_traj("free", t_end=2.0, tol=1e-11)
        t = 1.0
        xs = np.linspace(-25, 25, 60001)
        fam = [squeezed_number_wavefunction(traj, t, m, xs) for m in range(5)]
        for i in range(5):
            for j in range(5):
                overlap = np.trapezoid(np.conj(fam[i]) * fam[j], xs)
                assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-7

    def test_number_family_stationary_phases(self):
        # for the static oscillator the family reduces to number states
        # times e^{-it(m + 1/2)}
        traj = make_traj("oscillator", t_end=3.0, tol=1e-11)
        t = 2.0
        xs = np.linspace(-3, 3, 7)
        for m in [0, 1, 3]:
            got = squeezed_number_wavefunction(traj, t, m, xs)
            want = np.exp(-1j * t * (m + 0.5)) * fock_wavefunction_eval(m, xs)
            assert np.abs(got - want).max() < 1e-8

    @pytest.mark.parametrize("m", [171, 400])
    def test_high_levels_are_finite_and_normalized(self, m):
        # math.factorial(m) overflowed a float from m = 171
        traj = make_traj("free", t_end=2.0, tol=1e-11)
        xs = np.linspace(-80.0, 80.0, 40001)
        psi = squeezed_number_wavefunction(traj, 1.0, m, xs)
        assert np.isfinite(psi).all()
        assert np.trapezoid(np.abs(psi) ** 2, xs) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("alpha", [27.0, 30.0 - 10.0j, 50.0])
    def test_bright_packet_is_finite_and_normalized(self, alpha):
        # an underflowing ground factor times an overflowing linear one gave NaN
        traj = make_traj("free", t_end=2.0, tol=1e-11)
        xs = np.linspace(-150.0, 150.0, 300001)
        psi = packet_wavefunction_eval(traj, 1.0, alpha, xs)
        assert np.isfinite(psi).all()
        assert np.trapezoid(np.abs(psi) ** 2, xs) == pytest.approx(1.0, abs=1e-9)

    def test_level_zero_is_ground_packet(self):
        traj = make_traj("repulsive", t_end=1.0)
        xs = np.linspace(-2, 2, 9)
        got = squeezed_number_wavefunction(traj, 0.8, 0, xs)
        want = packet_wavefunction_eval(traj, 0.8, 0.0, xs)
        assert np.abs(got - want).max() < 1e-12


class TestParametricCats:
    def test_even_zero_alpha_limit(self):
        traj = make_traj()
        xs = np.linspace(-2, 2, 9)
        got = parametric_cat_wavefunction(traj, 0.5, 1e-8, "even", xs)
        want = packet_wavefunction_eval(traj, 0.5, 0.0, xs)
        assert np.abs(got - want).max() < 1e-6

    def test_odd_zero_alpha_limit(self):
        # the odd cat of a faint alpha is the first excited packet, up to a constant phase;
        # psi_alpha - psi_-alpha, taken as a plain difference, loses 1e-8 of it to cancellation
        traj = make_traj("repulsive", t_end=1.0)
        xs = np.linspace(-2, 2, 9)
        got = parametric_cat_wavefunction(traj, 0.5, 1e-8, "odd", xs)
        want = squeezed_number_wavefunction(traj, 0.5, 1, xs)
        phase = got[0] / want[0]
        assert abs(phase) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(got - phase * want).max() < 1e-12

    def test_norms(self):
        traj = make_traj("free", t_end=1.0, tol=1e-11)
        for parity, alpha in [("even", 1.2), ("odd", 1.2), ("even", 0.8 + 0.5j)]:
            norm = complex_l2_norm(
                lambda x: parametric_cat_wavefunction(traj, 0.5, alpha, parity, x))
            assert norm == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("alpha", [27.0, 30.0, 50.0 + 5.0j])
    def test_bright_cats_are_normalized(self, parity, alpha):
        # cosh |alpha|^2 overflowed math.cosh from |alpha| = 26.7
        traj = make_traj("free", t_end=1.0, tol=1e-11)
        xs = np.linspace(-160.0, 160.0, 320001)
        psi = parametric_cat_wavefunction(traj, 0.5, alpha, parity, xs)
        assert np.isfinite(psi).all()
        assert np.trapezoid(np.abs(psi) ** 2, xs) == pytest.approx(1.0, abs=1e-11)

    def test_odd_cat_is_odd_function(self):
        traj = make_traj("free", t_end=0.5)
        xs = np.linspace(0.1, 2.0, 8)
        # at t=0, eps is real and the odd superposition is odd in x
        plus = parametric_cat_wavefunction(traj, 0.0, 0.9, "odd", xs)
        minus = parametric_cat_wavefunction(traj, 0.0, 0.9, "odd", -xs)
        assert np.abs(plus + minus).max() < 1e-12

    def test_square_invariant_eigenvalue(self):
        # cats satisfy A^2 Psi = alpha^2 Psi; checked by finite differences
        traj = make_traj("free", t_end=1.5, tol=1e-11)
        t, alpha, h = 0.5, 1.1, 1e-3
        eps, epsdot = traj.at(t)
        xs = np.linspace(-1.0, 1.0, 9)

        for parity in ("even", "odd"):
            psi = lambda x: parametric_cat_wavefunction(traj, t, alpha, parity, x)

            def lowering(f):
                def g(x):
                    df = (f(x + h) - f(x - h)) / (2 * h)
                    return 1j / math.sqrt(2) * (-1j * eps * df - epsdot * x * f(x))
                return g

            applied = lowering(lowering(psi))(xs)
            residual = np.abs(applied - alpha ** 2 * psi(xs)).max()
            assert residual < 1e-4

    def test_odd_zero_alpha_rejected(self):
        traj = make_traj()
        with pytest.raises(ValueError):
            parametric_cat_wavefunction(traj, 0.1, 0.0, "odd", 0.0)

    def test_unknown_parity_rejected(self):
        traj = make_traj()
        with pytest.raises(ValueError):
            parametric_cat_wavefunction(traj, 0.1, 1.0, "both", 0.0)
