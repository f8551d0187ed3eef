import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from qopt import dynamics, parametric
from qopt.dynamics import parametric_oscillator
from qopt.errors import NonFiniteError, ResourceLimitError
from qopt.gaussian import photon_pnd, to_qrep
from qopt.hermite import fock_wavefunction_eval
from qopt.parametric import (expression_profile, packet_wavefunction_eval,
                             parametric_cat_wavefunction, preset_profile, solve_epsilon,
                             squeezed_number_wavefunction, squeezed_vacuum_pnd,
                             tabulated_profile, to_gaussian_state, variances_correlation,
                             wronskian_defect)

from oracles import (PRESET_OMEGA_SQUARED, closed_form_epsilon,
                     closed_form_epsilon_derivative, closed_form_epsilon_phase, flow_by_ode)


def make_flow(preset="free", t_end=5.0, tol=1e-10):
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
        flow = solve_epsilon(make_profile(preset), t_end, tol=1e-11)
        for t in np.linspace(0, t_end, 41):
            eps, epsdot = flow.eps(t)
            want = closed_form_epsilon(w2, t)
            assert abs(eps - want) < 1e-9 * max(1.0, abs(want))
            want_dot = closed_form_epsilon_derivative(w2, t)
            assert abs(epsdot - want_dot) < 1e-9 * max(1.0, abs(want_dot))

    @pytest.mark.parametrize("w2", [-1.0, 0.0, 1.0, 400.0, 2500.0])
    def test_phase_follows_continuous_branch(self, w2):
        # one exact step per constant profile: at w^2 = 400 and 2500 a fixed 0.25 phase
        # grid let eps turn by more than pi between samples and dropped whole turns
        flow = solve_epsilon(expression_profile(repr(w2)), 3.0)
        ts = np.linspace(0.0, 3.0, 301)
        want = closed_form_epsilon_phase(w2, ts)
        got = np.array([flow.phase(t) for t in ts])
        assert np.abs(got - want).max() < 1e-9
        # the ground packet at x = 0 is pi^{-1/4} eps^{-1/2} on that branch
        for t, phase in zip(ts, want):
            eps = closed_form_epsilon(w2, t)
            assert packet_wavefunction_eval(flow, t, 0.0, 0.0) == pytest.approx(
                math.pi ** -0.25 * abs(eps) ** -0.5 * np.exp(-0.5j * phase), rel=1e-9)

    def test_trial_steps_are_bounded(self):
        # about 19,000 jumps of w^2, each costing ~40 trial steps: unbounded, this ran for hours
        with pytest.raises(ResourceLimitError, match=r"t=0\.\d+ of 6\.0 after 25000 trial steps"):
            solve_epsilon(expression_profile("1 + (sin(1e4*t) > 0)"), 6.0)

    def test_initial_data(self):
        flow = make_flow()
        eps, epsdot = flow.eps(0.0)
        assert eps == pytest.approx(1.0, abs=1e-14)
        assert epsdot == pytest.approx(1j, abs=1e-14)

    def test_wronskian_conserved(self):
        tol = 1e-9
        for profile in [preset_profile("free"), preset_profile("oscillator"),
                        tabulated_profile([[0, 1.0], [5, 0.5], [10, 1.4], [20, 0.9]]),
                        expression_profile("1 + 0.3*sin(2*t)")]:
            flow = solve_epsilon(profile, 20.0, tol)
            assert wronskian_defect(flow) < 100 * tol

    def test_table_rows_match_ode_reference(self):
        # eps = l00 - i l10 of the flow, between the table's kinks as well as at them
        tol = 1e-9
        profile = tabulated_profile([[0, 1.0], [5, 0.5], [10, 1.4], [20, 0.9]])
        flow = solve_epsilon(profile, 20.0, tol)
        ts = np.linspace(0.0, 20.0, 201)
        lams, _ = flow_by_ode(parametric_oscillator(profile), ts, [5, 10])
        eps, _ = flow.eps(ts)  # all rows in one call
        assert abs(eps[37] - flow.eps(ts[37])[0]) < 1e-14
        err = np.abs(eps - (lams[:, 0, 0] - 1j * lams[:, 1, 0])).max()
        assert err <= 10 * tol
        assert err <= 10 * flow.error_estimate
        assert make_flow().error_estimate == 0.0
        with pytest.raises(ValueError):
            flow.eps(np.array([1.0, 20.5]))

    @pytest.mark.parametrize("jump_at, t_end", [(3.0, 6.0), (1.3, 20.0)])
    def test_sudden_frequency_jump(self, jump_at, t_end):
        # w^2 jumps from 1 to 3: eps = e^{it} up to the jump, then the w = sqrt(3)
        # solution from there; a step whose samples all miss the jump would hide it
        flow = solve_epsilon(expression_profile(f"1 + 2*(t > {jump_at})"), t_end, tol=1e-9)
        w, tau, e0 = math.sqrt(3.0), t_end - jump_at, np.exp(1j * jump_at)
        want = e0 * math.cos(w * tau) + 1j * e0 * math.sin(w * tau) / w
        assert abs(flow.eps(t_end)[0] - want) < 1e-8

    def test_wronskian_conserved_repulsive(self):
        # the conserved combination cancels e^{2t}-sized terms, so float64 can
        # only witness conservation while e^{2t} * eps_machine stays small
        tol = 1e-9
        flow = solve_epsilon(preset_profile("repulsive"), 8.0, tol)
        assert wronskian_defect(flow) < 100 * tol

    def test_out_of_range_rejected(self):
        flow = make_flow(t_end=2.0)
        with pytest.raises(ValueError):
            flow.eps(3.0)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            solve_epsilon(preset_profile("free"), 1.0, tol=0.0)
        with pytest.raises(ValueError):
            solve_epsilon(preset_profile("free"), -1.0)
        with pytest.raises(ValueError):
            preset_profile("quartic")

    def test_phase_tracking_winds(self):
        flow = make_flow("oscillator", t_end=13.0, tol=1e-11)
        # eps = e^{it}: phase should reach 4 turns without wrapping
        assert flow.phase(4 * math.pi) == pytest.approx(4 * math.pi, abs=1e-8)
        assert packet_wavefunction_eval(flow, 4 * math.pi, 0.0, 0.0) == pytest.approx(
            math.pi ** -0.25 * np.exp(-2j * math.pi), abs=1e-8)


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
        sx, sp, r = variances_correlation(make_flow(), 0.0)
        assert (sx, sp, r) == pytest.approx((0.5, 0.5, 0.0), abs=1e-12)

    def test_stationary_oscillator_stays_minimal(self):
        flow = make_flow("oscillator")
        for t in [0.5, 2.0, 4.5]:
            sx, sp, r = variances_correlation(flow, t)
            assert sx == pytest.approx(0.5, abs=1e-9)
            assert sp == pytest.approx(0.5, abs=1e-9)
            assert abs(r) < 1e-4

    def test_minimal_packet_has_no_rounding_correlation(self):
        # the pushed vacuum's disp_pq stays at rounding level where sigma_x sigma_p = 1/4;
        # sqrt(1 - 1/(4 sigma_x sigma_p)) would return the root of that residue, near 1e-8
        flow = make_flow("oscillator", t_end=10.0)
        for t in np.linspace(0.0, 10.0, 30):
            assert abs(variances_correlation(flow, t)[2]) <= 1e-12

    def test_free_motion_correlates(self):
        sx, sp, r = variances_correlation(make_flow("free"), 1.0)
        assert sx == pytest.approx(1.0, abs=1e-9)
        assert sp == pytest.approx(0.5, abs=1e-9)
        assert r == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_uncertainty_saturation(self):
        flow = solve_epsilon(expression_profile("1 + 0.4*sin(3*t)"), 12.0, 1e-10)
        for t in np.linspace(0.3, 12.0, 15):
            sx, sp, r = variances_correlation(flow, t)
            assert sx * sp * (1 - r * r) == pytest.approx(0.25, abs=1e-7)


class TestSqueezedVacuumPnd:
    def test_initial_vacuum(self):
        flow = make_flow()
        assert squeezed_vacuum_pnd(flow, 0.0, 0) == pytest.approx(1.0, abs=1e-10)
        for n in range(1, 6):
            assert squeezed_vacuum_pnd(flow, 0.0, n) == pytest.approx(0.0, abs=1e-10)

    def test_odd_terms_vanish_exactly(self):
        flow = make_flow("repulsive", t_end=3.0)
        for m in range(10):
            assert squeezed_vacuum_pnd(flow, 2.0, 2 * m + 1) == 0.0

    def test_fock_overlap_oracle(self):
        # W(n) = |int Psi_0*(x, t) psi_n(x) dx|^2 by direct quadrature
        flow = make_flow("repulsive", t_end=2.0, tol=1e-11)
        t = 1.2
        for n in [0, 2, 4, 6]:
            def integrand_re(x, n=n):
                val = np.conj(packet_wavefunction_eval(flow, t, 0.0, x)) \
                    * fock_wavefunction_eval(n, x)
                return val.real

            def integrand_im(x, n=n):
                val = np.conj(packet_wavefunction_eval(flow, t, 0.0, x)) \
                    * fock_wavefunction_eval(n, x)
                return val.imag

            re, _ = quad(integrand_re, -20, 20, limit=400, epsabs=1e-12)
            im, _ = quad(integrand_im, -20, 20, limit=400, epsabs=1e-12)
            want = re * re + im * im
            assert squeezed_vacuum_pnd(flow, t, n) == pytest.approx(want, abs=1e-9)

    def test_zero_correlation_squeeze_values(self):
        # engineered trajectory with |eps| = e^{-r}, |epsdot| = e^{r}, no correlation
        r = 1.0
        flow = make_flow("free", t_end=1.0)
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
        flow = solve_epsilon(expression_profile("1 + 0.25*cos(2*t)"), 8.0, 1e-11)
        for t in [1.0, 4.0, 7.5]:
            state = to_gaussian_state(flow, t)
            for n in range(12):
                assert squeezed_vacuum_pnd(flow, t, n) == pytest.approx(
                    photon_pnd(state, [n]), abs=1e-9)

    def test_normalization(self):
        flow = make_flow("repulsive", t_end=1.2)
        t = 1.0
        assert abs(parametric._mu(*flow.eps(t))) <= 0.45
        total = sum(squeezed_vacuum_pnd(flow, t, 2 * m) for m in range(200))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_p0_matches_qrep(self):
        flow = solve_epsilon(tabulated_profile([[0, 1.0], [3, 0.6], [8, 1.3]]), 8.0, 1e-11)
        for t in np.linspace(0.5, 8.0, 10):
            eps, epsdot = flow.eps(t)
            want = 2.0 / math.sqrt(abs(eps) ** 2 + abs(epsdot) ** 2 + 2)
            rep = to_qrep(to_gaussian_state(flow, t))
            assert rep.p0 == pytest.approx(want, abs=1e-9)


class TestOneEvaluationPerCall:
    """Each closed form reads (eps, epsdot) and arg eps from one Magnus step to t."""

    @staticmethod
    def count_steps(monkeypatch):
        calls = []
        step = dynamics._magnus_step

        def counting_step(*args):
            calls.append(args[1])
            return step(*args)

        monkeypatch.setattr(dynamics, "_magnus_step", counting_step)
        return calls

    def test_squeezed_vacuum_pnd(self, monkeypatch):
        flow = solve_epsilon(expression_profile("1 + 0.25*cos(2*t)"), 8.0, 1e-11)
        want = squeezed_vacuum_pnd(flow, 4.0, 6)
        calls = self.count_steps(monkeypatch)
        assert squeezed_vacuum_pnd(flow, 4.0, 6) == want
        assert len(calls) == 1

    def test_packet_wavefunction(self, monkeypatch):
        flow = solve_epsilon(expression_profile("1 + 0.25*cos(2*t)"), 8.0, 1e-11)
        x = np.linspace(-3.0, 3.0, 7)
        want = packet_wavefunction_eval(flow, 4.0, 0.7 + 0.2j, x)  # builds the phase table
        calls = self.count_steps(monkeypatch)
        assert packet_wavefunction_eval(flow, 4.0, 0.7 + 0.2j, x).tolist() == want.tolist()
        assert len(calls) == 1


class TestRepulsiveBeyondDoubleRange:
    # the repulsive preset has eps = cosh t + i sinh t, epsdot = sinh t + i cosh t; from
    # t ~ 354.9 on |eps|^2 = cosh 2t leaves double range, but W(n) stays finite

    @pytest.fixture(scope="class")
    def flow(self):
        return make_flow("repulsive", t_end=400.0)

    @pytest.mark.parametrize("t", [356.0, 360.0, 400.0])
    def test_vacuum_pnd_matches_mpmath(self, flow, t):
        with mpmath.workdps(40):
            eps = mpmath.cosh(t) + 1j * mpmath.sinh(t)
            epsdot = mpmath.sinh(t) + 1j * mpmath.cosh(t)
            w0 = 2 / mpmath.sqrt(abs(eps) ** 2 + abs(epsdot) ** 2 + 2)
            ec, edc = mpmath.conj(eps), mpmath.conj(epsdot)
            mu = abs((ec - 1j * edc) / (2 * (ec + 1j * edc)))
            for m in [0, 1, 5, 50]:
                want = w0 * mpmath.binomial(2 * m, m) * mu ** (2 * m)
                got = squeezed_vacuum_pnd(flow, t, 2 * m)
                assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("t", [356.0, 360.0, 400.0])
    def test_noise_beyond_double_range_raises(self, flow, t):
        with pytest.raises(NonFiniteError, match=f"t={t}"):
            variances_correlation(flow, t)


class TestGaussianCarrier:
    @pytest.mark.parametrize("expr,tol", [("1 + 0.3*cos(2*t)", 1e-11),
                                          ("1 + 0.3*cos(2*t)", 1e-9),
                                          ("1 + 0.4*sin(3*t)", 1e-9)])
    def test_carrier_is_never_sub_vacuum(self, expr, tol):
        # integrator noise in (eps, epsdot) must not push det disp below 1/4,
        # where photon_pnd rejects the carrier with P(1) < 0
        flow = solve_epsilon(expression_profile(expr), 12.0, tol)
        for t in np.linspace(0.1, 12.0, 400):
            state = to_gaussian_state(flow, t)
            assert abs(photon_pnd(state, [1])) < 1e-12
            assert np.linalg.det(state.disp) == pytest.approx(0.25, rel=1e-12)


class TestPacketWavefunctions:
    def test_ground_state_at_zero_time(self):
        flow = make_flow()
        for x in [0.0, 0.7, -1.3]:
            want = math.pi ** -0.25 * math.exp(-0.5 * x * x)
            got = packet_wavefunction_eval(flow, 0.0, 0.0, x)
            assert got == pytest.approx(want, rel=1e-9)

    def test_packet_is_normalized(self):
        flow = make_flow("free", t_end=2.0, tol=1e-11)
        norm = complex_l2_norm(lambda x: packet_wavefunction_eval(flow, 1.0, 1 + 1j, x))
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_lowering_invariant_eigenvalue(self):
        # (i/sqrt2)(eps p - epsdot x) Psi = alpha Psi by finite differences
        flow = make_flow("free", t_end=2.0, tol=1e-11)
        t, alpha, h = 1.0, 0.6 - 0.3j, 1e-4
        eps, epsdot = flow.eps(t)
        xs = np.linspace(-1.5, 1.5, 11)
        psi = lambda x: packet_wavefunction_eval(flow, t, alpha, x)
        dpsi = (psi(xs + h) - psi(xs - h)) / (2 * h)
        applied = 1j / math.sqrt(2) * (eps * (-1j) * dpsi - epsdot * xs * psi(xs))
        residual = np.abs(applied - alpha * psi(xs)).max()
        assert residual < 1e-5

    def test_number_family_orthonormal(self):
        flow = make_flow("free", t_end=2.0, tol=1e-11)
        t = 1.0
        xs = np.linspace(-25, 25, 60001)
        fam = [squeezed_number_wavefunction(flow, t, m, xs) for m in range(5)]
        for i in range(5):
            for j in range(5):
                overlap = np.trapezoid(np.conj(fam[i]) * fam[j], xs)
                assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-7

    def test_number_family_stationary_phases(self):
        # for the static oscillator the family reduces to number states
        # times e^{-it(m + 1/2)}
        flow = make_flow("oscillator", t_end=3.0, tol=1e-11)
        t = 2.0
        xs = np.linspace(-3, 3, 7)
        for m in [0, 1, 3]:
            got = squeezed_number_wavefunction(flow, t, m, xs)
            want = np.exp(-1j * t * (m + 0.5)) * fock_wavefunction_eval(m, xs)
            assert np.abs(got - want).max() < 1e-8

    @pytest.mark.parametrize("m", [171, 400])
    def test_high_levels_are_finite_and_normalized(self, m):
        # math.factorial(m) overflowed a float from m = 171
        flow = make_flow("free", t_end=2.0, tol=1e-11)
        xs = np.linspace(-80.0, 80.0, 40001)
        psi = squeezed_number_wavefunction(flow, 1.0, m, xs)
        assert np.isfinite(psi).all()
        assert np.trapezoid(np.abs(psi) ** 2, xs) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("alpha", [27.0, 30.0 - 10.0j, 50.0])
    def test_bright_packet_is_finite_and_normalized(self, alpha):
        # an underflowing ground factor times an overflowing linear one gave NaN
        flow = make_flow("free", t_end=2.0, tol=1e-11)
        xs = np.linspace(-150.0, 150.0, 300001)
        psi = packet_wavefunction_eval(flow, 1.0, alpha, xs)
        assert np.isfinite(psi).all()
        assert np.trapezoid(np.abs(psi) ** 2, xs) == pytest.approx(1.0, abs=1e-9)

    def test_level_zero_is_ground_packet(self):
        flow = make_flow("repulsive", t_end=1.0)
        xs = np.linspace(-2, 2, 9)
        got = squeezed_number_wavefunction(flow, 0.8, 0, xs)
        want = packet_wavefunction_eval(flow, 0.8, 0.0, xs)
        assert np.abs(got - want).max() < 1e-12


class TestParametricCats:
    def test_even_zero_alpha_limit(self):
        flow = make_flow()
        xs = np.linspace(-2, 2, 9)
        got = parametric_cat_wavefunction(flow, 0.5, 1e-8, "even", xs)
        want = packet_wavefunction_eval(flow, 0.5, 0.0, xs)
        assert np.abs(got - want).max() < 1e-6

    def test_odd_zero_alpha_limit(self):
        # the odd cat of a faint alpha is the first excited packet, up to a constant phase;
        # psi_alpha - psi_-alpha, taken as a plain difference, loses 1e-8 of it to cancellation
        flow = make_flow("repulsive", t_end=1.0)
        xs = np.linspace(-2, 2, 9)
        got = parametric_cat_wavefunction(flow, 0.5, 1e-8, "odd", xs)
        want = squeezed_number_wavefunction(flow, 0.5, 1, xs)
        phase = got[0] / want[0]
        assert abs(phase) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(got - phase * want).max() < 1e-12

    def test_norms(self):
        flow = make_flow("free", t_end=1.0, tol=1e-11)
        for parity, alpha in [("even", 1.2), ("odd", 1.2), ("even", 0.8 + 0.5j)]:
            norm = complex_l2_norm(
                lambda x: parametric_cat_wavefunction(flow, 0.5, alpha, parity, x))
            assert norm == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("alpha", [27.0, 30.0, 50.0 + 5.0j])
    def test_bright_cats_are_normalized(self, parity, alpha):
        # cosh |alpha|^2 overflowed math.cosh from |alpha| = 26.7
        flow = make_flow("free", t_end=1.0, tol=1e-11)
        xs = np.linspace(-160.0, 160.0, 320001)
        psi = parametric_cat_wavefunction(flow, 0.5, alpha, parity, xs)
        assert np.isfinite(psi).all()
        assert np.trapezoid(np.abs(psi) ** 2, xs) == pytest.approx(1.0, abs=1e-11)

    def test_odd_cat_is_odd_function(self):
        flow = make_flow("free", t_end=0.5)
        xs = np.linspace(0.1, 2.0, 8)
        # at t=0, eps is real and the odd superposition is odd in x
        plus = parametric_cat_wavefunction(flow, 0.0, 0.9, "odd", xs)
        minus = parametric_cat_wavefunction(flow, 0.0, 0.9, "odd", -xs)
        assert np.abs(plus + minus).max() < 1e-12

    def test_square_invariant_eigenvalue(self):
        # cats satisfy A^2 Psi = alpha^2 Psi; checked by finite differences
        flow = make_flow("free", t_end=1.5, tol=1e-11)
        t, alpha, h = 0.5, 1.1, 1e-3
        eps, epsdot = flow.eps(t)
        xs = np.linspace(-1.0, 1.0, 9)

        for parity in ("even", "odd"):
            psi = lambda x: parametric_cat_wavefunction(flow, t, alpha, parity, x)

            def lowering(f):
                def g(x):
                    df = (f(x + h) - f(x - h)) / (2 * h)
                    return 1j / math.sqrt(2) * (-1j * eps * df - epsdot * x * f(x))
                return g

            applied = lowering(lowering(psi))(xs)
            residual = np.abs(applied - alpha ** 2 * psi(xs)).max()
            assert residual < 1e-4

    def test_odd_zero_alpha_rejected(self):
        flow = make_flow()
        with pytest.raises(ValueError):
            parametric_cat_wavefunction(flow, 0.1, 0.0, "odd", 0.0)

    def test_unknown_parity_rejected(self):
        flow = make_flow()
        with pytest.raises(ValueError):
            parametric_cat_wavefunction(flow, 0.1, 1.0, "both", 0.0)
