import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qopt import dynamics
from qopt.dynamics import (FlowSample, QuadraticHamiltonian, coherent_basis_propagator,
                           evolve_gaussian, flow_to_creation_annihilation,
                           fock_basis_propagator, free_particle, harmonic_oscillator,
                           integrate_symplectic_flow, invariant_residual_check,
                           parametric_oscillator, propagator_position)
from qopt.errors import CausticError, NonFiniteError
from qopt.gaussian import GaussianState, make_coherent, validate_state
from qopt.matrices import symplectic_metric
from qopt.parametric import (expression_profile, packet_wavefunction_eval, preset_profile,
                             solve_epsilon, tabulated_profile)

from oracles import (complex_structure, flow_by_ode, free_propagator,
                     hamiltonian_to_creation_annihilation, oscillator_propagator,
                     quadratic_phase_integral)

REPULSIVE = QuadraticHamiltonian(np.diag([1.0, -1.0]), np.zeros(2), 1)
CROSS_TERM = QuadraticHamiltonian(np.array([[1.0, 0.3], [0.3, 0.8]]), np.zeros(2), 1)
TWO_FIELD = QuadraticHamiltonian(
    lambda t: np.stack([np.ones_like(t), 0.2 * np.sin(t), 0.2 * np.sin(t),
                        1.0 + 0.5 * np.asarray(t)], axis=-1).reshape(np.shape(t) + (2, 2)),
    lambda t: np.stack([0.1 * np.asarray(t), np.cos(t)], axis=-1), 1)
TWO_MODE = QuadraticHamiltonian(np.array([[1.0, 0.2, 0.1, 0.0], [0.2, 0.8, 0.0, 0.3],
                                          [0.1, 0.0, 1.2, 0.1], [0.0, 0.3, 0.1, 0.9]]),
                                np.array([0.1, 0.0, -0.2, 0.3]), 2)
VERIFY_TABLE = [[0.0, 1.0], [6.0, 0.7], [13.0, 1.3], [20.0, 0.9]]
# (H, t_end, rows, kinks of B): the table's kinks fall between the 51 written times
TIME_DEPENDENT = {
    "expression": (parametric_oscillator(expression_profile("1 + 0.3*cos(2*t)")), 12.0, 201, ()),
    "table": (parametric_oscillator(tabulated_profile(VERIFY_TABLE)), 20.0, 51,
              [row[0] for row in VERIFY_TABLE]),
    "two_field": (TWO_FIELD, 6.0, 51, ()),
}


def one_step(hamiltonian, t):
    """The flow sample of a constant H at t: one exact Magnus step from 0."""
    return integrate_symplectic_flow(hamiltonian, t).at(t)


def kernel_coefficients(hamiltonian, t):
    """(a, b, d, k) of the one-mode Van Vleck kernel from the closed form of exp(t Sigma B).

    (Sigma B)^2 = -det(B) I, so exp(t Sigma B) = c(t) I + s(t) Sigma B with
    (c, s) = (cos wt, sin(wt)/w), (cosh kt, sinh(kt)/k) or (1, t); k counts
    the foci wt = j pi passed.
    """
    b = hamiltonian.b_matrix(0.0)
    det = b[0, 0] * b[1, 1] - b[0, 1] ** 2
    foci = 0
    if det > 0:
        w = math.sqrt(det)
        c, s = math.cos(w * t), math.sin(w * t) / w
        foci = math.floor(w * t / math.pi)
    elif det < 0:
        kappa = math.sqrt(-det)
        c, s = math.cosh(kappa * t), math.sinh(kappa * t) / kappa
    else:
        c, s = 1.0, t
    return c + s * b[0, 1], s * b[0, 0], c - s * b[0, 1], foci


def semigroup_defect(hamiltonian, q, qp, t1, t2):
    """|int G(q,q'',t1) G(q'',q',t2) dq'' - G(q,q',t1+t2)| by contour quadrature."""
    a1, b1, d1, k1 = kernel_coefficients(hamiltonian, t1)
    a2, b2, d2, k2 = kernel_coefficients(hamiltonian, t2)
    a = 0.5 * (a1 / b1 + d2 / b2)
    b = -(q / b1 + qp / b2)
    c = 0.5 * (d1 * q * q / b1 + a2 * qp * qp / b2)
    pref = ((2 * math.pi * abs(b1)) ** -0.5 * (2 * math.pi * abs(b2)) ** -0.5
            * np.exp(-1j * (0.5 * math.pi + 0.5 * math.pi * (k1 + k2))))
    composed = pref * quadratic_phase_integral(a, 1j * b, 1j * c)
    direct = propagator_position(hamiltonian, q, qp, t1 + t2)
    return abs(composed - direct)


class TestSymplecticFlow:
    def test_free_particle_matrix(self):
        flow = integrate_symplectic_flow(free_particle(mass=2.0), 3.0, tol=1e-10)
        for t in [0.0, 0.7, 1.9, 3.0]:
            want = np.array([[1.0, 0.0], [-t / 2.0, 1.0]])
            assert np.abs(flow.at(t).lam - want).max() < 1e-9

    def test_oscillator_rotation(self):
        flow = integrate_symplectic_flow(harmonic_oscillator(), 7.0, tol=1e-10)
        for t in [0.5, 2.0, 6.3]:
            want = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
            assert np.abs(flow.at(t).lam - want).max() < 1e-8

    def test_constant_force_drift(self):
        # H = p^2/2m - f q pushes Delta to (-f t, f t^2 / 2m)
        m_mass, f = 1.5, 0.8
        ham = QuadraticHamiltonian(np.diag([1.0 / m_mass, 0.0]), np.array([0.0, -f]), 1)
        flow = integrate_symplectic_flow(ham, 2.5, tol=1e-10)
        for t in [0.5, 1.5, 2.5]:
            got = flow.at(t).delta
            want = np.array([-f * t, 0.5 * f * t * t / m_mass])
            assert np.abs(got - want).max() < 1e-9

    def test_symplectic_defect_bounded(self):
        tol = 1e-9
        rng = np.random.default_rng(5)
        b = rng.normal(size=(4, 4))
        ham = QuadraticHamiltonian(b + b.T, rng.normal(size=4), 2)
        flow = integrate_symplectic_flow(ham, 5.0, tol=tol)
        assert dynamics.symplectic_defect(flow.lams) < 100 * tol

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_one_defect_routine_matches_both_formulas(self, n_modes):
        # on stacks Lam = exp(Sigma S) of random symmetric S, the routine is the per-matrix
        # formula |Lam Sigma Lam^T - Sigma|_max bit for bit, alone or over the stack, and
        # within 2 eps |Lam|_max^2 of the einsum formula (at most 0.52 eps measured over 150
        # stacks of 16 for 1-3 modes), while the defects themselves reach 5.9 eps |Lam|^2
        sigma = symplectic_metric(n_modes)
        for seed in range(10):
            rng = np.random.default_rng([n_modes, seed])
            s = rng.normal(size=(16, 2 * n_modes, 2 * n_modes))
            lams = expm(sigma @ (s + np.swapaxes(s, 1, 2)) * rng.uniform(0.1, 1.0, (16, 1, 1)))
            rows = [np.abs(lam @ sigma @ lam.T - sigma).max() for lam in lams]
            assert [dynamics.symplectic_defect(lam) for lam in lams] == rows
            assert dynamics.symplectic_defect(lams) == max(rows)
            einsum = np.abs(np.einsum("tij,jk,tlk->til", lams, sigma, lams) - sigma).max()
            bound = 2 * np.finfo(float).eps * np.abs(lams).max() ** 2
            assert abs(dynamics.symplectic_defect(lams) - einsum) <= bound

    def test_commutator_matrix_identity(self):
        # preservation of the canonical commutators is the same matrix identity
        flow = integrate_symplectic_flow(harmonic_oscillator(), 4.0, tol=1e-10)
        sigma = symplectic_metric(1)
        lam = flow.at(4.0).lam
        assert np.abs(lam @ sigma @ lam.T - sigma).max() < 1e-8

    def test_out_of_range_rejected(self):
        flow = integrate_symplectic_flow(free_particle(), 1.0)
        with pytest.raises(ValueError):
            flow.at(1.5)

    @pytest.mark.parametrize("case", sorted(TIME_DEPENDENT))
    def test_rows_match_ode_reference(self, case):
        # every row, also between step boundaries, is within 10 tol |Lam| of a tight ODE
        # solve and within 10x the reported error estimate, and symplectic to round-off
        ham, t_end, num, kinks = TIME_DEPENDENT[case]
        tol = 1e-9
        flow = integrate_symplectic_flow(ham, t_end, tol)
        ts = np.linspace(0.0, t_end, num)
        lams, deltas = flow.evaluate(ts)
        ref_lams, ref_deltas = flow_by_ode(ham, ts, kinks)
        scale = np.maximum(1.0, np.abs(ref_lams).max(axis=(1, 2)))
        err = np.maximum(np.abs(lams - ref_lams).max(axis=(1, 2)),
                         np.abs(deltas - ref_deltas).max(axis=1))
        assert np.all(err <= 10 * tol * scale)
        assert err.max() <= 10 * flow.error_estimate
        for lam, s in zip(lams, scale):
            assert dynamics.symplectic_defect(lam) <= 1e-13 * s ** 2

    def test_constant_hamiltonian_takes_one_exact_step(self):
        flow = integrate_symplectic_flow(CROSS_TERM, 20.0)
        assert flow.ts.tolist() == [0.0, 20.0]
        assert flow.error_estimate == 0.0
        for t in [3.7, 19.9]:
            assert np.array_equal(flow.at(t).lam, one_step(CROSS_TERM, t).lam)
        assert np.array_equal(flow.at(0.0).lam, np.eye(2))

    def test_backward_time_dependent_flow(self):
        flow = integrate_symplectic_flow(parametric_oscillator(lambda t: 1.0), -3.0)
        for t in [-0.5, -2.0, -3.0]:
            want = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
            assert np.abs(flow.at(t).lam - want).max() < 1e-8
        with pytest.raises(ValueError):
            flow.at(0.5)

    def test_non_finite_step_raises(self):
        # Lam grows like e^t and leaves double range near t = 710
        with pytest.raises(NonFiniteError, match="t=7"):
            integrate_symplectic_flow(REPULSIVE, 800.0)

    def test_omega_to_zero_limit_reproduces_free(self):
        flow_osc = integrate_symplectic_flow(harmonic_oscillator(omega=1e-6), 5.0, tol=1e-10)
        flow_free = integrate_symplectic_flow(free_particle(), 5.0, tol=1e-10)
        for t in [1.0, 3.0, 5.0]:
            assert np.abs(flow_osc.at(t).lam - flow_free.at(t).lam).max() < 1e-4


def nine_node_flow(hamiltonian, t_end, tol=1e-9):
    """(ts, samples, error estimate) of the integrator's step control with each trial's full
    step and two half steps taken by three separate ``_magnus_step`` calls of three nodes
    each, nine evaluations of H where t and t + h/2 repeat; every trial here is finite."""
    dim = 2 * hamiltonian.n_modes
    aug, t, h, error = np.eye(dim + 1), 0.0, t_end, 0.0
    ts, samples = [t], [aug]
    while t != t_end:
        last = abs(h) >= abs(t_end - t)
        if last:
            h = t_end - t
        full, first, second = dynamics._magnus_step(
            hamiltonian, np.array([t, t, t + 0.5 * h]), np.array([h, 0.5 * h, 0.5 * h]))
        half = first @ second
        trial = aug @ half
        err = np.abs(aug[:dim, :dim] @ (full - half)[:dim]).max() / 15.0
        bound = (max(tol * abs(h), dynamics._ROUND_OFF)
                 * max(1.0, np.abs(trial[:dim, :dim]).max()))
        floor = abs(h) < dynamics._MIN_STEP * max(1.0, abs(t))
        if err <= bound or floor:
            aug, t, error = trial, t_end if last else t + h, error + err
            ts.append(t)
            samples.append(aug)
        factor = min(4.0, 0.9 * (bound / err) ** 0.25) if err > 0 else 4.0
        h *= max(1.0 if floor else 0.2, factor)
    return np.array(ts), np.array(samples), error


def count_trial_steps(monkeypatch) -> list:
    """A one-item list that counts the trial steps of later flow solves: one ``_expm`` each."""
    trials = [0]

    def counting_expm(mats, expm=dynamics._expm):
        trials[0] += 1
        return expm(mats)

    monkeypatch.setattr(dynamics, "_expm", counting_expm)
    return trials


class TestSixNodeTrialSteps:
    """A trial step evaluates H once, as one stack at the nodes it does not share with the
    trial before, which moves no bit of the flow."""

    @pytest.mark.parametrize("hamiltonian,t_end", [
        (parametric_oscillator(tabulated_profile(VERIFY_TABLE)), 20.0),
        (parametric_oscillator(expression_profile("1 + 0.2*sin(t)")), 200.0),
        (TWO_MODE, 3.0),
    ], ids=["table", "expression-200", "two-mode-constant"])
    def test_flow_is_bit_identical_to_separate_steps(self, hamiltonian, t_end, monkeypatch):
        calls = [0]

        def counting_b(s):
            calls[0] += np.size(s)
            return hamiltonian.b_matrix(s)

        counted = QuadraticHamiltonian(counting_b, hamiltonian.c_vector, hamiltonian.n_modes)
        want_ts, want_samples, want_error = nine_node_flow(hamiltonian, t_end)
        trials = count_trial_steps(monkeypatch)
        calls[0] = 0
        flow = integrate_symplectic_flow(counted, t_end)
        assert calls[0] <= 5 * trials[0] + 1
        dim = 2 * hamiltonian.n_modes
        assert flow.ts.tobytes() == want_ts.tobytes()
        assert flow.lams.tobytes() == want_samples[:, :dim, :dim].tobytes()
        assert flow.deltas.tobytes() == want_samples[:, :dim, dim].tobytes()
        assert flow.error_estimate == want_error


class TestHamiltonianStacks:
    """H on a stack of times is H at each of its times, bit for bit; B and C must take
    arrays."""

    @pytest.mark.parametrize("hamiltonian", [
        *(parametric_oscillator(preset_profile(name))
          for name in ("free", "oscillator", "repulsive")),
        free_particle(2.0), harmonic_oscillator(0.5, 1.3),
        parametric_oscillator(tabulated_profile(VERIFY_TABLE)),
        parametric_oscillator(expression_profile("1 + 0.2*sin(t)"), 1.7),
        parametric_oscillator(expression_profile("1")),
        TWO_MODE,
    ], ids=["free", "oscillator", "repulsive", "free_particle", "harmonic_oscillator",
            "table", "expression", "constant-expression", "two-mode-constant"])
    def test_stack_equals_per_point_evaluation(self, hamiltonian):
        # the table's times run from before its first row to past its last
        times = np.array([-3.0, 0.0, 0.37, 4.5, 6.0, 13.2, 20.0, 27.5, 200.0])
        for h in (hamiltonian.b_matrix, hamiltonian.c_vector):
            stack, points = np.asarray(h(times)), np.array([h(s) for s in times])
            assert stack.dtype == points.dtype == float and stack.shape == points.shape
            assert stack.tobytes() == points.tobytes()
        gens = dynamics._generators(hamiltonian, times)
        points = np.array([dynamics._generators(hamiltonian, np.array(s)) for s in times])
        assert gens.tobytes() == points.tobytes()

    @pytest.mark.parametrize("b, c, match", [
        (np.eye(4), np.zeros(2), r"^B at two times has shape \(2, 4, 4\), expected \(2, 2, 2\)"),
        (np.eye(2), np.zeros(3), r"^C at two times has shape \(2, 3\), expected \(2, 2\)"),
    ])
    def test_wrong_shapes_are_rejected(self, b, c, match):
        with pytest.raises(ValueError, match=match):
            QuadraticHamiltonian(b, c, 1)

    def test_scalar_only_callables_are_rejected(self):
        with pytest.raises(ValueError, match=r"^B\(t\) must take an array of times"):
            QuadraticHamiltonian(lambda t: np.diag([1.0, math.cos(t)]), np.zeros(2), 1)
        with pytest.raises(ValueError, match=r"^B\(t\) must take an array of times"):
            parametric_oscillator(lambda t: 1.0 if t < 1.0 else 2.0)
        with pytest.raises(ValueError, match=r"^C\(t\) must take an array of times"):
            QuadraticHamiltonian(np.eye(2), lambda t: np.array([0.0, math.sin(t)]), 1)


class TestConstantFlow:
    def test_zero_generator(self):
        ham = QuadraticHamiltonian(np.zeros((2, 2)), np.zeros(2), 1)
        sample = one_step(ham, 2.0)
        assert np.allclose(sample.lam, np.eye(2))
        assert np.allclose(sample.delta, 0.0)

    def test_oscillator_period(self):
        sample = one_step(harmonic_oscillator(), 2 * math.pi)
        assert np.abs(sample.lam - np.eye(2)).max() < 1e-12
        quarter = one_step(harmonic_oscillator(), math.pi / 2)
        assert np.abs(quarter.lam - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() < 1e-12

    def test_agrees_with_ode_path(self):
        rng = np.random.default_rng(9)
        b = rng.normal(size=(4, 4))
        ham = QuadraticHamiltonian(b + b.T, rng.normal(size=4), 2)
        (ode_lam,), (ode_delta,) = flow_by_ode(ham, [1.0])
        sample = integrate_symplectic_flow(ham, 1.0, tol=1e-11).at(1.0)
        assert np.abs(sample.lam - ode_lam).max() < 1e-9
        assert np.abs(sample.delta - ode_delta).max() < 1e-9

    @pytest.mark.parametrize("t", [0.3, 4.2, 12.0, 30.0])
    def test_matches_scipy_expm(self, t):
        rng = np.random.default_rng(7)
        b = rng.normal(size=(4, 4))
        b = b @ b.T + np.eye(4)  # positive definite: Lam stays bounded
        ham = QuadraticHamiltonian(b, rng.normal(size=4), 2)
        gen = np.zeros((5, 5))
        gen[:4, :4] = symplectic_metric(2) @ b
        gen[:4, 4] = symplectic_metric(2) @ ham.c_vector(0.0)
        want = expm(t * gen)
        flow = integrate_symplectic_flow(ham, t)
        assert len(flow.ts) == 2
        sample = flow.at(t)
        scale = np.abs(want).max()
        assert np.abs(sample.lam - want[:4, :4]).max() <= 1e-11 * scale
        assert np.abs(sample.delta - want[:4, 4]).max() <= 1e-11 * scale


def _complex_expm(hamiltonian, t):
    """(M, N) of constant (D, E) by one augmented exponential of [[sigma D, sigma E], [0, 0]]."""
    d, e = hamiltonian_to_creation_annihilation(hamiltonian)
    sigma = complex_structure(hamiltonian.n_modes)
    dim = 2 * hamiltonian.n_modes
    gen = np.zeros((dim + 1, dim + 1), dtype=complex)
    gen[:dim, :dim] = sigma @ d
    gen[:dim, dim] = sigma @ e
    block = expm(gen * t)
    return block[:dim, :dim], block[:dim, dim]


def _generator_residual(hamiltonian, sample_at, t, h=1e-4):
    """max |dM/dt - M sigma D(t)|, |dN/dt - M sigma E(t)| by central differences."""
    n = hamiltonian.n_modes
    frozen = QuadraticHamiltonian(hamiltonian.b_matrix(t), hamiltonian.c_vector(t), n)
    d, e = hamiltonian_to_creation_annihilation(frozen)
    sigma = complex_structure(n)
    m, _ = flow_to_creation_annihilation(sample_at(t))
    m_hi, n_hi = flow_to_creation_annihilation(sample_at(t + h))
    m_lo, n_lo = flow_to_creation_annihilation(sample_at(t - h))
    return max(np.abs((m_hi - m_lo) / (2 * h) - m @ sigma @ d).max(),
               np.abs((n_hi - n_lo) / (2 * h) - m @ sigma @ e).max())


def _symplectic_eigenvalues(disp):
    n = disp.shape[0] // 2
    # i Sigma M has eigenvalues +-nu_k
    return np.sort(np.abs(np.linalg.eigvals(1j * symplectic_metric(n) @ disp)))[::2]


@st.composite
def flow_problems(draw):
    """Random symmetric B and C (entries in [-1, 1]), t <= 2 and a random Gaussian state."""
    n = draw(st.integers(1, 2))
    dim = 2 * n
    entry = st.floats(-1.0, 1.0, allow_nan=False)
    b = np.array(draw(st.lists(entry, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    c = np.array(draw(st.lists(entry, min_size=dim, max_size=dim)))
    t = draw(st.floats(0.01, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = 0.3 * rng.normal(size=(dim, dim))
    sympl = expm(symplectic_metric(n) @ (g + g.T))
    nu = np.tile(0.5 + rng.uniform(0.0, 1.0, size=n), 2)
    state = GaussianState(rng.normal(size=dim), sympl @ np.diag(nu) @ sympl.T)
    return 0.5 * (b + b.T), c, t, state


class TestFlowProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(flow_problems())
    def test_expm_and_ode_paths_evolve_alike(self, problem):
        b, c, t, state = problem
        n = b.shape[0] // 2
        sample = one_step(QuadraticHamiltonian(b, c, n), t)
        stepped = integrate_symplectic_flow(
            QuadraticHamiltonian(lambda s: np.broadcast_to(b, np.shape(s) + b.shape),
                                 lambda s: np.broadcast_to(c, np.shape(s) + c.shape), n),
            t, tol=1e-10)
        (ode_lam,), (ode_delta,) = flow_by_ode(QuadraticHamiltonian(b, c, n), [t])
        exact = evolve_gaussian(state, sample)
        along_stepper = evolve_gaussian(state, stepped.at(t))
        along_ode = evolve_gaussian(state, FlowSample(t, ode_lam, ode_delta))
        scale = max(1.0, np.abs(sample.lam).max(), np.abs(sample.delta).max())
        bound = 1e-7 * scale ** 2 * max(1.0, np.abs(state.mean).max(), np.abs(state.disp).max())
        for evolved in (exact, along_stepper):
            assert np.abs(evolved.mean - along_ode.mean).max() <= bound
            assert np.abs(evolved.disp - along_ode.disp).max() <= bound
        nu0 = _symplectic_eigenvalues(state.disp)
        for evolved in (exact, along_stepper):
            assert np.abs(_symplectic_eigenvalues(evolved.disp) - nu0).max() <= 1e-8 * nu0.max()


class TestComplexFlow:
    def test_stationary_oscillator_phases(self):
        omega = 1.3
        ham = QuadraticHamiltonian(omega * np.eye(2), np.zeros(2), 1)
        for t in [0.0, 1.0, 3.7]:
            m, n = flow_to_creation_annihilation(one_step(ham, t))
            want = np.diag([np.exp(1j * omega * t), np.exp(-1j * omega * t)])
            assert np.abs(m - want).max() < 1e-9
            assert np.abs(n).max() < 1e-12

    def test_initial_condition(self):
        ham = QuadraticHamiltonian(np.eye(2), np.array([0.2, 0.2]), 1)
        m, n = flow_to_creation_annihilation(one_step(ham, 0.0))
        assert np.allclose(m, np.eye(2))
        assert np.allclose(n, 0.0)

    def test_consistency_with_symplectic_flow(self):
        rng = np.random.default_rng(14)
        b = rng.normal(size=(4, 4))
        ham = QuadraticHamiltonian(b + b.T, rng.normal(size=4), 2)
        sflow = integrate_symplectic_flow(ham, 2.0, tol=1e-11)
        for t in [0.7, 2.0]:
            m, n = flow_to_creation_annihilation(sflow.at(t))
            want_m, want_n = _complex_expm(ham, t)
            assert np.abs(m - want_m).max() < 1e-9
            assert np.abs(n - want_n).max() < 1e-9

    def test_generator_residual_two_mode(self):
        rng = np.random.default_rng(15)
        b = rng.normal(size=(4, 4))
        ham = QuadraticHamiltonian(b + b.T, rng.normal(size=4), 2)
        for t in [0.3, 1.1]:
            assert _generator_residual(ham, lambda s: one_step(ham, s), t) < 1e-6

    def test_generator_residual_time_dependent(self):
        flow = integrate_symplectic_flow(TWO_FIELD, 2.0, tol=1e-12)
        for t in [0.4, 1.5]:
            assert _generator_residual(TWO_FIELD, flow.at, t) < 1e-6


class TestEvolveGaussian:
    def test_coherent_under_oscillator_rotates(self):
        alpha = 0.9 - 0.4j
        s0 = make_coherent(alpha)
        flow = integrate_symplectic_flow(harmonic_oscillator(), 2 * math.pi, tol=1e-11)
        for t in np.linspace(0, 2 * math.pi, 9):
            st = evolve_gaussian(s0, flow.at(t))
            want = make_coherent(alpha * np.exp(-1j * t))
            assert np.abs(st.mean - want.mean).max() < 1e-9
            assert np.abs(st.disp - want.disp).max() < 1e-9

    def test_vacuum_is_oscillator_invariant(self):
        flow = integrate_symplectic_flow(harmonic_oscillator(), 5.0, tol=1e-10)
        st = evolve_gaussian(make_coherent(0.0), flow.at(5.0))
        assert np.abs(st.mean).max() < 1e-10
        assert np.abs(st.disp - 0.5 * np.eye(2)).max() < 1e-9

    def test_free_spreading(self):
        flow = integrate_symplectic_flow(free_particle(), 1.0, tol=1e-11)
        st = evolve_gaussian(make_coherent(0.0), flow.at(1.0))
        assert st.disp[1, 1] == pytest.approx(1.0, abs=1e-9)   # sigma_q
        assert st.disp[0, 1] == pytest.approx(0.5, abs=1e-9)   # sigma_pq
        assert st.disp[0, 0] == pytest.approx(0.5, abs=1e-9)   # sigma_p

    def test_purity_preserved(self):
        rng = np.random.default_rng(3)
        b = 0.3 * rng.normal(size=(2, 2))
        ham = QuadraticHamiltonian(b + b.T + np.eye(2), rng.normal(size=2), 1)
        flow = integrate_symplectic_flow(ham, 3.0, tol=1e-10)
        s0 = GaussianState([0.3, -0.2], [[0.9, 0.1], [0.1, 0.4]])
        mu0 = validate_state(s0).purity
        for t in [1.0, 3.0]:
            mu_t = validate_state(evolve_gaussian(s0, flow.at(t))).purity
            assert abs(mu_t - mu0) < 1e-9

    def test_quadratic_invariant_constant_for_free_motion(self):
        # <(q - p t / m)^2> evaluated in the evolved state stays put
        flow = integrate_symplectic_flow(free_particle(), 10.0, tol=1e-11)
        s0 = GaussianState([0.4, 1.1], [[0.7, 0.15], [0.15, 0.5]])
        values = []
        for t in np.linspace(0.0, 10.0, 21):
            st = evolve_gaussian(s0, flow.at(t))
            row = flow.at(t).lam[1]  # coefficients of the conserved position combination
            second_moment = st.disp + np.outer(st.mean, st.mean)
            values.append(row @ second_moment @ row)
        assert max(values) - min(values) < 1e-8

    def test_flow_sample_evolution(self):
        sample = one_step(harmonic_oscillator(), 1.0)
        st = evolve_gaussian(make_coherent(1.0), sample)
        want = make_coherent(np.exp(-1j))
        assert np.abs(st.mean - want.mean).max() < 1e-12

    @pytest.mark.parametrize("t", [10.0, 15.0, 19.0, 25.0, 350.0])
    def test_inverted_oscillator_uses_exact_inverse(self, t):
        # q(t) = q cosh t + p sinh t, p(t) = p cosh t + q sinh t; Lam is the inverse of
        # that matrix and has cond ~ e^{2t}, so a numerical inverse of it loses the mean
        # from t ~ 15 on and calls Lam singular from t ~ 20
        heisenberg = np.array([[math.cosh(t), math.sinh(t)], [math.sinh(t), math.cosh(t)]])
        st = evolve_gaussian(make_coherent(1.0), one_step(REPULSIVE, t))
        want_mean = heisenberg @ make_coherent(1.0).mean
        want_disp = 0.5 * heisenberg @ heisenberg.T
        assert np.abs(st.mean - want_mean).max() <= 1e-12 * np.abs(want_mean).max()
        assert np.abs(st.disp - want_disp).max() <= 1e-12 * np.abs(want_disp).max()

    @pytest.mark.parametrize("t", [400.0, 800.0])
    def test_overflowing_flow_raises_non_finite(self, t):
        # the inverted oscillator's dispersion grows like e^{2t}: inf at t = 400, and at
        # t = 800 Lam = cosh t I + sinh t Sigma B itself is inf (a silent NaN state before)
        with np.errstate(over="ignore"):
            c, s = np.cosh(t), np.sinh(t)
        sample = FlowSample(t, np.array([[c, -s], [-s, c]]), np.zeros(2))
        with pytest.raises(NonFiniteError, match=f"t={t}"):
            evolve_gaussian(make_coherent(1.0), sample)


class TestFlowPhase:
    @pytest.mark.parametrize("profile", [expression_profile("1 + 0.3*sin(2*t)"),
                                         tabulated_profile(VERIFY_TABLE)],
                             ids=["expression", "table"])
    def test_phase_rises(self, profile):
        flow = solve_epsilon(profile, 20.0)
        ts = np.linspace(0.0, 20.0, 1001)
        phases = np.array([flow.phase(t) for t in ts])
        # d arg eps/dt = B_pp/|eps|^2 > 0
        assert phases[0] == 0.0 and np.all(np.diff(phases) >= 0.0)
        assert phases[-1] > 5 * math.pi

    @pytest.mark.parametrize("mass,omega", [(1.0, 20.0), (0.05, 1.0), (20.0, 1.0)])
    def test_fast_rows_keep_every_turn(self, mass, omega):
        # eps = cos wt + i sin(wt)/(m w) turns at up to |Sigma B|_2 = max(1/m, m w^2): near
        # the foci when m w << 1, between them when m w >> 1
        flow = integrate_symplectic_flow(harmonic_oscillator(mass, omega), 6.0)
        ts = np.linspace(0.0, 6.0, 601)
        turns = np.round(omega * ts / math.pi)
        rest = omega * ts - turns * math.pi
        want = turns * math.pi + np.arctan2(np.sin(rest) / (mass * omega), np.cos(rest))
        got = np.array([flow.phase(t) for t in ts])
        assert np.abs(got - want).max() < 1e-9

    def test_other_flows_rejected(self):
        two_mode = integrate_symplectic_flow(QuadraticHamiltonian(np.eye(4), np.zeros(4), 2), 1.0)
        with pytest.raises(ValueError, match="forward one-mode"):
            two_mode.phase(0.5)
        with pytest.raises(ValueError, match="one-mode flow only"):
            two_mode.eps(0.5)
        for t_end in (math.inf, math.nan):
            with pytest.raises(ValueError, match="t_end must be finite"):
                integrate_symplectic_flow(free_particle(), t_end)
        with pytest.raises(ValueError, match="forward one-mode"):
            integrate_symplectic_flow(harmonic_oscillator(), -1.0).phase(-0.5)


class TestPositionPropagators:
    def test_free_translation_invariance(self):
        t = 0.8
        vals = [propagator_position(free_particle(1.3), q, q - 0.6, t) for q in [-1.0, 0.0, 2.5]]
        assert np.abs(np.diff(vals)).max() < 1e-14

    def test_free_short_time_width(self):
        # |G|^2 = m / (2 pi t)
        assert abs(propagator_position(free_particle(2.0), 0.3, -0.2, 0.5)) ** 2 == pytest.approx(
            2.0 / (2 * math.pi * 0.5), rel=1e-12)

    def test_oscillator_quarter_period(self):
        m, w = 1.0, 1.0
        t = math.pi / 2
        for q, qp in [(0.5, 0.3), (-1.0, 0.7)]:
            want = math.sqrt(m * w / (2 * math.pi)) * np.exp(-0.25j * math.pi) \
                * np.exp(-1j * m * w * q * qp)
            assert propagator_position(harmonic_oscillator(m, w), q, qp, t) == pytest.approx(
                want, rel=1e-12)

    def test_caustic_guard(self):
        with pytest.raises(CausticError):
            propagator_position(harmonic_oscillator(1.0, 1.0), 0.1, 0.2, math.pi)
        with pytest.raises(CausticError):
            propagator_position(CROSS_TERM, 0.1, 0.2, 2 * math.pi / math.sqrt(0.71))

    @pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
    def test_free_matches_closed_form(self, mass):
        q, qp = np.meshgrid([-1.3, 0.0, 0.4, 2.2], [-0.7, 0.5, 1.9])
        for t in [0.05, 0.6, 2.0, 11.0]:
            got = propagator_position(free_particle(mass), q, qp, t)
            want = free_propagator(q, qp, t, mass=mass)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("omega", [0.7, 1.0, 1.9])
    def test_oscillator_matches_closed_form_across_foci(self, mass, omega):
        q, qp = np.meshgrid([-1.3, 0.0, 0.4, 2.2], [-0.7, 0.5, 1.9])
        checked = 0
        for t in np.linspace(0.1, 11.0, 60):
            if abs(math.sin(omega * t)) < 0.1:
                continue
            got = propagator_position(harmonic_oscillator(mass, omega), q, qp, t)
            want = oscillator_propagator(q, qp, t, mass, omega)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
            checked += 1
        assert checked > 40

    @pytest.mark.parametrize("ham", [
        QuadraticHamiltonian(np.eye(4), np.zeros(4), 2),                 # two modes
        QuadraticHamiltonian(np.eye(2), np.array([0.0, 0.5]), 1),        # linear term
        QuadraticHamiltonian(np.diag([0.0, 1.0]), np.zeros(2), 1),       # no kinetic term
        # C(0) = 0, but C is nonzero at the flow's step nodes
        QuadraticHamiltonian(np.eye(2), lambda t: np.multiply.outer(t, [0.0, 0.1]), 1),
        # B_pp(t) = cos 3t turns negative after t = pi/6
        QuadraticHamiltonian(lambda t: np.multiply.outer(np.cos(3.0 * np.asarray(t)),
                                                         [[1.0, 0.0], [0.0, 0.0]])
                             + np.diag([0.0, 1.0]), np.zeros(2), 1),
    ])
    def test_unsupported_hamiltonians_rejected(self, ham):
        with pytest.raises(ValueError):
            propagator_position(ham, 0.1, 0.2, 1.0)
        with pytest.raises(ValueError):
            invariant_residual_check(ham, [0.0], [0.0], 1.0)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            propagator_position(free_particle(), 0.1, 0.2, 0.0)

    def test_short_time_is_in_the_guard_band(self):
        # arg eps -> 0 as t -> 0+, so the guard |sin arg eps| < 1e-8 covers t -> 0+ too
        with pytest.raises(CausticError):
            propagator_position(free_particle(), 0.1, 0.2, 1e-10)
        assert abs(propagator_position(free_particle(), 0.1, 0.2, 1e-6)) ** 2 == pytest.approx(
            1.0 / (2 * math.pi * 1e-6), rel=1e-9)

    @pytest.mark.parametrize("profile,times", [
        (expression_profile("1 + 0.3*sin(2*t)"), [0.7, 2.0, 3.5, 5.0, 7.3, 11.0]),
        (tabulated_profile(VERIFY_TABLE), [1.0, 2.5, 4.0, 6.5, 9.0, 12.0, 13.5]),
    ], ids=["expression", "table"])
    def test_varying_frequency_moves_the_packet(self, profile, times):
        # the kernel of H = p^2/2 + w^2(t) q^2/2, applied by trapezoid quadrature to the
        # coherent packet at t = 0, gives the evolved packet of qopt.parametric past three
        # foci.  The packet reads a flow stepped to the same t at the same tol, so this
        # checks the kernel and its Maslov count; test_parametric checks the flow itself
        alpha, nodes, q = 0.7 + 0.2j, np.linspace(-12.0, 12.0, 6001), np.linspace(-4.0, 4.0, 41)
        ham = parametric_oscillator(profile)
        for t in times:
            flow = solve_epsilon(profile, t)
            psi0 = packet_wavefunction_eval(flow, 0.0, alpha, nodes)
            kernel = propagator_position(ham, q[:, np.newaxis], nodes, t)
            got = np.trapezoid(kernel * psi0, nodes, axis=1)
            want = packet_wavefunction_eval(flow, t, alpha, q)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert flow.phase(times[-1]) > 3 * math.pi

    def test_varying_frequency_caustic_guard(self):
        # bisect arg eps(t) - pi to the first focus of w^2 = 1 + 0.3 sin 2t; the kernel's
        # own flow, stepped to that t alone, agrees with this one to about 1e-9
        ham = parametric_oscillator(expression_profile("1 + 0.3*sin(2*t)"))
        flow = integrate_symplectic_flow(ham, 4.0)
        lo, hi = 2.0, 4.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if flow.phase(mid) < math.pi else (lo, mid)
        with pytest.raises(CausticError):
            propagator_position(ham, 0.1, 0.2, lo)
        propagator_position(ham, 0.1, 0.2, lo - 1e-3)

    def test_generators_are_evaluated_once_per_step_node(self, monkeypatch):
        # each of the flow's 57 trial steps reads B at the 5 of its 6 distinct nodes that it
        # does not share with the trial before, the first also at t = 0; beyond its own solve
        # of that flow, the kernel reads B for the rows it evaluates, at three points each:
        # the 56 rows of the phase table and the row at t; and its support checks and the
        # phase bound each read B at the 55 step boundaries and 54 midpoints, as the flow
        # keeps no generator
        calls, stack = [0], parametric_oscillator(lambda s: 1.0 + 0.3 * np.sin(2.0 * s)).b_matrix

        def b(s):
            calls[0] += np.size(s)
            return stack(s)

        ham = QuadraticHamiltonian(b, np.zeros(2), 1)
        trials = count_trial_steps(monkeypatch)
        calls[0] = 0
        flow = integrate_symplectic_flow(ham, 2.0)
        solve_calls, calls[0] = calls[0], 0
        assert len(flow.ts) == 55 and trials[0] == 57 and solve_calls == 5 * 57 + 1
        propagator_position(ham, 0.1, 0.2, 2.0)
        assert calls[0] - solve_calls == 3 * (56 + 1) + 2 * (55 + 54)

    @pytest.mark.parametrize("system,t1,t2", [
        (free_particle(mass=1.0), 0.4, 0.9),
        (free_particle(mass=2.0), 1.1, 0.3),
        (harmonic_oscillator(1.0, 1.0), 0.3, 0.5),
        (harmonic_oscillator(1.0, 1.0), 2.0, 2.0),   # crosses a focal time
        (REPULSIVE, 0.4, 0.7),
        (CROSS_TERM, 2.5, 2.5),                      # w = sqrt(0.71): crosses a focal time
    ])
    def test_semigroup_property(self, system, t1, t2):
        for q, qp in [(0.2, -0.4), (1.0, 0.8)]:
            assert semigroup_defect(system, q, qp, t1, t2) < 1e-6

    def test_short_time_delta_family(self):
        # int G(q, q', t) f(q') dq' -> f(q) as t -> 0+
        f = lambda x: np.exp(-0.5 * (x - 0.4) ** 2)
        q0 = 0.1
        errs = []
        for t, n_pts in [(3e-2, 200001), (3e-3, 600001)]:
            qs = np.linspace(-10, 10, n_pts)
            vals = propagator_position(free_particle(), q0, qs, t) * f(qs)
            integral = np.trapezoid(vals, qs)
            errs.append(abs(integral - f(q0)))
        assert errs[1] < 0.2 * errs[0]
        assert errs[1] < 5e-3


class TestBasisPropagators:
    def test_fock_diagonal(self):
        t = 2 * math.pi
        assert fock_basis_propagator(0, 0, 1.0, t) == pytest.approx(-1.0, abs=1e-12)
        assert fock_basis_propagator(2, 2, 1.0, 1.0) == pytest.approx(
            np.exp(-2.5j), abs=1e-12)

    def test_fock_off_diagonal_zero(self):
        assert fock_basis_propagator(1, 3, 1.0, 0.7) == 0

    def test_coherent_expansion_reproduces_fock(self):
        omega, t = 1.0, 0.9
        alpha, beta = 0.45, 0.6
        total = 0.0
        for n in range(30):
            weight = (alpha ** n / math.sqrt(math.factorial(n))
                      * beta ** n / math.sqrt(math.factorial(n)))
            total += weight * fock_basis_propagator(n, n, omega, t)
        total *= math.exp(-0.5 * alpha ** 2 - 0.5 * beta ** 2)
        assert coherent_basis_propagator(alpha, beta, omega, t) == pytest.approx(
            total, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            coherent_basis_propagator(0.5, 0.5, 1.0, -0.1)
        with pytest.raises(ValueError, match="t must be nonnegative"):
            fock_basis_propagator(1, 1, 1.0, -0.1)

    def test_coherent_zero_time_is_overlap(self):
        a, b = 0.7 + 0.2j, -0.1 + 0.9j
        want = np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conj(a) * b)
        assert coherent_basis_propagator(a, b, 1.0, 0.0) == pytest.approx(want, rel=1e-12)


class TestInvariantResiduals:
    def test_free_particle(self):
        grid = np.linspace(-2, 2, 9)
        report = invariant_residual_check(free_particle(), grid, grid, 1.0)
        assert report.momentum_residual < 1e-4
        assert report.position_residual < 1e-4

    def test_oscillator(self):
        grid = np.linspace(-2, 2, 9)
        report = invariant_residual_check(harmonic_oscillator(), grid, grid, 1.0)
        assert report.momentum_residual < 1e-4
        assert report.position_residual < 1e-4

    def test_oscillator_other_mass(self):
        grid = np.linspace(-1.5, 1.5, 9)
        report = invariant_residual_check(harmonic_oscillator(mass=1.7, omega=0.8), grid, grid,
                                          2.2)
        assert report.momentum_residual < 1e-4
        assert report.position_residual < 1e-4

    @pytest.mark.parametrize("ham,t", [(REPULSIVE, 1.0), (CROSS_TERM, 1.0), (CROSS_TERM, 4.5)])
    def test_repulsive_and_cross_term(self, ham, t):
        grid = np.linspace(-1.5, 1.5, 9)
        report = invariant_residual_check(ham, grid, grid, t)
        assert report.momentum_residual < 1e-4
        assert report.position_residual < 1e-4
