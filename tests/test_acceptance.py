"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines.
"""

import json
import math
import time

import numpy as np

from qopt.cats import CatState, cat_moments
from qopt.cli import execute_job, parse_config, write_output
from qopt.dynamics import (fock_basis_propagator, free_particle, harmonic_oscillator,
                           integrate_symplectic_flow, invariant_residual_check,
                           parametric_oscillator)
from qopt.gaussian import (make_coherent, make_squeezed_vacuum, make_thermal_oscillator,
                           photon_pnd, q_eval, to_qrep, validate_state, wigner_eval)
from qopt.hermite import HermiteParams, OverlapSpec, gaussian_hermite_overlap, mv_hermite_eval
from qopt.parametric import (expression_profile, preset_profile, solve_epsilon,
                             squeezed_vacuum_pnd, tabulated_profile, to_gaussian_state,
                             wronskian_defect)
from qopt.tomography import Sinogram, gaussian_sinogram, inverse_radon, wigner_grid_from_callable
from qopt.dynamics import evolve_gaussian

from oracles import (PRESET_OMEGA_SQUARED, cat_marginal, closed_form_epsilon, gauss_box,
                     hermite_by_series, trapz_nd)
from test_dynamics import semigroup_defect


def _report(num, name, measured, bound, passed=None):
    passed = (measured <= bound) if passed is None else passed
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num:02d} {name}: "
          f"measured {measured:.3e}, bound {bound:.1e}")
    assert passed
    return passed


def test_criterion_01_poisson_reduction():
    alpha = 1.5
    state = make_coherent(alpha)
    worst = max(abs(photon_pnd(state, [n])
                    - math.exp(-alpha ** 2) * alpha ** (2 * n) / math.factorial(n))
                for n in range(21))
    _report(1, "Poisson reduction", worst, 1e-10)


def test_criterion_02_squeezed_vacuum_chain():
    # presets against closed forms on [0, 10]
    worst_eps = 0.0
    for preset in ("free", "oscillator", "repulsive"):
        t_end = 10.0 if preset != "repulsive" else 8.0
        flow = solve_epsilon(preset_profile(preset), t_end, tol=1e-11)
        w2 = PRESET_OMEGA_SQUARED[preset]
        for t in np.linspace(0.0, t_end, 81):
            eps, _ = flow.eps(t)
            worst_eps = max(worst_eps, abs(eps - closed_form_epsilon(w2, t)))
    assert worst_eps <= 1e-9

    # photon law at specified squeezings: a constant drive w^2 = e^{2r} reaches
    # |eps| = e^{-r}, |epsdot| = e^{r}, zero correlation at t = (pi/2) e^{-r}
    worst_pnd = 0.0
    odd_exact = True
    for r in (0.5, 1.0, 2.0):
        a = math.exp(r)
        flow = solve_epsilon(expression_profile(f"{a * a}"), 2.0, tol=1e-12)
        t_star = 0.5 * math.pi / a
        for m in range(16):
            want = (math.factorial(2 * m) / math.factorial(m) ** 2
                    * (math.tanh(r) / 2) ** (2 * m) / math.cosh(r))
            worst_pnd = max(worst_pnd, abs(squeezed_vacuum_pnd(flow, t_star, 2 * m) - want))
            odd_exact &= squeezed_vacuum_pnd(flow, t_star, 2 * m + 1) == 0.0
    assert worst_pnd <= 1e-9
    assert odd_exact

    # cross-module equality through the Gaussian-state chain
    flow = solve_epsilon(expression_profile("1 + 0.3*cos(2*t)"), 6.0, tol=1e-11)
    worst_cross = 0.0
    for t in (1.0, 3.5, 6.0):
        state = to_gaussian_state(flow, t)
        for n in range(12):
            worst_cross = max(worst_cross, abs(squeezed_vacuum_pnd(flow, t, n)
                                               - photon_pnd(state, [n])))
    _report(2, "squeezed-vacuum chain", max(worst_eps, worst_pnd, worst_cross), 1e-9,
            passed=(worst_eps <= 1e-9 and worst_pnd <= 1e-9
                    and worst_cross <= 1e-9 and odd_exact))


def test_criterion_03_p0_anchor():
    rng = np.random.default_rng(33)
    knots = np.linspace(0.0, 12.0, 7)
    profile = tabulated_profile(np.column_stack([knots, rng.uniform(0.5, 1.5, size=7)]))
    flow = solve_epsilon(profile, 12.0, tol=1e-11)
    worst = 0.0
    for t in rng.uniform(0.2, 12.0, size=10):
        eps, epsdot = flow.eps(t)
        want = 2.0 / math.sqrt(abs(eps) ** 2 + abs(epsdot) ** 2 + 2.0)
        got = to_qrep(to_gaussian_state(flow, t)).p0
        worst = max(worst, abs(got - want))
    _report(3, "zero-photon anchor", worst, 1e-9)


def test_criterion_04_symplectic_and_wronskian():
    tol = 1e-9
    rng = np.random.default_rng(44)
    knots = np.linspace(0.0, 20.0, 9)
    table = np.column_stack([knots, rng.uniform(0.5, 1.5, size=9)])
    profile = tabulated_profile(table)

    defects = []
    for ham in (harmonic_oscillator(), parametric_oscillator(profile)):
        flow = integrate_symplectic_flow(ham, 20.0, tol=tol)
        defects.append(flow.max_symplectic_defect())
    for prof in (preset_profile("free"), preset_profile("oscillator"), profile):
        flow = solve_epsilon(prof, 20.0, tol=tol)
        defects.append(wronskian_defect(flow))
    _report(4, "symplectic/Wronskian conservation", max(defects), 1e-7)


def test_criterion_05_propagators():
    grid = np.linspace(-2.0, 2.0, 9)
    residuals = []
    for ham, t in ((free_particle(), 1.0), (harmonic_oscillator(), 1.0)):
        rep = invariant_residual_check(ham, grid, grid, t, step=1e-3)
        residuals.append(max(rep.momentum_residual, rep.position_residual))
    residual_ok = max(residuals) <= 1e-4

    semis = []
    for ham, t1, t2 in ((free_particle(), 0.4, 0.9), (harmonic_oscillator(), 0.3, 0.5),
                        (harmonic_oscillator(), 2.0, 2.0)):
        semis.append(semigroup_defect(ham, 0.3, -0.2, t1, t2))
    semigroup_ok = max(semis) <= 1e-6

    fock_exact = all(
        fock_basis_propagator(n, m, 1.3, 0.7)
        == (0j if n != m else complex(np.exp(-1j * 1.3 * 0.7 * (n + 0.5))))
        for n in range(5) for m in range(5))
    _report(5, "propagator residuals/semigroup/Fock", max(max(residuals), max(semis)),
            1e-4, passed=(residual_ok and semigroup_ok and fock_exact))


def test_criterion_06_hermite_engine():
    rng = np.random.default_rng(66)
    worst_gf = 0.0
    for dim in (1, 2):
        for _ in range(3):
            r = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            r = r + r.T
            y = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            params = HermiteParams(r, y)
            indices = [(k,) for k in range(7)] if dim == 1 else \
                [(i, j) for i in range(4) for j in range(4) if i + j <= 6]
            for idx in indices:
                got = mv_hermite_eval(params, idx)
                want = hermite_by_series(r, y, idx)
                worst_gf = max(worst_gf, abs(got - want) / max(1.0, abs(want)))
    gf_ok = worst_gf <= 1e-8

    worst_block = 0.0
    for dims in ((1, 1), (2, 2)):
        blocks = []
        ys = []
        for d in dims:
            r = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            blocks.append(r + r.T)
            ys.append(rng.normal(size=d) + 1j * rng.normal(size=d))
        total = sum(dims)
        full = np.zeros((total, total), dtype=complex)
        full[:dims[0], :dims[0]] = blocks[0]
        full[dims[0]:, dims[0]:] = blocks[1]
        y_full = np.concatenate(ys)
        idx = tuple(rng.integers(0, 3, size=total))
        joint = mv_hermite_eval(HermiteParams(full, y_full), idx)
        split = (mv_hermite_eval(HermiteParams(blocks[0], ys[0]), idx[:dims[0]])
                 * mv_hermite_eval(HermiteParams(blocks[1], ys[1]), idx[dims[0]:]))
        worst_block = max(worst_block, abs(joint - split) / max(1.0, abs(split)))
    block_ok = worst_block <= 1e-10

    # overlap against 2D quadrature
    shape = rng.normal(size=(2, 2))
    m = shape @ shape.T + 1.5 * np.eye(2) + 0.15j * np.eye(2)
    lam = np.eye(2) + 0.1 * rng.normal(size=(2, 2))
    d_vec = np.array([0.2, -0.25])
    c_vec = np.array([0.3 + 0.1j, -0.2])
    spec = OverlapSpec(R=2 * np.eye(2), r=2 * np.eye(2), lam=lam, d=d_vec, c=c_vec, m=m)
    n_idx, m_idx = (1, 1), (0, 2)

    from numpy.polynomial.hermite import hermval

    def h(k, x):
        return hermval(x, [0.0] * k + [1.0])

    def integrand(x1, x2):
        u1 = lam[0, 0] * x1 + lam[0, 1] * x2 + d_vec[0]
        u2 = lam[1, 0] * x1 + lam[1, 1] * x2 + d_vec[1]
        quad_form = m[0, 0] * x1 * x1 + 2 * m[0, 1] * x1 * x2 + m[1, 1] * x2 * x2
        return (h(n_idx[0], x1) * h(n_idx[1], x2) * h(m_idx[0], u1) * h(m_idx[1], u2)
                * np.exp(-quad_form + c_vec[0] * x1 + c_vec[1] * x2))

    want = trapz_nd(integrand, gauss_box(m.real, points=901))
    got = gaussian_hermite_overlap(spec, n_idx, m_idx)
    overlap_err = abs(got - want) / abs(want)
    overlap_ok = overlap_err <= 1e-6
    _report(6, "Hermite engine", max(worst_gf, worst_block, overlap_err), 1e-6,
            passed=(gf_ok and block_ok and overlap_ok))


def test_criterion_07_cats():
    norm_defect = 0.0
    for parity in ("even", "odd"):
        c = CatState([0.9, 0.7], parity)
        total = 0.0
        for _, probs in c.photon_shells(49):  # each shell's outcomes (n1, t - n1), n1 rising
            for p in probs.tolist():
                total += p
        norm_defect = max(norm_defect, abs(total - 1.0))
    norm_ok = norm_defect <= 1e-9

    mandel_ok = all(
        cat_moments(CatState([math.sqrt(a2)], "even")).mandel_q[0] > 0
        and cat_moments(CatState([math.sqrt(a2)], "odd")).mandel_q[0] < 0
        for a2 in (0.25, 1.0, 4.0))

    c = CatState([1.0, 1.0], "even")
    joint, marg1, marg2 = {}, {}, {}
    for indices, probs in c.photon_shells(59):
        for idx, p in zip(map(tuple, indices.tolist()), probs.tolist()):
            joint[idx] = p
            marg1[idx[0]] = marg1.get(idx[0], 0.0) + p
            marg2[idx[1]] = marg2.get(idx[1], 0.0) + p
    coupling_margin = abs(joint[(1, 1)] - marg1[1] * marg2[1])
    coupling_ok = coupling_margin >= 1e-3

    wigner_origin = wigner_eval(CatState([1.2], "odd"), [0.0, 0.0])
    negativity_ok = wigner_origin < 0.0
    _report(7, "cat statistics", norm_defect, 1e-9,
            passed=(norm_ok and mandel_ok and coupling_ok and negativity_ok))


def test_criterion_08_tomography_round_trip():
    start = time.monotonic()
    x_grid = np.linspace(-12.0, 12.0, 257)
    thetas = np.arange(180) * math.pi / 180

    cases = []
    for state in (make_coherent(0.0), make_squeezed_vacuum(1.0)):
        cases.append((gaussian_sinogram(state, thetas, x_grid), state))
    alpha = 1.2
    cat_rows = [cat_marginal(alpha, "even", theta, x_grid) for theta in thetas]
    cases.append((Sinogram(thetas, x_grid, cat_rows), CatState([alpha], "even")))

    worst = 0.0
    for sino, state in cases:
        rec = inverse_radon(sino, x_grid, x_grid, reg_s=1e-2)
        truth = wigner_grid_from_callable(
            lambda q, p: wigner_eval(state, np.stack([p, q], axis=-1)), x_grid, x_grid)
        worst = max(worst, np.abs(rec.values - truth.values).max()
                    / np.abs(truth.values).max())
    elapsed = time.monotonic() - start
    _report(8, "tomography round trip", worst, 0.02,
            passed=(worst <= 0.02 and elapsed <= 120.0))


def test_criterion_09_coherent_evolution():
    alpha = 1.1 - 0.6j
    state = make_coherent(alpha)
    flow = integrate_symplectic_flow(harmonic_oscillator(), 2 * math.pi, tol=1e-11)
    mu0 = validate_state(state).purity
    worst_mean, worst_purity = 0.0, 0.0
    for t in np.linspace(0.0, 2 * math.pi, 13):
        st = evolve_gaussian(state, flow.at(t))
        want = make_coherent(alpha * np.exp(-1j * t))
        worst_mean = max(worst_mean, np.abs(st.mean - want.mean).max())
        worst_purity = max(worst_purity, abs(validate_state(st).purity - mu0))
    _report(9, "coherent-state rotation", max(worst_mean, worst_purity), 1e-9)


def test_criterion_10_thermal_limit():
    state = make_thermal_oscillator(0.01, 1.0)
    qs = np.linspace(-3.0, 3.0, 25)
    ps = np.linspace(-3.0, 3.0, 25)
    worst = 0.0
    for q in qs:
        beta = (q + 1j * ps) / math.sqrt(2)
        got = q_eval(state, beta[:, np.newaxis])
        want = np.exp(-(ps * ps + q * q) / 2.0)
        worst = max(worst, np.abs(got - want).max())
    _report(10, "thermal zero-temperature limit", worst, 1e-6)


def test_criterion_11_cli_determinism(tmp_path):
    jobs = [
        ("pnd", {"state": {"kind": "squeezed_vacuum", "r": 1.0}}),
        ("wigner", {"state": {"kind": "cat", "A": [[1.5, 0.0]], "parity": "odd"},
                    "grid": {"q": {"min": -4, "max": 4, "num": 33},
                             "p": {"min": -4, "max": 4, "num": 33}}}),
        ("epsilon", {"profile": {"expression": "1 + 0.2*sin(t)"}, "t_end": 5.0}),
    ]
    identical = True
    for command, config in jobs:
        cfg = parse_config(json.dumps(config), command)
        dirs = []
        for run in (1, 2):
            out = tmp_path / f"{command}-{run}"
            write_output(execute_job(cfg), out)
            dirs.append(out)
        for path in sorted(dirs[0].iterdir()):
            identical &= path.read_bytes() == (dirs[1] / path.name).read_bytes()
    _report(11, "CLI determinism", 0.0 if identical else 1.0, 0.5, passed=identical)
