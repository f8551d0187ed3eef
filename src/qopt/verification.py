"""Built-in invariant suite behind the ``qopt verify`` command.

Each check recomputes a structural identity of the library at desk scale and
reports the measured defect against its tolerance.  Everything is seeded and
deterministic, so repeated runs emit identical reports.
"""

from __future__ import annotations

import math

import numpy as np

from .cats import CatState, cat_moments
from .dynamics import (QuadraticHamiltonian, _expm, free_particle, harmonic_oscillator,
                       integrate_symplectic_flow, symplectic_defect)
from .gaussian import (GaussianState, from_qrep, make_coherent, make_thermal_oscillator,
                       photon_pnd, q_eval, to_qrep, wigner_eval)
from .hermite import HermiteParams, mv_hermite_eval
from .matrices import symplectic_metric
from .parametric import (preset_profile, solve_epsilon, squeezed_vacuum_pnd,
                         tabulated_profile, to_gaussian_state, wronskian_defect)
from .tomography import gaussian_sinogram, inverse_radon, wigner_grid_from_callable


def _check(name, measured, tolerance):
    return {"name": name, "measured": float(measured), "tolerance": float(tolerance),
            "passed": bool(measured <= tolerance)}


def _hermite_block_factorization():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(4):
        r1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        r2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        r1, r2 = r1 + r1.T, r2 + r2.T
        y = rng.normal(size=4) + 1j * rng.normal(size=4)
        full = np.zeros((4, 4), dtype=complex)
        full[:2, :2], full[2:, 2:] = r1, r2
        idx = tuple(rng.integers(0, 3, size=4))
        joint = mv_hermite_eval(HermiteParams(full, y), idx)
        split = (mv_hermite_eval(HermiteParams(r1, y[:2]), idx[:2])
                 * mv_hermite_eval(HermiteParams(r2, y[2:]), idx[2:]))
        scale = max(1.0, abs(split))
        worst = max(worst, abs(joint - split) / scale)
    return _check("hermite_block_factorization", worst, 1e-10)


def _coherent_poisson():
    alpha = 1.5
    state = make_coherent(alpha)
    worst = 0.0
    for n in range(13):
        want = math.exp(-alpha ** 2) * alpha ** (2 * n) / math.factorial(n)
        worst = max(worst, abs(photon_pnd(state, [n]) - want))
    return _check("coherent_poisson_reduction", worst, 1e-10)


def _qrep_round_trip():
    rng = np.random.default_rng(11)
    b = 0.3 * rng.normal(size=(4, 4))
    sympl = _expm(symplectic_metric(2) @ (b + b.T))
    disp = sympl @ np.diag([0.6, 0.9, 0.6, 0.9]) @ sympl.T
    state = GaussianState(rng.normal(size=4) * 0.5, disp)
    back = from_qrep(to_qrep(state))
    worst = max(np.abs(back.mean - state.mean).max(),
                np.abs(back.disp - state.disp).max())
    return _check("qrep_round_trip", worst, 1e-10)


def _thermal_q_function():
    temperature, omega = 1.0, 1.0
    state = make_thermal_oscillator(temperature, omega)
    x = omega / temperature
    worst = 0.0
    for q, p in [(0.0, 0.0), (0.9, -0.4), (1.8, 1.1)]:
        beta = (q + 1j * p) / math.sqrt(2)
        want = (2 * math.sinh(x / 2) * math.exp(-x / 2)
                * math.exp(-0.5 * (q * q + p * p) * (1 - math.exp(-x))))
        worst = max(worst, abs(q_eval(state, [beta]) - want))
    return _check("thermal_q_closed_form", worst, 1e-9)


def _symplectic_defect():
    flow = integrate_symplectic_flow(harmonic_oscillator(), 20.0, tol=1e-9)
    return _check("symplectic_defect_oscillator", symplectic_defect(flow.lams), 1e-7)


def _constant_flow():
    # the one exact step of a constant H against the closed-form exp of the generator
    # [[M, Sigma C], [0, 0]]: M = Sigma B is traceless, so M^2 = r^2 I with r^2 = -det M, and
    # exp(M) = cosh r I + (sinh r / r) M, Delta = ((sinh r / r) I + ((cosh r - 1) / r^2) M) Sigma C
    rng = np.random.default_rng(21)
    b = 0.4 * rng.normal(size=(2, 2))
    ham = QuadraticHamiltonian(b + b.T + np.eye(2), rng.normal(size=2), 1)
    m = symplectic_metric(1) @ ham.b_matrix(0.0)
    r = np.sqrt(complex(-np.linalg.det(m)))
    sinhc, coshc = np.sinh(r) / r, (np.cosh(r) - 1.0) / (r * r)
    lam = (np.cosh(r) * np.eye(2) + sinhc * m).real
    delta = ((sinhc * np.eye(2) + coshc * m) @ symplectic_metric(1) @ ham.c_vector(0.0)).real
    sample = integrate_symplectic_flow(ham, 1.0, tol=1e-11).at(1.0)
    worst = max(np.abs(sample.lam - lam).max(), np.abs(sample.delta - delta).max())
    return _check("flow_expm_vs_ode", worst, 1e-9)


def _wronskian():
    profile = tabulated_profile([[0.0, 1.0], [6.0, 0.7], [13.0, 1.3], [20.0, 0.9]])
    return _check("wronskian_conservation",
                  wronskian_defect(solve_epsilon(profile, 20.0, tol=1e-9)), 1e-7)


def _parametric_cross_module():
    flow = solve_epsilon(preset_profile("repulsive"), 2.0, tol=1e-11)
    worst = 0.0
    for n in range(10):
        direct = squeezed_vacuum_pnd(flow, 1.5, n)
        via_gaussian = photon_pnd(to_gaussian_state(flow, 1.5), [n])
        worst = max(worst, abs(direct - via_gaussian))
    return _check("squeezed_pnd_cross_module", worst, 1e-9)


def _free_flow_anchor():
    flow = integrate_symplectic_flow(free_particle(), 2.0, tol=1e-10)
    lam = flow.at(2.0).lam
    worst = np.abs(lam - np.array([[1.0, 0.0], [-2.0, 1.0]])).max()
    return _check("free_particle_flow", worst, 1e-9)


def _cat_statistics():
    cat = CatState([1.0], "even")
    total = sum(p for _, probs in cat.photon_shells(78) for p in probs.tolist())
    norm_defect = abs(total - 1.0)
    even_q = cat_moments(CatState([1.0], "even")).mandel_q[0]
    odd_q = cat_moments(CatState([1.0], "odd")).mandel_q[0]
    sign_defect = 0.0 if (even_q > 0 and odd_q < 0) else 1.0
    return _check("cat_normalization_and_mandel", max(norm_defect, sign_defect), 1e-9)


def _tomography_round_trip():
    state = make_coherent(0.8)
    x = np.linspace(-10.0, 10.0, 129)
    thetas = np.arange(90) * math.pi / 90
    sino = gaussian_sinogram(state, thetas, x)
    rec = inverse_radon(sino, x, x, reg_s=1e-2)
    truth = wigner_grid_from_callable(
        lambda q, p: wigner_eval(state, np.stack([p, q], axis=-1)), x, x)
    err = np.abs(rec.values - truth.values).max() / np.abs(truth.values).max()
    return _check("tomography_round_trip", err, 0.02)


def run_verification() -> list[dict]:
    """All invariant checks, in a fixed order."""
    return [
        _hermite_block_factorization(),
        _coherent_poisson(),
        _qrep_round_trip(),
        _thermal_q_function(),
        _free_flow_anchor(),
        _symplectic_defect(),
        _constant_flow(),
        _wronskian(),
        _parametric_cross_module(),
        _cat_statistics(),
        _tomography_round_trip(),
    ]
