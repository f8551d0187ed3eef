"""Linear flows of quadratic Hamiltonians, Gaussian evolution, and propagators.

For H = 1/2 Q.B(t).Q + C(t).Q with Q = (p_1..p_N, q_1..q_N), the operators
Q_0(t) = Lam(t) Q + Delta(t) stay constant in time when

    dLam/dt = Lam Sigma B(t),   Lam(0) = I,
    dDelta/dt = Lam Sigma C(t), Delta(0) = 0,

with Sigma the symplectic metric.  Lam(t) is symplectic up to integrator
error; the defect is monitored, never corrected, so it remains an honest
accuracy indicator.  A Wigner density evolves by plain argument substitution
W(Q, t) = W_0(Lam Q + Delta), which for Gaussian states is the pushforward

    mean' = Lam^{-1} (mean_0 - Delta),   M' = Lam^{-1} M_0 Lam^{-T}.

The same machinery in the (a_1..a_N, a_1^dag..a_N^dag) basis integrates the
complex pair (M(t), N(t)) of dM/dt = M sigma D(t), dN/dt = M sigma E(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CausticError
from .gaussian import GaussianState
from .matrices import check_symmetric, complex_structure, quadrature_rotation, symplectic_metric

_CAUSTIC_GUARD = 1e-8


def _as_time_callable(obj, shape, name):
    if callable(obj):
        probe = np.asarray(obj(0.0), dtype=float)
        if probe.shape != shape:
            raise ValueError(f"{name}(t) returns shape {probe.shape}, expected {shape}")
        return obj
    arr = np.asarray(obj, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    return lambda t, _arr=arr: _arr


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H = 1/2 Q.B(t).Q + C(t).Q; B and C may be constants or callables of t.

    ``is_constant`` is true when both were given as arrays, never for a callable.
    """

    b_matrix: Callable[[float], np.ndarray]
    c_vector: Callable[[float], np.ndarray]
    n_modes: int
    is_constant: bool = field(init=False)

    def __post_init__(self):
        dim = 2 * self.n_modes
        object.__setattr__(self, "is_constant",
                           not (callable(self.b_matrix) or callable(self.c_vector)))
        b = _as_time_callable(self.b_matrix, (dim, dim), "B")
        c = _as_time_callable(self.c_vector, (dim,), "C")
        check_symmetric(np.asarray(b(0.0)), tol=1e-10, name="B(0)")
        object.__setattr__(self, "b_matrix", b)
        object.__setattr__(self, "c_vector", c)


def free_particle(mass: float = 1.0) -> QuadraticHamiltonian:
    """H = p^2 / 2m."""
    return QuadraticHamiltonian(np.diag([1.0 / mass, 0.0]), np.zeros(2), 1)


def harmonic_oscillator(mass: float = 1.0, omega: float = 1.0) -> QuadraticHamiltonian:
    """H = p^2 / 2m + m w^2 q^2 / 2."""
    return QuadraticHamiltonian(np.diag([1.0 / mass, mass * omega ** 2]), np.zeros(2), 1)


def parametric_oscillator(omega_squared: Callable[[float], float],
                          mass: float = 1.0) -> QuadraticHamiltonian:
    """Oscillator with time-dependent frequency, H = p^2/2m + m w^2(t) q^2 / 2."""
    def b(t):
        return np.diag([1.0 / mass, mass * float(omega_squared(t))])
    return QuadraticHamiltonian(b, np.zeros(2), 1)


@dataclass(frozen=True)
class FlowSample:
    """One time slice (t, Lam, Delta) of a symplectic flow."""

    t: float
    lam: np.ndarray
    delta: np.ndarray

    def symplectic_defect(self) -> float:
        n = self.lam.shape[0] // 2
        sigma = symplectic_metric(n)
        return float(np.abs(self.lam @ sigma @ self.lam.T - sigma).max())


class SymplecticFlow:
    """Integrated flow samples (t, Lam(t), Delta(t)) with dense evaluation."""

    def __init__(self, ts, lams, deltas, tol, interpolant=None):
        self.ts = np.array(ts, dtype=float)
        self.lams = np.array(lams, dtype=float)
        self.deltas = np.array(deltas, dtype=float)
        self.tol = float(tol)
        self._interpolant = interpolant
        self.n_modes = self.lams.shape[-1] // 2
        for arr in (self.ts, self.lams, self.deltas):
            arr.flags.writeable = False

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def at(self, t: float) -> FlowSample:
        if not self.ts[0] <= t <= self.ts[-1] + 1e-12:
            raise ValueError(f"t={t} outside integrated range [{self.ts[0]}, {self.ts[-1]}]")
        dim = 2 * self.n_modes
        if self._interpolant is not None:
            y = self._interpolant(min(t, self.ts[-1]))
        else:
            i = int(np.searchsorted(self.ts, t))
            if not math.isclose(self.ts[min(i, len(self.ts) - 1)], t, abs_tol=1e-12):
                raise ValueError(f"t={t} not among stored samples and no interpolant")
            y = np.concatenate([self.lams[i].ravel(), self.deltas[i]])
        return FlowSample(float(t), y[:dim * dim].reshape(dim, dim), y[dim * dim:])

    def max_symplectic_defect(self) -> float:
        n = self.n_modes
        sigma = symplectic_metric(n)
        prods = np.einsum("tij,jk,tlk->til", self.lams, sigma, self.lams)
        return float(np.abs(prods - sigma).max())


def integrate_symplectic_flow(hamiltonian: QuadraticHamiltonian, t_end: float,
                              tol: float = 1e-9) -> SymplecticFlow:
    """Solve the flow equations for (Lam, Delta) up to t_end with adaptive error tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    dim = 2 * hamiltonian.n_modes
    sigma = symplectic_metric(hamiltonian.n_modes)

    def rhs(t, y):
        lam = y[:dim * dim].reshape(dim, dim)
        lam_sigma = lam @ sigma
        dlam = lam_sigma @ hamiltonian.b_matrix(t)
        ddelta = lam_sigma @ hamiltonian.c_vector(t)
        return np.concatenate([dlam.ravel(), ddelta])

    # imported on first use: scipy.integrate would otherwise dominate `import qopt`
    from scipy.integrate import solve_ivp

    y0 = np.concatenate([np.eye(dim).ravel(), np.zeros(dim)])
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=tol, atol=tol * 1e-2,
                    dense_output=True)
    if not sol.success:
        raise RuntimeError(f"flow integration failed: {sol.message}")
    lams = sol.y[:dim * dim].T.reshape(-1, dim, dim)
    deltas = sol.y[dim * dim:].T
    return SymplecticFlow(sol.t, lams, deltas, tol, interpolant=sol.sol)


class ComplexFlow:
    """Samples (t, M(t), N(t)) of the flow in the creation/annihilation basis."""

    def __init__(self, ts, ms, ns, tol, interpolant=None):
        self.ts = np.asarray(ts, dtype=float)
        self.ms = np.asarray(ms, dtype=complex)
        self.ns = np.asarray(ns, dtype=complex)
        self.tol = float(tol)
        self._interpolant = interpolant
        self.n_modes = self.ms.shape[-1] // 2

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        if not self.ts[0] <= t <= self.ts[-1] + 1e-12:
            raise ValueError(f"t={t} outside integrated range [{self.ts[0]}, {self.ts[-1]}]")
        dim = 2 * self.n_modes
        y = self._interpolant(min(t, self.ts[-1]))
        return y[:dim * dim].reshape(dim, dim), y[dim * dim:]


def integrate_complex_flow(d_matrix, e_vector, t_end: float, tol: float = 1e-9,
                           n_modes: int | None = None) -> ComplexFlow:
    """Solve dM/dt = M sigma D(t), dN/dt = M sigma E(t) from (I, 0)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n_modes is None:
        probe = np.asarray(d_matrix(0.0) if callable(d_matrix) else d_matrix)
        n_modes = probe.shape[0] // 2
    dim = 2 * n_modes
    d_fn = d_matrix if callable(d_matrix) else (lambda t, _a=np.asarray(d_matrix, dtype=complex): _a)
    e_fn = e_vector if callable(e_vector) else (lambda t, _a=np.asarray(e_vector, dtype=complex): _a)
    sigma = complex_structure(n_modes)

    def rhs(t, y):
        m = y[:dim * dim].reshape(dim, dim)
        m_sigma = m @ sigma
        return np.concatenate([(m_sigma @ np.asarray(d_fn(t), dtype=complex)).ravel(),
                               m_sigma @ np.asarray(e_fn(t), dtype=complex)])

    from scipy.integrate import solve_ivp

    y0 = np.concatenate([np.eye(dim, dtype=complex).ravel(), np.zeros(dim, dtype=complex)])
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=tol, atol=tol * 1e-2,
                    dense_output=True)
    if not sol.success:
        raise RuntimeError(f"flow integration failed: {sol.message}")
    ms = sol.y[:dim * dim].T.reshape(-1, dim, dim)
    return ComplexFlow(sol.t, ms, sol.y[dim * dim:].T, tol, interpolant=sol.sol)


def hamiltonian_to_creation_annihilation(hamiltonian: QuadraticHamiltonian):
    """Constant (D, E) with H = 1/2 A.D.A + E.A in the (a, a^dag) ordering."""
    if not hamiltonian.is_constant:
        raise ValueError("only constant Hamiltonians convert to constant (D, E)")
    u = quadrature_rotation(hamiltonian.n_modes)
    d = u.T @ hamiltonian.b_matrix(0.0) @ u
    e = u.T @ hamiltonian.c_vector(0.0)
    return 0.5 * (d + d.T), e


def flow_expm(hamiltonian: QuadraticHamiltonian, t: float) -> FlowSample:
    """Closed-form flow sample for constant B, C via one matrix exponential.

    Lam(t) = exp(Sigma B t) and Delta(t) = int_0^t exp(Sigma B u) Sigma C du
    come out of the single augmented exponential exp(t [[Sigma B, Sigma C], [0, 0]]).
    """
    if not hamiltonian.is_constant:
        raise ValueError("flow_expm requires a time-independent Hamiltonian")
    dim = 2 * hamiltonian.n_modes
    sigma = symplectic_metric(hamiltonian.n_modes)
    gen = np.zeros((dim + 1, dim + 1))
    gen[:dim, :dim] = sigma @ hamiltonian.b_matrix(0.0)
    gen[:dim, dim] = sigma @ hamiltonian.c_vector(0.0)
    from scipy.linalg import expm

    block = expm(gen * t)
    return FlowSample(float(t), block[:dim, :dim], block[:dim, dim])


def evolve_gaussian(state: GaussianState, flow, t: float | None = None) -> GaussianState:
    """Push a Gaussian state along a flow: W(Q, t) = W_0(Lam Q + Delta)."""
    if isinstance(flow, SymplecticFlow):
        if t is None:
            raise ValueError("t is required when evolving along a SymplecticFlow")
        sample = flow.at(t)
    elif isinstance(flow, FlowSample):
        sample = flow
        if t is not None and not math.isclose(t, sample.t, abs_tol=1e-12):
            raise ValueError(f"sample is at t={sample.t}, not t={t}")
    else:
        raise TypeError(f"cannot evolve along {type(flow).__name__}")
    lam, delta = sample.lam, sample.delta
    mean = np.linalg.solve(lam, state.mean - delta)
    inner = np.linalg.solve(lam, state.disp)
    disp = np.linalg.solve(lam, inner.T).T
    return GaussianState(mean, 0.5 * (disp + disp.T))


@dataclass(frozen=True)
class FreeSystem:
    """Free particle of the given mass (hbar = 1)."""

    mass: float = 1.0


@dataclass(frozen=True)
class OscillatorSystem:
    """Harmonic oscillator of the given mass and frequency (hbar = 1)."""

    mass: float = 1.0
    omega: float = 1.0


def free_propagator(q, qp, t: float, mass: float = 1.0):
    """Position-space amplitude <q| exp(-iHt) |q'> for H = p^2/2m."""
    if t <= 0:
        raise ValueError("t must be positive")
    q = np.asarray(q, dtype=float)
    qp = np.asarray(qp, dtype=float)
    amp = math.sqrt(mass / (2.0 * math.pi * t)) * np.exp(-0.25j * math.pi)
    out = amp * np.exp(0.5j * mass * (q - qp) ** 2 / t)
    return out if out.ndim else complex(out)


def oscillator_propagator(q, qp, t: float, mass: float = 1.0, omega: float = 1.0):
    """Position-space oscillator amplitude with continuous branch across foci.

    Each passage through sin(wt) = 0 contributes a quarter-turn phase; the
    amplitude at wt in (k pi, (k+1) pi) is
    sqrt(mw / (2 pi |sin wt|)) exp(-i pi/4 - i k pi/2).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    wt = omega * t
    sin_wt = math.sin(wt)
    if abs(sin_wt) < _CAUSTIC_GUARD:
        raise CausticError(f"wt={wt} is within the guard band of a focal time k*pi")
    q = np.asarray(q, dtype=float)
    qp = np.asarray(qp, dtype=float)
    k = math.floor(wt / math.pi)
    amp = (math.sqrt(mass * omega / (2.0 * math.pi * abs(sin_wt)))
           * np.exp(-1j * (0.25 * math.pi + 0.5 * math.pi * k)))
    phase = 0.5 * mass * omega * ((q * q + qp * qp) / math.tan(wt) - 2.0 * q * qp / sin_wt)
    out = amp * np.exp(1j * phase)
    return out if out.ndim else complex(out)


def propagator_position(system, q, qp, t: float):
    """Dispatch the closed-form position propagator for a FreeSystem or OscillatorSystem."""
    if isinstance(system, FreeSystem):
        return free_propagator(q, qp, t, mass=system.mass)
    if isinstance(system, OscillatorSystem):
        return oscillator_propagator(q, qp, t, mass=system.mass, omega=system.omega)
    raise TypeError(f"no closed-form propagator for {type(system).__name__}")


def coherent_basis_propagator(alpha: complex, beta: complex, omega: float, t: float) -> complex:
    """<alpha| exp(-iHt) |beta> for the oscillator, H = w(n + 1/2)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return complex(np.exp(-0.5j * omega * t)
                   * np.exp(-0.5 * abs(alpha) ** 2 - 0.5 * abs(beta) ** 2
                            + np.conj(alpha) * beta * np.exp(-1j * omega * t)))


def fock_basis_propagator(n: int, m: int, omega: float, t: float) -> complex:
    """<n| exp(-iHt) |m> for the oscillator: diagonal phases."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if n != m:
        return 0j
    return complex(np.exp(-1j * omega * t * (n + 0.5)))


@dataclass(frozen=True)
class ResidualReport:
    """Max absolute residuals of the two invariant equations on a grid."""

    momentum_residual: float
    position_residual: float


def invariant_residual_check(system, q_values, qp_values, t: float,
                             step: float = 1e-3) -> ResidualReport:
    """Check the evaluated propagator against its defining invariant equations.

    The conserved momentum/position combinations applied (by central finite
    differences) to the q argument of G must reproduce i dG/dq' and q' G.
    """
    q = np.asarray(q_values, dtype=float).reshape(-1, 1)
    qp = np.asarray(qp_values, dtype=float).reshape(1, -1)

    def g(qq, qqp):
        return propagator_position(system, qq, qqp, t)

    dq = (g(q + step, qp) - g(q - step, qp)) / (2.0 * step)
    dqp = (g(q, qp + step) - g(q, qp - step)) / (2.0 * step)
    center = g(q, qp)

    if isinstance(system, FreeSystem):
        cos_wt, sin_wt, m_omega = 1.0, 0.0, 1.0  # sin wt / (m w) -> t/m as w -> 0
        sin_over_momega = t / system.mass
        mw_sin = 0.0
    elif isinstance(system, OscillatorSystem):
        wt = system.omega * t
        cos_wt, sin_wt = math.cos(wt), math.sin(wt)
        sin_over_momega = sin_wt / (system.mass * system.omega)
        mw_sin = system.mass * system.omega * sin_wt
    else:
        raise TypeError(f"no invariant equations for {type(system).__name__}")

    momentum_lhs = -1j * cos_wt * dq + mw_sin * q * center
    momentum_res = np.abs(momentum_lhs - 1j * dqp).max()
    position_lhs = 1j * sin_over_momega * dq + cos_wt * q * center
    position_res = np.abs(position_lhs - qp * center).max()
    return ResidualReport(float(momentum_res), float(position_res))


def hamiltonian_from_dict(doc: dict) -> QuadraticHamiltonian:
    """Build a Hamiltonian from {preset: free|oscillator, ...} or {B: .., C: ..}."""
    if "preset" in doc:
        preset = doc["preset"]
        if preset == "free":
            return free_particle(mass=float(doc.get("mass", 1.0)))
        if preset == "oscillator":
            return harmonic_oscillator(mass=float(doc.get("mass", 1.0)),
                                       omega=float(doc.get("omega", 1.0)))
        raise ValueError(f"unknown Hamiltonian preset {preset!r}")
    if "B" in doc:
        b = np.asarray(doc["B"], dtype=float)
        c = np.asarray(doc.get("C", np.zeros(b.shape[0])), dtype=float)
        return QuadraticHamiltonian(b, c, b.shape[0] // 2)
    raise ValueError("Hamiltonian document needs either 'preset' or 'B'")
