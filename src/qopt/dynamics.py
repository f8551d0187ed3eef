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

This flow is the one engine: `flow_expm` samples it exactly for a constant
H, `integrate_symplectic_flow` integrates it otherwise, and everything else
is read from a sample.  In the (a_1..a_N, a_1^dag..a_N^dag) basis the pair
(M, N) = (U^dag Lam U, U^dag Delta) solves dM/dt = M sigma D(t),
dN/dt = M sigma E(t).  For one mode the position propagator is the Van Vleck
kernel of the q-block of Lam^{-1}, and the classical solution eps(t) of
`qopt.parametric` is the q-row of Lam^{-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CausticError, NonFiniteError
from .gaussian import GaussianState
from .matrices import check_symmetric, quadrature_rotation, symplectic_metric

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

    def __init__(self, ts, lams, deltas, tol, interpolant):
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

    def evaluate(self, t):
        """(Lam, Delta) at one time or an array of times, from the dense interpolant."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.ts[0]) or np.any(t > self.ts[-1] + 1e-12):
            raise ValueError(f"t={t} outside integrated range [{self.ts[0]}, {self.ts[-1]}]")
        dim = 2 * self.n_modes
        y = np.moveaxis(self._interpolant(np.minimum(t, self.ts[-1])), 0, -1)
        return y[..., :dim * dim].reshape(t.shape + (dim, dim)), y[..., dim * dim:]

    def at(self, t: float) -> FlowSample:
        return FlowSample(float(t), *self.evaluate(t))

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


def hamiltonian_to_creation_annihilation(hamiltonian: QuadraticHamiltonian):
    """Constant (D, E) with H = 1/2 A.D.A + E.A in the (a, a^dag) ordering."""
    if not hamiltonian.is_constant:
        raise ValueError("only constant Hamiltonians convert to constant (D, E)")
    u = quadrature_rotation(hamiltonian.n_modes)
    d = u.T @ hamiltonian.b_matrix(0.0) @ u
    e = u.T @ hamiltonian.c_vector(0.0)
    return 0.5 * (d + d.T), e


def flow_to_creation_annihilation(sample: FlowSample) -> tuple[np.ndarray, np.ndarray]:
    """(M, N) = (U^dag Lam U, U^dag Delta): the flow sample in the (a, a^dag) basis.

    The pair solves dM/dt = M sigma D(t), dN/dt = M sigma E(t) from (I, 0),
    with (D, E) the Hamiltonian in that basis.
    """
    u = quadrature_rotation(sample.lam.shape[0] // 2)
    u_dag = u.conj().T
    return u_dag @ sample.lam @ u, u_dag @ sample.delta


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
    """Push a Gaussian state along a flow: W(Q, t) = W_0(Lam Q + Delta).  A flow sample
    or result that is not finite, or a singular Lam, raises ``NonFiniteError`` naming t."""
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
    try:
        mean = np.linalg.solve(lam, state.mean - delta)
        inner = np.linalg.solve(lam, state.disp)
        disp = np.linalg.solve(lam, inner.T).T
    except np.linalg.LinAlgError as exc:
        raise NonFiniteError(f"flow sample at t={sample.t} is singular to working precision: "
                             f"{exc}") from exc
    if not all(np.isfinite(a).all() for a in (lam, delta, mean, disp)):
        raise NonFiniteError(f"flow sample or evolved state at t={sample.t} is not finite")
    return GaussianState(mean, 0.5 * (disp + disp.T))


def _kernel_flow(hamiltonian: QuadraticHamiltonian, t: float):
    """Lam(t) and the Maslov count of a constant one-mode H with C = 0, B_pp > 0."""
    if not hamiltonian.is_constant:
        raise ValueError("the position propagator needs a time-independent Hamiltonian")
    if hamiltonian.n_modes != 1:
        raise ValueError("the position propagator is implemented for one mode")
    if np.any(hamiltonian.c_vector(0.0) != 0.0):
        raise ValueError("the position propagator needs C = 0")
    b = hamiltonian.b_matrix(0.0)
    if not b[0, 0] > 0:
        raise ValueError("the position propagator needs B_pp > 0")
    if t <= 0:
        raise ValueError("t must be positive")
    det_b = float(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0])
    maslov = 0
    if det_b > 0:
        # the q-block of Lam^{-1} is B_pp sin(wt)/w, which vanishes at the foci wt = k pi
        wt = math.sqrt(det_b) * t
        if abs(math.sin(wt)) < _CAUSTIC_GUARD:
            raise CausticError(f"wt={wt} is within the guard band of a focal time k*pi")
        maslov = math.floor(wt / math.pi)
    return flow_expm(hamiltonian, t).lam, maslov


def propagator_position(hamiltonian: QuadraticHamiltonian, q, qp, t: float):
    """Position-space amplitude <q| exp(-iHt) |q'> of a constant one-mode H.

    With Lam^{-1} = [[d, .], [b, a]] in (p, q) order (a = l00, b = -l10,
    d = l11), the Van Vleck kernel is
    (2 pi |b|)^{-1/2} exp(-i(pi/4 + k pi/2)) exp(i(d q^2 - 2 q q' + a q'^2) / 2b),
    where k counts the foci passed, floor(wt/pi) with w = sqrt(det B) when
    det B > 0 and 0 otherwise.  Needs C = 0 and B_pp > 0; inside the guard
    band |sin wt| < 1e-8 of a focus it raises CausticError.
    """
    lam, maslov = _kernel_flow(hamiltonian, t)
    a, b, d = lam[0, 0], -lam[1, 0], lam[1, 1]
    q = np.asarray(q, dtype=float)
    qp = np.asarray(qp, dtype=float)
    amp = ((2.0 * math.pi * abs(b)) ** -0.5
           * np.exp(-1j * (0.25 * math.pi + 0.5 * math.pi * maslov)))
    out = amp * np.exp(0.5j * (d * q * q - 2.0 * q * qp + a * qp * qp) / b)
    return out if out.ndim else complex(out)


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


def invariant_residual_check(hamiltonian: QuadraticHamiltonian, q_values, qp_values, t: float,
                             step: float = 1e-3) -> ResidualReport:
    """Check the evaluated propagator against its defining invariant equations.

    The conserved combinations Lam_p.(p, q) and Lam_q.(p, q), with p = -i d/dq
    applied by central finite differences to the q argument of G, must
    reproduce i dG/dq' and q' G.
    """
    q = np.asarray(q_values, dtype=float).reshape(-1, 1)
    qp = np.asarray(qp_values, dtype=float).reshape(1, -1)
    lam, _ = _kernel_flow(hamiltonian, t)

    def g(qq, qqp):
        return propagator_position(hamiltonian, qq, qqp, t)

    center = g(q, qp)
    dq = (g(q + step, qp) - g(q - step, qp)) / (2.0 * step)
    dqp = (g(q, qp + step) - g(q, qp - step)) / (2.0 * step)
    momentum_lhs = -1j * lam[0, 0] * dq + lam[0, 1] * q * center
    position_lhs = -1j * lam[1, 0] * dq + lam[1, 1] * q * center
    momentum_res = np.abs(momentum_lhs - 1j * dqp).max()
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
