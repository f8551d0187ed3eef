"""Linear flows of quadratic Hamiltonians, Gaussian evolution, and propagators.

For H = 1/2 Q.B(t).Q + C(t).Q with Q = (p_1..p_N, q_1..q_N) and B, C constants or callables
of an array of times, the operators Q_0(t) = Lam(t) Q + Delta(t) stay constant in time when

    dLam/dt = Lam Sigma B(t),   Lam(0) = I,
    dDelta/dt = Lam Sigma C(t), Delta(0) = 0,

with Sigma the symplectic metric.  Every flow sample comes from one engine, a fourth-order
Magnus step: the exponential of a symplectic generator, so Lam(t) is symplectic to round-off
and only the steps' error estimates measure accuracy.  `integrate_symplectic_flow` chains
steps under error control, evaluating H once per trial step, on one stack of its 5 new nodes;
a constant H takes one exact step.  The flow keeps its samples, not H's generators.
A Wigner density evolves by plain argument substitution W(Q, t) = W_0(Lam Q + Delta), which
for Gaussian states is the pushforward

    mean' = Lam^{-1} (mean_0 - Delta),   M' = Lam^{-1} M_0 Lam^{-T},

with Lam^{-1} = -Sigma Lam^T Sigma.  In the (a_1..a_N, a_1^dag..a_N^dag) basis
the pair (M, N) = (U^dag Lam U, U^dag Delta) solves dM/dt = M sigma D(t),
dN/dt = M sigma E(t).  For one mode, eps(t) of `qopt.parametric` is the q-row of
Lam^{-1} (`SymplecticFlow.eps`) and the position propagator the Van Vleck kernel of its
q-block; both take their square-root branch from one tracker, the continuous
`SymplecticFlow.phase`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CausticError, NonFiniteError, ResourceLimitError
from .gaussian import GaussianState
from .matrices import check_symmetric, quadrature_rotation, symplectic_metric

_CAUSTIC_GUARD = 1e-8


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H = 1/2 Q.B(t).Q + C(t).Q.  B and C are constants, broadcast to any stack of times, or
    callables of a time or an array of times returning the stack (..., 2N, 2N) or (..., 2N);
    a callable that fails on two times at construction raises ``ValueError`` naming B or C."""

    b_matrix: Callable[[np.ndarray], np.ndarray]
    c_vector: Callable[[np.ndarray], np.ndarray]
    n_modes: int

    def __post_init__(self):
        dim = 2 * self.n_modes
        for field, name, shape in (("b_matrix", "B", (dim, dim)), ("c_vector", "C", (dim,))):
            value = getattr(self, field)
            if not callable(value):
                arr = np.asarray(value, dtype=float)
                value = lambda t, _arr=arr: np.broadcast_to(_arr, np.shape(t) + _arr.shape)
                object.__setattr__(self, field, value)
            try:
                probe = np.shape(value(np.zeros(2)))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}(t) must take an array of times: {exc}") from exc
            if probe != (2,) + shape:
                raise ValueError(f"{name} at two times has shape {probe}, expected {(2,) + shape}")
        check_symmetric(self.b_matrix(0.0), tol=1e-10, name="B(0)")


def free_particle(mass: float = 1.0) -> QuadraticHamiltonian:
    """H = p^2 / 2m."""
    return QuadraticHamiltonian(np.diag([1.0 / mass, 0.0]), np.zeros(2), 1)


def harmonic_oscillator(mass: float = 1.0, omega: float = 1.0) -> QuadraticHamiltonian:
    """H = p^2 / 2m + m w^2 q^2 / 2."""
    return QuadraticHamiltonian(np.diag([1.0 / mass, mass * omega ** 2]), np.zeros(2), 1)


def parametric_oscillator(omega_squared: Callable[[np.ndarray], np.ndarray],
                          mass: float = 1.0) -> QuadraticHamiltonian:
    """H = p^2/2m + m w^2(t) q^2 / 2; w^2 takes a time or an array of times, or is constant."""
    def b(t):
        out = np.zeros(np.shape(t) + (2, 2))
        out[..., 0, 0], out[..., 1, 1] = 1.0 / mass, mass * omega_squared(t)
        return out
    return QuadraticHamiltonian(b, np.zeros(2), 1)


@dataclass(frozen=True)
class FlowSample:
    """One time slice (t, Lam, Delta) of a symplectic flow."""

    t: float
    lam: np.ndarray
    delta: np.ndarray


def symplectic_defect(lams) -> float:
    """max |Lam Sigma Lam^T - Sigma| over one matrix Lam or a stack of them."""
    sigma = symplectic_metric(np.shape(lams)[-1] // 2)
    return float(np.abs(lams @ sigma @ np.swapaxes(lams, -1, -2) - sigma).max())


_MAX_TRIAL_STEPS = 25_000  # per solve: 25 times the most any test, example or benchmark flow takes
_MIN_STEP = 1e-12  # relative to max(1, |t|); the smallest step the error control asks for
_ROUND_OFF = 16 * np.finfo(float).eps  # an error estimate below this, times |Lam|, is noise


def _expm(mats: np.ndarray) -> np.ndarray:
    """exp of each matrix in a stack: halve it to 1-norm <= 1/2, sum the Taylor series to
    degree 14 (truncation < 3e-17), and square back; the error stays near 1e-14 where
    scipy's expm leaves up to 1e-12 relative at exponents of norm 3 to 30."""
    flat = mats.reshape((-1,) + mats.shape[-2:])
    halvings = np.maximum(np.frexp(np.abs(flat).sum(axis=-2).max(axis=-1))[1] + 1, 0)
    x = np.ldexp(flat, -halvings[:, np.newaxis, np.newaxis])
    eye = np.eye(x.shape[-1])
    out = eye + x / 14.0
    for k in range(13, 0, -1):
        out = eye + (x @ out) / k
    for j in range(int(halvings.max(initial=0))):
        out[halvings > j] = out[halvings > j] @ out[halvings > j]
    return out.reshape(mats.shape)


def _generators(hamiltonian: QuadraticHamiltonian, times: np.ndarray) -> np.ndarray:
    """Stack of the generators A(s) = [[Sigma B(s), Sigma C(s)], [0, 0]] at ``times``."""
    dim = 2 * hamiltonian.n_modes
    sigma = symplectic_metric(hamiltonian.n_modes)
    gens = np.zeros(times.shape + (dim + 1, dim + 1))
    gens[..., :dim, :dim] = sigma @ hamiltonian.b_matrix(times)
    gens[..., :dim, dim] = hamiltonian.c_vector(times) @ sigma.T
    return gens


def _magnus_exponent(a0, mid, a1, h) -> np.ndarray:
    """Omega of fourth-order Magnus on the Simpson nodes t, t + h/2, t + h of steps h, so B
    is sampled at both ends: h A_mid + h/6 (A_0 - 2 A_mid + A_1) + h^2/12 (A_0 A_1 - A_1 A_0),
    exactly h A for a constant H, the commutator signed for a flow multiplied on the right."""
    hh = h[..., np.newaxis, np.newaxis]
    return (hh * mid + (hh / 6.0) * (a0 - 2.0 * mid + a1)
            + (hh * hh / 12.0) * (a0 @ a1 - a1 @ a0))


def _magnus_step(hamiltonian: QuadraticHamiltonian, t, h) -> np.ndarray:
    """exp(Omega), the propagator [[Lam, Delta], [0, 1]] from t to t + h, for arrays t, h."""
    return _expm(_magnus_exponent(
        *_generators(hamiltonian, t + np.multiply.outer((0.0, 0.5, 1.0), h)), h))


class SymplecticFlow:
    """Flow samples [[Lam, Delta], [0, 1]] of ``hamiltonian`` at the accepted step boundaries
    ``ts``, and the sum ``error_estimate`` of the steps' error estimates.  It holds nothing
    that H gives back: every generator A(s) it reads is evaluated from H."""

    def __init__(self, hamiltonian: QuadraticHamiltonian, ts, samples, error_estimate: float):
        self.hamiltonian = hamiltonian
        self.ts = np.array(ts, dtype=float)
        self._samples = np.array(samples, dtype=float)
        self.error_estimate = float(error_estimate)
        dim = 2 * hamiltonian.n_modes
        self.lams = self._samples[:, :dim, :dim]
        self.deltas = self._samples[:, :dim, dim]
        for arr in (self.ts, self._samples):
            arr.flags.writeable = False

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def _node_generators(self) -> np.ndarray:
        """A(s) at the step boundaries and midpoints, evaluated from H."""
        mids = self.ts[:-1] + 0.5 * np.diff(self.ts)
        return _generators(self.hamiltonian, np.concatenate((self.ts, mids)))

    def evaluate(self, t):
        """(Lam, Delta) at one time or an array of times: the last boundary sample at or
        before t, times one Magnus step to t, so every value is symplectic to round-off."""
        t = np.asarray(t, dtype=float)
        sign = -1.0 if self.t_end < 0 else 1.0
        if np.any(sign * t < 0.0) or np.any(sign * (t - self.t_end) > 1e-12):
            raise ValueError(f"t={t} outside integrated range [{self.ts[0]}, {self.t_end}]")
        t = sign * np.minimum(sign * t, sign * self.t_end)
        i = np.searchsorted(sign * self.ts, sign * t, side="right") - 1
        aug = self._samples[i] @ _magnus_step(self.hamiltonian, self.ts[i], t - self.ts[i])
        dim = 2 * self.hamiltonian.n_modes
        return aug[..., :dim, :dim], aug[..., :dim, dim]

    def at(self, t: float) -> FlowSample:
        return FlowSample(float(t), *self.evaluate(t))

    def eps(self, t):
        """(eps, epsdot) = (l00 - i l10, -l01 + i l11) of a one-mode flow, the q-row of
        Lam^{-1} = adj(Lam), at time t, or the two arrays at an array of times."""
        if self.hamiltonian.n_modes != 1:
            raise ValueError("eps is read from a one-mode flow only")
        eps, epsdot = _eps_epsdot(self.evaluate(t)[0])
        return (eps, epsdot) if np.ndim(t) else (complex(eps), complex(epsdot))

    def phase(self, t: float) -> float:
        """arg eps(t) of eps = l00 - i l10, continuous from 0 at t = 0, for a forward
        one-mode flow; any other flow raises ``ValueError``.

        It is unwrapped on a table of spacing (pi/2)/W, W = max(1, |Sigma B|_2) over the
        step boundaries and midpoints.  d arg eps/dt = B_pp/|eps|^2, so it is monotone
        where B_pp > 0, and arg eps = theta (mod pi) exactly when the real row
        cos(theta) row_1 + sin(theta) row_0 of Lam lies on the q axis; such a row turns by
        at most W per unit time, so arg eps needs at least pi/W to advance by pi.
        W = 1 when B = diag(1, w^2) with |w^2| <= 1.
        """
        return self._eps_phase(t)[2]

    def _eps_phase(self, t: float) -> tuple[complex, complex, float]:
        """(eps, epsdot, arg eps) at one time t, from one evaluation of the flow."""
        phase_ts, phases = self._phase_table
        anchor = phases[np.searchsorted(phase_ts, t, side="right") - 1]
        eps, epsdot = self.eps(t)
        return eps, epsdot, float(anchor + np.angle(eps * np.exp(-1j * anchor)))

    @functools.cached_property
    def _phase_table(self):
        """(times, unwrapped arg eps), built on first use."""
        if self.hamiltonian.n_modes != 1 or self.t_end < 0:
            raise ValueError("arg eps is tracked on a forward one-mode flow only")
        gens = self._node_generators()[:, :2, :2]
        omega = max(1.0, np.linalg.norm(gens, ord=2, axis=(1, 2)).max())
        num = math.ceil(self.t_end / (0.5 * math.pi / omega)) + 1
        phase_ts = np.union1d(self.ts, np.linspace(0.0, self.t_end, num))
        return phase_ts, np.unwrap(np.angle(self.eps(phase_ts)[0]))


def _eps_epsdot(lam):
    """(eps, epsdot) = (l00 - i l10, -l01 + i l11) of one-mode flow matrices Lam."""
    return lam[..., 0, 0] - 1j * lam[..., 1, 0], -lam[..., 0, 1] + 1j * lam[..., 1, 1]


def integrate_symplectic_flow(hamiltonian: QuadraticHamiltonian, t_end: float,
                              tol: float = 1e-9) -> SymplecticFlow:
    """Step (Lam, Delta) from 0 to t_end with fourth-order Magnus steps at error tol.

    A step of size h is accepted, as the product of two half steps, when
    |Lam(t) (full - half)|_max / 15 <= max(tol |h|, 16 eps) max(1, |Lam(t + h)|_max).
    Every step samples B at both of its ends, so a jump or kink anywhere in it shows
    in the estimate.  The first trial covers the whole interval, so a constant H
    takes one step.  Below a relative size of 1e-12 a finite step is accepted (a
    jump of B is crossed there, its estimate reported) and a non-finite one raises
    ``NonFiniteError`` naming t.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    t_end = float(t_end)
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    dim = 2 * hamiltonian.n_modes
    aug, t, h, error = np.eye(dim + 1), 0.0, t_end, 0.0
    ts, samples, start = [t], [aug], _generators(hamiltonian, np.zeros(1))
    for _ in range(_MAX_TRIAL_STEPS):
        if t == t_end:
            break
        last = abs(h) >= abs(t_end - t)
        if last:
            h = t_end - t
        mid = t + 0.5 * h  # the full step and its two halves share six distinct nodes
        with np.errstate(over="ignore", invalid="ignore"):
            gens = np.concatenate((start, _generators(hamiltonian, np.array(
                [t + 0.25 * h, mid, mid + 0.25 * h, mid + 0.5 * h, t + h]))))
            full, first, second = _expm(_magnus_exponent(
                *gens[[[0, 0, 2], [2, 1, 3], [5, 2, 4]]], np.array([h, 0.5 * h, 0.5 * h])))
            half = first @ second
            trial = aug @ half
            err = np.abs(aug[:dim, :dim] @ (full - half)[:dim]).max() / 15.0
        bound = max(tol * abs(h), _ROUND_OFF) * max(1.0, np.abs(trial[:dim, :dim]).max())
        finite = np.isfinite(trial).all() and np.isfinite(err)
        floor = abs(h) < _MIN_STEP * max(1.0, abs(t))
        if finite and (err <= bound or floor):
            aug, t, error = trial, t_end if last else t + h, error + err
            ts.append(t)
            samples.append(aug)
            start = gens[5:]  # A(t), the one node the next trial shares with this one
        elif floor:
            raise NonFiniteError(f"flow step at t={t} is not finite")
        # a step taken at the floor is not shrunk further, so t keeps advancing
        factor = min(4.0, 0.9 * (bound / err) ** 0.25) if finite and err > 0 else 4.0
        h *= max(1.0 if floor else 0.2, factor) if finite else 0.25
    if t != t_end:
        raise ResourceLimitError(f"flow stopped at t={t} of {t_end} after "
                                 f"{_MAX_TRIAL_STEPS} trial steps")
    return SymplecticFlow(hamiltonian, ts, samples, error)


def flow_to_creation_annihilation(sample: FlowSample) -> tuple[np.ndarray, np.ndarray]:
    """(M, N) = (U^dag Lam U, U^dag Delta): the flow sample in the (a, a^dag) basis.

    The pair solves dM/dt = M sigma D(t), dN/dt = M sigma E(t) from (I, 0),
    with (D, E) the Hamiltonian in that basis.
    """
    u = quadrature_rotation(sample.lam.shape[0] // 2)
    u_dag = u.conj().T
    return u_dag @ sample.lam @ u, u_dag @ sample.delta


def evolve_gaussian(state: GaussianState, sample: FlowSample) -> GaussianState:
    """Push a Gaussian state along a flow sample, such as ``flow.at(t)``:
    W(Q, t) = W_0(Lam Q + Delta), with the exact symplectic inverse
    Lam^{-1} = -Sigma Lam^T Sigma.  A flow sample or result that is not finite raises
    ``NonFiniteError`` naming t."""
    lam, delta = sample.lam, sample.delta
    sigma = symplectic_metric(lam.shape[0] // 2)
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = -sigma @ lam.T @ sigma
        mean = inverse @ (state.mean - delta)
        disp = inverse @ state.disp @ inverse.T
    if not all(np.isfinite(a).all() for a in (lam, delta, mean, disp)):
        raise NonFiniteError(f"flow sample or evolved state at t={sample.t} is not finite")
    return GaussianState(mean, 0.5 * (disp + disp.T))


def _kernel_flow(hamiltonian: QuadraticHamiltonian, t: float):
    """Lam(t) and the Maslov count floor(arg eps / pi) of a one-mode H(t) with C = 0 and B_pp > 0
    at the flow's step boundaries and midpoints; |sin arg eps| < 1e-8 raises CausticError."""
    if hamiltonian.n_modes != 1:
        raise ValueError("the position propagator is implemented for one mode")
    if t <= 0:
        raise ValueError("t must be positive")
    flow = integrate_symplectic_flow(hamiltonian, t)
    # Sigma = [[0, 1], [-1, 0]] only permutes and negates, so both tests are exact:
    # Sigma C = 0 where C = 0, and (Sigma B)_10 = -B_pp
    gens = flow._node_generators()
    if np.any(gens[:, :2, 2] != 0.0):
        raise ValueError("the position propagator needs C = 0")
    if not np.all(gens[:, 1, 0] < 0.0):
        raise ValueError("the position propagator needs B_pp > 0")
    # b = -l10 = |eps| sin(arg eps) vanishes at the foci arg eps = k pi
    phase = flow.phase(t)
    if abs(math.sin(phase)) < _CAUSTIC_GUARD:
        raise CausticError(f"arg eps = {phase} is within the guard band of a focus k*pi")
    return flow.lams[-1], math.floor(phase / math.pi)


def _van_vleck(lam, maslov: int, q, qp):
    a, b, d = lam[0, 0], -lam[1, 0], lam[1, 1]
    q, qp = np.asarray(q, dtype=float), np.asarray(qp, dtype=float)
    amp = ((2.0 * math.pi * abs(b)) ** -0.5
           * np.exp(-1j * (0.25 * math.pi + 0.5 * math.pi * maslov)))
    out = amp * np.exp(0.5j * (d * q * q - 2.0 * q * qp + a * qp * qp) / b)
    return out if out.ndim else complex(out)


def propagator_position(hamiltonian: QuadraticHamiltonian, q, qp, t: float):
    """Position-space amplitude <q| U(t) |q'> of a one-mode H(t) with C = 0, B_pp > 0.

    With Lam(t) of ``integrate_symplectic_flow(H, t)`` in (p, q) order (a = l00,
    b = -l10, d = l11), the Van Vleck kernel is
    (2 pi |b|)^{-1/2} exp(-i(pi/4 + k pi/2)) exp(i(d q^2 - 2 q q' + a q'^2) / 2b),
    where k = floor(arg eps / pi) counts the foci passed (``SymplecticFlow.phase``).
    Inside the guard band |sin arg eps| < 1e-8, t -> 0+ included, it raises CausticError.
    """
    return _van_vleck(*_kernel_flow(hamiltonian, t), q, qp)


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
    lam, maslov = _kernel_flow(hamiltonian, t)
    g = functools.partial(_van_vleck, lam, maslov)
    center = g(q, qp)
    dq = (g(q + step, qp) - g(q - step, qp)) / (2.0 * step)
    dqp = (g(q, qp + step) - g(q, qp - step)) / (2.0 * step)
    momentum_lhs = -1j * lam[0, 0] * dq + lam[0, 1] * q * center
    position_lhs = -1j * lam[1, 0] * dq + lam[1, 1] * q * center
    momentum_res = np.abs(momentum_lhs - 1j * dqp).max()
    position_res = np.abs(position_lhs - qp * center).max()
    return ResidualReport(float(momentum_res), float(position_res))
