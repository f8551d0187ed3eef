"""Oscillator with time-dependent frequency via its classical complex solution.

Everything about the driven-frequency oscillator reduces to one complex
trajectory eps(t) solving

    eps'' + w^2(t) eps = 0,    eps(0) = 1,  eps'(0) = i,

whose Wronskian eps eps'* - eps* eps' = -2i is conserved (it encodes the
canonical commutator of the associated lowering invariant).  Position and
momentum noise of the adiabatic ground packet are |eps|^2/2 and |eps'|^2/2,
and the photon statistics of that packet follow a one-parameter squeezed
law.

eps is not integrated on its own: it is the q-row of Lam^{-1} for the
symplectic flow of `qopt.dynamics`, so the Wronskian is -2i det Lam, conserved
to round-off by every flow step (``wronskian_defect``); the accuracy of eps is
the ``error_estimate`` of the flow that ``solve_epsilon`` returns, and
``SymplecticFlow.eps`` reads eps from it.  Every profile takes that path: a
constant w^2, the named presets included, is one exact Magnus step (error
estimate 0).  The Gaussian carrier of the evolved vacuum packet is the vacuum
pushed along the same flow.

Wavefunction evaluators need eps^{-1/2} and (eps*/eps)^{m/2}; both are taken
with the phase of eps tracked continuously from t = 0, never the principal
branch, so nothing jumps when eps winds around the origin.  That phase is the
flow's own, `SymplecticFlow.phase`, the one the position propagator reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import (SymplecticFlow, _eps_epsdot, evolve_gaussian,
                       integrate_symplectic_flow, parametric_oscillator)
from .errors import NonFiniteError
from .gaussian import GaussianState
from .hermite import fock_wavefunction_eval

_EXPR_NAMESPACE = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "abs": np.abs, "pi": np.pi, "e": np.e,
}


@dataclass(frozen=True)
class FrequencyProfile:
    """Time profile of the squared frequency w^2(t)."""

    omega_squared: Callable[[float], float]
    kind: str

    def __call__(self, t: float) -> float:
        return float(self.omega_squared(t))


def preset_profile(name: str) -> FrequencyProfile:
    """Named profiles: free (w^2 = 0), oscillator (w^2 = 1), repulsive (w^2 = -1)."""
    values = {"free": 0.0, "oscillator": 1.0, "repulsive": -1.0}
    if name not in values:
        raise ValueError(f"unknown preset {name!r}; expected one of {tuple(values)}")
    return FrequencyProfile(lambda t, _w2=values[name]: _w2, f"preset_{name}")


def tabulated_profile(rows) -> FrequencyProfile:
    """Piecewise-linear w^2(t) through [(t, w2), ...] samples."""
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValueError("table must be a list of at least two [t, w2] rows")
    ts, w2s = arr[:, 0], arr[:, 1]
    if np.any(np.diff(ts) <= 0):
        raise ValueError("table times must be strictly increasing")
    return FrequencyProfile(lambda t: float(np.interp(t, ts, w2s)), "tabulated")


def expression_profile(expr: str) -> FrequencyProfile:
    """w^2(t) from an arithmetic expression in t, e.g. "1 + 0.2*sin(t)".

    Evaluated in a namespace of elementary functions only; configs are
    trusted input.  It is evaluated once at t = 0 to fail fast: a syntax error, an
    exception at t = 0 or a non-finite w^2(0) raises ``ValueError``.
    """
    try:
        code = compile(expr, "<omega_squared>", "eval")
    except SyntaxError as exc:
        raise ValueError(f"expression {expr!r} is not valid: {exc.msg}") from exc
    for name in code.co_names:
        if name not in _EXPR_NAMESPACE and name != "t":
            raise ValueError(f"expression uses unknown name {name!r}")

    def w2(t, _code=code):
        return float(eval(_code, {"__builtins__": {}}, {**_EXPR_NAMESPACE, "t": t}))

    try:
        with np.errstate(all="ignore"):
            probe = w2(0.0)
    except Exception as exc:  # noqa: BLE001 - any failure at t = 0 is the expression's
        raise ValueError(f"expression {expr!r} fails at t = 0: {exc}") from exc
    if not math.isfinite(probe):
        raise ValueError(f"expression {expr!r} gives w^2(0) = {probe!r}, not a finite number")
    return FrequencyProfile(w2, "expression")


def solve_epsilon(profile: FrequencyProfile, t_end: float, tol: float = 1e-9) -> SymplecticFlow:
    """The flow of H = p^2/2 + w^2(t) q^2/2 on [0, t_end], stepped at ``tol``, from which
    ``eps`` and ``phase`` are read; a constant w^2 is one exact step.  The flow keeps the
    profile it solves as ``profile``."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    flow = integrate_symplectic_flow(parametric_oscillator(profile), t_end, tol)
    # the benchmark's tracer reads profile.kind of the result to tell presets from others
    flow.profile = profile
    return flow


def wronskian_defect(flow: SymplecticFlow) -> float:
    """max |W + 2i| of the Wronskian W = eps epsdot* - eps* epsdot = -2i det Lam over the
    step boundaries, with eps and epsdot scaled by a = max(1, |eps|), b = max(1, |epsdot|)
    (and 2i by 1/ab): finite wherever the rows are."""
    eps, epsdot = _eps_epsdot(flow.lams)
    a, b = np.maximum(1.0, np.abs(eps)), np.maximum(1.0, np.abs(epsdot))
    wron = (eps / a) * np.conj(epsdot / b) - np.conj(eps / a) * (epsdot / b)
    return float(np.abs(wron + 2j / a / b).max())


def variances_correlation(flow: SymplecticFlow, t: float) -> tuple[float, float, float]:
    """(sigma_x, sigma_p, r): noise of the ground packet and its x-p correlation.

    sigma_x sigma_p (1 - r^2) = 1/4 holds identically up to the Wronskian
    defect; the correlation sign follows sign(Re eps* epsdot) = sign(sigma_xp).
    A noise figure beyond double range raises ``NonFiniteError`` naming t.
    """
    eps, epsdot = flow.eps(t)
    try:
        sigma_x = 0.5 * abs(eps) ** 2
        sigma_p = 0.5 * abs(epsdot) ** 2
    except OverflowError as exc:
        raise NonFiniteError(f"ground-packet noise at t={t} is beyond double range") from exc
    product = sigma_x * sigma_p
    arg = max(0.0, 1.0 - 0.25 / product)
    r = math.copysign(math.sqrt(arg), np.real(np.conj(eps) * epsdot))
    return sigma_x, sigma_p, r


def squeezing_coefficient(flow: SymplecticFlow, t: float) -> complex:
    """mu, the two-photon amplitude ratio governing the vacuum-packet statistics."""
    return _mu(*flow.eps(t))


def _mu(eps: complex, epsdot: complex) -> complex:
    ec, edc = np.conj(eps), np.conj(epsdot)
    return (ec - 1j * edc) / (2.0 * (ec + 1j * edc))


def squeezed_vacuum_pnd(flow: SymplecticFlow, t: float, n: int) -> float:
    """Photon-number probability W(n) of the evolved vacuum packet.

    W(0) = 2 / hypot(|eps|, |epsdot|, sqrt 2), finite however large eps grows, odd
    terms vanish, and W(2m) = W(0) (2m)!/(m!)^2 |mu|^{2m}.
    """
    n = int(n)
    if n < 0:
        raise ValueError("photon number must be nonnegative")
    if n % 2 == 1:
        return 0.0
    eps, epsdot = flow.eps(t)
    w0 = 2.0 / math.hypot(abs(eps), abs(epsdot), math.sqrt(2.0))
    if n == 0:
        return w0
    m = n // 2
    mu_abs = abs(_mu(eps, epsdot))
    log_binom = math.lgamma(2 * m + 1) - 2 * math.lgamma(m + 1)
    return w0 * math.exp(log_binom + 2 * m * math.log(mu_abs)) if mu_abs > 0 else 0.0


def to_gaussian_state(flow: SymplecticFlow, t: float) -> GaussianState:
    """The evolved vacuum packet as a Gaussian state: the vacuum pushed along the flow."""
    return evolve_gaussian(GaussianState(np.zeros(2), 0.5 * np.eye(2)), flow.at(t))


def _coherent_packet(eps: complex, epsdot: complex, phase: float, alpha: complex,
                     x: np.ndarray):
    """pi^{-1/4} eps^{-1/2} exp(i (epsdot/eps) x^2/2 - |alpha|^2/2 - alpha^2 eps*/(2 eps)
    + sqrt(2) alpha x/eps) at the flow's (eps, epsdot, arg eps), the whole exponent in one
    exp, so a large alpha cannot pair an underflowing factor with an overflowing one."""
    return math.pi ** -0.25 * (abs(eps) ** -0.5 * np.exp(-0.5j * phase)) * np.exp(
        0.5j * (epsdot / eps) * x * x - 0.5 * abs(alpha) ** 2
        - 0.5 * alpha * alpha * np.conj(eps) / eps + math.sqrt(2.0) * alpha * x / eps)


def packet_wavefunction_eval(flow: SymplecticFlow, t: float, alpha: complex, x):
    """Coherent packet of the driven oscillator at displacement alpha."""
    out = _coherent_packet(*flow._eps_phase(t), alpha, np.asarray(x, dtype=float))
    return out if out.ndim else complex(out)


def squeezed_number_wavefunction(flow: SymplecticFlow, t: float, m_level: int, x):
    """m-th excited packet, an orthonormal family generalizing the number states:
    e^{-i(m + 1/2) arg eps} |eps|^{-1/2} psi_m(y) exp(i (epsdot/eps) x^2/2 + y^2/2) with
    y = x/|eps| and psi_m the number state; the last factor has modulus 1."""
    m_level = int(m_level)
    if m_level < 0:
        raise ValueError("level must be nonnegative")
    x = np.asarray(x, dtype=float)
    eps, epsdot, phase = flow._eps_phase(t)
    y = x / abs(eps)
    out = (np.exp(-1j * (m_level + 0.5) * phase) / math.sqrt(abs(eps))
           * fock_wavefunction_eval(m_level, y)
           * np.exp(0.5j * (epsdot / eps) * x * x + 0.5 * y * y))
    return out if out.ndim else complex(out)


def parametric_cat_wavefunction(flow: SymplecticFlow, t: float, alpha: complex,
                                parity: str, x):
    """Even/odd superposition (psi_alpha +- psi_-alpha) / sqrt(2 (1 +- e^{-2|alpha|^2})) of
    coherent packets of the driven oscillator, taken as the larger packet psi_{s alpha} times
    1 +- e^{-2su} (expm1 when odd), u = sqrt(2) alpha x / eps and s = sign Re u: a bright cat
    does not overflow, and a faint odd one does not cancel."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    a2 = abs(alpha) ** 2
    if parity == "odd" and a2 == 0:
        raise ValueError("odd superposition of alpha = 0 is not normalizable")
    x = np.asarray(x, dtype=float)
    eps, epsdot, phase = flow._eps_phase(t)
    u = math.sqrt(2.0) * alpha * x / eps
    sign = np.where(np.real(u) < 0.0, -1.0, 1.0)
    lead = _coherent_packet(eps, epsdot, phase, sign * alpha, x)
    if parity == "even":
        out = lead * (1.0 + np.exp(-2.0 * sign * u)) / math.sqrt(2.0 + 2.0 * math.exp(-2.0 * a2))
    else:
        out = -sign * lead * np.expm1(-2.0 * sign * u) / math.sqrt(-2.0 * math.expm1(-2.0 * a2))
    return out if out.ndim else complex(out)
