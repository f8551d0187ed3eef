"""N-mode Gaussian states: Wigner/Q evaluation and photon-number statistics.

A state is carried by its quadrature mean vector <Q> = (<p>, <q>) and the
real symmetric 2N x 2N dispersion matrix M (dimensionless units, hbar = 1).
The Wigner density is

    W(Q) = det(M)^{-1/2} exp(-1/2 (Q - <Q>) M^{-1} (Q - <Q>)),

normalized so that the integral of W dp dq / (2pi)^N is one.

Gaussian dyads.  W = Re sum_k exp(l_k) G(Q; m_k + i n_k, M) has one real term for a Gaussian
state, three for a cat; with d = Q - m a term is exp(Re l - (d.M^-1.d - n.M^-1.n + log det M)/2)
cos(Im l + n.M^-1.d).  Q(beta) is the same sum with M + I/2 at Q = sqrt(2) (Im beta, Re beta).

Q-function parametrization.  With B = (beta_1..beta_N, beta_1*..beta_N*)
and U the unitary with Q_beta = U B, completing the square in

    Q(B) = det(M + I/2)^{-1/2} exp[-(U B - <Q>) (2M + I)^{-1} (U B - <Q>)]

gives Q(B) = P0 exp[-1/2 B (R + sigma_Nx) B + B.(Ry)] with

    R    = 2 U^T (2M + I)^{-1} U - sigma_Nx,
    R y  = 2 U^T (2M + I)^{-1} <Q>,
    P0   = det(M + I/2)^{-1/2} exp[-<Q> (2M + I)^{-1} <Q>].

Both the quadratic and the linear coefficient carry (2M + I)^{-1}; the
often-quoted variant with (I - 2M)^{-1} inside y is the same function under
the conjugate ordering of B and is singular exactly at coherent states,
where R vanishes while the product R y stays finite.  QRep therefore stores
the product as ``ry`` and treats ``y`` as derived data.

Photon numbers.  P(n) = P0 G_(n,n) with G the renormalized Hermite family
of (R, R y); ``qopt.hermite.hermite_diagonal`` fills only a near-diagonal
set of indices (m, n) with |m - n|_1 <= 2, one total-degree shell at a time.  ``photon_pnd_table``
checks the mass after each diagonal shell and stops on the mass target, the
degree cap, or before the set behind the next shell would exceed
``BOX_ENTRY_CAP`` entries; ``photon_pnd`` reads the same fill, so a table
row and a single value agree bit for bit.  Photon-number mean and variance
come in closed form from each mode's 2 x 2 marginal.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConventionError, NonFiniteError
from .hermite import BOX_ENTRY_CAP, _near_diagonal_entries, as_index, hermite_diagonal
from .matrices import block_swap, check_symmetric, quadrature_rotation, symplectic_metric

QREP_CONVENTION = ("R=2U^T(2M+I)^{-1}U-sigma_Nx; Ry=2U^T(2M+I)^{-1}<Q>; "
                   "B=(beta,beta*)")

_NEGATIVE_PROB_TOL = 1e-12
_DEFAULT_MASS_TOL = 1e-10
_DEFAULT_DEGREE_CAP = 64
_POINT_BLOCK = 8192  # phase-space points per pass of the dyad kernel


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of ``n_modes`` modes: mean (p..., q...) and dispersion matrix."""

    mean: np.ndarray
    disp: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        disp = check_symmetric(np.asarray(self.disp, dtype=float), tol=1e-10, name="disp")
        if mean.shape[0] % 2 != 0 or mean.shape[0] == 0:
            raise ValueError(f"mean must have even positive length, got {mean.shape[0]}")
        if disp.shape != (mean.shape[0], mean.shape[0]):
            raise ValueError(f"disp shape {disp.shape} does not match mean length {mean.shape[0]}")
        mean.flags.writeable = False
        disp.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "disp", disp)

    @property
    def n_modes(self) -> int:
        return self.mean.shape[0] // 2

    def dyads(self) -> GaussianDyads:
        """One real term: log weight 0, the state's mean and dispersion matrix."""
        return GaussianDyads(np.zeros(1, dtype=complex), self.mean[np.newaxis] + 0j, self.disp)


class GaussianDyads(NamedTuple):
    """Re sum_k exp(l_k) G(Q; mu_k, disp) with complex l (K,) and mu (K, 2N), one real disp."""

    log_weights: np.ndarray
    means: np.ndarray
    disp: np.ndarray


@dataclass(frozen=True)
class QRep:
    """Coefficients (R, y, P0) of the Gaussian Q-function exponent.

    ``ry`` is the exact linear coefficient vector of the exponent.  It equals
    R @ y whenever R is invertible but stays finite when it is not (coherent
    states), so every consumer reads ``ry`` rather than re-multiplying.
    """

    R: np.ndarray
    y: np.ndarray
    p0: float
    ry: np.ndarray | None = field(default=None)

    def __post_init__(self):
        R = check_symmetric(np.asarray(self.R, dtype=complex), tol=1e-10, name="R")
        y = np.asarray(self.y, dtype=complex).reshape(-1)
        if R.shape[0] != y.shape[0]:
            raise ValueError(f"R is {R.shape} but y has length {y.shape[0]}")
        if R.shape[0] % 2 != 0:
            raise ValueError("R must be 2N x 2N")
        if not 0.0 <= self.p0 <= 1.0 + 1e-12:
            raise ValueError(f"p0 must lie in [0, 1], got {self.p0}")
        ry = R @ y if self.ry is None else np.asarray(self.ry, dtype=complex).reshape(-1)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "ry", ry)

    @property
    def n_modes(self) -> int:
        return self.R.shape[0] // 2


@dataclass(frozen=True)
class PureGaussianSpec:
    """Pure state with wavefunction proportional to exp(-x.m.x + c.x)."""

    m: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        m = check_symmetric(np.asarray(self.m, dtype=complex), name="m")
        c = np.asarray(self.c, dtype=complex).reshape(-1)
        if c.shape[0] != m.shape[0]:
            raise ValueError(f"c has length {c.shape[0]}, expected {m.shape[0]}")
        if np.linalg.eigvalsh(m.real).min() <= 0:
            raise ValueError("Re(m) must be positive definite (state not normalizable)")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class StateDiagnostics:
    """Report of validate_state; never raises."""

    symmetry_defect: float
    min_uncertainty_eigenvalue: float
    purity: float
    uncertainty_ok: bool


def make_coherent(alpha) -> GaussianState:
    """Coherent state |alpha> per mode: vacuum noise, displaced mean."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    mean = np.concatenate([math.sqrt(2.0) * alpha.imag, math.sqrt(2.0) * alpha.real])
    return GaussianState(mean, 0.5 * np.eye(2 * alpha.shape[0]))


def make_thermal_oscillator(temperature: float, omega: float = 1.0) -> GaussianState:
    """Single oscillator in thermal equilibrium; isotropic noise 1/2 coth(omega/2T)."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if omega <= 0:
        raise ValueError("omega must be positive")
    sigma = 0.5 / math.tanh(0.5 * omega / temperature)
    return GaussianState(np.zeros(2), sigma * np.eye(2))


def make_squeezed_vacuum(r: float) -> GaussianState:
    """Zero-correlation squeezed vacuum: sigma_q = e^{-2r}/2, sigma_p = e^{2r}/2."""
    return GaussianState(np.zeros(2), 0.5 * np.diag([math.exp(2 * r), math.exp(-2 * r)]))


def validate_state(s: GaussianState) -> StateDiagnostics:
    """Symmetry defect, minimum uncertainty eigenvalue, and purity of a state."""
    n = s.n_modes
    defect = float(np.abs(s.disp - s.disp.T).max())
    herm = s.disp + 0.5j * symplectic_metric(n)
    min_eig = float(np.linalg.eigvalsh(herm).min())
    det = np.linalg.det(s.disp)
    purity = float(np.clip((4.0 ** n * det) ** -0.5, 0.0, 1.0)) if det > 0 else 0.0
    return StateDiagnostics(defect, min_eig, purity, min_eig >= -1e-10)


def _dyad_sum(log_weights, d2, n2, dn):
    """Re sum_k exp(l_k - (d2_k - n2_k) / 2 + i dn_k) over the leading (term) axis: d and n
    are a term's whitened offset from the real part of its mean and its imaginary part."""
    return (np.exp(log_weights.real + 0.5 * (n2 - d2)) * np.cos(log_weights.imag + dn)).sum(0)


def _density(dyads: GaussianDyads, Q, noise: float) -> np.ndarray | float:
    """The dyads' density with dispersion disp + noise I at points Q of shape (..., 2N)."""
    Q = np.asarray(Q, dtype=float)
    dim = dyads.disp.shape[0]
    if Q.shape[-1] != dim:
        raise ValueError(f"points must have last dimension {dim}")
    V = dyads.disp + noise * np.eye(dim)
    sign, logdet = np.linalg.slogdet(V)
    if sign <= 0:
        raise ValueError("dispersion matrix is singular or not positive definite")
    white = np.linalg.inv(np.linalg.cholesky(V))  # |white @ x|^2 = x.V^-1.x
    m, n = dyads.means.real @ white.T, dyads.means.imag @ white.T
    log_weights = (dyads.log_weights - 0.5 * logdet)[:, np.newaxis]
    n2 = np.sum(n * n, axis=1)[:, np.newaxis]
    out = np.empty(Q.shape[:-1])
    flat, points = out.reshape(-1), Q.reshape(-1, dim)
    for start in range(0, points.shape[0], _POINT_BLOCK):  # bounds the temporaries
        block = slice(start, start + _POINT_BLOCK)
        d = white @ points[block].T - m[:, :, np.newaxis]  # (term, 2N, point)
        flat[block] = _dyad_sum(log_weights, np.einsum("kjp,kjp->kp", d, d), n2,
                                np.einsum("kjp,kj->kp", d, n))
    return out if out.ndim else float(out)


def wigner_eval(state, Q) -> np.ndarray | float:
    """Wigner density of a Gaussian or cat state at phase-space points Q of shape (..., 2N)."""
    return _density(state.dyads(), Q, 0.0)


def to_qrep(s: GaussianState) -> QRep:
    """Q-function coefficients (R, y, P0) of a Gaussian state."""
    n = s.n_modes
    U = quadrature_rotation(n)
    A = 2.0 * s.disp + np.eye(2 * n)
    if np.linalg.cond(A) > 1e14:
        raise ValueError("2M + I is numerically singular; state is not physical")
    Ainv = np.linalg.inv(A)
    R = 2.0 * U.T @ Ainv @ U - block_swap(n)
    R = 0.5 * (R + R.T)
    ry = 2.0 * U.T @ (Ainv @ s.mean)
    sign, logdet = np.linalg.slogdet(s.disp + 0.5 * np.eye(2 * n))
    if sign <= 0:
        raise ValueError("M + I/2 is not positive definite; state is not physical")
    p0 = math.exp(-0.5 * logdet - float(s.mean @ Ainv @ s.mean))
    # y itself diverges when R is singular (coherent states); keep the
    # minimum-norm solution for the carrier and the exact product in ry.
    y = np.linalg.lstsq(R, ry, rcond=None)[0]
    return QRep(R, y, min(p0, 1.0), ry=ry)


def from_qrep(rep: QRep) -> GaussianState:
    """Invert the Q-function parametrization back to (mean, dispersion)."""
    n = rep.n_modes
    U = quadrature_rotation(n)
    rs = rep.R + block_swap(n)
    if np.linalg.cond(rs) > 1e14:
        raise ValueError("R + sigma_Nx is numerically singular")
    M_c = U @ np.linalg.inv(rs) @ U.T - 0.5 * np.eye(2 * n)
    if np.abs(M_c.imag).max() > 1e-9:
        raise ValueError("recovered dispersion matrix has a large imaginary residue")
    M = M_c.real
    mean_c = 0.5 * (2.0 * M + np.eye(2 * n)) @ (np.conj(U) @ rep.ry)
    if np.abs(mean_c.imag).max() > 1e-9:
        raise ValueError("recovered mean has a large imaginary residue")
    return GaussianState(mean_c.real, 0.5 * (M + M.T))


def q_eval(state, beta) -> np.ndarray | float:
    """Husimi function <beta|rho|beta> of a Gaussian or cat state at coherent labels beta of
    shape (..., N): the vacuum-smoothed density at Q = sqrt(2) (Im beta, Re beta)."""
    beta = np.atleast_1d(np.asarray(beta, dtype=complex))
    if beta.shape[-1] != state.n_modes:
        raise ValueError(f"beta must have last dimension {state.n_modes}")
    return _density(state.dyads(), math.sqrt(2.0) * np.concatenate([beta.imag, beta.real], -1), 0.5)


def from_pure_gaussian(spec: PureGaussianSpec) -> GaussianState:
    """Gaussian state of the pure wavefunction exp(-x.m.x + c.x), normalized."""
    m_re, m_im = spec.m.real, spec.m.imag
    c_re, c_im = spec.c.real, spec.c.imag
    m_re_inv = np.linalg.inv(m_re)
    s_pp = np.linalg.inv(np.real(np.linalg.inv(spec.m)))
    s_qq = 0.25 * m_re_inv
    s_pq = -0.5 * m_im @ m_re_inv
    M = np.block([[s_pp, s_pq], [s_pq.T, s_qq]])
    x_bar = 0.5 * m_re_inv @ c_re
    p_bar = c_im - m_im @ m_re_inv @ c_re
    return GaussianState(np.concatenate([p_bar, x_bar]), 0.5 * (M + M.T))


def _checked_probabilities(raw: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Real parts of p0 G_(n,n); raises at the first row not finite, real and nonnegative."""
    bad = ~np.isfinite(raw) | (raw.real < -_NEGATIVE_PROB_TOL) \
        | (np.abs(raw.imag) > 1e-9 * np.maximum(1.0, np.abs(raw.real)))
    for idx, val in zip(map(tuple, indices[bad].tolist()), raw[bad]):
        if not np.isfinite(val):
            raise NonFiniteError(f"photon probability for {idx} is not finite: {val}")
        if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
            raise ConventionError(f"photon probability for {idx} is not real: {val}")
        raise ConventionError(f"photon probability for {idx} is negative: {val.real}")
    return np.maximum(raw.real, 0.0)


def photon_pnd(s: GaussianState, n) -> float:
    """Probability of the photon-number outcome n = (n_1, ..., n_N)."""
    idx = as_index(n, length=s.n_modes)
    rep = to_qrep(s)
    *_, (indices, diagonal) = hermite_diagonal(rep.R, rep.ry, sum(idx))
    row = np.flatnonzero((indices == idx).all(axis=1))
    return float(_checked_probabilities(rep.p0 * diagonal[row], indices[row])[0])


@dataclass(frozen=True)
class PndTable:
    """Photon-number probabilities by total degree, with truncation report."""

    probabilities: dict[tuple[int, ...], float]
    cumulative: float
    max_total_degree: int
    cap_hit: bool


def photon_pnd_table(s: GaussianState, mass_tol: float = _DEFAULT_MASS_TOL,
                     degree_cap_per_mode: int = _DEFAULT_DEGREE_CAP) -> PndTable:
    """Enumerate photon-number probabilities until mass 1 - mass_tol is covered.

    Enumeration walks shells of constant total photon number; it stops on the
    mass target, on the configured degree cap, or before the near-diagonal
    Hermite set behind the next shell would outgrow ``BOX_ENTRY_CAP`` entries,
    whichever comes first.  A truncation is flagged in the result and warned
    about, never silent.  A state whose vacuum probability p0 underflows raises
    ``NonFiniteError``.

    P(n) = p0 G_(n,n) is read off ``hermite_diagonal`` one shell at a time, and
    the mass is checked after each shell; G does not depend on how far the fill
    runs, so every row equals ``photon_pnd`` bit for bit.
    """
    n = s.n_modes
    if degree_cap_per_mode < 0:
        raise ValueError("degree_cap_per_mode must be nonnegative")
    rep = to_qrep(s)
    if rep.p0 == 0.0:
        raise NonFiniteError("vacuum probability p0 underflows to 0; every P(n) would read 0")
    cap = degree_cap_per_mode * n
    top = cap  # the last shell within the entry cap
    while _near_diagonal_entries(n, top) > BOX_ENTRY_CAP:
        top -= 1
    shells, cumulative = [], 0.0
    for degree, (indices, diagonal) in enumerate(hermite_diagonal(rep.R, rep.ry, top)):
        raw = rep.p0 * diagonal
        shells.append((indices, raw))
        for p in np.maximum(raw.real, 0.0).tolist():  # in sequence, as a row-by-row sum
            cumulative += p
        if cumulative >= 1.0 - mass_tol:
            break
    indices, raw = (np.concatenate(parts) for parts in zip(*shells))
    probs = dict(zip(map(tuple, indices.tolist()), _checked_probabilities(raw, indices).tolist()))
    if cumulative >= 1.0 - mass_tol:
        return PndTable(probs, cumulative, degree, False)
    if degree >= cap:
        warnings.warn(f"photon enumeration hit the degree cap {cap} "
                      f"with cumulative mass {cumulative:.12f}")
    else:
        warnings.warn(f"photon enumeration stopped at total degree {degree}: "
                      f"polynomial table would exceed {BOX_ENTRY_CAP} indices "
                      f"(cumulative mass {cumulative:.12f})")
    return PndTable(probs, cumulative, degree, True)


def photon_moments(s: GaussianState, j: int = 0) -> tuple[float, float]:
    """Mean and variance of the photon number in mode j, in closed form.

    With V the mode's 2 x 2 dispersion block and d its mean (p_j, q_j),
    <n> = (Tr V - 1)/2 + |d|^2/2 and Var n = (Tr V^2 - 1/2)/2 + d.V.d; no
    photon table is built, so a bright or strongly squeezed mode is exact.
    """
    n = s.n_modes
    if not 0 <= j < n:
        raise ValueError(f"mode index {j} out of range for {n} modes")
    sel = [j, n + j]
    V, d = s.disp[np.ix_(sel, sel)], s.mean[sel]
    mean = 0.5 * (V[0, 0] + V[1, 1] - 1.0) + 0.5 * (d[0] ** 2 + d[1] ** 2)
    variance = 0.5 * (np.sum(V * V) - 0.5) + d @ V @ d
    return float(mean), float(variance)


def state_to_dict(s: GaussianState) -> dict:
    """JSON-ready document {n_modes, mean, disp}."""
    return {"n_modes": s.n_modes, "mean": s.mean.tolist(), "disp": s.disp.tolist()}


def state_from_dict(doc: dict) -> GaussianState:
    state = GaussianState(np.asarray(doc["mean"], dtype=float),
                          np.asarray(doc["disp"], dtype=float))
    if "n_modes" in doc and int(doc["n_modes"]) != state.n_modes:
        raise ValueError(f"n_modes {doc['n_modes']} does not match mean length "
                         f"{2 * state.n_modes}")
    return state
