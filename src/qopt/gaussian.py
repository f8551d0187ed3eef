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
the product ``ry`` and never y.  2M + I >= I for every physical state, so
strong squeezing leaves (2M + I)^{-1} well defined.

Photon numbers.  A state yields its photon-number shells, total n = 0, 1, ...
(``GaussianState.photon_shells``, ``CatState.photon_shells``); for a Gaussian
state P(n) = P0 G_(n,n) with G the renormalized Hermite family of (R, R y), and
``qopt.hermite.hermite_diagonal`` fills only a near-diagonal set of indices
(m, n) with |m - n|_1 <= 2, one total-degree shell at a time.
``photon_pnd_table`` runs one loop over the shells of any state: it checks
the mass after each shell and stops on the mass target, the degree cap, or
where the state stops its shells before its table would exceed
``BOX_ENTRY_CAP`` entries; ``photon_pnd`` reads a row of the same shells, so a table
row and a single value agree bit for bit.  Photon-number mean and variance come in
closed form from each mode's 2 x 2 marginal.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConventionError, NonFiniteError, ResourceLimitError
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

    def photon_shells(self, max_degree: int):
        """Iterator over the shells |n| = 0, 1, ... of pairs (indices, p0 G_(n,n)), the rows
        of ``indices`` lexicographic, up to ``max_degree`` or the last degree whose
        near-diagonal Hermite set fits ``BOX_ENTRY_CAP`` entries, whichever is lower.
        Raises ``NonFiniteError`` when p0 underflows, so that every P(n) would read 0."""
        rep = to_qrep(self)
        if rep.p0 == 0.0:
            raise NonFiniteError("vacuum probability p0 underflows to 0; every P(n) would read 0")
        n = self.n_modes
        top = _entry_capped_degree(max_degree, lambda d: _near_diagonal_entries(n, d))
        return ((indices, rep.p0 * diagonal)
                for indices, diagonal in hermite_diagonal(rep.R, rep.ry, top))


def _entry_capped_degree(max_degree: int, entries) -> int:
    """The highest degree up to ``max_degree`` whose photon table of ``entries(degree)``
    entries fits ``BOX_ENTRY_CAP``: the one place where every state's ``photon_shells``
    applies the entry cap that ``photon_pnd_table`` reports."""
    while entries(max_degree) > BOX_ENTRY_CAP:
        max_degree -= 1
    return max_degree


class GaussianDyads(NamedTuple):
    """Re sum_k exp(l_k) G(Q; mu_k, disp) with complex l (K,) and mu (K, 2N), one real disp."""

    log_weights: np.ndarray
    means: np.ndarray
    disp: np.ndarray


@dataclass(frozen=True)
class QRep:
    """Coefficients (R, R y, P0) of the Gaussian Q-function exponent.

    ``ry`` is the linear coefficient vector of the exponent, the product R y.  It
    stays finite where y does not (coherent states, where R vanishes), so y itself
    is never formed.
    """

    R: np.ndarray
    ry: np.ndarray
    p0: float

    def __post_init__(self):
        R = check_symmetric(np.asarray(self.R, dtype=complex), tol=1e-10, name="R")
        ry = np.asarray(self.ry, dtype=complex).reshape(-1)
        if R.shape[0] != ry.shape[0]:
            raise ValueError(f"R is {R.shape} but ry has length {ry.shape[0]}")
        if R.shape[0] % 2 != 0:
            raise ValueError("R must be 2N x 2N")
        if not 0.0 <= self.p0 <= 1.0 + 1e-12:
            raise ValueError(f"p0 must lie in [0, 1], got {self.p0}")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "ry", ry)

    @property
    def n_modes(self) -> int:
        return self.R.shape[0] // 2


@dataclass(frozen=True)
class StateDiagnostics:
    """Report of validate_state; never raises."""

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
    """Minimum uncertainty eigenvalue, purity and uncertainty verdict of a state."""
    n = s.n_modes
    min_eig = float(np.linalg.eigvalsh(s.disp + 0.5j * symplectic_metric(n)).min())
    det = np.linalg.det(s.disp)
    purity = float(np.clip((4.0 ** n * det) ** -0.5, 0.0, 1.0)) if det > 0 else 0.0
    return StateDiagnostics(min_eig, purity, _uncertainty_ok(s.disp))


def _uncertainty_ok(disp: np.ndarray) -> bool:
    """M + i sigma/2 >= 0, tested on D (M + i sigma/2) D with D = diag(M_jj^{-1/2}): its
    unit diagonal keeps the rounding of its eigenvalues near 2N eps however strongly the
    state is squeezed, where that of M + i sigma/2 itself grows with |M|."""
    diag = np.diag(disp)
    if diag.min() <= 0.0:
        return False
    w = diag ** -0.5
    herm = w[:, np.newaxis] * (disp + 0.5j * symplectic_metric(diag.size // 2)) * w
    return bool(np.linalg.eigvalsh(herm)[0] >= -1e-10)


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
    """Q-function coefficients (R, R y, P0) of a Gaussian state."""
    n = s.n_modes
    U = quadrature_rotation(n)
    if not _uncertainty_ok(s.disp):
        raise ValueError("M + i sigma/2 is not positive semidefinite; state is not physical")
    logdet = np.linalg.slogdet(s.disp + 0.5 * np.eye(2 * n))[1]
    Ainv = np.linalg.inv(2.0 * s.disp + np.eye(2 * n))
    R = 2.0 * U.T @ Ainv @ U - block_swap(n)
    ry = 2.0 * U.T @ (Ainv @ s.mean)
    p0 = math.exp(-0.5 * logdet - float(s.mean @ Ainv @ s.mean))
    return QRep(R, ry, min(p0, 1.0))


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


def photon_pnd(state, n) -> float:
    """Probability of the outcome n = (n_1, ..., n_N) of a Gaussian or cat state: its row of
    ``state.photon_shells(|n|)``; a shell that the entry cap stops raises ResourceLimitError."""
    idx = as_index(n, length=state.n_modes)
    *_, (indices, raw) = state.photon_shells(sum(idx))
    row = np.flatnonzero((indices == idx).all(axis=1))
    if row.size == 0:
        raise ResourceLimitError(f"shell {sum(idx)} would exceed {BOX_ENTRY_CAP} entries")
    return float(_checked_probabilities(raw[row], indices[row])[0])


@dataclass(frozen=True, eq=False)
class PndTable:
    """Photon-number probabilities by total degree, with truncation report.

    ``indices`` is an (M, N) array of outcomes ordered by total, then
    lexicographically; ``probabilities`` holds their M probabilities.
    """

    indices: np.ndarray
    probabilities: np.ndarray
    cumulative: float
    max_total_degree: int
    cap_hit: bool


def photon_pnd_table(state, mass_tol: float = _DEFAULT_MASS_TOL,
                     degree_cap_per_mode: int = _DEFAULT_DEGREE_CAP) -> PndTable:
    """Enumerate the photon-number probabilities of a Gaussian or cat state until mass
    1 - mass_tol is covered.

    Enumeration walks the state's shells of constant total photon number
    (``state.photon_shells``); it stops on the mass target, on the degree cap
    ``degree_cap_per_mode * state.n_modes`` of the total photon number (a cap on the
    total, so one mode may hold all of it), or where the state stops its shells before
    its table would outgrow ``BOX_ENTRY_CAP`` entries, whichever comes first.  A
    truncation is flagged in the result and warned about, never silent.

    The mass is checked after each shell, and a shell does not depend on how far
    the enumeration runs, so every row equals ``photon_pnd`` bit for bit.
    """
    if degree_cap_per_mode < 0:
        raise ValueError("degree_cap_per_mode must be nonnegative")
    cap = degree_cap_per_mode * state.n_modes
    shells, cumulative = [], 0.0
    for degree, (indices, raw) in enumerate(state.photon_shells(cap)):
        shells.append((indices, raw))
        for p in np.maximum(raw.real, 0.0).tolist():  # in sequence, as a row-by-row sum
            cumulative += p
        if cumulative >= 1.0 - mass_tol:
            break
    indices, raw = (np.concatenate(parts) for parts in zip(*shells))
    probabilities, cap_hit = _checked_probabilities(raw, indices), cumulative < 1.0 - mass_tol
    if cap_hit and degree >= cap:
        warnings.warn(f"photon enumeration hit the degree cap {cap} "
                      f"with cumulative mass {cumulative:.12f}")
    elif cap_hit:  # the shells ended below the degree cap: _entry_capped_degree stopped them
        warnings.warn(f"photon enumeration stopped at total degree {degree}: the state's "
                      f"table to total degree {degree + 1} would exceed {BOX_ENTRY_CAP} "
                      f"entries (cumulative mass {cumulative:.12f})")
    return PndTable(indices, probabilities, cumulative, degree, cap_hit)


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
