"""Independent numerical oracles shared by the test suite.

Nothing here touches the library's recursion, overlap, flow or formatting
code paths: the generating function is expanded by explicit polynomial
arithmetic, integrals are done by brute-force quadrature, propagators are
the textbook closed forms, CSV text is built one cell at a time, the cat
normalization is the closed form e^{|A|^2/2} / (2 sqrt(cosh |A|^2)), cat
photon probabilities are evaluated one outcome at a time, cat photon totals
and the ladder action on a cat come in closed form, cat homodyne
marginals come from the rotated coherent-state wavefunctions, cat Husimi
densities from the closed form |cosh beta*.A|^2 (sinh when odd), eps(t) of a
constant w^2 is the textbook cos/sin (cosh/sinh) solution, flows are
integrated by a general-purpose Runge-Kutta solver, a constant Hamiltonian
is rotated to the (a, a^dag) basis by hand, and filtered
backprojection is the direct form: a full complex spectrum and a
two-gather linear interpolation with clipped indices.  A second inversion,
``wigner_from_symplectic``, assembles the characteristic function from the
Fourier transforms of the marginals, ``pure_gaussian_state`` reads the
Wigner moments of a pure wavefunction exp(-x.m.x + c.x) off m and c, the
rows of lowered multi-indices come from a dictionary of index tuples, the
lowering steps between near-diagonal offsets from comparing every moved offset
with every offset, and the photon probabilities of a product coherent state
are the Poisson product.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qopt.cats import CatState
from qopt.errors import CausticError
from qopt.gaussian import GaussianState
from qopt.hermite import as_index
from qopt.matrices import quadrature_rotation

_CAUSTIC_GUARD = 1e-8


def _poly_mul(p: dict, q: dict, max_deg: int) -> dict:
    out: dict = {}
    for ka, va in p.items():
        for kb, vb in q.items():
            key = tuple(a + b for a, b in zip(ka, kb))
            if sum(key) <= max_deg:
                out[key] = out.get(key, 0.0) + va * vb
    return out


def hermite_by_series(R, y, n) -> complex:
    """Taylor coefficient of exp(-1/2 a.R.a + a.R.y) times n!, by polynomial expansion."""
    R = np.asarray(R, dtype=complex)
    y = np.asarray(y, dtype=complex).reshape(-1)
    n = tuple(int(k) for k in n)
    dim = len(y)
    max_deg = sum(n)
    zero = (0,) * dim

    exponent: dict = {}
    ry = R @ y
    for i in range(dim):
        key = tuple(1 if t == i else 0 for t in range(dim))
        exponent[key] = exponent.get(key, 0.0) + ry[i]
    for i in range(dim):
        for j in range(dim):
            key = tuple((1 if t == i else 0) + (1 if t == j else 0) for t in range(dim))
            exponent[key] = exponent.get(key, 0.0) - 0.5 * R[i, j]

    series = {zero: 1.0 + 0j}
    term = {zero: 1.0 + 0j}
    for order in range(1, max_deg + 1):
        term = _poly_mul(term, exponent, max_deg)
        term = {k: v / order for k, v in term.items()}
        for k, v in term.items():
            series[k] = series.get(k, 0.0) + v

    coeff = series.get(n, 0.0 + 0j)
    fact = 1.0
    for k in n:
        for i in range(2, k + 1):
            fact *= i
    return coeff * fact


def base_steps_by_dict(n_modes: int, low: int, high: int):
    """(bases, start, down) as ``qopt.hermite._base_steps`` gives them, from a dictionary of
    every base tuple to its row: the bases of totals ``low`` to ``high`` sorted by (total,
    base), where each total starts, and by (axis, row) the row of the base lowered on that
    axis (axis N keeps the row), ``len(bases)`` where the lowered base is not a key."""
    bases = sorted((tuple(map(combo.count, range(n_modes))) for total in range(low, high + 1)
                    for combo in itertools.combinations_with_replacement(range(n_modes), total)),
                   key=lambda b: (sum(b), b))
    row = {b: i for i, b in enumerate(bases)}
    start = [sum(sum(b) < total for b in bases) for total in range(low, high + 2)]
    down = np.full((n_modes + 1, len(bases) + 1), len(bases))
    for i, b in enumerate(bases):
        for axis in range(n_modes):
            down[axis, i] = row.get(b[:axis] + (b[axis] - 1,) + b[axis + 1:], len(bases))
        down[n_modes, i] = i
    return np.array(bases, dtype=np.int64).reshape(-1, n_modes), np.array(start), down


def steps_by_all_pairs(offsets):
    """(targets, axes) by (row of ``offsets``, axis of (m, n)), from comparing every moved
    offset with every offset: lowering m_a lowers d_a and lowering n_a raises it; the
    target is the row of the moved offset (-1 if no row matches), and the base axis is a
    (N for none) where the step makes |d|_1 grow.  Memory grows as N^6: keep N small."""
    offsets = np.asarray(offsets, dtype=np.int64)
    n_modes = offsets.shape[1]
    eye = np.eye(n_modes, dtype=np.int64)
    moved = offsets[:, np.newaxis] - np.concatenate([eye, -eye])
    found = (moved[:, :, np.newaxis] == offsets).all(axis=-1)
    grows = np.abs(moved).sum(axis=-1) > np.abs(offsets).sum(axis=1)[:, np.newaxis]
    return (np.where(found.any(axis=-1), found.argmax(axis=-1), -1),
            np.where(grows, np.arange(2 * n_modes) % n_modes, n_modes))


def coherent_product_pnd(alpha, n) -> float:
    """P(n) of the product coherent state |alpha_1> ... |alpha_N>: the product of the
    Poisson probabilities e^{-|alpha_j|^2} |alpha_j|^{2 n_j} / n_j!, in Python floats."""
    return math.prod(math.exp(-abs(a) ** 2) * abs(a) ** (2 * k) / math.factorial(k)
                     for a, k in zip(alpha, n))


def trapz_nd(f, grids) -> complex:
    """Tensor-grid trapezoid integral of f over the product of 1D grids."""
    mesh = np.meshgrid(*grids, indexing="ij")
    vals = f(*mesh)
    for axis in reversed(range(len(grids))):
        vals = np.trapezoid(vals, grids[axis], axis=axis)
    return vals


def gauss_box(re_m, half_width_sigmas: float = 9.0, points: int = 801):
    """1D grids covering the decay of exp(-x.Re(m).x) in each coordinate."""
    lam = np.linalg.eigvalsh(np.atleast_2d(re_m)).min()
    half = half_width_sigmas / np.sqrt(2.0 * lam)
    return [np.linspace(-half, half, points) for _ in range(np.atleast_2d(re_m).shape[0])]


def quadratic_phase_integral(a: complex, b: complex, c: complex,
                             half_width: float = 12.0, points: int = 20001) -> complex:
    """int exp(i a s^2 + b s + c) ds along the steepest-descent contour.

    Valid for real a != 0 and any complex b, c; the integrand is entire and
    the rotated contour s = s* + e^{i sgn(a) pi/4} u makes it a decaying
    Gaussian, so plain trapezoid quadrature converges.
    """
    if a == 0:
        raise ValueError("quadratic coefficient must be nonzero")
    s_star = 1j * b / (2.0 * a)
    phase = np.exp(1j * np.sign(a) * np.pi / 4.0)
    u = np.linspace(-half_width / np.sqrt(abs(a)), half_width / np.sqrt(abs(a)), points)
    s = s_star + phase * u
    vals = np.exp(1j * a * s * s + b * s + c)
    return phase * np.trapezoid(vals, u)


def repr_csv(header, rows) -> str:
    """CSV text written one cell at a time: integers as digits, anything else
    as ``repr(float(v))``, rows joined by newlines with a trailing one.

    This is the oracle of the bulk float formatter in ``qopt.io``: every
    writer there, kernel and per-cell path alike, must reproduce its bytes
    exactly.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))
                              for v in row))
    return "\n".join(lines) + "\n"


def _cat_log_weight(c) -> float:
    """log cosh |A|^2 (even) or log sinh |A|^2 (odd), as ``qopt.cats`` writes it."""
    x = c.norm2
    if c.parity == "even":
        return x - math.log(2.0) + math.log1p(math.exp(-2.0 * x))
    return x - math.log(2.0) + math.log(-math.expm1(-2.0 * x))


def cat_normalization(c) -> float:
    """N+ = e^{|A|^2/2} / (2 sqrt(cosh |A|^2)); sinh for the odd branch."""
    return math.exp(0.5 * (c.norm2 - _cat_log_weight(c)) - math.log(2.0))


def cat_pnd_by_index(c, n) -> float:
    """Cat photon probability of one outcome, evaluated mode by mode in Python floats.

    This is the per-index body of the library's one-outcome cat probability before
    the vectorized table kernel; the kernel must reproduce it bit for bit.
    """
    idx = as_index(n, length=c.n_modes)
    total = sum(idx)
    if total % 2 != (0 if c.parity == "even" else 1):
        return 0.0
    log_term = 0.0
    for alpha, k in zip(c.amplitudes, idx):
        a = abs(alpha)
        if a == 0.0:
            if k > 0:
                return 0.0
            continue
        log_term += 2 * k * math.log(a) - math.lgamma(k + 1)
    return math.exp(log_term - _cat_log_weight(c))


def cat_total_pnd(c, total: int) -> float:
    """Probability of finding ``total`` photons summed over all mode splittings:
    (|A|^2)^total / (total! cosh |A|^2) on parity-matching totals (sinh for odd), else 0."""
    if total % 2 != (0 if c.parity == "even" else 1):
        return 0.0
    a2 = c.norm2
    if a2 == 0.0:
        return 1.0 if total == 0 else 0.0
    return math.exp(total * math.log(a2) - math.lgamma(total + 1) - _cat_log_weight(c))


def cat_ladder_apply(c, i: int) -> tuple[complex, CatState]:
    """Amplitude factor and flipped state of a_i acting on the superposition:
    a_i |A+> = alpha_i sqrt(tanh |A|^2) |A->  and  a_i |A-> = alpha_i sqrt(coth |A|^2) |A+>."""
    if not 0 <= i < c.n_modes:
        raise ValueError(f"mode index {i} out of range for {c.n_modes} modes")
    a2 = c.norm2
    if c.parity == "odd":
        factor, flipped = math.sqrt(1.0 / math.tanh(a2)), "even"
    elif a2 == 0.0:
        raise ValueError("lowering the even A = 0 state gives no normalizable odd state")
    else:
        factor, flipped = math.sqrt(math.tanh(a2)), "odd"
    return complex(c.amplitudes[i] * factor), CatState(c.amplitudes, flipped)


def cat_q(c, beta):
    """Husimi density <beta|rho|beta> of a cat at labels beta of shape (..., N), in the
    closed form 4 N^2 e^{-|A|^2 - |beta|^2} |cosh z|^2 (sinh when odd), z = beta*.A, written
    free of cancellation: for z = u + iv, |cosh z|^2 = sinh^2 u + cos^2 v and
    |sinh z|^2 = sinh^2 u + sin^2 v, 4 N^2 e^{-|A|^2} = 1 / cosh |A|^2 (sinh when odd), and
    sinh^2 u = e^{2u} expm1(-2u)^2 / 4."""
    beta = np.atleast_1d(np.asarray(beta, dtype=complex))
    z = beta.conj() @ c.amplitudes
    u = np.abs(z.real)
    trig = np.cos(z.imag) if c.parity == "even" else np.sin(z.imag)
    log_base = -np.sum(np.abs(beta) ** 2, axis=-1) - _cat_log_weight(c)
    out = (np.exp(2.0 * u + log_base - 2.0 * math.log(2.0)) * np.expm1(-2.0 * u) ** 2
           + trig ** 2 * np.exp(log_base))
    return out if out.ndim else float(out)


def coherent_wavefunction(beta: complex, x):
    """<x|beta> = pi^(-1/4) exp(-x^2/2 + sqrt(2) beta x - beta^2/2 - |beta|^2/2), with the
    phase that the Fock expansion exp(-|beta|^2/2) sum beta^n/sqrt(n!) |n> fixes."""
    x = np.asarray(x, dtype=float)
    return math.pi ** -0.25 * np.exp(-0.5 * x * x + math.sqrt(2.0) * beta * x
                                     - 0.5 * beta * beta - 0.5 * abs(beta) ** 2)


def cat_marginal(amplitude: complex, parity: str, theta: float, x):
    """Homodyne density of X = q cos(theta) - p sin(theta) for a one-mode cat
    N (|A> +- |-A>): the rotated quadrature reads the amplitude A e^{i theta}, so
    the density is N^2 |psi_{A e^{i theta}}(x) +- psi_{-A e^{i theta}}(x)|^2."""
    sign = 1.0 if parity == "even" else -1.0
    norm2 = 1.0 / (2.0 * (1.0 + sign * math.exp(-2.0 * abs(amplitude) ** 2)))
    beta = complex(amplitude) * complex(math.cos(theta), math.sin(theta))
    amp = coherent_wavefunction(beta, x) + sign * coherent_wavefunction(-beta, x)
    return norm2 * np.abs(amp) ** 2


def even_5_smooth_length(n: int) -> int:
    """The smallest even 2^a 3^b 5^c >= 4 n, by enumeration of the products."""
    top = 8 * n
    products = [2 ** a * 3 ** b * 5 ** c for a in range(1, top.bit_length() + 1)
                for b in range(top.bit_length()) for c in range(top.bit_length())]
    return min(m for m in products if m >= 4 * n)


def ramp_filter_full_spectrum(values, dx: float, reg_s: float):
    """The apodized ramp filter of every slice on the 4x finer grid, from the full complex
    spectrum of the slices padded to ``even_5_smooth_length``: its positive half, and its
    negative half with the Nyquist bin, copied into a zero-padded spectrum whose inverse
    FFT's real part is the filtered slice."""
    from qopt.tomography import _FFT_UPSAMPLE, _ramp_kernel

    n = values.shape[1]
    n_pad = even_5_smooth_length(n)
    response = np.fft.fft(_ramp_kernel(n_pad, dx)).real * dx
    y = 2.0 * math.pi * np.fft.fftfreq(n_pad, d=dx)
    response *= np.exp(-reg_s * y * y / 8.0)
    spectrum = np.fft.fft(values, n=n_pad, axis=1) * response
    fine = np.zeros((values.shape[0], _FFT_UPSAMPLE * n_pad), dtype=complex)
    half = n_pad // 2
    fine[:, :half] = spectrum[:, :half]
    fine[:, -half:] = spectrum[:, -half:]
    filtered = np.fft.ifft(fine, axis=1).real * _FFT_UPSAMPLE
    return filtered[:, :_FFT_UPSAMPLE * n], dx / _FFT_UPSAMPLE


def backprojection_two_gathers(sino, q_grid, p_grid, reg_s: float):
    """Filtered backprojection values[i, j] at (q_grid[i], p_grid[j]): the slices, extended
    by zeros on their x lattice to the farthest grid point from the origin, filtered, then per
    angle linear interpolation between two gathered samples, the index and the fraction
    clipped apart."""
    x_grid = sino.x_grid
    dx = x_grid[1] - x_grid[0]
    qq, pp = np.meshgrid(q_grid, p_grid, indexing="ij")
    reach = np.sqrt(qq * qq + pp * pp).max()
    below = np.arange(x_grid[0] - dx, -reach - dx, -dx)[::-1]  # the lattice down past -reach
    above = np.arange(x_grid[-1] + dx, reach + dx, dx)          # and up past +reach
    extended = np.zeros((sino.n_angles, below.size + x_grid.size + above.size))
    extended[:, below.size:below.size + x_grid.size] = sino.values
    filtered, dx_fine = ramp_filter_full_spectrum(extended, dx, reg_s)
    x_first = x_grid[0] - below.size * dx
    n_fine = filtered.shape[1]
    recon = np.zeros_like(qq)
    for i, theta in enumerate(sino.theta_grid):
        pos = (qq * math.cos(theta) - pp * math.sin(theta) - x_first) / dx_fine
        idx = np.clip(pos.astype(int), 0, n_fine - 2)
        frac = np.clip(pos - idx, 0.0, 1.0)
        recon += (1.0 - frac) * filtered[i, idx] + frac * filtered[i, idx + 1]
    return recon * (math.pi / sino.n_angles)


def wigner_from_symplectic(marginal_fn, q, p, x_grid, n_angles: int = 180,
                           reg_s: float = 1e-2, n_freq: int = 257) -> np.ndarray | float:
    """W(q, p) from the marginal family of X = mu q + nu p via its Fourier data.

    ``marginal_fn(mu, nu)`` must return the density of X = mu q + nu p
    (delta = 0) sampled on the uniform ``x_grid``.  The Fourier transform of each
    directional marginal is a radial slice of the state's characteristic
    function chi(k mu, k nu); assembling chi in polar coordinates and
    inverting gives W.  Band-limited with the same apodization as
    ``inverse_radon``, against which it cross-validates.
    """
    if n_angles < 16:
        raise ValueError("need at least 16 directions")
    x_grid = np.asarray(x_grid, dtype=float)
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    dx = x_grid[1] - x_grid[0]
    k_max = math.pi / dx
    ks = np.linspace(-k_max, k_max, n_freq)
    apod = np.exp(-reg_s * ks * ks / 8.0)

    # chi(k mu, k nu) = int w(X) e^{-i k X} dX, assembled at all k at once
    phase = np.exp(-1j * np.outer(ks, x_grid))
    out = np.zeros(np.broadcast(q, p).shape)
    d_phi = math.pi / n_angles
    for j in range(n_angles):
        phi = j * d_phi
        mu, nu = math.cos(phi), -math.sin(phi)
        density = np.asarray(marginal_fn(mu, nu), dtype=float)
        if density.shape != x_grid.shape:
            raise ValueError("marginal_fn must return samples on x_grid")
        chi = phase @ density * dx
        x0 = q * mu + p * nu
        kernel = np.exp(1j * np.multiply.outer(x0, ks))
        out += np.trapezoid((np.abs(ks) * apod * chi) * kernel, ks, axis=-1).real
    out *= d_phi / (2.0 * math.pi)
    return out if out.ndim else float(out)


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


PRESET_OMEGA_SQUARED = {"free": 0.0, "oscillator": 1.0, "repulsive": -1.0}


def closed_form_epsilon(w2: float, t):
    """eps(t) = cos(wt) + i sin(wt)/w from (1, i) for a constant w^2, with its limits
    1 + it at w^2 = 0 and cosh(kt) + i sinh(kt)/k at w^2 = -k^2 < 0."""
    t = np.asarray(t, dtype=float)
    if w2 > 0:
        w = math.sqrt(w2)
        out = np.cos(w * t) + 1j * np.sin(w * t) / w
    elif w2 == 0:
        out = 1.0 + 1j * t
    else:
        k = math.sqrt(-w2)
        out = np.cosh(k * t) + 1j * np.sinh(k * t) / k
    return out if out.ndim else complex(out)


def closed_form_epsilon_derivative(w2: float, t):
    """Exact time derivative of :func:`closed_form_epsilon`."""
    t = np.asarray(t, dtype=float)
    if w2 > 0:
        w = math.sqrt(w2)
        out = -w * np.sin(w * t) + 1j * np.cos(w * t)
    elif w2 == 0:
        out = 1j * np.ones_like(t)
    else:
        k = math.sqrt(-w2)
        out = k * np.sinh(k * t) + 1j * np.cosh(k * t)
    return out if out.ndim else complex(out)


def closed_form_epsilon_phase(w2: float, t):
    """arg of :func:`closed_form_epsilon` on the branch continuous from 0 at t = 0: for
    w^2 > 0 it passes k pi exactly at wt = k pi, and for w^2 <= 0 it stays in [0, pi/2)."""
    t = np.asarray(t, dtype=float)
    if w2 <= 0:
        return np.angle(closed_form_epsilon(w2, t))
    w = math.sqrt(w2)
    turns = np.round(w * t / math.pi)
    rest = w * t - turns * math.pi  # in [-pi/2, pi/2], where cos(rest) >= 0
    return turns * math.pi + np.arctan2(np.sin(rest) / w, np.cos(rest))


def complex_structure(n_modes: int) -> np.ndarray:
    """sigma = [[0, iI], [-iI, 0]], the generator metric in (a, a^dag) ordering."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, 1j * eye], [-1j * eye, zero]])


def pure_gaussian_state(m, c) -> GaussianState:
    """Gaussian state of the pure wavefunction exp(-x.m.x + c.x), normalized; Re(m) > 0."""
    m = np.asarray(m, dtype=complex)
    c = np.asarray(c, dtype=complex).reshape(-1)
    m_re, m_im = m.real, m.imag
    c_re, c_im = c.real, c.imag
    m_re_inv = np.linalg.inv(m_re)
    s_pp = np.linalg.inv(np.real(np.linalg.inv(m)))
    s_qq = 0.25 * m_re_inv
    s_pq = -0.5 * m_im @ m_re_inv
    M = np.block([[s_pp, s_pq], [s_pq.T, s_qq]])
    x_bar = 0.5 * m_re_inv @ c_re
    p_bar = c_im - m_im @ m_re_inv @ c_re
    return GaussianState(np.concatenate([p_bar, x_bar]), 0.5 * (M + M.T))


def hamiltonian_to_creation_annihilation(hamiltonian):
    """Constant (D, E) with H = 1/2 A.D.A + E.A in the (a, a^dag) ordering, read at t = 0."""
    u = quadrature_rotation(hamiltonian.n_modes)
    d = u.T @ hamiltonian.b_matrix(0.0) @ u
    e = u.T @ hamiltonian.c_vector(0.0)
    return 0.5 * (d + d.T), e


def flow_by_ode(ham, ts, knots=()):
    """(Lam, Delta) of H at the increasing times 0 <= ts, ts[-1] > 0, from dense DOP853 solves at
    rtol 1e-13, restarted at each of the ``knots`` where B or C has a kink."""
    from scipy.integrate import solve_ivp

    ts = np.asarray(ts, dtype=float)
    n = ham.n_modes
    dim = 2 * n
    sigma = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])

    def rhs(t, y):
        lam_sigma = y[:dim * dim].reshape(dim, dim) @ sigma
        return np.concatenate([(lam_sigma @ ham.b_matrix(t)).ravel(),
                               lam_sigma @ ham.c_vector(t)])

    bounds = [0.0, *(k for k in sorted(knots) if 0.0 < k < ts[-1]), ts[-1]]
    y = np.concatenate([np.eye(dim).ravel(), np.zeros(dim)])
    out = np.empty((ts.size, y.size))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-13, atol=1e-15,
                        dense_output=True)
        inside = (ts >= lo) & (ts <= hi)
        out[inside] = sol.sol(ts[inside]).T
        y = sol.y[:, -1]
    return out[:, :dim * dim].reshape(-1, dim, dim), out[:, dim * dim:]
