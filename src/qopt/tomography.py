"""Homodyne marginals of Wigner densities and filtered-backprojection inversion.

Angle convention: the homodyne quadrature at local-oscillator angle Theta is
X(Theta) = q cos(Theta) - p sin(Theta).  The line through phase space with
X fixed is parametrized as

    q = X cos(Theta) + V sin(Theta),   p = -X sin(Theta) + V cos(Theta),

and the marginal w(X, Theta) integrates W/(2pi) over V, so every slice is a
unit-mass probability density.  (The sign of sin matters: common CT codes
use q cos + p sin.)

Sampled densities are projected row by row (Joseph's CT reprojector): for
|cos| >= |sin| a line meets each p row at q = (X + p sin)/cos, where W is a
cubic spline along q only; the line integral is the trapezoid sum over those
exact p nodes, step dp/|cos|.  Otherwise q and p swap (step dq/|sin|).

Inversion is ramp-filtered backprojection.  The formal inverse carries the
filter |y| with a regularizer exp(s y^2 / 8) whose printed sign diverges; the
stable realization is the s -> 0+ limit, i.e. Gaussian apodization
exp(-reg_s y^2 / 8) of the ramp, which blurs the reconstruction by an
isotropic Gaussian of variance reg_s / 4 per axis.  The grid is backprojected
in blocks of whole rows, as ``sample_lattice`` samples one, so its work arrays
follow the block, not the grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError
from .gaussian import _dyad_sum
from .io import _BLOCK, PHASE_SPACE_HEADER, SINOGRAM_HEADER, read_lattice

_FFT_PAD = 4
_FFT_UPSAMPLE = 4
_MIN_ANGLES = 32
_BOUNDARY_TOL = 1e-8  # a Wigner grid whose boundary passes this fraction of its peak cuts the state
_EDGE_WARN = 1e-3  # slices ending above this fraction of their peak lose tails that show
_ROW_PAD = 4  # zero spline coefficients beyond each end of the interpolated axis
_ROW_BLOCK = 32  # x values per gather block, angles per ramp-filter block; keeps them in cache
_SPLINE_POLE = math.sqrt(3.0) - 2.0


def _check_uniform(grid, name):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.shape[0] < 2:
        raise ValueError(f"{name} must be a 1D grid with at least two points")
    steps = np.diff(grid)
    if steps.min() <= 0:
        raise ValueError(f"{name} must be strictly increasing")
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError(f"{name} must be uniform")
    return grid


@dataclass(frozen=True)
class WignerGrid:
    """W sampled on a uniform (q, p) lattice; values[i, j] = W(q_i, p_j)."""

    q_grid: np.ndarray
    p_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self._hold(np.array(self.values, dtype=float))

    @classmethod
    def _adopt(cls, q_grid, p_grid, values: np.ndarray) -> WignerGrid:
        """The grid over ``values``, a fresh float array that no caller holds, taken over
        (and frozen) without a copy."""
        grid = cls.__new__(cls)
        object.__setattr__(grid, "q_grid", q_grid)
        object.__setattr__(grid, "p_grid", p_grid)
        grid._hold(values)
        return grid

    def _hold(self, vals: np.ndarray) -> None:
        q = _check_uniform(self.q_grid, "q_grid").copy()
        p = _check_uniform(self.p_grid, "p_grid").copy()
        if vals.shape != (q.shape[0], p.shape[0]):
            raise ValueError(f"values shape {vals.shape} does not match grids "
                             f"({q.shape[0]}, {p.shape[0]})")
        for name, arr in (("q_grid", q), ("p_grid", p), ("values", vals)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def mass(self) -> float:
        """Integral of W dq dp / (2 pi)."""
        return lattice_mass(self.q_grid, self.p_grid, self.values)

    def boundary_peak_ratio(self) -> float:
        return boundary_peak_ratio(self.values)


def lattice_mass(q_grid, p_grid, values) -> float:
    """Trapezoid integral of values[i, j] = f(q_i, p_j) against dq dp / (2 pi)."""
    inner = np.trapezoid(values, p_grid, axis=1)
    return float(np.trapezoid(inner, q_grid) / (2.0 * math.pi))


def boundary_peak_ratio(values) -> float:
    """Largest |value| on the lattice's edge over the largest anywhere (0 if all vanish,
    nan if one is not finite)."""
    values = np.asarray(values)
    peak = np.abs(values).max()
    if not math.isfinite(peak):
        return math.nan
    edge = max(np.abs(values[0]).max(), np.abs(values[-1]).max(),
               np.abs(values[:, 0]).max(), np.abs(values[:, -1]).max())
    return float(edge / peak) if peak > 0 else 0.0


@dataclass(frozen=True)
class Sinogram:
    """Marginal samples w(X, Theta); values[i, j] = w(x_grid[j], theta_grid[i])."""

    theta_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray
    normalization_defects: np.ndarray = field(default=None)

    def __post_init__(self):
        theta = np.array(self.theta_grid, dtype=float)
        x = _check_uniform(self.x_grid, "x_grid").copy()
        vals = np.array(self.values, dtype=float)
        if np.any(theta < 0) or np.any(theta >= math.pi + 1e-12):
            raise ValueError("angles must lie in [0, pi)")
        if vals.shape != (theta.shape[0], x.shape[0]):
            raise ValueError(f"values shape {vals.shape} does not match grids "
                             f"({theta.shape[0]}, {x.shape[0]})")
        defects = self.normalization_defects
        defects = np.zeros(theta.shape[0]) if defects is None else np.array(defects, dtype=float)
        for name, arr in (("theta_grid", theta), ("x_grid", x), ("values", vals),
                          ("normalization_defects", defects)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_angles(self) -> int:
        return self.theta_grid.shape[0]

    def boundary_peak_ratio(self) -> float:
        """Largest |end sample| of a slice over that slice's largest |value| (0 if all vanish)."""
        values = np.abs(self.values)
        peaks, ends = values.max(axis=1), np.maximum(values[:, 0], values[:, -1])
        return float(np.divide(ends, peaks, out=np.zeros_like(ends), where=peaks > 0)
                     .max(initial=0.0))


def sample_lattice(f, a_grid, b_grid) -> np.ndarray:
    """values[i, j] = f(a_grid[i], b_grid[j]) for a pointwise f that broadcasts over
    arrays, evaluated on blocks of whole rows of at most ``_BLOCK`` points (one row
    when a row is longer), so f's temporaries follow the block, not the lattice."""
    a, b = np.asarray(a_grid, dtype=float), np.asarray(b_grid, dtype=float)
    values = np.empty((a.shape[0], b.shape[0]))
    rows = max(1, _BLOCK // max(1, b.shape[0]))
    for start in range(0, a.shape[0], rows):
        block = values[start:start + rows]
        block[...] = f(*np.meshgrid(a[start:start + rows], b, indexing="ij"))
    return values


def wigner_grid_from_callable(f, q_grid, p_grid) -> WignerGrid:
    """Sample W(q, p) = f(q, p) on the lattice by ``sample_lattice``: f must act
    pointwise and broadcast over arrays."""
    return WignerGrid._adopt(q_grid, p_grid, sample_lattice(f, q_grid, p_grid))


def _cubic_spline_coefficients(values) -> np.ndarray:
    """Cubic B-spline coefficients along axis 0 that interpolate ``values`` at the samples.

    The inverse of the filter (z + 4 + 1/z) / 6 as a causal and an anti-causal recursion
    of pole z = sqrt(3) - 2 and gain 6 (Unser, IEEE Signal Proc. Mag. 16(6), 22 (1999)),
    vectorized over the other axis.  The causal pass starts from the sum over the
    mirror-symmetric extension, the boundary of scipy.ndimage.spline_filter1d(order=3)
    in its "mirror" and "constant" modes.
    """
    z = _SPLINE_POLE
    c = np.array(values, dtype=float, order="C")
    c *= 6.0
    n = c.shape[0]
    # the causal sum over the mirrored period 2n - 2, in closed form
    k = np.arange(n)
    weights = z ** k + z ** (2 * n - 2 - k)
    weights[0], weights[-1] = 1.0, z ** (n - 1)
    c[0] = weights @ c / (1.0 - z ** (2 * n - 2))
    for i in range(1, n):
        c[i] += z * c[i - 1]
    c[-1] = (c[-1] + z * c[-2]) * (z / (z * z - 1.0))  # the mirror boundary's start
    for i in range(n - 2, -1, -1):
        c[i] -= c[i + 1]
        c[i] *= -z
    return c


def _projector(grid: WignerGrid):
    """``project(theta, x)``: line integrals of W / (2 pi) along X(theta) = x (module doc)."""
    axes = (grid.q_grid, grid.p_grid)
    # per axis: coefficients splined along it, that axis first, zero-padded, flattened
    rows = [np.pad(_cubic_spline_coefficients(np.moveaxis(grid.values, axis, 0)),
                   [(_ROW_PAD, _ROW_PAD), (0, 0)]).ravel()
            for axis in (0, 1)]
    # the work arrays of a block of x values, flat, viewed as (x values, nodes) for each block
    size = _ROW_BLOCK * max(grid.values.shape)
    index, scratch = np.empty(size, dtype=np.intp), [np.empty(size) for _ in range(7)]

    def project(theta: float, x: np.ndarray) -> np.ndarray:
        c, s = math.cos(theta), math.sin(theta)
        # on the line, the interpolated coordinate is lead * x + slope * (node coordinate)
        axis, lead, slope, cross = ((0, 1 / c, s / c, c) if abs(c) >= abs(s)
                                    else (1, -1 / s, c / s, s))
        along, nodes = axes[axis], axes[1 - axis]
        h, n, stride = along[1] - along[0], along.shape[0], nodes.shape[0]
        offset = nodes * (slope / h) + (_ROW_PAD - along[0] / h)
        columns = np.arange(stride)
        taps = [rows[axis][k * stride:] for k in range(4)]  # taps -1..2 as shifted views
        out = np.empty(x.shape[0])
        for start in range(0, x.shape[0], _ROW_BLOCK):
            block = x[start:start + _ROW_BLOCK]
            shape = (block.shape[0], stride)
            cell, t, t2, r, r2, weight, tap, acc = (
                work[:block.shape[0] * stride].reshape(shape) for work in (index, *scratch))
            np.add.outer(block * (lead / h), offset, out=t)
            np.clip(t, _ROW_PAD - 2.0, n + _ROW_PAD + 1.0, out=t)  # past the grid: zero taps
            np.floor(t, out=acc)
            t -= acc
            np.copyto(cell, acc, casting="unsafe")
            cell -= 1
            cell *= stride
            cell += columns
            # cubic B-spline weights (times 6) of taps -1..2: u^3 for the outer taps and
            # (3u - 6) u^2 + 4 for the inner ones, with u = 1 - t for taps -1, 0 and u = t else
            np.multiply(t, t, out=t2)
            np.subtract(1.0, t, out=r)
            np.multiply(r, r, out=r2)
            for k, (u, u2) in enumerate([(r, r2), (t, t2), (r, r2), (t, t2)]):
                if k in (0, 3):
                    np.multiply(u2, u, out=weight)
                else:
                    np.multiply(u, 3.0, out=weight)
                    weight -= 6.0
                    weight *= u2
                    weight += 4.0
                np.take(taps[k], cell, out=tap, mode="clip")
                if k == 0:
                    np.multiply(tap, weight, out=acc)
                else:
                    tap *= weight
                    acc += tap
            out[start:start + _ROW_BLOCK] = acc.sum(axis=1) - 0.5 * (acc[:, 0] + acc[:, -1])
        return out * ((nodes[1] - nodes[0]) / (12.0 * math.pi * abs(cross)))

    return project


def gaussian_sinogram(state, theta_grid, x_grid) -> Sinogram:
    """Exact sinogram of a one-mode Gaussian or cat state: each of its Gaussian dyads has
    the 1-D marginal of mean u.mu and variance u.disp.u, u = (-sin theta, cos theta)."""
    if state.n_modes != 1:
        raise ValueError("closed-form marginal requires a single mode")
    dyads = state.dyads()
    theta_grid = np.asarray(theta_grid, dtype=float)
    x_grid = _check_uniform(x_grid, "x_grid")
    # arrays broadcast over (term, angle, x)
    c, s = np.cos(theta_grid)[:, np.newaxis], np.sin(theta_grid)[:, np.newaxis]
    (v_pp, v_pq), (_, v_qq) = dyads.disp
    var = v_qq * c * c + v_pp * s * s - 2.0 * v_pq * s * c
    m_p, m_q = dyads.means.real.T[:, :, np.newaxis, np.newaxis]
    n_p, n_q = dyads.means.imag.T[:, :, np.newaxis, np.newaxis]
    d, n = x_grid - (m_q * c - m_p * s), n_q * c - n_p * s
    values = _dyad_sum(dyads.log_weights[:, np.newaxis, np.newaxis], d * d / var,
                       n * n / var, n * d / var)
    return Sinogram(theta_grid, x_grid, values / np.sqrt(2.0 * np.pi * var))


def forward_marginal_numeric(grid: WignerGrid, theta_grid, x_grid=None) -> Sinogram:
    """Marginals w(X, Theta) by line integration of a sampled Wigner density.

    Each slice is renormalized to unit mass; the pre-normalization defect is
    kept in the sinogram.  The grid must contain the state's support: the
    boundary-to-peak ratio must be at most ``_BOUNDARY_TOL``, or it raises ``ValueError``;
    a grid holding a value that is not finite raises ``NonFiniteError``.
    """
    ratio = grid.boundary_peak_ratio()
    if math.isnan(ratio):
        raise NonFiniteError("Wigner grid holds a value that is not finite")
    if ratio > _BOUNDARY_TOL:
        raise ValueError(f"Wigner grid boundary carries {ratio:.2e} of the peak; "
                         f"support is not covered (tolerance {_BOUNDARY_TOL:.1e})")
    theta_grid = np.asarray(theta_grid, dtype=float)
    x_grid = _check_uniform(grid.q_grid if x_grid is None else x_grid, "x_grid")

    project = _projector(grid)
    values = np.empty((theta_grid.shape[0], x_grid.shape[0]))
    defects = np.empty(theta_grid.shape[0])
    for i, theta in enumerate(theta_grid):
        slice_vals = project(theta, x_grid)
        mass = np.trapezoid(slice_vals, x_grid)
        defects[i] = abs(mass - 1.0)
        values[i] = slice_vals / mass if mass > 0 else slice_vals
    return Sinogram(theta_grid, x_grid, values, defects)


def _ramp_kernel(n_pad: int, dx: float) -> np.ndarray:
    """Band-limited ramp filter as an explicit spatial kernel (wrap-around order).

    h(0) = pi / (2 dx^2), h(n dx) = -2 / (pi n^2 dx^2) for odd n, else 0.
    Sampling the kernel in space instead of |y| in frequency keeps the DC
    response of the truncated filter consistent, which sampled |y| does not
    (it systematically loses mass).
    """
    h = np.zeros(n_pad)
    h[0] = math.pi / (2.0 * dx * dx)
    odd = np.arange(1, n_pad // 2 + 1, 2)
    vals = -2.0 / (math.pi * odd.astype(float) ** 2 * dx * dx)
    h[odd] = vals
    h[-odd] = vals
    return h


def _fft_length(n: int) -> int:
    """The smallest even length >= ``_FFT_PAD`` n without a prime factor above 5."""
    length = _FFT_PAD * n  # even, as _FFT_PAD is
    while True:
        rest = length
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return length
        length += 2


def _ramp_response(n: int, dx: float, reg_s: float) -> np.ndarray:
    """Half spectrum of the apodized ramp filter for slices of n samples, padded to
    ``_fft_length(n)``; the Nyquist bin of the padded grid at half weight (below)."""
    n_pad = _fft_length(n)
    response = np.fft.rfft(_ramp_kernel(n_pad, dx)).real * dx
    y = 2.0 * math.pi * np.fft.rfftfreq(n_pad, d=dx)
    response *= np.exp(-reg_s * y * y / 8.0)
    # the finer grid keeps the Nyquist bin of the padded one as two bins, at +-y, of half weight
    response[n_pad // 2] *= 0.5
    return response


def _ramp_filter_slices(values: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Slices filtered by ``_ramp_response(n, dx, reg_s)``, on the ``_FFT_UPSAMPLE``
    times finer x grid of step dx / ``_FFT_UPSAMPLE``."""
    n = values.shape[1]
    half = response.shape[0] - 1
    n_pad = 2 * half
    # zero-padding the half spectrum evaluates the filtered slices on a finer grid
    n_fine = _FFT_UPSAMPLE * n_pad
    spectrum = np.zeros((values.shape[0], n_fine // 2 + 1), dtype=complex)
    spectrum[:, :half + 1] = np.fft.rfft(values, n=n_pad, axis=1)
    spectrum[:, :half + 1] *= response
    filtered = np.fft.irfft(spectrum, n=n_fine, axis=1)[:, :_FFT_UPSAMPLE * n]
    filtered *= _FFT_UPSAMPLE
    return filtered


def inverse_radon(sino: Sinogram, q_grid, p_grid, reg_s: float = 1e-2) -> WignerGrid:
    """Reconstruct W(q, p) from marginals by filtered backprojection.

    Requires at least 32 angles and a positive regularization scale; smaller
    reg_s sharpens the reconstruction at the cost of noise amplification.
    Before filtering, each slice is extended by zeros, on its own x lattice, out to the
    grid's reach: the largest |X| of a grid corner at any angle.  A sinogram whose slices
    end above ``_EDGE_WARN`` of their peak (``Sinogram.boundary_peak_ratio``) warns, since
    the zeros then cut off a marginal that has not decayed.
    """
    if reg_s <= 0:
        raise ValueError("reg_s must be positive")
    if sino.n_angles < _MIN_ANGLES:
        raise ValueError(f"need at least {_MIN_ANGLES} angles, got {sino.n_angles}")
    q_grid = _check_uniform(np.asarray(q_grid, dtype=float), "q_grid")
    p_grid = _check_uniform(np.asarray(p_grid, dtype=float), "p_grid")
    ratio = sino.boundary_peak_ratio()
    if ratio > _EDGE_WARN:
        warnings.warn(f"sinogram slices end at {ratio:.2e} of their peak (above {_EDGE_WARN:.0e}); "
                      f"the reconstruction treats the marginals as zero beyond their x range")

    dx = sino.x_grid[1] - sino.x_grid[0]
    dx_fine = dx / _FFT_UPSAMPLE
    reach = math.hypot(np.abs(q_grid[[0, -1]]).max(), np.abs(p_grid[[0, -1]]).max())
    before = max(0, math.ceil((reach + sino.x_grid[0]) / dx))
    after = max(0, math.ceil((reach - sino.x_grid[-1]) / dx))
    x_start = sino.x_grid[0] - before * dx
    n_x = sino.x_grid.shape[0] + before + after
    response = _ramp_response(n_x, dx, reg_s)
    # per slice, each filtered sample with the slope to the next one; the last slope is 0,
    # so a position that round-off puts past either end reads the end sample.  The slices
    # are extended and filtered _ROW_BLOCK at a time, straight into the table
    table = np.zeros((sino.n_angles, _FFT_UPSAMPLE * n_x), dtype=complex)
    n_fine = table.shape[1]
    for start in range(0, sino.n_angles, _ROW_BLOCK):
        rows = table[start:start + _ROW_BLOCK]
        slices = np.pad(sino.values[start:start + _ROW_BLOCK], [(0, 0), (before, after)])
        rows.real = _ramp_filter_slices(slices, response)
        np.subtract(rows.real[:, 1:], rows.real[:, :-1], out=rows.imag[:, :-1])

    # the grid is backprojected in blocks of whole rows, the blocks of sample_lattice, with
    # work arrays of one block; each point sums the angles in their order
    recon = np.zeros((q_grid.shape[0], p_grid.shape[0]))
    block_rows = max(1, _BLOCK // p_grid.shape[0])
    shape = (min(block_rows, q_grid.shape[0]), p_grid.shape[0])
    scratch = np.empty(shape), np.empty(shape, dtype=np.intp), np.empty(shape, complex)
    angles = [(math.cos(theta), math.sin(theta)) for theta in sino.theta_grid]
    for start in range(0, q_grid.shape[0], block_rows):
        out, q = recon[start:start + block_rows], q_grid[start:start + block_rows]
        pos, cell, value = (work[:q.shape[0]] for work in scratch)
        for (c, s), row in zip(angles, table):
            # position of X = q cos - p sin on the fine grid, in samples
            np.subtract.outer((q * c - x_start) / dx_fine, p_grid * (s / dx_fine), out=pos)
            np.clip(pos, 0.0, n_fine - 1.0, out=pos)
            np.copyto(cell, pos, casting="unsafe")  # truncation: the floor of pos >= 0
            pos -= cell
            np.take(row, cell, out=value, mode="clip")
            out += value.real
            pos *= value.imag
            out += pos
    recon *= math.pi / sino.n_angles
    return WignerGrid._adopt(q_grid, p_grid, recon)


def symplectic_marginal(grid: WignerGrid, mu: float, nu: float, delta: float = 0.0,
                        x_grid=None) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of X = mu q + nu p + delta by line integration.

    Returns (x_grid, density).  Reduces to the Theta-marginal at
    mu = cos(Theta), nu = -sin(Theta), delta = 0.
    """
    scale = math.hypot(mu, nu)
    if scale == 0.0:
        raise ValueError("(mu, nu) must not both vanish")
    if x_grid is None:
        half = math.hypot(max(abs(grid.q_grid[0]), grid.q_grid[-1]),
                          max(abs(grid.p_grid[0]), grid.p_grid[-1])) * scale + abs(delta)
        n = max(grid.q_grid.shape[0], 129)
        x_grid = np.linspace(-half, half, 2 * n + 1)
    x_grid = _check_uniform(np.asarray(x_grid, dtype=float), "x_grid")

    # X = scale X(theta) + delta, with cos(theta) = mu / scale and sin(theta) = -nu / scale
    return x_grid, _projector(grid)(math.atan2(-nu, mu), (x_grid - delta) / scale) / scale


def sinogram_from_csv(path) -> Sinogram:
    """Read a (theta, x, value) sinogram CSV as ``tomo-forward`` writes it."""
    return Sinogram(*read_lattice(path, SINOGRAM_HEADER, "sinogram"))


def wigner_grid_from_csv(path) -> WignerGrid:
    """Read a (q, p, value) Wigner-grid CSV as ``wigner`` and ``tomo-invert`` write it."""
    return WignerGrid(*read_lattice(path, PHASE_SPACE_HEADER, "Wigner-grid"))
