"""One-variable and multivariable Hermite polynomials plus Gaussian overlaps.

The multivariable family H_n^{R}(y) is fixed by the generating function

    exp(-1/2 a.R.a + a.R.y) = sum_n H_n^{R}(y) a^n / n!

over complex symmetric S x S matrices R and complex S-vectors y, where
a^n = a_1^{n_1}...a_S^{n_S} and n! = n_1!...n_S!.  The scalar case R = 2
reduces to the classical (physicists') polynomials H_n(y).

One engine, :func:`hermite_box`, evaluates the family.  It stores the
renormalized values G_k = H_k / sqrt(k!) (Miatto & Quesada, Quantum 4, 366,
2020), which stay within floating-point range far beyond the point where
H_k or k! overflow, and fills them over a box k < shape by

    G_k = (ry_i G_{k-e_i} - sum_j R_ij sqrt((k-e_i)_j) G_{k-e_i-e_j}) / sqrt(k_i)

with the pivot i the first nonzero axis of k.  The pivot depends on k alone,
so every value comes out the same whatever box holds it.  The recursion only
ever touches R and the product ry = R y.  The product form matters: several
callers (photon statistics of near-coherent states) have a finite linear
term R y while y itself diverges, so the engine takes the linear vector
directly.  Photon probabilities read G with no factorial; single values of
H_n multiply G_n by sqrt(n!) at the end.

A box holds at most ``BOX_ENTRY_CAP`` entries (2**24, 256 MiB of complex
values); a larger request raises ``ResourceLimitError``.

Tables by total degree (``mv_hermite_table`` and the Gaussian and cat photon-number
tables) share one index enumerator, ``_total_degree_indices``: totals up to D, in
order of total and then lexicographically, so each shell is a contiguous slice.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOverlapError, NonFiniteError, ResourceLimitError
from .matrices import check_symmetric

BOX_ENTRY_CAP = 2 ** 24
_COND_LIMIT = 1e12


def as_index(n, length: int | None = None) -> tuple[int, ...]:
    """Normalize ints or integer sequences to a validated tuple."""
    if isinstance(n, (int, np.integer)):
        idx = (int(n),)
    else:
        idx = tuple(int(k) for k in n)
    if any(k < 0 for k in idx):
        raise ValueError(f"multi-index entries must be nonnegative, got {idx}")
    if length is not None and len(idx) != length:
        raise ValueError(f"multi-index has length {len(idx)}, expected {length}")
    return idx


@dataclass(frozen=True)
class HermiteParams:
    """Evaluation context (R, y) for H_n^{R}(y)."""

    R: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        R = check_symmetric(np.asarray(self.R, dtype=complex), name="R")
        y = np.asarray(self.y, dtype=complex).reshape(-1)
        if R.shape[0] != y.shape[0]:
            raise ValueError(f"R is {R.shape} but y has length {y.shape[0]}")
        if R.shape[0] < 1:
            raise ValueError("dimension must be at least 1")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "y", y)

    @property
    def dim(self) -> int:
        return self.R.shape[0]


@dataclass(frozen=True)
class OverlapSpec:
    """Data of the integral of two Hermite polynomials against a Gaussian.

    Describes int H_n^{R}(x) H_m^{r}(Lam x + d) exp(-x.m.x + c.x) dx over
    R^N.  Re(m) must be positive definite for convergence.
    """

    R: np.ndarray
    r: np.ndarray
    lam: np.ndarray
    d: np.ndarray
    c: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        R = check_symmetric(np.asarray(self.R, dtype=complex), name="R")
        r = check_symmetric(np.asarray(self.r, dtype=complex), name="r")
        m = check_symmetric(np.asarray(self.m, dtype=complex), name="m")
        lam = np.asarray(self.lam, dtype=complex)
        d = np.asarray(self.d, dtype=complex).reshape(-1)
        c = np.asarray(self.c, dtype=complex).reshape(-1)
        n = m.shape[0]
        for name, obj, shape in [("R", R, (n, n)), ("r", r, (n, n)), ("lam", lam, (n, n)),
                                 ("d", d, (n,)), ("c", c, (n,))]:
            if obj.shape != shape:
                raise ValueError(f"{name} has shape {obj.shape}, expected {shape}")
        if np.linalg.eigvalsh(m.real).min() <= 0:
            raise ValueError("Re(m) must be positive definite")
        for field, val in [("R", R), ("r", r), ("lam", lam), ("d", d), ("c", c), ("m", m)]:
            object.__setattr__(self, field, val)

    @property
    def n_dim(self) -> int:
        return self.m.shape[0]


def hermite1d_eval(n: int, t):
    """Classical Hermite polynomial H_n(t) by the three-term recursion.

    Accepts scalars or arrays of real or complex argument.
    """
    n = int(n)
    if n < 0:
        raise ValueError("order must be nonnegative")
    t = np.asarray(t, dtype=complex)
    h_prev, h = np.ones_like(t), 2.0 * t
    if n == 0:
        out = h_prev
    else:
        for k in range(1, n):
            h_prev, h = h, 2.0 * t * h - 2.0 * k * h_prev
        out = h
    return out if out.ndim else complex(out)


def fock_wavefunction_eval(n: int, q, scale: float = 1.0):
    """Number-state wavefunction psi_n(q) of a ground Gaussian with width 1/sqrt(scale).

    psi_n(q) = (scale/pi)^{1/4} (2^n n!)^{-1/2} exp(-scale q^2/2) H_n(q sqrt(scale));
    the family is orthonormal in L^2(dq).
    """
    n = int(n)
    if n < 0:
        raise ValueError("order must be nonnegative")
    if scale <= 0:
        raise ValueError("scale must be positive")
    q = np.asarray(q, dtype=float)
    norm = (scale / math.pi) ** 0.25 * math.exp(-0.5 * (n * math.log(2.0) + math.lgamma(n + 1)))
    out = norm * np.exp(-0.5 * scale * q * q) * hermite1d_eval(n, q * math.sqrt(scale))
    return out if np.ndim(out) else complex(out)


def hermite_box(R, ry, shape) -> np.ndarray:
    """Renormalized values G_k = H_k / sqrt(k!) for every multi-index k < shape.

    The generating function is exp(-1/2 a.R.a + a.ry).  Raises
    ``ResourceLimitError`` when the box would exceed ``BOX_ENTRY_CAP`` entries
    and ``NonFiniteError`` when the recursion overflows.
    """
    R = np.asarray(R, dtype=complex)
    ry = np.asarray(ry, dtype=complex).reshape(-1)
    shape = tuple(int(s) for s in shape)
    dim = R.shape[0]
    if R.shape != (dim, dim) or ry.shape != (dim,) or len(shape) != dim:
        raise ValueError(f"R {R.shape}, linear vector {ry.shape} and box {shape} do not match")
    if min(shape) < 1:
        raise ValueError(f"box extents must be positive, got {shape}")
    entries = math.prod(shape)
    if entries > BOX_ENTRY_CAP:
        raise ResourceLimitError(
            f"box {shape} would hold {entries} entries, exceeding the cap {BOX_ENTRY_CAP}")
    box = np.zeros(shape, dtype=complex)
    box[(0,) * dim] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        _fill(box, R, ry, np.sqrt(np.arange(max(shape))), 0)
    if not np.isfinite(box).all():
        raise NonFiniteError(f"Hermite recursion overflowed in the box {shape}")
    return box


def _fill(sub: np.ndarray, R: np.ndarray, ry: np.ndarray, root: np.ndarray, axis: int) -> None:
    """Fill ``sub``, the part of the box whose axes before ``axis`` are zero.

    Entries with k_axis = 0 form a smaller box of the same kind, filled
    first; every other entry has ``axis`` as its pivot and is computed one
    slab k_axis = const at a time from the two slabs below it.  ``root``
    holds sqrt(0), sqrt(1), ... up to the longest box edge.
    """
    if sub.ndim > 1:
        _fill(sub[0], R, ry, root, axis + 1)
    for k in range(1, sub.shape[0]):
        prev = sub[k - 1]
        slab = ry[axis] * prev
        if k > 1:
            slab -= R[axis, axis] * root[k - 1] * sub[k - 2]
        for j in range(prev.ndim):
            # lower axis + 1 + j, which is axis j of the slab
            n = prev.shape[j]
            hi = (slice(None),) * j + (slice(1, None),)
            lo = (slice(None),) * j + (slice(None, n - 1),)
            weight = R[axis, axis + 1 + j] * root[1:n].reshape((-1,) + (1,) * (prev.ndim - j - 1))
            slab[hi] -= weight * prev[lo]
        sub[k] = slab / root[k]


def _from_renormalized(value: complex, idx: tuple[int, ...]) -> complex:
    """H_n = G_n sqrt(n!), raising ``NonFiniteError`` if it leaves double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = complex(value * np.exp(0.5 * sum(math.lgamma(k + 1) for k in idx)))
    if not cmath.isfinite(out):
        raise NonFiniteError(f"H_{idx} is not representable as a finite double")
    return out


def _total_degree_indices(dim: int, max_total: int) -> np.ndarray:
    """Every multi-index of length ``dim`` with total at most ``max_total``, as the rows of
    an int64 array ordered by total, then lexicographically."""
    indices = np.zeros((1, 0), dtype=np.int64)
    for _ in range(dim):  # lexicographic, one axis at a time
        room = max_total + 1 - indices.sum(axis=1)
        last = np.arange(room.sum()) - np.repeat(np.cumsum(room) - room, room)
        indices = np.column_stack([np.repeat(indices, room, axis=0), last])
    return indices[np.argsort(indices.sum(axis=1), kind="stable")]


def mv_hermite_table(params: HermiteParams,
                     max_total_degree: int) -> dict[tuple[int, ...], complex]:
    """All H_n^{R}(y) with total degree up to ``max_total_degree``."""
    if max_total_degree < 0:
        raise ValueError("max_total_degree must be nonnegative")
    box = hermite_box(params.R, params.R @ params.y, (max_total_degree + 1,) * params.dim)
    return {idx: _from_renormalized(box[idx], idx)
            for idx in map(tuple, _total_degree_indices(params.dim, max_total_degree).tolist())}


def mv_hermite_eval(params: HermiteParams, n) -> complex:
    """Single value H_n^{R}(y)."""
    idx = as_index(n, length=params.dim)
    box = hermite_box(params.R, params.R @ params.y, [k + 1 for k in idx])
    return _from_renormalized(box[idx], idx)


def gaussian_hermite_overlap(spec: OverlapSpec, n, m_idx) -> complex:
    """Overlap integral of H_n^{R} and H_m^{r}(Lam x + d) against exp(-x.m.x + c.x).

    The result is pi^{N/2} det(m)^{-1/2} exp(c.m^{-1}.c / 4) H_{(n,m)}^{rho}(y)
    with the coupled 2N x 2N matrix rho and argument y assembled from the
    spec; the first index block belongs to the R-side polynomial.
    """
    N = spec.n_dim
    idx_n = as_index(n, length=N)
    idx_m = as_index(m_idx, length=N)

    minv = np.linalg.inv(spec.m)
    R, r, lam = spec.R, spec.r, spec.lam
    r_lam = r @ lam
    R1 = R - 0.5 * R @ minv @ R
    R2 = r - 0.5 * r_lam @ minv @ lam.T @ r
    R12 = -0.5 * R @ minv @ lam.T @ r  # transpose is -1/2 r Lam m^{-1} R
    rho = np.block([[R1, R12], [R12.T, R2]])
    rho = 0.5 * (rho + rho.T)

    lin_a = 0.5 * R @ minv @ spec.c
    lin_b = 0.5 * r_lam @ minv @ spec.c + r @ spec.d
    linear = np.concatenate([lin_a, lin_b])

    cond = np.linalg.cond(rho)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise DegenerateOverlapError(
            f"coupling matrix is numerically singular (cond {cond:.3e})")

    eigvals = np.linalg.eigvals(spec.m)
    det_root = np.exp(0.5 * np.sum(np.log(eigvals)))  # branch continuous from real PD m
    prefactor = math.pi ** (N / 2) / det_root * np.exp(0.25 * spec.c @ minv @ spec.c)

    combined = idx_n + idx_m
    box = hermite_box(rho, linear, [k + 1 for k in combined])
    return complex(prefactor * _from_renormalized(box[combined], combined))
