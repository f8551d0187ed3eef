"""One-variable and multivariable Hermite polynomials plus Gaussian overlaps.

The multivariable family H_n^{R}(y) is fixed by the generating function

    exp(-1/2 a.R.a + a.R.y) = sum_n H_n^{R}(y) a^n / n!

over complex symmetric S x S matrices R and complex S-vectors y, where
a^n = a_1^{n_1}...a_S^{n_S} and n! = n_1!...n_S!.  The scalar case R = 2
reduces to the classical (physicists') polynomials H_n(y).

One recursion evaluates the family, over a box in :func:`hermite_box` and over
a near-diagonal set in :func:`hermite_diagonal`.  It runs on the
renormalized values G_k = H_k / sqrt(k!) (Miatto & Quesada, Quantum 4, 366,
2020), which stay within floating-point range far beyond the point where
H_k or k! overflow; the box fills every k < shape by

    G_k = (ry_i G_{k-e_i} - sum_j R_ij sqrt((k-e_i)_j) G_{k-e_i-e_j}) / sqrt(k_i)

with the pivot i the first nonzero axis of k.  The pivot depends on k alone,
so every value comes out the same whatever box holds it.  The recursion only
ever touches R and the product ry = R y.  The product form matters: several
callers (photon statistics of near-coherent states) have a finite linear
term R y while y itself diverges, so the engine takes the linear vector
directly.  Photon probabilities read G with no factorial; single values of
H_n multiply G_n by sqrt(n!) at the end.

A box holds at most ``BOX_ENTRY_CAP`` entries (2**24, 256 MiB of complex values); a
larger one raises ``ResourceLimitError`` in ``_check_cap``, which every photon table passes.

Photon statistics read only the diagonal G_(n,n) of a 2N-variable family, and
:func:`hermite_diagonal` fills only a near-diagonal set of (m, n) with
|m - n|_1 <= 2 (the diagonal recursion of De Prins, Yao, Apte and Miatto,
Quantum 7, 1097, 2023).  The pivot is the first axis of the m block where
m - n > 0, else the first of the n block where m - n < 0, else (on the
diagonal) the first axis with m_a > 0.  Each lowering step then moves
|m - n|_1 toward 0 or keeps it at most 2, and never reaches an offset
m - n = e_a + e_c from the diagonal, so the set leaves those out: about
(1 + 3N(N + 1)/2) C(D + N, N) entries up to total degree D, where a box
needs (D + 1)^(2N).
The fill runs one shell of |m| + |n| per step with one gather of the 2N + 1
terms of every entry, k - e_i and the k - e_i - e_j: one lowering step applied
twice, read from a table by offset m - n (``_steps``, built once per N by dictionary
lookup) and one by base (``_base_steps``, per range of totals).
The gather tables come in blocks of at most ``_BLOCK_TERMS`` terms (1 MiB).  A
``functools.lru_cache`` holds 32 per process: a fill caches its first 32 and builds
any later ones uncached, so a refill finds its first blocks cached.  Each value sees
the same operations however far the fill runs, so a diagonal is bitwise the
same for every ``max_degree`` that reaches it.  The set, not a box, counts
against ``BOX_ENTRY_CAP``; ``_near_diagonal_entries`` gives its size, which is a
Gaussian state's ``photon_table_size``.

Tables by total degree (the Gaussian and cat photon-number tables and the
near-diagonal fill) share one index enumerator, ``_total_degree_indices``:
totals up to D, in order of total and then lexicographically, so each shell
is a contiguous slice.
"""

from __future__ import annotations

import cmath
import functools
import itertools
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


def fock_wavefunction_eval(n: int, q, scale: float = 1.0):
    """Number-state wavefunction psi_n(q) of a ground Gaussian with width 1/sqrt(scale).

    psi_n(q) = (scale/pi)^{1/4} (2^n n!)^{-1/2} exp(-scale q^2/2) H_n(q sqrt(scale)), real;
    the family is orthonormal in L^2(dq).  With y = q sqrt(scale) it is the recursion
    psi_{k+1} = sqrt(2/(k+1)) y psi_k - sqrt(k/(k+1)) psi_{k-1} of the normalized Hermite
    functions, rescaled by a power of two every step; those powers and exp(-y^2/2) enter in
    one exp at the end, so no order or argument overflows.
    """
    n = int(n)
    if n < 0:
        raise ValueError("order must be nonnegative")
    if scale <= 0:
        raise ValueError("scale must be positive")
    y = np.asarray(q, dtype=float) * math.sqrt(scale)
    prev, cur = np.zeros_like(y), np.full_like(y, (scale / math.pi) ** 0.25)
    exponents = np.zeros(y.shape, dtype=np.int64)
    for k in range(n):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * y * cur - math.sqrt(k / (k + 1)) * prev
        step = np.frexp(cur)[1]
        prev, cur = np.ldexp(prev, -step), np.ldexp(cur, -step)
        exponents += step
    out = cur * np.exp(math.log(2.0) * exponents - 0.5 * y * y)
    return out if out.ndim else float(out)


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
    _check_cap(math.prod(shape), f"box {shape}")
    box = np.zeros(shape, dtype=complex)
    box[(0,) * dim] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        _fill(box, R, ry, np.sqrt(np.arange(max(shape))), 0)
    if not np.isfinite(box).all():
        raise NonFiniteError(f"Hermite recursion overflowed in the box {shape}")
    return box


def _check_cap(entries: int, what: str) -> None:
    """Raise ``ResourceLimitError`` when ``what``, a table of ``entries`` entries, would
    pass ``BOX_ENTRY_CAP``: the one check of every box, diagonal and photon table."""
    if entries > BOX_ENTRY_CAP:
        raise ResourceLimitError(
            f"{what} would hold {entries} entries, exceeding the cap {BOX_ENTRY_CAP}")


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


def _total_degree_indices(dim: int, max_total: int, min_total: int = 0) -> np.ndarray:
    """Every multi-index of length ``dim`` with total from ``min_total`` to ``max_total``,
    as the rows of an int64 array ordered by total, then lexicographically."""
    indices = np.zeros((1, 0), dtype=np.int64)
    for axis in range(dim):  # lexicographic, one axis at a time; the last reaches min_total
        used = indices.sum(axis=1)
        lowest = np.maximum(min_total - used, 0) if axis == dim - 1 else np.zeros_like(used)
        room = max_total + 1 - used - lowest
        last = np.arange(room.sum()) - np.repeat(np.cumsum(room) - room - lowest, room)
        indices = np.column_stack([np.repeat(indices, room, axis=0), last])
    return indices[np.argsort(indices.sum(axis=1), kind="stable")]


def _near_diagonal_entries(n_modes: int, max_degree: int) -> int:
    """Size of the near-diagonal set that :func:`hermite_diagonal` fills for ``max_degree``:
    the (m, n) at the 1 + 3N(N + 1)/2 offsets of ``_steps`` with |m| + |n| <= 2 max_degree."""
    return (math.comb(max_degree + n_modes, n_modes)
            + 3 * n_modes * (n_modes + 1) // 2 * math.comb(max_degree - 1 + n_modes, n_modes))


@functools.lru_cache(maxsize=8)
def _steps(n_modes: int):
    """The offsets d = m - n that a diagonal value reaches and one lowering step from each.

    The 1 + 3N(N + 1)/2 offsets come by norm: zero, the +-e_a, then the sums of two of those
    that do not cancel and keep a negative entry.  The pivot rule lowers m first wherever
    m - n > 0, so no recursion from the diagonal steps onto d = e_a + e_c; the other offsets
    of norm at most 2 are closed under its lowering steps.  Returns by offset its lift
    (max(d, 0), max(-d, 0)), and by (offset, step) the offset the step leaves (-1 outside
    the set) and the base axis that lowers with it, N for none.  Step 0 stays; step 1 + i
    lowers axis i of (m, n): lowering m_a lowers d_a, lowering n_a raises it, and the base
    lowers where that makes |d|_1 grow.  So the 2N + 1 terms of an entry are the pivot's
    step and then every step of the row it leaves.  A dictionary from each offset to its row
    finds each step's target, so the tables, K x (2N + 1) for K offsets, are all it holds.
    """
    eye = np.eye(n_modes, dtype=np.int8)  # the entries of an offset run from -2 to 2
    steps = np.concatenate([eye, -eye])
    pairs = np.add(*steps[np.array(np.triu_indices(2 * n_modes))])  # each sum once
    pairs = pairs[(np.abs(pairs).sum(axis=1) == 2) & (pairs < 0).any(axis=1)]
    offsets = np.concatenate([np.zeros((1, n_modes), dtype=np.int8), steps, pairs])
    moved = offsets[:, np.newaxis] - offsets[:2 * n_modes + 1]  # stay, then each step
    row = {d.tobytes(): i for i, d in enumerate(offsets)}
    targets = np.array([row.get(d.tobytes(), -1) for d in moved.reshape(-1, n_modes)])
    grows = np.abs(moved).sum(axis=-1) > np.abs(offsets).sum(axis=1)[:, np.newaxis]
    tables = (np.concatenate([np.maximum(offsets, 0), np.maximum(-offsets, 0)], axis=1),
              targets.reshape(grows.shape),
              np.where(grows, (np.arange(2 * n_modes + 1) - 1) % n_modes, n_modes))
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=2)
def _base_steps(n_modes: int, low: int, high: int):
    """The bases of totals ``low`` to ``high`` (by total, then lexicographically), the row
    where each total starts (and the end), and by (axis, row) the row of each base lowered
    on that axis; axis N keeps the row, and row ``len(bases)`` stands for a base that would
    turn negative or fall below ``low``.  Lowering axis i maps the bases of one total with
    b_i > 0, in order, onto all bases of the total below, in order (a shift keeps the
    lexicographic order), so a base's lowered row counts the rows above it in its total with
    b_i > 0.  The parts of one large shell share them."""
    bases = _total_degree_indices(n_modes, high, low)
    total = bases.sum(axis=1)
    start = np.searchsorted(total, np.arange(low, high + 2))
    above = np.cumsum(bases > 0, axis=0) - (bases > 0)  # by row and axis: rows with b_i > 0
    rank = start[np.maximum(total - 1 - low, 0)] + (above - above[start[total - low]]).T
    down = np.full((n_modes + 1, len(bases) + 1), len(bases))
    down[:n_modes, :-1] = np.where((bases.T > 0) & (total > low), rank, len(bases))
    down[n_modes, :-1] = np.arange(len(bases))
    for table in (bases, start, down):
        table.flags.writeable = False
    return bases, start, down


_BLOCK_SHELLS = 32
_BLOCK_TERMS = 2 ** 15  # 32 bytes a term (two int64 indices and a complex weight): 1 MiB
_CACHED_BLOCKS = 32


@functools.lru_cache(maxsize=_CACHED_BLOCKS)
def _near_diagonal_block(n_modes: int, first: int, skip: int):
    """Gather tables of the near-diagonal set from entry ``skip`` of shell ``first`` on.

    A block is the rest of that shell plus whole shells after it, as far as
    ``_BLOCK_SHELLS`` shells or ``_BLOCK_TERMS`` gather terms (2N + 1 per entry) reach; a
    longer rest comes in parts.  A shell lists its entries (b, d), m = b + max(d, 0),
    n = b + max(-d, 0), by offset in ``_steps`` order, then base b lexicographically.
    Each entry reads its terms' offsets and base axes from the rows of ``_steps`` with flat
    takes, so every array here grows with the block's terms alone.
    Returns the chunks, one per shell or part of one: for the 2N + 1 terms of each entry,
    their coefficients' indices in [ry | -R] flattened, their positions in the window
    [shell - 1, shell - 2, 0] and their weights; then the bases of the diagonal if the
    chunk ends an even shell, which the diagonal leads, and whether it ends its shell.
    Two threads in a race may both build a block, alike.
    """
    dim, (lifted, targets, axes) = 2 * n_modes, _steps(n_modes)
    # entries per (shell, offset) for the shells first - 2, first - 1, ...; a base count
    # past 2**40, which no table reaches, is clipped so the sums stay in int64
    half, odd = np.divmod(np.arange(first - 2, first + _BLOCK_SHELLS)[:, np.newaxis]
                          - lifted.sum(axis=1), 2)
    layer = [min(math.comb(h + n_modes - 1, n_modes - 1), 2 ** 40)
             for h in range(first // 2 + _BLOCK_SHELLS)]
    counts = np.where((odd == 0) & (half >= 0), np.take(layer, np.maximum(half, 0)), 0)
    reach, limit = np.cumsum(counts[2:].sum(axis=1)) - skip, _BLOCK_TERMS // (dim + 1)
    shells = max(1, int(np.searchsorted(reach, limit, side="right")))
    half, counts = half[:shells + 2], counts[:shells + 2]
    sizes, low = counts.sum(axis=1), max(0, (first - 4) // 2)  # the lowest total of a term
    bases, start, down = _base_steps(n_modes, low, (first + shells - 1) // 2)
    # entry e of the block: its group (shell, offset) and the row of its base
    ends = np.cumsum(counts[2:])
    e = np.arange(skip, skip + min(reach[shells - 1], limit))
    group = np.searchsorted(ends, e, side="right")
    shell, which = np.divmod(group, len(lifted))
    row = e - (ends - counts[2:].ravel())[group] + start[half[2:].ravel()[group] - low]
    base = bases.T[:, row]  # tables run axis first, entries along rows
    pivot = np.where(which == 0, (base > 0).argmax(axis=0), (lifted > 0).argmax(axis=1)[which])
    k = np.concatenate([base, base]) + lifted.take(which, axis=0).T
    entry = np.arange(len(e))
    scale = 1.0 / np.sqrt(k[pivot, entry])
    k[pivot, entry] -= 1  # weights sqrt(k_pivot)^-1, then sqrt((k - e_pivot)_j) / sqrt(k_pivot)
    weights = np.empty((dim + 1, len(e)), dtype=complex)
    weights[0], weights[1:] = scale, np.sqrt(k) * scale
    coefficients = pivot * (dim + 1) + np.arange(dim + 1)[:, np.newaxis]
    # k - e_pivot is the pivot's step from the entry, and the terms every step from there
    near = which * (dim + 1) + 1 + pivot
    near_row = down.take(axes.take(near) * down.shape[1] + row)
    step = targets.take(near) * (dim + 1) + np.arange(dim + 1)[:, np.newaxis]
    term_row = down.take(axes.take(step) * down.shape[1] + near_row)
    # a term's position is its group's start in the window plus its row less its total's first
    lead = np.cumsum(counts, axis=1) - counts - start[np.maximum(half - low, 0)]
    window = np.stack([lead[1:-1], sizes[1:-1, np.newaxis] + lead[:-2]], axis=1)
    # by shell, the leads in shell - 1 and in shell - 2: term 0 reads the first, the rest the second
    level = 2 * len(lifted) * shell + len(lifted) * np.minimum(np.arange(dim + 1), 1)[:, np.newaxis]
    positions = np.where(term_row == len(bases), (sizes[1:] + sizes[:-1])[shell],
                         window.take(level + targets.take(step)) + term_row)
    bounds = np.searchsorted(shell, np.arange(shells + 1))
    chunks = []
    for t, lo, hi in zip(range(shells), bounds[:-1], bounds[1:]):
        closes = t < shells - 1 or reach[t] <= limit
        total = (first + t) // 2 - low
        diagonal = None
        if closes and (first + t) % 2 == 0:  # the caller sees it: a read-only copy
            diagonal = bases[start[total]:start[total + 1]].copy()
            diagonal.flags.writeable = False
        chunks.append(tuple(np.ascontiguousarray(table[:, lo:hi])
                            for table in (coefficients, positions, weights)) + (diagonal, closes))
    return tuple(chunks)


def _chunks(n_modes: int):
    """The table chunks of shells 1, 2, ... in order, built a block at a time.  The first
    ``_CACHED_BLOCKS`` blocks go through the cache and later ones are built uncached, so a
    table longer than the cache keeps its first blocks there for the next fill."""
    shell, skip = 1, 0
    for block in itertools.count():
        build = _near_diagonal_block if block < _CACHED_BLOCKS else _near_diagonal_block.__wrapped__
        for chunk in build(n_modes, shell, skip):
            yield chunk
            terms, *_, closes = chunk
            shell, skip = (shell + 1, 0) if closes else (shell, skip + terms.shape[1])


def hermite_diagonal(R, ry, max_degree: int):
    """Diagonal values G_(n,n) = H_(n,n) / n! for every n of total degree up to ``max_degree``.

    R is 2N x 2N and the generating function exp(-1/2 a.R.a + a.ry) with a = (a_m, a_n).
    Returns an iterator over the shells |n| = 0, 1, ..., ``max_degree``: pairs (indices,
    values), the rows of ``indices`` lexicographic; a caller may stop early.  Only the
    near-diagonal set (the offsets of ``_steps``) is filled, one shell of |m| + |n| per
    step, about (1 + 3N(N + 1)/2) C(D + N, N) entries against the (D + 1)^(2N) of a box.  Raises
    ``ResourceLimitError`` up front when the set exceeds ``BOX_ENTRY_CAP`` entries and
    ``NonFiniteError`` at the first shell whose values overflow.
    """
    R = np.asarray(R, dtype=complex)
    ry = np.asarray(ry, dtype=complex).reshape(-1)
    dim = R.shape[0]
    if R.shape != (dim, dim) or ry.shape != (dim,) or dim % 2 or dim == 0:
        raise ValueError(f"R {R.shape} and linear vector {ry.shape} must be 2N x 2N and 2N")
    max_degree = int(max_degree)
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    _check_cap(_near_diagonal_entries(dim // 2, max_degree),
               f"the diagonal up to total degree {max_degree}")
    return _fill_diagonal(R, ry, max_degree)


def _fill_diagonal(R: np.ndarray, ry: np.ndarray, max_degree: int):
    n_modes = R.shape[0] // 2
    coef = np.concatenate([ry[:, np.newaxis], -R], axis=1).ravel()  # row i: [ry_i, -R_i.]
    zero = np.zeros(1, dtype=complex)
    below, above = np.zeros(0, dtype=complex), np.ones(1, dtype=complex)
    above.flags.writeable = False  # the caller's values feed the next shells: read-only
    yield np.zeros((1, n_modes), dtype=np.int64), above
    chunks = _chunks(n_modes)
    for degree in range(1, max_degree + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(2):  # the odd shell, then the even one that holds the diagonal
                window, parts, closes = np.concatenate([above, below, zero]), [], False
                while not closes:
                    terms, positions, weights, bases, closes = next(chunks)
                    parts.append(np.add.reduce(coef.take(terms) * weights
                                               * window.take(positions)))
                below, above = above, parts[0] if len(parts) == 1 else np.concatenate(parts)
        diagonal = above[:len(bases)]
        if not np.isfinite(diagonal).all():
            raise NonFiniteError(f"Hermite recursion overflowed at total degree {degree}")
        diagonal.flags.writeable = False
        yield bases, diagonal


def mv_hermite_eval(params: HermiteParams, n) -> complex:
    """Single value H_n^{R}(y)."""
    idx = as_index(n, length=params.dim)
    box = hermite_box(params.R, params.R @ params.y, [k + 1 for k in idx])
    return _from_renormalized(box[idx], idx)


def gaussian_hermite_overlap(spec: OverlapSpec, n, m_idx) -> complex:
    """Overlap integral of H_n^{R} and H_m^{r}(Lam x + d) against exp(-x.m.x + c.x).

    The result is pi^{N/2} det(m)^{-1/2} exp(c.m^{-1}.c / 4) H_{(n,m)}^{rho}(y)
    with the coupled 2N x 2N matrix rho and argument y assembled from the
    spec; the first index block belongs to the R-side polynomial.  Raises
    ``NonFiniteError`` when the result leaves double range (the prefactor overflows first).
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
    combined = idx_n + idx_m
    box = hermite_box(rho, linear, [k + 1 for k in combined])
    with np.errstate(over="ignore", invalid="ignore"):
        prefactor = math.pi ** (N / 2) / det_root * np.exp(0.25 * spec.c @ minv @ spec.c)
        out = complex(prefactor * _from_renormalized(box[combined], combined))
    if not cmath.isfinite(out):
        raise NonFiniteError(f"the overlap of H_{idx_n} and H_{idx_m} is not a finite double")
    return out
