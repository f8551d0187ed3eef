"""CSV artifacts: the one text formatter and the one lattice reader.

The CLI writes every artifact file, and the text of every CSV comes from
``format_table`` or ``LatticeText``: one header line, comma-separated
cells, and a newline after every row.  Integers print as digits and floats as their
shortest round-trip decimal, byte for byte what Python's ``repr`` prints
(``0.1``, ``-0.0``, ``1e-05``, ``1e+16``, ``inf``, ``nan``), so reading a file
back gives the same floats bit for bit and reruns give the same bytes.

A lattice file lists rows ``(a_i, b_j, value[i, j])`` of two sorted axes,
``a`` varying slowest: sinograms are ``(theta, x, value)``, phase-space grids
``(q, p, value)``.  Its text is a stream: iterating a ``LatticeText`` yields
the ASCII bytes of one block of at most ``_BLOCK`` values at a time, which the
CLI writes to the file as each is formatted, so no lattice file is ever held
whole in memory; ``format_lattice`` joins the blocks for callers that want the
text as one string.

The values of a lattice are formatted in bulk by one numpy kernel, ``_BLOCK``
cells at a time; table cells and axis coordinates, each formatted once, go
through ``float.__repr__``.  For a double x = c 2^q the kernel forms
V = c P, P = 2^q 10^s, in double-double arithmetic, with s chosen so that V
lies in (5e16, 1e18); the rounding interval is V -+ P/2 (the lower gap P/4 at
a power of two), and the digits are the multiple of the largest power of ten
inside it that lies nearest V: the shortest round-trip digits, closest to x,
as ``repr`` picks them (Adams, "Ryu: fast float-to-string conversion", PLDI
2018).  Sign, digits, point and exponent go into a fixed 64-byte slot per
cell, and one boolean mask keeps the bytes of ``repr``'s layout.  A cell the
arithmetic cannot certify (an interval end within 2^-30 of an integer, a tie
between two nearest multiples) and every subnormal, infinite or nan cell is
written by ``float.__repr__`` instead, so the text is ``repr``'s by
construction.
"""

from __future__ import annotations

from functools import cache
from pathlib import Path

import numpy as np

SINOGRAM_HEADER = ("theta", "x", "value")
PHASE_SPACE_HEADER = ("q", "p", "value")

_BLOCK = 1 << 14      # lattice cells per kernel pass; its arrays take about 0.5 kB a cell
_NEAR = 2.0 ** -30    # closer than this to an integer or a tie, a cell is not certified
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_POW10F = 10.0 ** np.arange(20)

# A cell's 64-byte slot, as 16 little-endian words: the sign (byte 0), the
# integer-part digits r = 23..0 (bytes 4-27), the point (28), the fraction
# digits r = 23..0 (32-55), the "0" of a trailing ".0" (56), "e", the exponent
# sign and three exponent digits (57-61) and the newline (62).  Digit r is
# the coefficient of 10^r in the digit string m; the byte mask of the cell's
# layout key keeps what repr prints.  Layout classes: 0-19 positional with
# decpt = class - 3, 20 and 21 exponent of two and three digits.
_SEP = 62
_REPR = 36            # float.__repr__ text goes to bytes 36-59, which every pass rewrites
_ZEROS = 0x30303030   # "0000"


@cache
def _scale(biased_exp: int) -> tuple:
    """(s, P_hi in two 26-bit halves, P_lo) for doubles of this biased exponent:
    P = 2^q 10^s rounded to double-double, q = biased_exp - 1075 and
    s = 18 - ceil((q + 53) log10 2)."""
    q = biased_exp - 1075
    k = q + 53
    s = 18 - (len(str(2 ** k)) if k > 0 else 1 - len(str(2 ** -k)))
    num = 2 ** max(q, 0) * 10 ** max(s, 0)
    den = 2 ** max(-q, 0) * 10 ** max(-s, 0)
    hi = num / den
    a, b = hi.as_integer_ratio()
    lo = (num * b - a * den) / (den * b)
    split = hi * 134217729.0
    h1 = split - (split - hi)
    return s, h1, hi - h1, lo


@cache
def _digit_words() -> np.ndarray:
    """The four ASCII digits of 0..9999 as little-endian words."""
    chars = np.frombuffer("".join(f"{i:04d}" for i in range(10000)).encode(), np.uint8)
    return chars.view("<u4").copy()


@cache
def _exponent_words() -> np.ndarray:
    """Words 14 and 15 of a slot ("0e", sign, e2 | e1, e0, newline) for exponents
    -400..400, as one little-endian double word each."""
    e = np.arange(-400, 401)
    a = np.abs(e)
    return (0x6530 | np.where(e < 0, ord("-"), ord("+")) << 16 | (a // 100 + 48) << 24
            | (a // 10 % 10 + 48) << 32 | (a % 10 + 48) << 40 | ord("\n") << 48).astype("<u8")


@cache
def _slot_masks() -> np.ndarray:
    """Kept bytes of a slot for every layout key (class * 21 + digits) * 2 + negative."""
    cls, nd, neg = (k.ravel() for k in np.meshgrid(np.arange(22), np.arange(21),
                                                   np.arange(2), indexing="ij"))
    positional = cls < 20
    after = np.where(positional, np.maximum(nd - (cls - 3), 0), nd - 1)   # digits after the point
    r = np.arange(23, -1, -1)
    mask = np.zeros((cls.size, 64), dtype=bool)
    mask[:, 0] = neg
    mask[:, 4:28] = (r >= after[:, None]) & (r < np.maximum(nd, after + 1)[:, None])
    mask[:, 28] = positional | (after > 0)
    mask[:, 32:56] = r < after[:, None]
    mask[:, 56] = positional & (after == 0)
    mask[:, [57, 58, 60, 61]] = ~positional[:, None]
    mask[:, 59] = cls == 21
    mask[:, _SEP] = True
    return mask


def _mod(v, k):
    """v mod 10^k, exactly, for integer-valued doubles 0 <= v < 2^53 - 10^k."""
    p = _POW10F[k]
    return v - np.floor(v / p) * p


def _shortest(x):
    """(m, digits of m, decpt, certified) of float64 cells: |x| reads as
    0.<digits of m> * 10^decpt with the fewest digits that read back as x, the
    nearest x among those.  Zeros, and cells the arithmetic cannot certify,
    get m = 0, one digit and decpt = 1."""
    bits = x.view(np.uint64)
    biased = (bits >> 52 & 0x7FF).astype(np.intp)
    frac = bits & 0xFFFFFFFFFFFFF
    normal = (biased != 0) & (biased != 0x7FF)
    biased[~normal] = 1075
    lut = np.zeros((2048, 4))
    used = np.flatnonzero(np.bincount(biased, minlength=2048))
    lut[used] = [_scale(int(e)) for e in used]
    s, h1, h2, pl = lut.T.take(biased, axis=1)
    ph = h1 + h2
    # V = c P as hi + lo: hi = fl(c P_hi), lo its exact rounding error (Dekker) plus c P_lo
    c = frac | 1 << 52
    cf = c.astype(np.float64)
    c1 = (c >> 26 << 26).astype(np.float64)
    c2 = (c & 0x3FFFFFF).astype(np.float64)
    hi = cf * ph
    lo = ((c1 * h1 - hi) + c1 * h2 + c2 * h1) + c2 * h2 + cf * pl
    # V = n + f = high 10^9 + low + f with integers high, low < 10^9 and 0 <= f < 1
    whole = np.floor(lo)
    n = hi.astype(np.uint64) + whole.astype(np.int64).view(np.uint64)
    high_int = n // 10 ** 9
    low = (n - high_int * 10 ** 9).astype(np.float64)
    high = high_int.astype(np.float64)
    f = lo - whole
    # the interval's ends relative to n, and the integers up and down below them
    up_end = f + 0.5 * ph
    down_end = f - np.where((frac == 0) & (biased > 1), 0.25, 0.5) * ph
    up, down = np.floor(up_end), np.floor(down_end)
    near = ((np.abs(up_end - up - 0.5) > 0.5 - _NEAR)
            | (np.abs(down_end - down - 0.5) > 0.5 - _NEAR))
    # the largest 10^j with a multiple in (n + down, n + up]: there is one iff
    # (n + up) mod 10^j < up - down, which holds for every j up to the largest;
    # past 10^3 > up - down it needs digits 3 to j - 1 of n + up to be zeros
    width = up - down
    top_low = low + up                   # n + up = high 10^9 + top_low
    fits = [_mod(top_low, t) < width for t in (1, 2, 3)]
    j = fits[0].astype(np.intp) + fits[1] + fits[2]
    deep = np.flatnonzero(fits[2])
    thousands = high[deep] * 1e6 + np.floor(top_low[deep] / 1e3)
    ratio = thousands[:, None] / _POW10F[1:16]
    j[deep] += np.count_nonzero(ratio == np.floor(ratio), axis=1)
    # of those multiples the nearest V.  For j <= 9 they are (n // 10^j + k) 10^j
    # for k from floor((r + down) / 10^j) + 1 to floor((r + up) / 10^j), with
    # r = n mod 10^j, and twice V's excess over the midpoint of k = 0 and 1 is
    # exact; for larger j the multiple is unique
    jl = np.minimum(j, 9)
    p = _POW10F[jl]
    r = _mod(low, jl)
    excess = (2.0 * r - p) + 2.0 * f
    first, last = np.floor((r + down) / p) + 1.0, np.floor((r + up) / p)
    k = np.minimum(np.maximum(excess > 0, first), last)
    tie = (np.abs(excess) < _NEAR) & (first < last)
    m = high_int * _POW10[9 - jl] + (np.floor(low / p) + k).astype(np.uint64)
    wide = np.flatnonzero(j > 9)
    m[wide] = np.floor((high[wide] + np.floor(top_low[wide] / 1e9))
                       / _POW10F[j[wide] - 9]).astype(np.uint64)
    scaled = m * _POW10[j]
    total = 17 + (scaled >= 10 ** 17).astype(np.intp) + (scaled >= 10 ** 18)
    nd, decpt = total - j, total - s.astype(np.intp)
    certified = normal & ~near & ~tie
    m[~certified] = 0
    nd[~certified] = 1
    decpt[~certified] = 1
    return m, nd, decpt, certified | (bits << 1 == 0)


def _float_slots(x, words, mask) -> None:
    """Write the text of float cells and a newline into their slots, whose
    constant words ``_slot_buffer`` wrote, and the kept bytes into ``mask``: the
    kernel's text, ``float.__repr__``'s where the kernel cannot certify it."""
    m, nd, decpt, certified = _shortest(x)
    positional = (decpt > -4) & (decpt <= 16)
    pad = np.where(positional & (decpt > nd), decpt - nd, 0)   # integers print all digits
    m *= _POW10[pad]
    nd += pad
    cls = np.where(positional, decpt + 3, np.where(np.abs(decpt - 1) < 100, 20, 21))
    table = _digit_words()
    high = m // 10 ** 8
    top = high // 10 ** 8
    low = (m - high * 10 ** 8).astype(np.uint32)
    mid = (high - top * 10 ** 8).astype(np.uint32)
    digits = table[np.stack([top.astype(np.uint32), mid // 10000, mid % 10000,
                             low // 10000, low % 10000], axis=1)]   # r = 19..0
    words[:, 2:7] = digits
    words[:, 9:14] = digits
    words[:, 14:16].view("<u8")[:, 0] = _exponent_words()[decpt + 399]
    mask[:] = _slot_masks()[(cls * 21 + nd) * 2 + (x.view(np.int64) < 0)]
    if certified.all():
        return
    text = words.view(np.uint8)
    for i in np.flatnonzero(~certified):
        cell = np.frombuffer(float.__repr__(float(x[i])).encode(), np.uint8)
        mask[i] = False
        mask[i, _REPR:_REPR + cell.size] = mask[i, _SEP] = True
        text[i, _REPR:_REPR + cell.size] = cell


def _slot_buffer(n_cells: int, prefix: int):
    """(text, mask, words) for n_cells rows of ``prefix`` bytes and one slot;
    ``words`` is (n_cells, 16) over the slots, their constant words written."""
    text = np.empty((n_cells, prefix + 64), dtype=np.uint8)
    words = text[:, prefix:].view("<u4")
    words[:, 0] = ord("-")
    words[:, 1] = words[:, 8] = _ZEROS
    words[:, 7] = ord(".")
    return text, np.empty(text.shape, dtype=bool), words


def _column(name, col) -> np.ndarray:
    col = np.asarray(col)
    kind = col.dtype.kind
    if col.ndim != 1 or not (kind in "iu" or kind == "f" and col.dtype.itemsize <= 8):
        raise ValueError(f"column {name!r} is {col.dtype} of shape {col.shape}; only "
                         "1-D integer or real floating columns can be written")
    return col


def format_table(header, columns) -> str:
    """CSV text of equal-length columns, one row per index.

    An integer column prints as digits, a real floating column as shortest
    round-trip decimals; any other column raises ``ValueError`` naming its header.
    Each column is converted to Python scalars in one ``tolist`` call.
    """
    columns = list(columns)
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    columns = [_column(name, col) for name, col in zip(header, columns)]
    if len({col.size for col in columns}) > 1:
        raise ValueError(f"columns of unequal lengths {[col.size for col in columns]}")
    cells = [map(repr, col.tolist()) for col in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def _left_aligned(x):
    """(bytes, mask) of the ``float.__repr__`` texts of x, each with a comma,
    written flush left in rows of the longest."""
    cells = [v + "," for v in map(float.__repr__, x.tolist())]
    lengths = np.array([len(v) for v in cells])
    kept = np.arange(lengths.max()) < lengths[:, None]
    out = np.zeros(kept.shape, dtype=np.uint8)
    out[kept] = np.frombuffer("".join(cells).encode(), np.uint8)
    return out, kept


class LatticeText:
    """The CSV text of rows (a_i, b_j, values[i, j]), ``a`` varying slowest, made
    block by block.

    Iterating yields the text's ASCII bytes: the header line, then one piece per
    block of at most ``_BLOCK`` values (whole lattice rows, or parts of one row when
    a row is longer), formatted when the block is reached, so a writer holds one
    block of text at a time.  Each pass formats the blocks afresh from the arrays
    given.  ``encode(encoding)`` joins the pieces and gives the text's bytes in
    ``encoding``, as ``str.encode`` would.
    Each axis coordinate is formatted once; a row of the lattice is the prefix
    ``a_i,b_j,`` joined onto its value's text.  A lattice with an empty axis is
    the header alone.
    """

    def __init__(self, header, a_grid, b_grid, values):
        self.header = tuple(header)
        self.a_grid = np.asarray(a_grid, dtype=float)
        self.b_grid = np.asarray(b_grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (self.a_grid.size, self.b_grid.size):
            raise ValueError(f"values shape {self.values.shape} does not match grids "
                             f"({self.a_grid.size}, {self.b_grid.size})")

    def __iter__(self):
        yield (",".join(self.header) + "\n").encode("ascii")
        values = self.values
        if values.size == 0:
            return
        a_text, a_kept = _left_aligned(self.a_grid)
        b_text, b_kept = _left_aligned(self.b_grid)
        wa, wb = a_text.shape[1], b_text.shape[1]
        prefix = -(-(wa + wb) // 4) * 4      # keeps the value slots word-aligned
        n_a, n_b = values.shape
        rows, cols = min(n_a, max(1, _BLOCK // n_b)), min(n_b, _BLOCK)   # cells of a block
        text, mask, words = _slot_buffer(rows * cols, prefix)
        mask[:, wa + wb:prefix] = False
        for i in range(0, n_a, rows):
            for j in range(0, n_b, cols):
                block = values[i:i + rows, j:j + cols]
                cells = block.size
                for out, a, b in ((text, a_text, b_text), (mask, a_kept, b_kept)):
                    grid = out[:cells].reshape(*block.shape, -1)
                    grid[:, :, :wa] = a[i:i + rows, None]
                    grid[:, :, wa:wa + wb] = b[j:j + cols]
                _float_slots(block.ravel(), words[:cells], mask[:cells, prefix:])
                yield text[:cells][mask[:cells]].tobytes()

    def encode(self, encoding: str = "utf-8") -> bytes:
        text = b"".join(self)  # ASCII, and so already UTF-8
        return text if encoding == "utf-8" else text.decode("ascii").encode(encoding)


def format_lattice(header, a_grid, b_grid, values) -> str:
    """CSV text of rows (a_i, b_j, values[i, j]), ``a`` varying slowest: the
    blocks of ``LatticeText`` joined, for callers that want the text whole."""
    return LatticeText(header, a_grid, b_grid, values).encode().decode("ascii")


def read_lattice(path, header, kind: str):
    """Rows (a, b, value) of a full a-major lattice as (a_grid, b_grid, values).

    Raises ``ValueError`` naming the file unless it starts with ``header`` and
    its rows list every (a, b) pair of the two sorted grids exactly once, in
    row-major order.
    """
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        if fh.readline().rstrip("\r\n") != ",".join(header):
            raise ValueError(f"{path} is not a {kind} CSV")
        start = fh.tell()
        if not fh.readline().strip():
            raise ValueError(f"{path}: {kind} CSV has no data rows")
        fh.seek(start)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            fh.seek(start)  # name the first ragged row; any other fault in numpy's words
            for number, line in enumerate(fh, 2):
                cells = line.partition("#")[0].strip()
                if cells and cells.count(",") != len(header) - 1:
                    raise ValueError(f"{path}, line {number}: malformed {kind} row of "
                                     f"{cells.count(',') + 1} columns, expected "
                                     f"{len(header)}") from None
            raise ValueError(f"{path}: malformed {kind} row: {exc}") from exc
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {data.shape[1]} columns, expected {len(header)}")
    outer, inner, vals = data.T
    a_grid = np.unique(outer)
    b_grid = np.unique(inner)
    if (len(vals) != a_grid.shape[0] * b_grid.shape[0]
            or not np.array_equal(outer, np.repeat(a_grid, b_grid.shape[0]))
            or not np.array_equal(inner, np.tile(b_grid, a_grid.shape[0]))):
        raise ValueError(f"{path}: {len(vals)} rows do not form the row-major "
                         f"{a_grid.shape[0]} x {b_grid.shape[0]} lattice of its grids")
    return a_grid, b_grid, vals.reshape(a_grid.shape[0], b_grid.shape[0])
