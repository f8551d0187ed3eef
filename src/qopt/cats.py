"""Multimode even and odd superpositions of opposite coherent states.

A state |A+-> ~ |A> +- |-A> over the mode amplitudes A = (alpha_1..alpha_N)
carries parity-pure photon statistics: the cosh/sinh normalization couples
the modes, so the joint photon distribution never factorizes even though
|A> itself is a product state.  Phase-space densities are those of three
Gaussian dyads (``CatState.dyads``), and photon tables those of the state's
photon-number shells (``CatState.photon_shells``), both evaluated by
``qopt.gaussian``.  A table to total D holds C(D + N, N) rows
(``CatState.photon_table_size``), checked against ``qopt.hermite``'s entry cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianDyads
from .hermite import _check_cap, _total_degree_indices

_LN2 = math.log(2.0)
_SHELL_BLOCK_ROWS = 2048  # index rows built at once by a cat's photon_shells


@dataclass(frozen=True)
class CatState:
    """Even or odd superposition of |A> and |-A>."""

    amplitudes: np.ndarray
    parity: str

    def __post_init__(self):
        amp = np.atleast_1d(np.array(self.amplitudes, dtype=complex))
        if amp.ndim != 1 or amp.shape[0] < 1:
            raise ValueError("amplitudes must be a nonempty complex vector")
        if not np.isfinite(amp).all():
            raise ValueError("amplitudes must be finite")
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if self.parity == "odd" and np.sum(np.abs(amp) ** 2) == 0.0:
            raise ValueError("odd superposition with |A|^2 = 0 is not normalizable")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n_modes(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def norm2(self) -> float:
        """|A|^2 = sum |alpha_m|^2."""
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def dyads(self) -> GaussianDyads:
        """|A><A|, |-A><-A| at log N^2 and the pair |A><-A| + h.c. folded into one term of
        weight 2 N^2 e^{-2|A|^2} (negated when odd) and imaginary mean; all of disp I/2."""
        a, log_n2 = self.amplitudes, self.norm2 - 2.0 * _LN2 - _log_weight(self)
        cross = log_n2 + _LN2 - 2.0 * self.norm2 + (1j * math.pi if self.parity == "odd" else 0.0)
        mean = math.sqrt(2.0) * np.concatenate([a.imag, a.real])
        shift = 1j * math.sqrt(2.0) * np.concatenate([-a.real, a.imag])
        return GaussianDyads(np.array([log_n2, log_n2, cross], dtype=complex),
                             np.array([mean, -mean, shift], dtype=complex),
                             0.5 * np.eye(2 * a.size))

    def photon_table_size(self, max_degree: int) -> int:
        """Rows of the shells up to ``max_degree``: C(max_degree + N, N)."""
        return math.comb(max_degree + self.n_modes, self.n_modes)

    def photon_shells(self, max_degree: int, min_degree: int = 0):
        """Iterator over the shells of total t = ``min_degree``, ..., ``max_degree`` of pairs
        (indices, P), the rows of ``indices`` lexicographic; each row is evaluated on its own,
        so no shell below ``min_degree`` is built.  Raises ``ResourceLimitError`` when the
        table to ``max_degree`` would pass the cap."""
        _check_cap(self.photon_table_size(max_degree), f"a cat table to degree {max_degree}")
        probabilities, n = _cat_probabilities(self, max_degree), self.n_modes
        return ((indices, probabilities(indices))
                for indices in _shell_rows(n, max_degree, min_degree))


def _shell_rows(n: int, top: int, lo: int):
    """Iterator over the index rows of the shells of total ``lo``, ..., ``top`` of ``n`` modes,
    each shell a slice of one ``_total_degree_indices`` block of consecutive shells that
    holds at most ``_SHELL_BLOCK_ROWS`` rows, or the one shell that holds more."""
    while lo <= top:
        below = math.comb(lo - 1 + n, n)  # rows of the totals under lo
        hi = lo
        while hi < top and math.comb(hi + 1 + n, n) - below <= _SHELL_BLOCK_ROWS:
            hi += 1
        sizes = [math.comb(t + n - 1, n - 1) for t in range(lo, hi)]
        yield from np.split(_total_degree_indices(n, hi, lo), np.cumsum(sizes))
        lo = hi + 1


def _log_weight(c: CatState) -> float:
    """log cosh |A|^2 for the even branch, log sinh |A|^2 for the odd one, overflow-free."""
    x = c.norm2
    if c.parity == "even":
        return x - _LN2 + math.log1p(math.exp(-2.0 * x))
    return x - _LN2 + math.log(-math.expm1(-2.0 * x))


def _cat_probabilities(c: CatState, top: int):
    """The function of index rows, each count at most ``top``, that gives per row
    P(n) = prod_m |alpha_m|^(2 n_m) / n_m! / cosh |A|^2 (sinh if odd); the log-factorials,
    logs of |alpha_m| and the normalization are taken once, here."""
    log_factorial = np.array([math.lgamma(k + 1) for k in range(top + 1)])
    log_abs = [math.log(abs(alpha)) if alpha != 0 else None for alpha in c.amplitudes]
    log_weight, parity = _log_weight(c), 0 if c.parity == "even" else 1

    def probabilities(indices: np.ndarray) -> np.ndarray:
        log_term = np.zeros(indices.shape[0])
        possible = indices.sum(axis=1) % 2 == parity
        for log_a, k in zip(log_abs, indices.T):
            if log_a is None:
                possible &= k == 0
            else:
                log_term += 2 * k * log_a - log_factorial[k]
        probs = np.zeros(indices.shape[0])
        # math.exp, not np.exp: the two differ in the last bit on some arguments
        probs[possible] = [math.exp(v) for v in (log_term[possible] - log_weight).tolist()]
        return probs

    return probabilities


@dataclass(frozen=True)
class CatMoments:
    """First and second moments of the mode operators and photon numbers.

    ``number_covariance`` is the centered matrix cov(n_i, n_k);
    ``number_second_moment`` is the raw <n_i n_k>.  Both are exposed because
    the two conventions are easy to conflate.
    """

    pair_amplitude: np.ndarray        # <a_i a_k>
    symmetric_occupation: np.ndarray  # <a_i^dag a_k + a_k a_i^dag>/2
    mean_photon: np.ndarray
    number_covariance: np.ndarray
    number_second_moment: np.ndarray
    mandel_q: np.ndarray


def cat_moments(c: CatState) -> CatMoments:
    """Closed-form quadrature and photon-number moments of the superposition."""
    a = c.amplitudes
    a2 = c.norm2
    damp = math.exp(-2.0 * a2)
    # cov(n_i, n_k) = +-f^2 |a_i|^2 |a_k|^2 + delta_ik |a_i|^2 w, f = sech |A|^2 (even) or
    # csch |A|^2 (odd); f^2 times 4^-k and |a|^2 times 2^k, 2^k |A|^2 in [1/2, 1), are exact
    # rescalings that keep csch^2 in range however small |A|^2 is
    k = -math.frexp(a2)[1]
    if c.parity == "even":
        weight, sign, den = math.tanh(a2), 1.0, 1.0 + damp
    else:
        weight, sign, den = 1.0 / math.tanh(a2), -1.0, math.expm1(-2.0 * a2)
    cross = 4.0 * damp / math.ldexp(den, k) ** 2
    abs2 = np.abs(a) ** 2
    scaled = np.ldexp(abs2, k)
    pair = np.outer(a, a)
    occupation = weight * np.outer(np.conj(a), a) + 0.5 * np.eye(c.n_modes)
    mean_n = abs2 * weight
    covariance = sign * cross * np.outer(scaled, scaled) + np.diag(abs2 * weight)
    second = covariance + np.outer(mean_n, mean_n)
    with np.errstate(divide="ignore", invalid="ignore"):
        mandel = np.where(mean_n > 0, (np.diag(second) - mean_n ** 2 - mean_n)
                          / np.where(mean_n > 0, mean_n, 1.0), 0.0)
    return CatMoments(pair, occupation, mean_n, covariance, second, mandel)
