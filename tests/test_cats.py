import math
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qopt import cats, gaussian
from qopt.cats import CatState, cat_moments
from qopt.errors import ResourceLimitError
from qopt.gaussian import make_coherent, photon_pnd, photon_pnd_table, q_eval, wigner_eval
from qopt.hermite import _total_degree_indices

from oracles import (cat_ladder_apply, cat_normalization, cat_pnd_by_index, cat_q, cat_total_pnd,
                     trapz_nd)


def cat_wigner(c, q, p):
    """W at quadratures q and p of shape (..., N), through the (p..., q...) point order."""
    return wigner_eval(c, np.concatenate([np.asarray(p, dtype=float),
                                          np.asarray(q, dtype=float)], axis=-1))


def pnd_series(c, max_total=60):
    """{outcome: P} for every outcome of total <= max_total, read from the state's shells."""
    out = {}
    for indices, probs in c.photon_shells(max_total):
        out.update(zip(map(tuple, indices.tolist()), probs.tolist()))
    return out


class TestNormalization:
    def test_even_at_zero(self):
        assert cat_normalization(CatState([0.0], "even")) == pytest.approx(0.5, abs=1e-14)

    def test_even_unit_modulus(self):
        want = math.exp(0.5) / (2 * math.sqrt(math.cosh(1.0)))
        got = cat_normalization(CatState([1.0], "even"))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.6636, abs=2e-4)

    def test_odd_zero_rejected(self):
        with pytest.raises(ValueError):
            CatState([0.0], "odd")

    def test_odd_underflowing_norm_rejected(self):
        # |A|^2 = 1e-400 is 0 in double precision, so sinh |A|^2 cannot normalize
        with pytest.raises(ValueError, match="not normalizable"):
            CatState([1e-200j, 0.0], "odd")

    def test_multimode_modulus(self):
        c = CatState([1.0, 1j, -0.5], "even")
        assert c.norm2 == pytest.approx(2.25, rel=1e-14)


class TestLargeAmplitude:
    # |A|^2 = 900: cosh |A|^2 and e^{|A|^2} overflow a double; the log-domain
    # weights do not.
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_against_mpmath(self, parity):
        c = CatState([30.0], parity)
        with mpmath.workdps(40):
            x = mpmath.mpf(900)
            weight = mpmath.cosh(x) if parity == "even" else mpmath.sinh(x)
            norm = mpmath.exp(x / 2) / (2 * mpmath.sqrt(weight))
            n = 900 if parity == "even" else 901
            pnd = x ** n / mpmath.factorial(n) / weight
            assert cat_normalization(c) == pytest.approx(float(norm), rel=1e-12)
            assert photon_pnd(c, [n]) == pytest.approx(float(pnd), rel=1e-11)
            assert cat_total_pnd(c, n) == pytest.approx(float(pnd), rel=1e-11)
            beta = mpmath.mpc(29.5, 0.3)
            env = mpmath.cosh(beta.conjugate() * 30) if parity == "even" \
                else mpmath.sinh(beta.conjugate() * 30)
            q = 4 * norm ** 2 * mpmath.exp(-(x + abs(beta) ** 2)) * abs(env) ** 2
            assert q_eval(c, [29.5 + 0.3j]) == pytest.approx(float(q), rel=1e-12)
            assert cat_q(c, [29.5 + 0.3j]) == pytest.approx(float(q), rel=1e-12)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_shell_mass_sums_to_one(self, parity):
        c = CatState([30.0], parity)
        assert math.fsum(cat_total_pnd(c, n) for n in range(2500)) == pytest.approx(
            1.0, abs=1e-12)

    def test_moments_finite(self):
        m = cat_moments(CatState([30.0, 0.5j], "odd"))
        assert np.all(np.isfinite(m.number_covariance))
        assert m.mean_photon == pytest.approx([900.0, 0.25], rel=1e-14)


class TestPnd:
    def test_parity_mismatch_is_exactly_zero(self):
        even = CatState([0.9, 0.4j], "even")
        odd = CatState([0.9, 0.4j], "odd")
        for idx in [(1, 0), (0, 1), (2, 1), (3, 0)]:
            assert photon_pnd(even, idx) == 0.0
        for idx in [(0, 0), (1, 1), (2, 0), (2, 2)]:
            assert photon_pnd(odd, idx) == 0.0

    def test_two_mode_vacuum_weight(self):
        c = CatState([math.sqrt(0.5), math.sqrt(0.5)], "even")
        assert photon_pnd(c, (0, 0)) == pytest.approx(1 / math.cosh(1.0), rel=1e-12)
        assert photon_pnd(c, (0, 0)) == pytest.approx(0.6481, abs=2e-4)

    def test_single_mode_values(self):
        alpha = 1.1
        c = CatState([alpha], "even")
        a2 = alpha ** 2
        for n in [0, 2, 4, 6]:
            want = a2 ** n / (math.factorial(n) * math.cosh(a2))
            assert photon_pnd(c, [n]) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_normalizes(self, parity):
        c = CatState([0.9, 0.7 - 0.3j], parity)
        total = sum(pnd_series(c, 40).values())
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("parity,offset", [("even", 0), ("odd", 1)])
    def test_total_photon_aggregation(self, parity, offset):
        c = CatState([0.8, 0.5j], parity)
        joint = pnd_series(c, 30)
        for k in range(6):
            total = 2 * k + offset
            summed = sum(p for idx, p in joint.items() if sum(idx) == total)
            assert cat_total_pnd(c, total) == pytest.approx(summed, rel=1e-10)

    def test_two_mode_totals_closed_form(self):
        a1, a2 = 0.9, 0.6
        c = CatState([a1, a2], "even")
        s = a1 * a1 + a2 * a2
        for k in range(5):
            want = s ** (2 * k) / (math.factorial(2 * k) * math.cosh(s))
            assert cat_total_pnd(c, 2 * k) == pytest.approx(want, rel=1e-12)

    def test_modes_are_statistically_coupled(self):
        c = CatState([1.0, 1.0], "even")
        joint = pnd_series(c, 40)
        marg1 = {}
        marg2 = {}
        for (n1, n2), prob in joint.items():
            marg1[n1] = marg1.get(n1, 0.0) + prob
            marg2[n2] = marg2.get(n2, 0.0) + prob
        gap = abs(joint[(1, 1)] - marg1[1] * marg2[1])
        assert gap >= 1e-3


_AMPLITUDE = st.one_of(
    st.just(0.0),
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))


class TestPndTable:
    """The one photon table on cats: whole shells, each row the per-index oracle bit for bit."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(amplitudes=st.lists(_AMPLITUDE, min_size=1, max_size=3),
           parity=st.sampled_from(["even", "odd"]), degree_cap=st.integers(0, 10))
    @example(amplitudes=[0.0], parity="even", degree_cap=0)
    @example(amplitudes=[0.9 + 0.3j, 0.0], parity="odd", degree_cap=10)
    @example(amplitudes=[0.0, 0.8 + 0.2j, 0.5 - 0.5j], parity="even", degree_cap=10)
    @example(amplitudes=[0.7 + 0.1j, -0.5 + 0.6j, 1.1], parity="odd", degree_cap=1)
    @pytest.mark.filterwarnings("ignore:photon enumeration")
    def test_matches_per_index_oracle(self, amplitudes, parity, degree_cap):
        if parity == "odd" and sum(abs(a) ** 2 for a in amplitudes) == 0.0:
            with pytest.raises(ValueError, match="not normalizable"):
                CatState(amplitudes, parity)
            return
        c = CatState(amplitudes, parity)
        table = photon_pnd_table(c, degree_cap_per_mode=degree_cap)
        top = table.max_total_degree
        assert top <= degree_cap * c.n_modes
        assert table.cap_hit == (table.cumulative < 1 - 1e-10)
        want_indices = sorted((idx for idx in product(range(top + 1), repeat=c.n_modes)
                               if sum(idx) <= top), key=lambda idx: (sum(idx), idx))
        assert [tuple(row) for row in table.indices.tolist()] == want_indices
        want = [cat_pnd_by_index(c, idx) for idx in want_indices]
        assert table.probabilities.tolist() == want
        assert [photon_pnd(c, idx) for idx in want_indices[-3:]] == want[-3:]
        shells = np.bincount(table.indices.sum(axis=1), weights=table.probabilities)
        for total, mass in enumerate(shells.tolist()):
            assert mass == pytest.approx(cat_total_pnd(c, total), rel=1e-12, abs=0.0)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(amplitudes=st.lists(_AMPLITUDE, min_size=1, max_size=3),
           parity=st.sampled_from(["even", "odd"]), max_total=st.integers(0, 32))
    @example(amplitudes=[0.0], parity="even", max_total=0)
    @example(amplitudes=[0.9 + 0.3j, 0.0], parity="odd", max_total=32)
    @example(amplitudes=[0.0, 0.8 + 0.2j, 0.5 - 0.5j], parity="even", max_total=32)
    @example(amplitudes=[0.7 + 0.1j, -0.5 + 0.6j, 1.1], parity="odd", max_total=1)
    def test_shells_match_per_index_oracle(self, amplitudes, parity, max_total):
        # the shells alone have no mass stop, so every row up to max_total is checked,
        # down to the ~1e-33 rows where the log-domain kernel matters
        if parity == "odd" and sum(abs(a) ** 2 for a in amplitudes) == 0.0:
            return  # not normalizable; test_matches_per_index_oracle covers the error
        c = CatState(amplitudes, parity)
        shells = list(c.photon_shells(max_total))
        assert len(shells) == max_total + 1
        indices = np.concatenate([idx for idx, _ in shells])
        probs = np.concatenate([p for _, p in shells])
        want_indices = sorted((idx for idx in product(range(max_total + 1), repeat=c.n_modes)
                               if sum(idx) <= max_total), key=lambda idx: (sum(idx), idx))
        assert [tuple(row) for row in indices.tolist()] == want_indices
        assert probs.tolist() == [cat_pnd_by_index(c, idx) for idx in want_indices]

    def test_mass_target_stops_the_table(self):
        c = CatState([5.0], "even")
        table = photon_pnd_table(c)
        assert not table.cap_hit and table.max_total_degree == 62
        assert table.cumulative >= 1 - 1e-10
        assert table.probabilities.tolist() == list(pnd_series(c, 62).values())

    def test_degree_cap_is_reported(self):
        with pytest.warns(UserWarning, match="degree cap 64"):
            table = photon_pnd_table(CatState([10.0], "even"))
        assert table.cap_hit and table.max_total_degree == 64
        assert table.cumulative < 1e-3

    def test_entry_cap_stop_is_reported(self, monkeypatch):
        # a smaller cap stands in for 2**24, which a unit test cannot afford to fill
        monkeypatch.setattr(gaussian, "BOX_ENTRY_CAP", math.comb(6 + 3, 3))
        with pytest.warns(UserWarning, match="stopped at total degree 6: .* exceed 84 entries"):
            table = photon_pnd_table(CatState([1.0, 0.5, 0.25], "even"))
        assert table.cap_hit and table.max_total_degree == 6
        assert table.indices.shape == (math.comb(6 + 3, 3), 3)

    def test_negative_degree_cap_rejected(self):
        with pytest.raises(ValueError, match="degree_cap_per_mode"):
            photon_pnd_table(CatState([1.0], "even"), degree_cap_per_mode=-1)


class TestShellRows:
    """A cat's shells slice blocks of consecutive totals; each is its own shell's rows."""

    @pytest.mark.parametrize("block_rows", [1, 7, 2048])
    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
    def test_each_shell_is_its_total_degree_rows(self, monkeypatch, n_modes, block_rows):
        # a block of 1 or 7 rows holds one shell, or a few, or less than one
        monkeypatch.setattr(cats, "_SHELL_BLOCK_ROWS", block_rows)
        c = CatState([0.6 - 0.2j, 0.4, 0.3j, 0.5][:n_modes], "even")
        shells = [indices for indices, _ in c.photon_shells(12)]
        assert len(shells) == 13
        for t, indices in enumerate(shells):
            assert np.array_equal(indices, _total_degree_indices(n_modes, t, t)), t

    @pytest.mark.parametrize("block_rows", [1, 7, 2048])
    @pytest.mark.parametrize("amplitudes, cap_hit", [
        ([1.2, 0.5j], False), ([0.9, 0.6, 0.3j], False), ([6.0, 0.1j], True),
        ([1.5, 1.0, 1.0j, 0.8], True)])
    @pytest.mark.filterwarnings("ignore:photon enumeration")
    def test_table_stops_on_a_shell_boundary(self, monkeypatch, amplitudes, cap_hit, block_rows):
        # the mass target or the degree cap stops the table inside a block of shells
        monkeypatch.setattr(cats, "_SHELL_BLOCK_ROWS", block_rows)
        c = CatState(amplitudes, "odd")
        table = photon_pnd_table(c, degree_cap_per_mode=3 if len(amplitudes) == 4 else 16)
        assert table.cap_hit == cap_hit
        top = table.max_total_degree
        want = np.concatenate([_total_degree_indices(c.n_modes, t, t) for t in range(top + 1)])
        assert np.array_equal(table.indices, want)
        assert table.probabilities.tolist() == [cat_pnd_by_index(c, tuple(idx)) for idx in want]


class TestPhotonPnd:
    """``photon_pnd`` on a cat: one row of its shells, like a Gaussian state's."""

    def test_three_mode_outcomes_match_per_index_oracle(self):
        c = CatState([0.9 + 0.3j, -0.5 + 0.6j, 1.1], "odd")
        for idx in product(range(6), repeat=3):
            assert photon_pnd(c, idx) == cat_pnd_by_index(c, idx)

    def test_bright_cat_stays_finite(self):
        p = photon_pnd(CatState([30.0], "even"), [900])
        assert math.isfinite(p) and p == cat_pnd_by_index(CatState([30.0], "even"), [900])

    def test_entry_capped_shell_raises(self, monkeypatch):
        # a smaller cap stands in for 2**24: shells stop at total 12 (91 rows of 2 modes)
        monkeypatch.setattr(gaussian, "BOX_ENTRY_CAP", 100)
        c = CatState([0.9, 0.4j], "even")
        assert photon_pnd(c, (8, 4)) == cat_pnd_by_index(c, (8, 4))
        with pytest.raises(ResourceLimitError, match="exceed 100 entries"):
            photon_pnd(c, (13, 1))


class TestLadder:
    def test_even_lowering_gives_mean_photon(self):
        c = CatState([0.8, 0.5j], "even")
        moments = cat_moments(c)
        for i in range(2):
            factor, flipped = cat_ladder_apply(c, i)
            assert flipped.parity == "odd"
            assert abs(factor) ** 2 == pytest.approx(moments.mean_photon[i], rel=1e-12)

    def test_double_application_restores_parity(self):
        c = CatState([1.2], "even")
        f1, odd = cat_ladder_apply(c, 0)
        f2, back = cat_ladder_apply(odd, 0)
        assert back.parity == "even"
        assert f1 * f2 == pytest.approx(1.2 ** 2, rel=1e-12)

    def test_large_amplitude_coherent_limit(self):
        c = CatState([3.0], "even")
        factor, _ = cat_ladder_apply(c, 0)
        assert factor == pytest.approx(3.0, rel=1e-6)

    def test_even_zero_rejected(self):
        with pytest.raises(ValueError):
            cat_ladder_apply(CatState([0.0], "even"), 0)


class TestMoments:
    def test_even_single_mode_mean(self):
        m = cat_moments(CatState([1.0], "even"))
        assert m.mean_photon[0] == pytest.approx(math.tanh(1.0), rel=1e-12)
        assert m.mean_photon[0] == pytest.approx(0.7616, abs=2e-4)

    def test_odd_small_alpha_is_one_photon(self):
        m = cat_moments(CatState([1e-4], "odd"))
        assert m.mean_photon[0] == pytest.approx(1.0, abs=1e-6)
        assert m.mandel_q[0] == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("a2", [0.25, 1.0, 4.0])
    def test_mandel_signs(self, a2):
        alpha = math.sqrt(a2)
        assert cat_moments(CatState([alpha], "even")).mandel_q[0] > 0
        assert cat_moments(CatState([alpha], "odd")).mandel_q[0] < 0

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_moments_match_pnd_series(self, parity):
        c = CatState([0.9, 0.6 + 0.4j], parity)
        joint = pnd_series(c, 40)
        m = cat_moments(c)
        for i in range(2):
            mean = sum(idx[i] * p for idx, p in joint.items())
            assert mean == pytest.approx(m.mean_photon[i], abs=1e-8)
        for i in range(2):
            for k in range(2):
                second = sum(idx[i] * idx[k] * p for idx, p in joint.items())
                assert second == pytest.approx(m.number_second_moment[i, k], abs=1e-7)
                cov = second - m.mean_photon[i] * m.mean_photon[k]
                assert cov == pytest.approx(m.number_covariance[i, k], abs=1e-7)

    @pytest.mark.parametrize("a2", [1e-3, 1e-100, 1e-200, 1e-300])
    def test_tiny_odd_cat_covariance_against_mpmath(self, a2):
        # csch^2 |A|^2 overflowed from |A|^2 = 1e-160, and its denominator was 0 at 1e-200
        amplitudes = np.sqrt(np.array([0.3, 0.7]) * a2) * np.array([1.0, 1.0j])
        got = cat_moments(CatState(amplitudes, "odd")).number_covariance
        with mpmath.workdps(40):
            abs2 = [mpmath.mpf(float(abs(z))) ** 2 for z in amplitudes]
            x = sum(abs2)
            want = np.array([[float(-abs2[i] * abs2[k] / mpmath.sinh(x) ** 2
                                    + (abs2[i] * mpmath.coth(x) if i == k else 0))
                              for k in range(2)] for i in range(2)])
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert got[0, 1] < 0  # odd cats anti-correlate the modes

    def test_pair_amplitude(self):
        c = CatState([0.5, 1.0j], "even")
        m = cat_moments(c)
        assert m.pair_amplitude[0, 1] == pytest.approx(0.5j, rel=1e-12)


class TestQFunction:
    def test_odd_vanishes_at_origin(self):
        assert q_eval(CatState([1.0], "odd"), [0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_even_origin_value(self):
        got = q_eval(CatState([1.0], "even"), [0.0])
        assert got == pytest.approx(1 / math.cosh(1.0), rel=1e-12)
        assert got == pytest.approx(0.6481, abs=2e-4)

    def test_nonnegative_everywhere_sampled(self):
        rng = np.random.default_rng(6)
        c = CatState([1.3, -0.7j], "odd")
        betas = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
        assert np.all(q_eval(c, betas) >= 0.0)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_two_mode_matches_closed_form(self, parity):
        rng = np.random.default_rng(8)
        c = CatState([0.9 + 0.3j, 0.4 - 0.7j], parity)
        betas = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
        np.testing.assert_allclose(q_eval(c, betas), cat_q(c, betas), rtol=1e-12, atol=0)

    def test_normalization_by_quadrature(self):
        c = CatState([1.2], "even")
        re = np.linspace(-5, 5, 321)
        im = np.linspace(-5, 5, 321)

        def f(x, y):
            return q_eval(c, (x + 1j * y)[..., np.newaxis])

        total = trapz_nd(f, [re, im]) / np.pi
        assert total == pytest.approx(1.0, abs=1e-6)


class TestWigner:
    def test_even_symmetric_under_inversion(self):
        c = CatState([1.1 + 0.3j], "even")
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(50, 1))
        pts2 = rng.normal(size=(50, 1))
        assert np.allclose(cat_wigner(c, pts, pts2), cat_wigner(c, -pts, -pts2), atol=1e-12)

    def test_odd_negative_at_origin(self):
        for alpha in [0.5, 1.0, 1.5]:
            c = CatState([alpha], "odd")
            val = cat_wigner(c, [0.0], [0.0])
            norm = cat_normalization(c)
            want = 4.0 * norm * norm * (math.exp(-2 * alpha ** 2) - 1.0)
            assert val == pytest.approx(want, rel=1e-10)
            assert val < 0

    def test_small_amplitude_even_approaches_vacuum(self):
        c = CatState([1e-6], "even")
        vac = make_coherent(0.0)
        for q, p in [(0.0, 0.0), (0.7, -0.4)]:
            assert cat_wigner(c, [q], [p]) == pytest.approx(
                wigner_eval(vac, [p, q]), abs=1e-5)

    def test_normalization_by_quadrature(self):
        c = CatState([1.5], "even")
        q = np.linspace(-7, 7, 501)
        p = np.linspace(-7, 7, 501)

        def f(qq, pp):
            return cat_wigner(c, qq[..., np.newaxis], pp[..., np.newaxis])

        total = trapz_nd(f, [q, p]) / (2 * np.pi)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_interference_fringes_present(self):
        # along q = 0 the even cat oscillates in p with negative excursions
        c = CatState([1.5], "even")
        p = np.linspace(-2, 2, 201)
        vals = cat_wigner(c, np.zeros((201, 1)), p[:, np.newaxis])
        assert vals.min() < -0.1
        assert vals.max() > 1.0

    @pytest.mark.parametrize("parity, sign", [("even", 1.0), ("odd", -1.0)])
    def test_two_mode_origin_is_parity(self, parity, sign):
        # W(0) = 2^N <(-1)^n>, and a cat's photon-number parity is pure
        c = CatState([0.9 + 0.3j, 0.4 - 0.7j], parity)
        assert cat_wigner(c, [0.0, 0.0], [0.0, 0.0]) == pytest.approx(4.0 * sign, rel=1e-12)
