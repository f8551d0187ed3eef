import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from numpy.polynomial.hermite import hermval

from qopt import hermite
from qopt.errors import DegenerateOverlapError, NonFiniteError, ResourceLimitError
from qopt.hermite import (BOX_ENTRY_CAP, HermiteParams, OverlapSpec, _total_degree_indices,
                          fock_wavefunction_eval, gaussian_hermite_overlap,
                          hermite_box, hermite_diagonal, mv_hermite_eval)

from oracles import (base_steps_by_dict, gauss_box, hermite_by_series, steps_by_all_pairs,
                     trapz_nd)


def classical_hermite(n, x):
    return hermval(x, [0.0] * n + [1.0])


class TestFockWavefunction:
    def test_ground_state_peak(self):
        assert fock_wavefunction_eval(0, 0.0, 1.0) == pytest.approx(math.pi ** -0.25, rel=1e-14)

    def test_odd_state_vanishes_at_origin(self):
        assert fock_wavefunction_eval(1, 0.0, 1.0) == 0.0

    def test_norm_by_quadrature(self):
        val, _ = quad(lambda q: abs(fock_wavefunction_eval(3, q, 1.0)) ** 2, -12, 12,
                      limit=200, epsabs=1e-13, epsrel=1e-13)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_scale_rescales_argument(self):
        # psi_n(q; s) = s^{1/4} psi_n(q sqrt(s); 1)
        q, s = 0.63, 2.7
        expected = s ** 0.25 * fock_wavefunction_eval(2, q * math.sqrt(s), 1.0)
        assert fock_wavefunction_eval(2, q, s) == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fock_wavefunction_eval(-1, 0.0)
        with pytest.raises(ValueError):
            fock_wavefunction_eval(0, 0.0, scale=0.0)

    @pytest.mark.parametrize("n", [268, 269, 300, 1000])
    @pytest.mark.parametrize("q", [0.0, 0.5, -3.7, 20.0, 44.0])
    def test_high_orders_against_mpmath(self, n, q):
        # the product of exp(-q^2/2) and H_n(q) left double range from n = 269 (NaN)
        with mpmath.workdps(40):
            y = mpmath.mpf(q)
            want = float(mpmath.exp(-y * y / 2) * mpmath.hermite(n, y) / mpmath.sqrt(
                2 ** n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi)))
        assert fock_wavefunction_eval(n, q) == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_order_300_at_one_half(self):
        assert fock_wavefunction_eval(300, 0.5) == pytest.approx(0.15350288480883925, rel=1e-12)


class TestMultivariableHermite:
    def test_scalar_r2_reduces_to_classical(self):
        params = HermiteParams(R=[[2.0]], y=[0.8])
        for k in range(7):
            assert mv_hermite_eval(params, [k]) == pytest.approx(
                classical_hermite(k, 0.8), rel=1e-12)

    def test_zero_index_is_one(self):
        rng = np.random.default_rng(7)
        for dim in [1, 2, 3]:
            R = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            R = R + R.T
            y = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            assert mv_hermite_eval(HermiteParams(R, y), [0] * dim) == 1.0

    def test_block_diagonal_factorizes(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            blocks, ys = [], []
            for dim in (1, 1) if rng.random() < 0.5 else (2, 2):
                R = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                blocks.append(R + R.T)
                ys.append(rng.normal(size=dim) + 1j * rng.normal(size=dim))
            full_dim = sum(b.shape[0] for b in blocks)
            R_full = np.zeros((full_dim, full_dim), dtype=complex)
            R_full[:blocks[0].shape[0], :blocks[0].shape[0]] = blocks[0]
            R_full[blocks[0].shape[0]:, blocks[0].shape[0]:] = blocks[1]
            y_full = np.concatenate(ys)
            n1 = tuple(rng.integers(0, 3, size=blocks[0].shape[0]))
            n2 = tuple(rng.integers(0, 3, size=blocks[1].shape[0]))
            joint = mv_hermite_eval(HermiteParams(R_full, y_full), n1 + n2)
            split = (mv_hermite_eval(HermiteParams(blocks[0], ys[0]), n1)
                     * mv_hermite_eval(HermiteParams(blocks[1], ys[1]), n2))
            assert joint == pytest.approx(split, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_recursion_matches_series_expansion(self, dim):
        rng = np.random.default_rng(5 + dim)
        for _ in range(4):
            R = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            R = R + R.T
            y = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            params = HermiteParams(R, y)
            for idx in [(k,) * dim for k in range(4)] + ([(1, 2), (3, 3), (0, 4)] if dim == 2 else []):
                got = mv_hermite_eval(params, idx)
                want = hermite_by_series(R, y, idx)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        R = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        R = R + R.T
        y = rng.normal(size=3) + 1j * rng.normal(size=3)
        perm = [2, 0, 1]
        n = (1, 2, 3)
        direct = mv_hermite_eval(HermiteParams(R, y), n)
        permuted = mv_hermite_eval(
            HermiteParams(R[np.ix_(perm, perm)], y[perm]), tuple(n[i] for i in perm))
        assert permuted == pytest.approx(direct, rel=1e-12)

    def test_rejects_asymmetric_r(self):
        with pytest.raises(ValueError):
            HermiteParams(R=[[1.0, 0.5], [0.2, 1.0]], y=[0.0, 0.0])

    def test_rejects_dimension_mismatch(self):
        params = HermiteParams(R=[[2.0]], y=[1.0])
        with pytest.raises(ValueError):
            mv_hermite_eval(params, [1, 2])

    def test_rejects_negative_index(self):
        params = HermiteParams(R=[[2.0, 0.0], [0.0, 2.0]], y=[1.0, 0.0])
        with pytest.raises(ValueError):
            mv_hermite_eval(params, (1, -1))

    def test_rejects_mismatched_or_empty_context(self):
        with pytest.raises(ValueError, match=r"R is \(2, 2\) but y has length 1"):
            HermiteParams(R=np.eye(2), y=[0.0])
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            HermiteParams(R=np.zeros((0, 0)), y=[])

    def test_value_past_double_range_raises(self):
        # G_400 is about e^-46, but H_400(0) = G_400 sqrt(400!) is about e^771
        with pytest.raises(NonFiniteError, match=r"H_\(400,\)"):
            mv_hermite_eval(HermiteParams([[2.0]], [0.0]), [400])


def _unit_floats():
    return st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)


@st.composite
def box_problems(draw):
    dim = draw(st.integers(1, 3))
    parts = draw(st.lists(_unit_floats(), min_size=2 * dim * dim + 2 * dim,
                          max_size=2 * dim * dim + 2 * dim))
    a = np.array(parts[:2 * dim * dim]).reshape(2, dim, dim)
    R = a[0] + a[0].T + 1j * (a[1] + a[1].T)
    y = np.array(parts[2 * dim * dim:2 * dim * dim + dim]) \
        + 1j * np.array(parts[2 * dim * dim + dim:])
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim)))
    idx = tuple(draw(st.integers(0, s - 1)) for s in shape)
    return R, y, shape, idx


class TestHermiteBox:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(box_problems())
    def test_matches_series_oracle(self, problem):
        R, y, shape, idx = problem
        box = hermite_box(R, R @ y, shape)
        assert box.shape == shape
        want = hermite_by_series(R, y, idx) / math.sqrt(math.prod(math.factorial(k) for k in idx))
        assert box[idx] == pytest.approx(want, rel=1e-10)

    def test_values_do_not_depend_on_the_box(self):
        rng = np.random.default_rng(31)
        R = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        R = R + R.T
        ry = rng.normal(size=3) + 1j * rng.normal(size=3)
        big = hermite_box(R, ry, (9, 7, 11))
        for shape in [(4, 7, 5), (9, 1, 3), (2, 2, 11)]:
            small = hermite_box(R, ry, shape)
            assert np.array_equal(big[tuple(slice(0, k) for k in shape)], small)

    def test_entry_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            hermite_box(2 * np.eye(2), np.zeros(2), (4097, 4096))
        assert 4096 ** 2 == BOX_ENTRY_CAP

    def test_overflow_raises(self):
        with pytest.raises(NonFiniteError):
            hermite_box(np.zeros((1, 1)), [1e200], (3,))

    def test_rejects_mismatched_shape(self):
        with pytest.raises(ValueError):
            hermite_box(np.eye(2), np.zeros(2), (3,))
        with pytest.raises(ValueError):
            hermite_box(np.eye(1), np.zeros(1), (0,))

    def test_high_degree_against_mpmath(self):
        # H_150(0.8) = -8.2e152 comes out as G_150 = -3.4e21 times sqrt(150!)
        params = HermiteParams(R=[[2.0]], y=[0.8])
        got = mv_hermite_eval(params, [150])
        want = complex(mpmath.hermite(150, mpmath.mpf("0.8")))
        assert got == pytest.approx(want, rel=1e-11)


@st.composite
def diagonal_problems(draw):
    n_modes = draw(st.integers(1, 4))
    dim = 2 * n_modes
    parts = draw(st.lists(_unit_floats(), min_size=2 * dim * dim + 2 * dim,
                          max_size=2 * dim * dim + 2 * dim))
    a = np.array(parts[:2 * dim * dim]).reshape(2, dim, dim)
    R = 0.5 * (a[0] + a[0].T + 1j * (a[1] + a[1].T))
    y = np.array(parts[2 * dim * dim:2 * dim * dim + dim]) \
        + 1j * np.array(parts[2 * dim * dim + dim:])
    return R, y, draw(st.integers(0, {1: 8, 2: 8, 3: 6, 4: 3}[n_modes]))


@pytest.fixture
def fresh_blocks():
    """The near-diagonal block cache, emptied before and after the test."""
    blocks = hermite._near_diagonal_block
    blocks.cache_clear()
    yield blocks
    blocks.cache_clear()


def _diagonal(R, ry, max_degree):
    """(indices, values) of hermite_diagonal, every shell joined."""
    shells = list(hermite_diagonal(R, ry, max_degree))
    return (np.concatenate([idx for idx, _ in shells]),
            np.concatenate([val for _, val in shells]))


class TestHermiteDiagonal:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(diagonal_problems())
    def test_matches_box_and_series(self, problem):
        R, y, max_degree = problem
        n_modes = len(y) // 2
        indices, values = _diagonal(R, R @ y, max_degree)
        assert np.array_equal(indices, _total_degree_indices(n_modes, max_degree))
        box = hermite_box(R, R @ y, (max_degree + 1,) * (2 * n_modes))
        want = box[tuple(indices.T) * 2]
        assert np.all(np.abs(values - want) <= 1e-13 * np.abs(want) + 1e-300)
        # the series oracle expands every monomial up to 2|n|, so keep |n| small
        for idx, value in zip(indices.tolist(), values):
            if 0 < sum(idx) <= {1: 8, 2: 4, 3: 2, 4: 1}[n_modes]:
                series = hermite_by_series(R, y, idx + idx) / math.prod(
                    math.factorial(k) for k in idx)
                assert value == pytest.approx(series, rel=1e-10)

    def test_values_do_not_depend_on_how_far_the_fill_runs(self):
        rng = np.random.default_rng(41)
        for n_modes in (1, 2, 3):
            a = rng.normal(size=(2, 2 * n_modes, 2 * n_modes))
            R = 0.3 * (a[0] + a[0].T + 1j * (a[1] + a[1].T))
            ry = rng.normal(size=2 * n_modes) + 1j * rng.normal(size=2 * n_modes)
            _, far = _diagonal(R, ry, 24 if n_modes < 3 else 12)
            for max_degree in (0, 1, 5, 9):
                _, near = _diagonal(R, ry, max_degree)
                assert np.array_equal(far[:len(near)], near)

    def test_values_do_not_depend_on_how_shells_are_split(self, monkeypatch, fresh_blocks):
        # parts of 7 entries split every shell past the first few, across block bounds
        rng = np.random.default_rng(43)
        for n_modes in (1, 2, 3):
            a = rng.normal(size=(2, 2 * n_modes, 2 * n_modes))
            R = 0.3 * (a[0] + a[0].T + 1j * (a[1] + a[1].T))
            ry = rng.normal(size=2 * n_modes) + 1j * rng.normal(size=2 * n_modes)
            whole = _diagonal(R, ry, 9)
            with monkeypatch.context() as patch:
                patch.setattr(hermite, "_BLOCK_TERMS", 7 * (2 * n_modes + 1))
                fresh_blocks.cache_clear()
                split = _diagonal(R, ry, 9)
            fresh_blocks.cache_clear()
            assert np.array_equal(whole[0], split[0]) and np.array_equal(whole[1], split[1])

    def test_block_cache_stays_bounded(self, monkeypatch, fresh_blocks):
        # two modes to degree 210 are 221,761 entries, 38 blocks of at most 2**15 / 5 entries:
        # a fill caches its first 32 blocks and builds the rest uncached, so the cache holds
        # at most 32 blocks of at most _BLOCK_TERMS terms each, and a second fill finds its
        # first 32 blocks cached and gets the same values
        R = np.diag([0.1, -0.1, 0.1j, 0.05j]) + 0.8 * np.eye(4, k=2) + 0.8 * np.eye(4, k=-2)
        R[0, 1] = R[1, 0] = R[2, 3] = R[3, 2] = 0.05
        ry = np.array([0.3 + 0.1j, 0.2 - 0.4j, 0.1, -0.2j])
        whole = _diagonal(R, ry, 210)
        info = fresh_blocks.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 32, 32)
        seen = {}
        spy = lambda *key: seen.setdefault(key, fresh_blocks(*key))
        spy.__wrapped__ = lambda *key: seen.setdefault(key, fresh_blocks.__wrapped__(*key))
        monkeypatch.setattr(hermite, "_near_diagonal_block", spy)
        got = _diagonal(R, ry, 210)
        assert np.array_equal(got[0], whole[0]) and np.array_equal(got[1], whole[1])
        info = fresh_blocks.cache_info()
        assert len(seen) == 38 and (info.hits, info.misses, info.currsize) == (32, 32, 32)
        assert all(sum(terms.size for terms, *_ in block) <= hermite._BLOCK_TERMS
                   for block in seen.values())

    def test_shell_indices_are_read_only(self):
        # past shell 0 a shell's indices are the cached block's own: writing to them must
        # raise, not change the indices of every later fill
        shells = hermite_diagonal(np.zeros((4, 4)), np.ones(4), 3)
        for indices, _ in list(shells)[1:]:
            with pytest.raises(ValueError, match="read-only"):
                indices += 1
        assert np.array_equal(_diagonal(np.zeros((4, 4)), np.ones(4), 3)[0],
                              _total_degree_indices(2, 3))

    def test_shell_values_are_read_only(self):
        # a shell's values feed the window of the next shells: writing to them must raise,
        # not change the later shells of this fill
        R, ry = np.array([[0.3, 0.9], [0.9, -0.2j]]), np.array([0.5 + 0.1j, -0.3])
        want = _diagonal(R, ry, 6)
        for _, values in hermite_diagonal(R, ry, 6):
            with pytest.raises(ValueError, match="read-only"):
                values *= 2
        assert np.array_equal(_diagonal(R, ry, 6)[1], want[1])

    @pytest.mark.parametrize("n_modes", range(1, 9))
    def test_steps_match_an_all_pairs_search(self, n_modes):
        lifted, targets, axes = hermite._steps(n_modes)
        offsets = lifted[:, :n_modes].astype(np.int64) - lifted[:, n_modes:]
        # 1 + 3N(N + 1)/2 distinct offsets of norm at most 2, by norm, each of norm 2 with a
        # negative entry: every such offset, e_a + e_c and 2 e_a left out
        norms = np.abs(offsets).sum(axis=1)
        assert len(offsets) == 1 + 3 * n_modes * (n_modes + 1) // 2
        assert len(np.unique(offsets, axis=0)) == len(offsets)
        assert norms[0] == 0 and np.all(np.diff(norms) >= 0) and norms[-1] <= 2
        assert np.all((offsets < 0).any(axis=1) | (norms < 2))
        # step 0 stays; steps 1.. are the all-pairs search's first steps
        want_targets, want_axes = steps_by_all_pairs(offsets)
        assert np.array_equal(targets[:, 0], np.arange(len(offsets)))
        assert np.all(axes[:, 0] == n_modes)
        assert np.array_equal(targets[:, 1:], want_targets)
        assert np.array_equal(axes[:, 1:], want_axes)
        # each template (offset, pivot) whose step stays in the set: the offsets and base
        # axes of its 2N + 1 terms are the row of that step's target
        near = want_targets[want_targets >= 0]
        assert np.array_equal(targets[near], np.column_stack([near, want_targets[near]]))
        assert np.array_equal(axes[near], np.column_stack([np.full(len(near), n_modes),
                                                           want_axes[near]]))
        assert not any(table.flags.writeable for table in (lifted, targets, axes))

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
    def test_base_steps_match_a_dictionary_of_rows(self, n_modes):
        # low > 0 leaves rows whose lowering falls below low; spans of 0 to 6 totals
        for low, high in [(0, 0), (0, 4), (1, 1), (1, 5), (3, 3), (2, 7), (4, 6)]:
            if n_modes == 5 and high > 5:
                continue
            got = hermite._base_steps(n_modes, low, high)
            for table, want in zip(got, base_steps_by_dict(n_modes, low, high)):
                assert np.array_equal(table, want) and not table.flags.writeable

    @pytest.mark.parametrize("n_modes, low, high", [(31, 0, 3), (31, 1, 3), (40, 0, 2),
                                                    (63, 0, 1), (64, 1, 2)])
    def test_base_steps_of_many_modes_match_a_dictionary_of_rows(self, n_modes, low, high):
        # one number of N + 1 digits in base high + 1 would pass 2**63 for each of these
        got = hermite._base_steps(n_modes, low, high)
        for table, want in zip(got, base_steps_by_dict(n_modes, low, high)):
            assert np.array_equal(table, want)

    def test_threads_filling_one_table_get_the_one_thread_values(self, monkeypatch,
                                                                 fresh_blocks):
        # four threads on two cores, switching every microsecond, build and share one
        # cache's blocks; each gets the one-thread values and the cache stays bounded
        rng = np.random.default_rng(46)
        a = rng.normal(size=(2, 6, 6))
        R = 0.3 * (a[0] + a[0].T + 1j * (a[1] + a[1].T))
        ry = rng.normal(size=6) + 1j * rng.normal(size=6)
        want = _diagonal(R, ry, 14)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for terms in (7 * 7, 2 ** 15):  # parts of 7 entries, then the default blocks
                monkeypatch.setattr(hermite, "_BLOCK_TERMS", terms)
                fresh_blocks.cache_clear()
                start, got = threading.Barrier(4), [None] * 4

                def fill(i):
                    start.wait(timeout=60)
                    got[i] = _diagonal(R, ry, 14)

                threads = [threading.Thread(target=fill, args=(i,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                for indices, values in got:
                    assert np.array_equal(indices, want[0]) and np.array_equal(values, want[1])
                assert 0 < fresh_blocks.cache_info().currsize <= 32
        finally:
            sys.setswitchinterval(interval)

    def test_stops_where_the_caller_stops(self):
        shells = hermite_diagonal(2 * np.eye(2), np.ones(2), 10 ** 6)
        for degree, (indices, values) in zip(range(5), shells):
            assert indices.tolist() == [[degree]]
        assert values[0] == pytest.approx(1.0 / math.factorial(4), rel=1e-14)

    def test_entry_cap_enforced(self):
        # 8 modes to total degree 14 need 22.3 million near-diagonal entries
        with pytest.raises(ResourceLimitError, match="exceeding the cap"):
            hermite_diagonal(np.eye(16), np.zeros(16), 14)
        hermite_diagonal(np.eye(16), np.zeros(16), 13)  # 13.8 million: within

    def test_overflow_raises(self):
        shells = hermite_diagonal(np.zeros((2, 2)), [1e200, 1e200], 3)
        next(shells)
        with pytest.raises(NonFiniteError, match="total degree 1"):
            next(shells)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hermite_diagonal(np.eye(3), np.zeros(3), 2)
        with pytest.raises(ValueError):
            hermite_diagonal(np.eye(2), np.zeros(2), -1)


def hermite_table(params, max_total_degree):
    """{n: H_n^{R}(y)} for every n of total degree up to ``max_total_degree``, read from one
    ``hermite_box`` at the rows of ``_total_degree_indices``."""
    box = hermite_box(params.R, params.R @ params.y, (max_total_degree + 1,) * params.dim)
    return {idx: complex(box[idx]) * math.prod(math.sqrt(math.factorial(k)) for k in idx)
            for idx in map(tuple, _total_degree_indices(params.dim, max_total_degree).tolist())}


class TestHermiteTable:
    def test_classical_values_at_one(self):
        table = hermite_table(HermiteParams(R=[[2.0]], y=[1.0]), 2)
        assert table[(0,)] == pytest.approx(1.0)
        assert table[(1,)] == pytest.approx(2.0)
        assert table[(2,)] == pytest.approx(2.0)

    def test_degree_zero(self):
        table = hermite_table(HermiteParams(R=[[2.0, 0], [0, 2.0]], y=[1.0, 2.0]), 0)
        assert table == {(0, 0): 1.0}

    def test_matches_pointwise_eval(self):
        rng = np.random.default_rng(3)
        R = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        R = R + R.T
        y = rng.normal(size=2) + 1j * rng.normal(size=2)
        params = HermiteParams(R, y)
        table = hermite_table(params, 4)
        assert len(table) == 15
        for idx, val in table.items():
            assert val == pytest.approx(mv_hermite_eval(params, idx), rel=1e-12, abs=1e-12)

    def test_index_cap_enforced(self):
        params = HermiteParams(R=2 * np.eye(4, dtype=complex), y=np.ones(4))
        with pytest.raises(ResourceLimitError):
            hermite_table(params, 300)


class TestGaussianHermiteOverlap:
    @pytest.mark.parametrize("n", [[0], [1]])
    def test_overflowing_prefactor_raises(self, n):
        # exp(c.m^-1.c / 4) has the exponent 900,000: the overlap is past double range
        I = np.eye(1)
        spec = OverlapSpec(2 * I, 2 * I, I, [0.0], [60.0], 0.001 * I)
        with pytest.raises(NonFiniteError, match="finite double"):
            gaussian_hermite_overlap(spec, n, n)

    @pytest.mark.parametrize("n, want, moment", [([0], 2.0998845206920968e+110, 1.0),
                                                 ([1], 2.104084289733481e+116, 1_002_000.0)])
    def test_prefactor_that_fits_keeps_its_value(self, n, want, moment):
        # the exponent 250 fits, and the values stay bit for bit: sqrt(1000 pi) e^250 times
        # 1, and times 4 (1/2m + c^2/4m^2) for int (2x)^2 exp(-m x^2 + c x) dx
        I = np.eye(1)
        spec = OverlapSpec(2 * I, 2 * I, I, [0.0], [1.0], 0.001 * I)
        assert gaussian_hermite_overlap(spec, n, n) == complex(want)
        assert want == pytest.approx(math.sqrt(1000 * math.pi) * math.exp(250) * moment,
                                     rel=1e-12)

    def test_bare_gaussian_integral(self):
        spec = OverlapSpec(R=[[2.0]], r=[[2.0]], lam=[[1.0]], d=[0.0], c=[0.0], m=[[1.0]])
        assert gaussian_hermite_overlap(spec, [0], [0]) == pytest.approx(
            math.sqrt(math.pi), rel=1e-12)

    def test_shifted_gaussian_integral(self):
        a, b = 1.4 - 0.3j, 0.7 + 0.2j
        spec = OverlapSpec(R=[[2.0]], r=[[2.0]], lam=[[1.0]], d=[0.0], c=[b], m=[[a]])
        want = np.sqrt(np.pi / a) * np.exp(b * b / (4 * a))
        assert gaussian_hermite_overlap(spec, [0], [0]) == pytest.approx(want, rel=1e-12)

    def test_h1_h1_orthogonality_weight(self):
        # int H_1(x)^2 e^{-x^2} dx = 2 sqrt(pi)
        spec = OverlapSpec(R=[[2.0]], r=[[2.0]], lam=[[1.0]], d=[0.0], c=[0.0], m=[[1.0]])
        assert gaussian_hermite_overlap(spec, [1], [1]) == pytest.approx(
            2 * math.sqrt(math.pi), rel=1e-12)

    @pytest.mark.parametrize("n,m_idx", [([0], [0]), ([1], [0]), ([2], [1]), ([3], [2])])
    def test_1d_against_quadrature(self, n, m_idx):
        lam, d, c, m = 0.8, 0.4, 0.3 + 0.25j, 1.2 + 0.35j
        spec = OverlapSpec(R=[[2.0]], r=[[2.0]], lam=[[lam]], d=[d], c=[c], m=[[m]])

        def integrand(x):
            return (classical_hermite(n[0], x) * classical_hermite(m_idx[0], lam * x + d)
                    * np.exp(-m * x * x + c * x))

        want, _ = quad(integrand, -12, 12, limit=400, complex_func=True,
                       epsabs=1e-12, epsrel=1e-12)
        got = gaussian_hermite_overlap(spec, n, m_idx)
        assert got == pytest.approx(want, rel=1e-6)

    def test_1d_generic_r_against_quadrature(self):
        # complex symmetric R, r away from the classical value 2
        R, r = 1.1 - 0.4j, 2.6 + 0.3j
        lam, d, c, m = 0.9, -0.2, 0.15 - 0.1j, 1.0 + 0.2j
        spec = OverlapSpec(R=[[R]], r=[[r]], lam=[[lam]], d=[d], c=[c], m=[[m]])
        pR = HermiteParams([[R]], [0.0])
        pr = HermiteParams([[r]], [0.0])

        def h(params, k, x):
            # evaluate H_k^{R}(x) pointwise; scalar table per point is cheap
            return np.array([mv_hermite_eval(HermiteParams(params.R, [xi]), [k]) for xi in x])

        xs = np.linspace(-9, 9, 4001)
        vals = h(pR, 2, xs) * h(pr, 1, lam * xs + d) * np.exp(-m * xs * xs + c * xs)
        want = np.trapezoid(vals, xs)
        got = gaussian_hermite_overlap(spec, [2], [1])
        assert got == pytest.approx(want, rel=1e-6)

    def test_2d_against_quadrature(self):
        rng = np.random.default_rng(17)
        shape = rng.normal(size=(2, 2))
        m = shape @ shape.T + 1.5 * np.eye(2) + 0.2j * np.eye(2)
        lam = np.eye(2) + 0.1 * rng.normal(size=(2, 2))
        d = np.array([0.3, -0.1])
        c = np.array([0.2 + 0.1j, -0.15])
        spec = OverlapSpec(R=2 * np.eye(2), r=2 * np.eye(2), lam=lam, d=d, c=c, m=m)
        n, m_idx = (1, 0), (0, 2)

        def integrand(x1, x2):
            u1 = lam[0, 0] * x1 + lam[0, 1] * x2 + d[0]
            u2 = lam[1, 0] * x1 + lam[1, 1] * x2 + d[1]
            quad_form = (m[0, 0] * x1 * x1 + 2 * m[0, 1] * x1 * x2 + m[1, 1] * x2 * x2)
            return (classical_hermite(n[0], x1) * classical_hermite(n[1], x2)
                    * classical_hermite(m_idx[0], u1) * classical_hermite(m_idx[1], u2)
                    * np.exp(-quad_form + c[0] * x1 + c[1] * x2))

        want = trapz_nd(integrand, gauss_box(m.real, points=901))
        got = gaussian_hermite_overlap(spec, n, m_idx)
        assert got == pytest.approx(want, rel=1e-6)

    def test_2d_noncommuting_r_against_quadrature(self):
        # R that does not commute with m exercises the linear coupling term
        R = np.array([[2.0, 0.6], [0.6, 1.4]])
        m = np.array([[1.8, -0.3], [-0.3, 1.1]]) + 0.1j * np.eye(2)
        lam = np.array([[0.9, 0.2], [-0.1, 1.1]])
        d = np.array([0.25, -0.3])
        c = np.array([0.4, 0.2 - 0.15j])
        spec = OverlapSpec(R=R, r=2 * np.eye(2), lam=lam, d=d, c=c, m=m)
        n, m_idx = (2, 1), (1, 0)

        def h2(Rmat, idx, x1, x2):
            flat1, flat2 = x1.ravel(), x2.ravel()
            vals = np.array([
                mv_hermite_eval(HermiteParams(Rmat, [a, b]), idx)
                for a, b in zip(flat1, flat2)])
            return vals.reshape(x1.shape)

        def integrand(x1, x2):
            u1 = lam[0, 0] * x1 + lam[0, 1] * x2 + d[0]
            u2 = lam[1, 0] * x1 + lam[1, 1] * x2 + d[1]
            quad_form = (m[0, 0] * x1 * x1 + 2 * m[0, 1] * x1 * x2 + m[1, 1] * x2 * x2)
            return (h2(R, n, x1, x2)
                    * classical_hermite(m_idx[0], u1) * classical_hermite(m_idx[1], u2)
                    * np.exp(-quad_form + c[0] * x1 + c[1] * x2))

        want = trapz_nd(integrand, gauss_box(m.real, points=301))
        got = gaussian_hermite_overlap(spec, n, m_idx)
        assert got == pytest.approx(want, rel=1e-5)

    def test_degenerate_coupling_raises(self):
        # R = r = 0 makes the coupled matrix vanish identically
        spec = OverlapSpec(R=[[0.0]], r=[[0.0]], lam=[[1.0]], d=[0.0], c=[0.0], m=[[1.0]])
        with pytest.raises(DegenerateOverlapError):
            gaussian_hermite_overlap(spec, [0], [0])

    def test_rejects_non_normalizable_weight(self):
        with pytest.raises(ValueError):
            OverlapSpec(R=[[2.0]], r=[[2.0]], lam=[[1.0]], d=[0.0], c=[0.0], m=[[-1.0]])
