import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qopt.gaussian import make_coherent, make_squeezed_vacuum, wigner_eval
from qopt.cli import execute_job, parse_config
from qopt.io import (_BLOCK, PHASE_SPACE_HEADER, SINOGRAM_HEADER, LatticeText, _shortest,
                     format_lattice, format_table, read_lattice)
from qopt.tomography import gaussian_sinogram, sinogram_from_csv, wigner_grid_from_csv

from oracles import repr_csv

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-05, 0.0001, 1e16, -1e16, 0.1, 1 / 3,
               float("inf"), float("-inf"), float("nan"), 2.2250738585072014e-308,
               1.7976931348623157e308, 123456789.0, 1e-7, 0.5]


def lattice_rows(a_grid, b_grid, values):
    return [(a_grid[i], b_grid[j], values[i, j])
            for i in range(a_grid.shape[0]) for j in range(b_grid.shape[0])]


def edge_lattice(n_a=21, n_b=17, seed=3):
    """A non-square lattice whose values include every edge float."""
    rng = np.random.default_rng(seed)
    a_grid = np.linspace(-3.0, 7.0, n_a)
    b_grid = np.linspace(-0.2, 0.6, n_b) ** 3
    values = rng.normal(size=(n_a, n_b)) * np.exp(-rng.uniform(0, 700, size=(n_a, n_b)))
    values.flat[:len(EDGE_FLOATS)] = EDGE_FLOATS
    return a_grid, b_grid, values


def assert_bit_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestWriterMatchesPerCellOracle:
    def test_lattice_with_edge_floats(self):
        a_grid, b_grid, values = edge_lattice()
        want = repr_csv(["q", "p", "value"], lattice_rows(a_grid, b_grid, values))
        assert format_lattice(PHASE_SPACE_HEADER, a_grid, b_grid, values) == want
        # an axis swap would show: the transposed lattice prints differently
        assert format_lattice(PHASE_SPACE_HEADER, b_grid, a_grid, values.T) != want

    def test_table_of_integer_and_float_columns(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 40, size=(23, 2))
        probs = np.abs(rng.normal(size=23)) * np.exp(-rng.uniform(0, 400, size=23))
        probs[:7] = [-0.0, 5e-324, 1e-05, 0.0001, 1e16, float("inf"), 0.0]
        rows = [[int(n1), int(n2), p] for (n1, n2), p in zip(counts, probs)]
        got = format_table(["n1", "n2", "probability"], [counts[:, 0], counts[:, 1], probs])
        assert got == repr_csv(["n1", "n2", "probability"], rows)
        assert got.splitlines()[1].split(",")[0] == str(counts[0, 0])  # digits, not 3.0

    def test_float_block_with_nan(self):
        block = np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]])
        header = [f"c{i}" for i in range(block.shape[1])]
        assert format_table(header, block.T) == repr_csv(header, block.tolist())

    def test_sinogram_text_matches_oracle(self):
        sino = gaussian_sinogram(make_squeezed_vacuum(0.5), np.arange(6) * math.pi / 6,
                                 np.linspace(-4.0, 4.0, 9))
        want = repr_csv(SINOGRAM_HEADER, lattice_rows(sino.theta_grid, sino.x_grid,
                                                      sino.values))
        assert format_lattice(SINOGRAM_HEADER, sino.theta_grid, sino.x_grid, sino.values) == want

    def test_file_writers_share_the_text_writer(self):
        # the CLI writes every lattice file, sinogram.csv included, from LatticeText blocks
        x = [-3.0, -1.5, 0.0, 1.5, 3.0]
        cfg = parse_config(json.dumps({"state": {"kind": "coherent", "alpha": 0.3},
                                       "n_angles": 5, "x": x}), "tomo-forward")
        sino = gaussian_sinogram(make_coherent(0.3), np.arange(5) * math.pi / 5, np.array(x))
        assert b"".join(execute_job(cfg)["sinogram.csv"]).decode() == repr_csv(
            SINOGRAM_HEADER, lattice_rows(sino.theta_grid, sino.x_grid, sino.values))
        g = np.linspace(-2.0, 2.0, 5)
        cfg = parse_config(json.dumps({"state": {"kind": "coherent", "alpha": 0.3},
                                       "grid": {"q": g.tolist(), "p": g[:4].tolist()}}), "wigner")
        grid_q, grid_p = np.meshgrid(g, g[:4], indexing="ij")
        values = wigner_eval(make_coherent(0.3), np.stack([grid_p, grid_q], axis=-1))
        assert b"".join(execute_job(cfg)["wigner.csv"]).decode() == repr_csv(
            PHASE_SPACE_HEADER, lattice_rows(g, g[:4], values))

    def test_empty_table_is_header_only(self):
        assert format_table(["a", "b"], [[], []]) == "a,b\n"

    @pytest.mark.parametrize("n_a, n_b", [(1, 0), (0, 1), (0, 0), (0, 5)])
    def test_lattice_with_an_empty_axis_is_header_only(self, n_a, n_b):
        text = format_lattice(PHASE_SPACE_HEADER, np.arange(float(n_a)), np.arange(float(n_b)),
                              np.zeros((n_a, n_b)))
        assert text == "q,p,value\n"

    @pytest.mark.parametrize("column", [np.array([True, False]), np.array([1.5 + 0j, 2.0]),
                                        np.array(["1", "2"]), np.array([1, "a"], dtype=object),
                                        np.zeros((2, 2))])
    def test_table_rejects_columns_it_cannot_read_back(self, column):
        with pytest.raises(ValueError, match="'bad'"):
            format_table(["n", "bad"], [np.arange(2), column])

    def test_table_accepts_every_integer_and_real_dtype(self):
        ints = np.arange(-128, 128)
        columns = [ints.astype(np.int8), (ints + 128).astype(np.uint8), ints.astype(np.int64),
                   np.full(256, np.iinfo(np.int64).min), np.full(256, np.iinfo(np.uint64).max),
                   ints.astype(np.float16) / 7, ints.astype(np.float32) / 7]
        header = [f"c{i}" for i in range(len(columns))]
        want = repr_csv(header, zip(*(c.tolist() for c in columns)))
        assert format_table(header, columns) == want

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            format_lattice(PHASE_SPACE_HEADER, np.arange(3.0), np.arange(4.0),
                           np.zeros((4, 3)))
        with pytest.raises(ValueError, match="header"):
            format_table(["a"], [[1], [2]])
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1], [2, 3]])


def special_floats():
    """Powers of 2 and 10 with both neighbours, subnormals, zeros, infinities, nan, the
    1e-05/1e-04/1e+16 layout switch points with neighbours and integer-valued floats,
    each with both signs."""
    rng = np.random.default_rng(11)
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{k}") for k in range(-323, 309)]])
    switches = np.array([1e-05, 1e-04, 1e16, 9.999999999999999e-06, 9.999999999999999e-05,
                         9999999999999998.0])
    subnormals = rng.integers(1, 2 ** 52, size=2000).view(np.float64)
    integral = np.concatenate([[10.0, 9.0, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 63, 1e15, 1e17,
                                123456789.0, 1e22, 1e23, 5e-324, 2.2250738585072014e-308,
                                1.7976931348623157e308, 0.0, float("inf"), float("nan")],
                               np.arange(1.0, 3000.0),
                               rng.integers(-2 ** 62, 2 ** 62, size=2000).astype(float)])
    cells = np.concatenate([powers, switches, subnormals, integral])
    with np.errstate(over="ignore"):   # the neighbours of the largest double are inf
        cells = np.concatenate([cells, np.nextafter(cells, np.inf), np.nextafter(cells, -np.inf)])
    return np.concatenate([cells, -cells])


class TestBulkKernelMatchesRepr:
    """The bulk kernel against the per-cell ``repr`` oracle, cell for cell."""

    def test_random_bit_patterns(self):
        # 10^6 seeded 64-bit patterns: every exponent, subnormals, inf and nan included;
        # the value column of the lattice must be their reprs
        rng = np.random.default_rng(2024)
        values = rng.integers(0, 2 ** 64, size=(1000, 1000), dtype=np.uint64).view(np.float64)
        axis = np.arange(1000.0)
        text = format_lattice(PHASE_SPACE_HEADER, axis, axis, values)
        cells = [line.rpartition(",")[2] for line in text.splitlines()[1:]]
        assert cells == list(map(repr, values.ravel().tolist()))

    def test_special_floats_in_a_lattice(self):
        cells = special_floats()
        n_b = 97
        values = cells[:cells.size // n_b * n_b].reshape(-1, n_b)
        a_grid, b_grid = cells[:values.shape[0]], cells[-n_b:]
        assert format_lattice(PHASE_SPACE_HEADER, a_grid, b_grid, values) == repr_csv(
            PHASE_SPACE_HEADER, lattice_rows(a_grid, b_grid, values))

    # one block, whole rows per block, and rows split across blocks (n_b > _BLOCK)
    @pytest.mark.parametrize("n_a, n_b", [(1, 1), (20, 20), (1, _BLOCK - 1), (1, _BLOCK),
                                          (1, _BLOCK + 1), (_BLOCK + 1, 1), (300, 97),
                                          (3, 2 * _BLOCK + 5)])
    def test_lattice_shapes(self, n_a, n_b):
        rng = np.random.default_rng(n_a * 7 + n_b)
        a_grid = np.sort(rng.normal(size=n_a))
        b_grid = np.linspace(-3.0, 3.0, n_b)
        values = rng.normal(size=(n_a, n_b)) * np.exp(-rng.uniform(0, 40, size=(n_a, n_b)))
        assert format_lattice(SINOGRAM_HEADER, a_grid, b_grid, values) == repr_csv(
            SINOGRAM_HEADER, lattice_rows(a_grid, b_grid, values))

    def test_phase_space_grids_are_certified(self):
        # the kernel's arithmetic decides every cell of a density grid, so none
        # falls back to float.__repr__
        q = np.linspace(-6.0, 6.0, 161)
        grid_q, grid_p = np.meshgrid(q, q, indexing="ij")
        values = wigner_eval(make_squeezed_vacuum(0.7), np.stack([grid_p, grid_q], axis=-1))
        _, _, _, certified = _shortest(np.ascontiguousarray(values.ravel()))
        assert certified.all()


class TestLatticeBlocks:
    """``LatticeText`` yields the header, then one piece of text per block of values."""

    # several blocks of whole rows, rows longer than a block, one cell, and empty axes
    @pytest.mark.parametrize("n_a, n_b, n_blocks", [(300, 97, 2), (3, 2 * _BLOCK + 5, 9),
                                                    (1, 1, 1), (0, 5, 0), (4, 0, 0)])
    def test_joined_blocks_are_the_text(self, n_a, n_b, n_blocks):
        rng = np.random.default_rng(n_a + n_b)
        a_grid = np.linspace(-2.0, 2.0, n_a)
        b_grid = np.sort(rng.normal(size=n_b))
        values = rng.normal(size=(n_a, n_b)) * np.exp(-rng.uniform(0, 40, size=(n_a, n_b)))
        lattice = LatticeText(SINOGRAM_HEADER, a_grid, b_grid, values)
        blocks = list(lattice)
        assert blocks[0] == b"theta,x,value\n"
        assert len(blocks) == 1 + n_blocks
        assert all(type(block) is bytes and 0 < block.count(b"\n") <= _BLOCK
                   for block in blocks[1:])
        text = b"".join(blocks)
        assert text.decode("ascii") == repr_csv(SINOGRAM_HEADER,
                                                lattice_rows(a_grid, b_grid, values))
        assert lattice.encode() == text   # every pass formats the same blocks again
        assert format_lattice(SINOGRAM_HEADER, a_grid, b_grid, values) == text.decode()

    @pytest.mark.parametrize("encoding", ["utf-8", "ascii", "utf-16", "utf-32-le"])
    def test_encode_honours_its_encoding(self, encoding):
        lattice = LatticeText(PHASE_SPACE_HEADER, [-0.5, 1.25], [0.0, 3.0], [[1.0, 2e-300],
                                                                             [-0.0, 1 / 3]])
        assert lattice.encode(encoding) == b"".join(lattice).decode("ascii").encode(encoding)

    def test_shape_is_checked_before_any_block(self):
        with pytest.raises(ValueError, match="shape"):
            LatticeText(PHASE_SPACE_HEADER, np.arange(3.0), np.arange(4.0), np.zeros((4, 3)))


class TestLatticeReader:
    def test_edge_lattice_round_trip(self, tmp_path):
        a_grid, b_grid, values = edge_lattice()
        path = tmp_path / "grid.csv"
        path.write_text(format_lattice(PHASE_SPACE_HEADER, a_grid, b_grid, values),
                        encoding="utf-8")
        got_a, got_b, got_values = read_lattice(path, PHASE_SPACE_HEADER, "test")
        assert_bit_equal(got_a, a_grid)
        assert_bit_equal(got_b, b_grid)
        nan = np.isnan(values)
        assert np.array_equal(np.isnan(got_values), nan)
        assert_bit_equal(got_values[~nan], values[~nan])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_write_then_read_is_bit_exact(self, tmp_path_factory, data):
        axis = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                        max_size=6, unique=True).map(sorted)
        a_grid = np.array(data.draw(axis))
        b_grid = np.array(data.draw(axis))
        values = np.array(data.draw(st.lists(st.floats(allow_nan=False),
                                             min_size=a_grid.size * b_grid.size,
                                             max_size=a_grid.size * b_grid.size)))
        values = values.reshape(a_grid.size, b_grid.size)
        path = tmp_path_factory.mktemp("rt") / "lattice.csv"
        text = format_lattice(SINOGRAM_HEADER, a_grid, b_grid, values)
        assert text == repr_csv(SINOGRAM_HEADER, lattice_rows(a_grid, b_grid, values))
        path.write_text(text, encoding="utf-8")
        got_a, got_b, got_values = read_lattice(path, SINOGRAM_HEADER, "test")
        assert_bit_equal(got_a, a_grid)
        assert_bit_equal(got_b, b_grid)
        assert_bit_equal(got_values, values)

    @pytest.mark.parametrize("reader", [sinogram_from_csv, wigner_grid_from_csv])
    def test_empty_file_names_the_path(self, tmp_path, reader):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty.csv"):
            reader(path)

    @pytest.mark.parametrize("reader, header", [(sinogram_from_csv, "theta,x,value"),
                                                (wigner_grid_from_csv, "q,p,value")])
    def test_header_only_file_names_the_path(self, tmp_path, reader, header):
        path = tmp_path / "header_only.csv"
        path.write_text(header + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header_only.csv.*no data rows"):
            reader(path)

    def test_wrong_column_count_names_the_path(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("q,p,value\n0.0,1.0,2.0,3.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="wide.csv.*columns"):
            wigner_grid_from_csv(path)

    @pytest.mark.parametrize("line", [3, 2])
    def test_ragged_row_names_the_line_and_the_columns(self, tmp_path, line):
        # numpy's own text for a ragged row advises `usecols`, which a lattice file never needs
        rows = ["0.0,0.0,1.0", "0.0,1.0,2.0", "1.0,0.0,3.0", "1.0,1.0,4.0"]
        rows[line - 2] = rows[line - 2].rsplit(",", 1)[0]
        path = tmp_path / "ragged.csv"
        path.write_text("\n".join(["theta,x,value", *rows]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            sinogram_from_csv(path)
        message = str(info.value)
        assert message == (f"{path}, line {line}: malformed sinogram row of 2 columns, "
                           f"expected 3")
        assert "usecols" not in message

    def test_unparsable_cell_names_the_path(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("q,p,value\n0.0,1.0,oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.csv"):
            wigner_grid_from_csv(path)
