"""CSV artifacts: the one writer and the one lattice reader.

Every CSV this package writes has one header line, comma-separated cells,
and a newline after every row.  Integers print as digits and floats as their
shortest round-trip decimal (Python ``repr``: ``0.1``, ``-0.0``, ``1e-05``,
``1e+16``, ``inf``, ``nan``), so reading a file back gives the same floats
bit for bit and reruns give the same bytes.

A lattice file lists rows ``(a_i, b_j, value[i, j])`` of two sorted axes,
``a`` varying slowest: sinograms are ``(theta, x, value)``, phase-space grids
``(q, p, value)``.
"""

from __future__ import annotations

import json
from operator import add
from pathlib import Path

import numpy as np

SINOGRAM_HEADER = ("theta", "x", "value")
PHASE_SPACE_HEADER = ("q", "p", "value")


def _text(header, lines) -> str:
    return "\n".join([",".join(header), *lines]) + "\n"


def format_table(header, columns) -> str:
    """CSV text of equal-length columns, one row per index.

    An integer column prints as digits, a float column with ``repr``; each
    column is converted to Python scalars in one ``tolist`` call.
    """
    cells = [map(repr, np.asarray(col).tolist()) for col in columns]
    if len(cells) != len(header):
        raise ValueError(f"{len(header)} header names for {len(cells)} columns")
    return _text(header, map(",".join, zip(*cells, strict=True)))


def format_lattice(header, a_grid, b_grid, values) -> str:
    """CSV text of rows (a_i, b_j, values[i, j]), ``a`` varying slowest.

    Each axis coordinate is formatted once and every value in one pass; a
    row of the lattice is the prefix ``a_i,`` joined onto ``b_j,value``.
    """
    # float.__repr__ is repr for Python floats, without the builtin's dispatch
    a_text = list(map(float.__repr__, np.asarray(a_grid, dtype=float).tolist()))
    b_text = [b + "," for b in map(float.__repr__, np.asarray(b_grid, dtype=float).tolist())]
    values = np.asarray(values, dtype=float)
    if values.shape != (len(a_text), len(b_text)):
        raise ValueError(f"values shape {values.shape} does not match grids "
                         f"({len(a_text)}, {len(b_text)})")
    cells = list(map(float.__repr__, values.ravel().tolist()))
    n_b = len(b_text)
    rows = (a + "," + ("\n" + a + ",").join(map(add, b_text, cells[i * n_b:(i + 1) * n_b]))
            for i, a in enumerate(a_text))
    return _text(header, rows)


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


def sinogram_csv(sino) -> str:
    """CSV text of a sinogram: rows (theta, x, value), theta varying slowest."""
    return format_lattice(SINOGRAM_HEADER, sino.theta_grid, sino.x_grid, sino.values)


def _write_with_sidecar(path, text: str, sidecar: dict, meta: dict | None) -> None:
    path = Path(path)
    path.write_text(text, encoding="utf-8")
    if meta:
        sidecar.update(meta)
    Path(str(path) + ".meta.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def sinogram_to_csv(sino, path, meta: dict | None = None) -> None:
    """Write rows (theta, x, value) plus a JSON sidecar with the grid layout."""
    _write_with_sidecar(path, sinogram_csv(sino), {
        "kind": "sinogram",
        "n_angles": int(sino.n_angles),
        "x_min": float(sino.x_grid[0]),
        "x_max": float(sino.x_grid[-1]),
        "n_x": int(sino.x_grid.shape[0]),
        "normalization_defects": [float(d) for d in sino.normalization_defects],
    }, meta)


def wigner_grid_to_csv(grid, path, meta: dict | None = None) -> None:
    """Write rows (q, p, value) plus a JSON sidecar with the grid layout."""
    text = format_lattice(PHASE_SPACE_HEADER, grid.q_grid, grid.p_grid, grid.values)
    _write_with_sidecar(path, text, {
        "kind": "wigner_grid",
        "q_min": float(grid.q_grid[0]), "q_max": float(grid.q_grid[-1]),
        "n_q": int(grid.q_grid.shape[0]),
        "p_min": float(grid.p_grid[0]), "p_max": float(grid.p_grid[-1]),
        "n_p": int(grid.p_grid.shape[0]),
        "mass": grid.mass(),
    }, meta)
