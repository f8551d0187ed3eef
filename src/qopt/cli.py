"""Batch front end: JSON job configs in, CSV/JSON artifacts out.

Usage: qopt <command> --config job.json --out-dir out/ [--threads K] [--verbose] [--trace]

Commands: pnd, wigner, qfunc, evolve, epsilon, cat, tomo-forward, tomo-invert,
verify.  Outputs are byte-stable across runs: floats are written with their
shortest round-trip decimal (Python repr), JSON keys are sorted, and nothing
depends on wall-clock time or randomized defaults.  Jobs run serially;
``--threads`` is accepted for old scripts and ignored.  Lattice files are
written block by block as they are formatted, so a job's memory follows its
grid, not the size of its text.  ``--trace`` also writes
``<command>.trace.json``, outside the byte-stable set: the wall seconds of the
import (from the start of the ``qopt`` package to the end of this module),
the parse, the compute (small tables are formatted there) and the write
(which formats the lattice files), and the peak RSS of the process.
``main(argv)`` may be called any number of times in one process: the argument
parser is built on the first call and reused by every later one.

The one schema of config documents is here: ``_JOBS`` lists each command's
fields as field -> (parser, default), and so do ``_STATES`` (by ``kind``),
``_HAMILTONIANS`` (by ``preset``) and ``_PROFILES`` for the nested documents.
``_fields`` runs each parser once: a field that is missing, mistyped or out of
range, at any depth, is a configuration error naming its path (exit status 2),
and every number must be a finite JSON number.  An artifact, or a sidecar
number, that would hold inf or nan is a ``NonFiniteError`` naming it (exit 1).
Library warnings raised during a job go to the sidecar's ``warnings`` key and
to stderr as JSON lines, before the error line when the job fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _IMPORT_START, __version__
from .cats import CatState, cat_moments
from .dynamics import (FlowSample, QuadraticHamiltonian, evolve_gaussian, free_particle,
                       harmonic_oscillator, integrate_symplectic_flow, parametric_oscillator)
from .errors import NonFiniteError
from .gaussian import (QREP_CONVENTION, GaussianState, make_coherent, make_squeezed_vacuum,
                       make_thermal_oscillator, photon_pnd_table, q_eval, wigner_eval)
from .io import PHASE_SPACE_HEADER, SINOGRAM_HEADER, LatticeText, format_table
from .parametric import (expression_profile, preset_profile, solve_epsilon, tabulated_profile,
                         wronskian_defect)
from .tomography import (boundary_peak_ratio, forward_marginal_numeric, gaussian_sinogram,
                         inverse_radon, lattice_mass, sample_lattice, sinogram_from_csv,
                         wigner_grid_from_callable)
from .verification import run_verification

COMMANDS = ("pnd", "wigner", "qfunc", "evolve", "epsilon", "cat",
            "tomo-forward", "tomo-invert", "verify")


class ConfigError(ValueError):
    """Configuration problem, carrying the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class JobConfig:
    """The raw ``options`` (echoed in the sidecar) and parsed ``values`` of a job."""

    command: str
    options: dict
    values: dict


def _object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path or "<document>", "must be an object")
    return obj


def _fields(obj, path: str, table: dict) -> dict:
    """{field: parser(obj[field], "path.field")} over a table {field: (parser, default)};
    a missing field takes its default, or is an error when that is ``_NO_DEFAULT``, and
    a parser's ValueError, TypeError, KeyError or ArithmeticError names the field."""
    values, obj = {}, _object(obj, path)
    for field, (parse, default) in table.items():
        name = f"{path}.{field}" if path else field
        if field not in obj:
            if default is _NO_DEFAULT:
                raise ConfigError(name, "missing required field")
            values[field] = default
            continue
        try:
            values[field] = parse(obj[field], name)
        except ConfigError:
            raise
        except (ValueError, TypeError, KeyError, ArithmeticError) as exc:
            raise ConfigError(name, str(exc)) from exc
    return values


def _rule(ok, expected: str, convert=None):
    """Parser of the values for which ``ok`` holds, converted by ``convert``; any other
    value is a config error naming the field and what it ``expected``."""
    def parse(value, field: str):
        if not ok(value):
            raise ConfigError(field, f"must be {expected}, got {value!r}")
        return value if convert is None else convert(value)
    return parse


# a JSON number is an int or a float, never a bool; the strict bounds reject inf and nan
def _number(low: float = -math.inf, high: float = math.inf):
    return _rule(lambda v: type(v) in (int, float) and low < v < high,
                 f"a finite number in ({low:g}, {high:g})", float)


def _integral(least: int):
    """Counts: an int or a float with no fractional part, at least ``least``."""
    return _rule(lambda v: type(v) in (int, float) and least <= v < math.inf and v == int(v),
                 f"an integer >= {least}", int)


def _choice(*names: str):
    return _rule(lambda v: isinstance(v, str) and v in names, " or ".join(map(repr, names)))


def _string(convert):
    return _rule(lambda v: isinstance(v, str), "a string", convert)


_NO_DEFAULT = object()  # the default of a required field
_finite, _positive = _number(), _number(0.0)
_flag = _rule(lambda v: isinstance(v, bool), "true or false")
_existing_file = _rule(lambda v: isinstance(v, str) and Path(v).is_file(), "a file", Path)


def _numbers(value, field: str):
    """``value`` unchanged when it is a finite number or a nested list of them."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            if not (type(item) is int or type(item) is float and math.isfinite(item)):
                _numbers(item, f"{field}[{i}]")  # a row, or an error naming the item
    else:
        _finite(value, field)
    return value


def _array(ndim: int, what: str, ok=lambda shape: True):
    """Parser of a nonempty nested list of finite numbers with ``ndim`` axes and a shape
    for which ``ok`` holds, as a float array."""
    def parse(value, field: str):
        arr = np.asarray(_numbers(value, field), dtype=float)
        if arr.ndim != ndim or arr.size == 0 or not ok(arr.shape):
            raise ConfigError(field, f"must be {what}, got shape {arr.shape}")
        return arr
    return parse


_vector, _matrix = _array(1, "a list of numbers"), _array(2, "a matrix")
_square = _array(2, "a 2N x 2N matrix", lambda shape: shape[0] == shape[1] and shape[0] % 2 == 0)
_pairs = _array(2, "a list of [re, im] pairs", lambda shape: shape[1] == 2)


_AXIS = {"num": (_integral(2), _NO_DEFAULT), "min": (_finite, _NO_DEFAULT),
         "max": (_finite, _NO_DEFAULT)}


def _parse_grid(obj, path: str) -> np.ndarray:
    if isinstance(obj, dict):
        axis = _fields(obj, path, _AXIS)
        if not axis["min"] < axis["max"]:
            raise ConfigError(f"{path}.min", "grid bounds must satisfy min < max")
        return np.linspace(axis["min"], axis["max"], axis["num"])
    grid = _vector(obj, path)
    if np.any(np.diff(grid) <= 0):
        raise ConfigError(path, "grid values must be strictly increasing")
    return grid


def _parse_phase_grid(obj, path: str) -> tuple[np.ndarray, ...]:
    return tuple(_fields(obj, path, {axis: (_parse_grid, _NO_DEFAULT) for axis in "qp"}).values())


def _alpha(value, field: str):
    """A coherent amplitude: a number, [re, im], or a list of [re, im] pairs."""
    alpha = np.array(_numbers(value, field), dtype=float)
    if alpha.ndim and (alpha.ndim > 2 or alpha.shape[-1] != 2):
        raise ConfigError(field, "expected a number, [re, im] or a list of pairs")
    return alpha[..., 0] + 1j * alpha[..., 1] if alpha.ndim else alpha


# state kind -> (constructor, {field: (parser, default)}); the fields are its keywords
_STATES = {
    "gaussian": (lambda mean, disp, n_modes: GaussianState(mean, disp), {
        "mean": (_vector, _NO_DEFAULT), "disp": (_matrix, _NO_DEFAULT),
        "n_modes": (_integral(1), None)}),
    "coherent": (make_coherent, {"alpha": (_alpha, _NO_DEFAULT)}),
    "thermal": (make_thermal_oscillator, {"temperature": (_positive, _NO_DEFAULT),
                                          "omega": (_positive, 1.0)}),
    "squeezed_vacuum": (make_squeezed_vacuum, {"r": (_finite, _NO_DEFAULT)}),
    # each [re, im] row, read as one complex number
    "cat": (lambda A, parity: CatState(A.view(complex)[:, 0], parity), {
        "A": (_pairs, _NO_DEFAULT), "parity": (_choice("even", "odd"), _NO_DEFAULT)}),
}
_STATE_KIND = _choice(*_STATES)


def _parse_state(obj, path: str):
    """Gaussian-family or cat state from its JSON document; ``kind`` picks the table."""
    kind_default = "gaussian" if "disp" in _object(obj, path) else _NO_DEFAULT
    build, table = _STATES[_fields(obj, path, {"kind": (_STATE_KIND, kind_default)})["kind"]]
    values = _fields(obj, path, table)
    state = build(**values)
    if values.get("n_modes") not in (None, state.n_modes):
        raise ConfigError(f"{path}.n_modes", f"the mean and disp hold {state.n_modes} modes")
    return state


# profile form -> parser; a profile document holds exactly one of them
_PROFILES = {"preset": _string(preset_profile),
             "table": lambda v, field: tabulated_profile(_numbers(v, field)),
             "expression": _string(expression_profile)}


def _parse_profile(obj, path: str):
    forms = [form for form in _PROFILES if form in _object(obj, path)]
    if len(forms) != 1:
        raise ConfigError(path, f"needs exactly one of {', '.join(map(repr, _PROFILES))}")
    return _fields(obj, path, {forms[0]: (_PROFILES[forms[0]], _NO_DEFAULT)})[forms[0]]


# Hamiltonian preset -> (constructor, {field: (parser, default)}); None is H = Q.B.Q/2 + C.Q
_HAMILTONIANS = {
    "free": (free_particle, {"mass": (_positive, 1.0)}),
    "oscillator": (harmonic_oscillator, {"mass": (_positive, 1.0), "omega": (_finite, 1.0)}),
    "parametric": (parametric_oscillator, {"mass": (_positive, 1.0),
                                           "omega_squared": (_parse_profile, _NO_DEFAULT)}),
    None: (lambda B, C: QuadraticHamiltonian(B, np.zeros(len(B)) if C is None else C,
                                             len(B) // 2),
           {"B": (_square, _NO_DEFAULT), "C": (_vector, None)}),
}
_PRESET = _choice(*filter(None, _HAMILTONIANS))


def _parse_hamiltonian(obj, path: str):
    preset = _fields(obj, path, {"preset": (_PRESET, None)})["preset"]
    if preset is not None and "B" in obj:
        raise ConfigError(path, "give either 'preset' or 'B', not both")
    build, table = _HAMILTONIANS[preset]
    return build(**_fields(obj, path, table))


def parse_config(text: str, command: str | None = None) -> JobConfig:
    """Validate a JSON job description; errors carry the offending field path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top level must be an object")
    cmd = doc.get("command", command)
    if cmd is None:
        raise ConfigError("command", "missing command")
    if cmd not in COMMANDS:
        raise ConfigError("command", f"unknown command {cmd!r}; expected one of {COMMANDS}")
    if command is not None and cmd != command:
        raise ConfigError("command", f"config says {cmd!r} but {command!r} was invoked")
    options = {k: v for k, v in doc.items() if k != "command"}
    return JobConfig(cmd, options, _fields(options, "", _JOBS[cmd][1]))


def _require_one_mode(state, path):
    if state.n_modes != 1:
        raise ConfigError(path, "phase-space grids are defined for one-mode states")
    return state


def _check_finite(artifact: str, *arrays):
    """Raise NonFiniteError naming ``artifact`` when any of ``arrays`` holds inf or nan."""
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"{artifact} would hold a non-finite value")


def _wigner_fn(state):
    return lambda q, p: wigner_eval(state, np.stack([p, q], axis=-1))


def _qfunc_fn(state):
    return lambda q, p: q_eval(state, ((q + 1j * p) / math.sqrt(2))[..., np.newaxis])


def _grid_job(job, name: str, density_fn, title: str):
    """(artifacts, values, sidecar health figures) of a one-mode density on the config's
    grid: the mass (1 when the grid holds the state) and the boundary-to-peak ratio
    (small when it holds the support)."""
    state = _require_one_mode(job["state"], "state")
    q_grid, p_grid = job["grid"]
    values = sample_lattice(density_fn(state), q_grid, p_grid)
    _check_finite(f"{name}.csv", q_grid, p_grid, values)
    artifacts = {f"{name}.csv": LatticeText(PHASE_SPACE_HEADER, q_grid, p_grid, values)}
    if job["plot"]:
        artifacts[f"{name}.gp"] = _plot_script(f"{name}.csv", q_grid.shape[0],
                                               p_grid.shape[0], title)
    return artifacts, values, {"mass": lattice_mass(q_grid, p_grid, values),
                               "boundary_peak_ratio": boundary_peak_ratio(values)}


def _job_pnd(job, artifact: str = "pnd.csv"):
    table = photon_pnd_table(job["state"], mass_tol=job["mass_tol"],
                             degree_cap_per_mode=job["degree_cap"])
    _check_finite(artifact, table.probabilities)
    # rows (n_1, ..., n_N, probability) in lexicographic order of the counts
    order = np.lexsort(table.indices.T[::-1])
    counts = table.indices[order]
    header = [f"n{j + 1}" for j in range(counts.shape[1])] + ["probability"]
    meta = {"cumulative_probability": table.cumulative,
            "max_total_degree": table.max_total_degree, "cap_hit": table.cap_hit}
    return {artifact: format_table(header, [*counts.T, table.probabilities[order]])}, meta


def _job_wigner(job):
    artifacts, values, health = _grid_job(job, "wigner", _wigner_fn, "Wigner density")
    return artifacts, {"negative_fraction": float(np.mean(values < 0.0)), **health}


def _job_qfunc(job):
    artifacts, _, health = _grid_job(job, "qfunc", _qfunc_fn, "Husimi density")
    return artifacts, {"beta_convention": "beta = (q + i p) / sqrt(2)", **health}


def _job_evolve(job):
    state, ham, t_end = job["state"], job["hamiltonian"], job["t_end"]
    if isinstance(state, CatState):
        raise ConfigError("state.kind", "evolve requires a Gaussian-family state")
    if 2 * ham.n_modes != state.mean.shape[0]:
        raise ConfigError("hamiltonian", "mode count does not match the state")
    flow = integrate_symplectic_flow(ham, t_end, job["tol"])
    times = np.linspace(0.0, t_end, job["num"])
    state_rows, flow_rows, defect = [], [], 0.0
    for t, lam, delta in zip(times, *flow.evaluate(times)):
        sample = FlowSample(float(t), lam, delta)
        st = evolve_gaussian(state, sample)
        defect = max(defect, sample.symplectic_defect())
        state_rows.append(np.concatenate([[t], st.mean, st.disp.ravel()]))
        flow_rows.append(np.concatenate([[t], sample.lam.ravel(), sample.delta]))
    _check_finite("evolve.csv", state_rows)
    _check_finite("flow.csv", flow_rows)
    axes = range(2 * ham.n_modes)
    pairs = [f"{i}{j}" for i in axes for j in axes]
    state_header = ["t", *(f"mean_{i}" for i in axes), *(f"disp_{ij}" for ij in pairs)]
    flow_header = ["t", *(f"lam_{ij}" for ij in pairs), *(f"delta_{i}" for i in axes)]
    artifacts = {"evolve.csv": format_table(state_header, np.array(state_rows).T),
                 "flow.csv": format_table(flow_header, np.array(flow_rows).T)}
    return artifacts, {"tol": job["tol"], "symplectic_defect": defect,
                       "error_estimate": flow.error_estimate}


def _job_epsilon(job):
    flow = solve_epsilon(job["profile"], job["t_end"], job["tol"])
    times = np.linspace(0.0, job["t_end"], job["num"])
    eps, epsdot = flow.eps(times)
    columns = np.array([times, eps.real, eps.imag, epsdot.real, epsdot.imag])
    header = ["t", "re_eps", "im_eps", "re_epsdot", "im_epsdot"]
    _check_finite("epsilon.csv", columns)
    return ({"epsilon.csv": format_table(header, columns)},
            {"tol": job["tol"], "wronskian_defect": wronskian_defect(flow),
             "error_estimate": flow.error_estimate, "profile_kind": job["profile"].kind})


def _job_cat(job):
    state = job["state"]
    if not isinstance(state, CatState):
        raise ConfigError("state.kind", "cat command requires a cat state")
    artifacts, meta = _job_pnd(job, "cat_pnd.csv")
    moments = cat_moments(state)
    moment_columns = [np.arange(state.n_modes), moments.mean_photon,
                      np.diagonal(moments.number_covariance), moments.mandel_q]
    _check_finite("cat_moments.csv", *moment_columns)
    artifacts["cat_moments.csv"] = format_table(["mode", "mean_photon", "variance", "mandel_q"],
                                                moment_columns)
    return artifacts, meta


def _job_tomo_forward(job):
    state = _require_one_mode(job["state"], "state")
    x_grid, n_angles = job["x"], job["n_angles"]
    thetas = np.arange(n_angles) * math.pi / n_angles
    if job["method"] == "exact":
        sino = gaussian_sinogram(state, thetas, x_grid)
    else:
        span = job["wigner_span"] or _positive(float(np.abs(x_grid).max()), "wigner_span")
        inner = np.linspace(-span, span, job["wigner_samples"])
        grid = wigner_grid_from_callable(_wigner_fn(state), inner, inner)
        sino = forward_marginal_numeric(grid, thetas, x_grid)
    _check_finite("sinogram.csv", sino.theta_grid, sino.x_grid, sino.values)
    meta = {"n_angles": n_angles, "method": job["method"],
            "max_normalization_defect": float(sino.normalization_defects.max())}
    text = LatticeText(SINOGRAM_HEADER, sino.theta_grid, sino.x_grid, sino.values)
    return {"sinogram.csv": text}, meta


def _job_tomo_invert(job):
    sino = sinogram_from_csv(job["sinogram"])
    q_grid, p_grid = job["grid"]
    grid = inverse_radon(sino, q_grid, p_grid, reg_s=job["reg_s"])
    _check_finite("wigner_reconstructed.csv", grid.q_grid, grid.p_grid, grid.values)
    # filtered backprojection blurs W by an isotropic Gaussian of this variance per axis
    meta = {"reg_s": job["reg_s"], "n_angles": sino.n_angles,
            "reconstructed_mass": grid.mass(), "blur_variance": job["reg_s"] / 4.0}
    text = LatticeText(PHASE_SPACE_HEADER, grid.q_grid, grid.p_grid, grid.values)
    return {"wigner_reconstructed.csv": text}, meta


def _job_verify(job):
    results = run_verification()
    all_passed = all(r["passed"] for r in results)
    doc = {"passed": all_passed, "checks": results, "version": __version__}
    return {"verify.json": json.dumps(doc, indent=2, sort_keys=True) + "\n"}, {
        "passed": all_passed, "n_checks": len(results)}


def _plot_script(csv_name: str, n_q: int, n_p: int, title: str) -> str:
    return "\n".join([
        'set datafile separator ","',
        "set view map",
        f"set dgrid3d {n_q},{n_p}",
        "set pm3d interpolate 2,2",
        f'set title "{title}"',
        f'splot "{csv_name}" every ::1 using 1:2:3 with pm3d notitle',
        "pause -1",
    ]) + "\n"


_STATE = (_parse_state, _NO_DEFAULT)
_PND_FIELDS = {"state": _STATE, "degree_cap": (_integral(0), 64),
               "mass_tol": (_number(0.0, 1.0), 1e-10)}
_GRID_FIELDS = {"state": _STATE, "grid": (_parse_phase_grid, _NO_DEFAULT),
                "plot": (_flag, False)}
# command -> (job, {field: (parser, default)}); a default of None is derived in the job
_JOBS = {
    "pnd": (_job_pnd, _PND_FIELDS),
    "wigner": (_job_wigner, _GRID_FIELDS),
    "qfunc": (_job_qfunc, _GRID_FIELDS),
    "evolve": (_job_evolve, {
        "state": _STATE, "hamiltonian": (_parse_hamiltonian, _NO_DEFAULT),
        "t_end": (_finite, _NO_DEFAULT), "num": (_integral(1), 51), "tol": (_positive, 1e-9)}),
    "epsilon": (_job_epsilon, {
        "profile": (_parse_profile, _NO_DEFAULT), "t_end": (_positive, _NO_DEFAULT),
        "num": (_integral(1), 201), "tol": (_positive, 1e-9)}),
    "cat": (_job_cat, _PND_FIELDS),
    "tomo-forward": (_job_tomo_forward, {
        "state": _STATE, "n_angles": (_integral(1), 180),
        "x": (_parse_grid, _parse_grid({"min": -12.0, "max": 12.0, "num": 257}, "x")),
        "method": (_choice("exact", "numeric"), "exact"), "wigner_samples": (_integral(2), 513),
        "wigner_span": (_positive, None)}),
    "tomo-invert": (_job_tomo_invert, {
        "sinogram": (_existing_file, _NO_DEFAULT), "grid": (_parse_phase_grid, _NO_DEFAULT),
        "reg_s": (_positive, 1e-2)}),
    "verify": (_job_verify, {}),
}


def execute_job(cfg: JobConfig) -> dict[str, str | LatticeText]:
    """Run a validated job; returns {filename: content} artifacts.  The content of a
    lattice file is a ``LatticeText``, formatted block by block as it is written; of
    any other file, its text.

    Warnings that the active filters show, raised during the job, go into the sidecar
    as a ``warnings`` list of {category, message} entries in the order raised; the
    key is absent if there was none; a job that raises, also on a non-finite float in
    its sidecar, carries it as the exception's ``job_warnings``.  Entering the recording
    context resets the once-per-location registry, so every job records its own warnings.
    """
    with warnings.catch_warnings(record=True) as caught:
        try:
            artifacts, meta = _JOBS[cfg.command][0](cfg.values)
            for key, value in meta.items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise NonFiniteError(f"{cfg.command}.meta.json would hold a non-finite "
                                         f"{key}")
        except Exception as exc:
            exc.job_warnings = _warning_records(caught)
            raise
    sidecar = {"command": cfg.command, "config": cfg.options, "version": __version__,
               "qrep_convention": QREP_CONVENTION,
               "numeric_format": "shortest round-trip decimal (repr)", **meta}
    if caught:
        sidecar["warnings"] = _warning_records(caught)
    artifacts[f"{cfg.command}.meta.json"] = json.dumps(
        sidecar, indent=2, sort_keys=True, default=str) + "\n"
    return artifacts


def _warning_records(caught) -> list[dict]:
    return [{"category": w.category.__name__, "message": str(w.message)} for w in caught]


def write_output(artifacts: dict[str, str | LatticeText], out_dir) -> list[Path]:
    """Write artifacts under out_dir; byte-stable for identical inputs.  A text goes out
    as its UTF-8 bytes; a lattice one block at a time, each as it is formatted."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(artifacts):
        content = artifacts[name]
        with (out_dir / name).open("wb") as fh:
            fh.writelines([content.encode("utf-8")] if isinstance(content, str) else content)
    return [out_dir / name for name in sorted(artifacts)]


def _max_rss_mb() -> float:
    """The process's peak resident set size in MB (``ru_maxrss``)."""
    import resource

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1 << 20 if sys.platform == "darwin" else 1 << 10)   # bytes there, else kB


def _stderr_line(doc: dict) -> None:
    json.dump(doc, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="qopt",
        description="Phase-space functions, photon statistics, and evolution "
                    "of Gaussian, squeezed, and cat states of light.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON job description (required except for verify)")
    parser.add_argument("--out-dir", default="out", help="output directory (default: out)")
    parser.add_argument("--threads", type=int, default=1,
                        help="ignored; accepted for compatibility, jobs run serially")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--trace", action="store_true",
                        help="also write <command>.trace.json: wall seconds by stage and "
                             "the peak RSS; not byte-stable")
    return parser


def _read_config(path: str | None, command: str) -> str:
    """The text of the ``--config`` file, ``{}`` when ``verify`` runs without one."""
    if path is None:
        if command != "verify":
            raise ConfigError("--config", "a config file is required for this command")
        return "{}"
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise ConfigError("--config", f"file {path} does not exist") from exc
    except IsADirectoryError as exc:
        raise ConfigError("--config", f"{path} is a directory, not a file") from exc


def main(argv=None) -> int:
    """Run one job from ``argv`` (default ``sys.argv[1:]``) and return its exit status;
    it may be called any number of times in one process."""
    args = _parser().parse_args(argv)

    try:
        marks = [time.perf_counter()]
        cfg = parse_config(_read_config(args.config, args.command), args.command)
        marks.append(time.perf_counter())
        artifacts = execute_job(cfg)
        marks.append(time.perf_counter())
        for warning in json.loads(artifacts[f"{args.command}.meta.json"]).get("warnings", []):
            _stderr_line({"warning": warning})
        written = write_output(artifacts, args.out_dir)
        marks.append(time.perf_counter())
        if args.trace:
            parse, compute, write = np.diff(marks).tolist()
            trace = {"command": args.command, "import_s": _IMPORT_END - _IMPORT_START,
                     "parse_s": parse, "compute_s": compute,
                     "write_and_format_lattices_s": write, "max_rss_mb": _max_rss_mb()}
            write_output({f"{args.command}.trace.json":
                          json.dumps(trace, indent=2, sort_keys=True) + "\n"}, args.out_dir)
    except Exception as exc:  # noqa: BLE001 - boundary: report and exit nonzero
        for warning in getattr(exc, "job_warnings", []):
            _stderr_line({"warning": warning})
        if isinstance(exc, ConfigError):
            _stderr_line({"error": {"kind": "config", "field": exc.field, "message": str(exc)}})
            return 2
        _stderr_line({"error": {"kind": "execution", "command": args.command,
                                "type": type(exc).__name__, "message": str(exc)}})
        return 1

    if args.verbose:
        for path in written:
            print(path)
    if args.command == "verify":
        doc = json.loads(artifacts["verify.json"])
        for check in doc["checks"]:
            status = "pass" if check["passed"] else "FAIL"
            print(f"[{status}] {check['name']}: {check['measured']:.3e} "
                  f"(tolerance {check['tolerance']:.1e})")
        if not doc["passed"]:
            return 1
    return 0


_IMPORT_END = time.perf_counter()

if __name__ == "__main__":
    sys.exit(main())
