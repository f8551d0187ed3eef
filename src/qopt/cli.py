"""Batch front end: JSON job configs in, CSV/JSON artifacts out.

Usage: qopt <command> --config job.json --out-dir out/ [--threads K] [--verbose]

Commands: pnd, wigner, qfunc, evolve, epsilon, cat, tomo-forward, tomo-invert,
verify.  Outputs are byte-stable across runs: floats are written with their
shortest round-trip decimal (Python repr), JSON keys are sorted, and nothing
depends on wall-clock time or randomized defaults.  Jobs run serially;
``--threads`` is accepted for old scripts and ignored.

``_JOBS`` lists each command's config fields once, as field -> (parser,
default).  ``parse_config`` runs every parser once and hands the job typed
values: a field that is missing, mistyped or out of range is a configuration
error naming it (exit status 2), and every number, also inside state,
Hamiltonian and profile documents, must be a finite JSON number.  An artifact,
or a sidecar number, that would hold inf or nan is a ``NonFiniteError`` naming
it (exit status 1).
Library warnings raised during a job go to the sidecar's ``warnings`` key and
to stderr as JSON lines, before the error line when the job fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cats import CatState, cat_from_dict, cat_moments, cat_pnd_table
from .dynamics import (FlowSample, evolve_gaussian, hamiltonian_from_dict,
                       integrate_symplectic_flow, parametric_oscillator)
from .errors import NonFiniteError
from .gaussian import (QREP_CONVENTION, make_coherent, make_squeezed_vacuum,
                       make_thermal_oscillator, photon_pnd_table, q_eval, state_from_dict,
                       wigner_eval)
from .io import PHASE_SPACE_HEADER, format_lattice, format_table, sinogram_csv
from .parametric import profile_from_dict, solve_epsilon
from .tomography import (boundary_peak_ratio, forward_marginal_numeric, gaussian_sinogram,
                         inverse_radon, lattice_mass, sinogram_from_csv,
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


def _require(options: dict, field: str, path: str):
    if field not in options:
        raise ConfigError(f"{path}.{field}" if path else field, "missing required field")
    return options[field]


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


_finite, _positive = _number(), _number(0.0)
_flag = _rule(lambda v: isinstance(v, bool), "true or false")
_method = _rule(lambda v: v in ("exact", "numeric"), "'exact' or 'numeric'")
_existing_file = _rule(lambda v: isinstance(v, str) and Path(v).exists(), "a file", Path)


def _numbers(value, field: str):
    """``value`` unchanged when it is a finite number or a nested list of them."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            _numbers(item, f"{field}[{i}]")
    else:
        _finite(value, field)
    return value


def _parse_grid(obj, path: str) -> np.ndarray:
    if isinstance(obj, dict):
        num = _integral(2)(_require(obj, "num", path), f"{path}.num")
        low = _finite(_require(obj, "min", path), f"{path}.min")
        high = _finite(_require(obj, "max", path), f"{path}.max")
        if not low < high:
            raise ConfigError(f"{path}.min", "grid bounds must satisfy min < max")
        return np.linspace(low, high, num)
    grid = np.asarray(_numbers(obj, path), dtype=float)
    if grid.ndim != 1 or grid.shape[0] == 0:
        raise ConfigError(path, "grid must be a nonempty list of numbers")
    if grid.shape[0] > 1 and np.any(np.diff(grid) <= 0):
        raise ConfigError(path, "grid values must be strictly increasing")
    return grid


def _document(obj, path: str, numeric_keys) -> dict:
    """``obj`` when it is an object whose ``numeric_keys`` all hold finite numbers."""
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be an object")
    for key in numeric_keys:
        if key in obj:
            _numbers(obj[key], f"{path}.{key}")
    return obj


def _parse_phase_grid(obj, path: str) -> tuple[np.ndarray, ...]:
    doc = _document(obj, path, ())
    return tuple(_parse_grid(_require(doc, axis, path), f"{path}.{axis}") for axis in "qp")


def _parse_state(obj, path: str):
    """Gaussian-family or cat state from its JSON spec."""
    _document(obj, path, ("alpha", "A", "mean", "disp", "n_modes"))
    kind = obj.get("kind", "gaussian" if "disp" in obj else None)
    if kind is None:
        raise ConfigError(f"{path}.kind", "missing state kind")
    if kind == "gaussian":
        return state_from_dict({k: v for k, v in obj.items() if k != "kind"})
    if kind == "coherent":
        alpha = np.array(_require(obj, "alpha", path), dtype=float)
        if alpha.ndim and (alpha.ndim > 2 or alpha.shape[-1] != 2):
            raise ConfigError(f"{path}.alpha", "expected a number, [re, im] or a list of pairs")
        return make_coherent(alpha[..., 0] + 1j * alpha[..., 1] if alpha.ndim else alpha)
    if kind == "thermal":
        return make_thermal_oscillator(
            _positive(_require(obj, "temperature", path), f"{path}.temperature"),
            _positive(obj.get("omega", 1.0), f"{path}.omega"))
    if kind == "squeezed_vacuum":
        return make_squeezed_vacuum(_finite(_require(obj, "r", path), f"{path}.r"))
    if kind == "cat":
        return cat_from_dict({key: _require(obj, key, path) for key in ("A", "parity")})
    raise ConfigError(f"{path}.kind", f"unknown state kind {kind!r}")


def _parse_profile(obj, path: str):
    return profile_from_dict(_document(obj, path, ("table",)))


def _parse_hamiltonian(obj, path: str):
    doc = _document(obj, path, ("mass", "omega", "B", "C"))
    if doc.get("preset") == "parametric":
        profile = _parse_profile(_require(doc, "omega_squared", path), f"{path}.omega_squared")
        return parametric_oscillator(profile, mass=float(doc.get("mass", 1.0)))
    return hamiltonian_from_dict(doc)


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
    values = {}
    for field, (parse, default) in _JOBS[cmd][1].items():
        if field not in options:
            values[field] = _require(options, field, "") if default is _NO_DEFAULT else default
            continue
        try:
            values[field] = parse(options[field], field)
        except ConfigError:
            raise
        except (ValueError, TypeError, KeyError, OverflowError) as exc:
            raise ConfigError(field, str(exc)) from exc
    return JobConfig(cmd, options, values)


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
    values = density_fn(state)(*np.meshgrid(q_grid, p_grid, indexing="ij"))
    _check_finite(f"{name}.csv", q_grid, p_grid, values)
    artifacts = {f"{name}.csv": format_lattice(PHASE_SPACE_HEADER, q_grid, p_grid, values)}
    if job["plot"]:
        artifacts[f"{name}.gp"] = _plot_script(f"{name}.csv", q_grid.shape[0],
                                               p_grid.shape[0], title)
    return artifacts, values, {"mass": lattice_mass(q_grid, p_grid, values),
                               "boundary_peak_ratio": boundary_peak_ratio(values)}


def _job_pnd(job, artifact: str = "pnd.csv"):
    state = job["state"]
    if isinstance(state, CatState):
        indices, probs = cat_pnd_table(state, job["max_total"])
        meta = {"cumulative_probability": sum(probs.tolist()), "max_total": job["max_total"]}
    else:
        table = photon_pnd_table(state, mass_tol=job["mass_tol"],
                                 degree_cap_per_mode=job["degree_cap"])
        indices, probs = zip(*sorted(table.probabilities.items()))
        meta = {"cumulative_probability": table.cumulative,
                "max_total_degree": table.max_total_degree,
                "cap_hit": table.cap_hit}
    _check_finite(artifact, probs)
    # rows (n_1, ..., n_N, probability): integer counts, float probabilities
    counts = np.array(indices, dtype=np.int64)
    header = [f"n{j + 1}" for j in range(counts.shape[1])] + ["probability"]
    return {artifact: format_table(header, [*counts.T, np.array(probs, dtype=float)])}, meta


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
    traj = solve_epsilon(job["profile"], job["t_end"], job["tol"])
    times = np.linspace(0.0, job["t_end"], job["num"])
    eps, epsdot = traj.at(times)
    columns = np.array([times, eps.real, eps.imag, epsdot.real, epsdot.imag])
    header = ["t", "re_eps", "im_eps", "re_epsdot", "im_epsdot"]
    _check_finite("epsilon.csv", columns)
    return ({"epsilon.csv": format_table(header, columns)},
            {"tol": job["tol"], "wronskian_defect": traj.wronskian_defect,
             "error_estimate": traj.error_estimate, "profile_kind": job["profile"].kind})


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
    return {"sinogram.csv": sinogram_csv(sino)}, meta


def _job_tomo_invert(job):
    sino = sinogram_from_csv(job["sinogram"])
    q_grid, p_grid = job["grid"]
    grid = inverse_radon(sino, q_grid, p_grid, reg_s=job["reg_s"])
    _check_finite("wigner_reconstructed.csv", grid.q_grid, grid.p_grid, grid.values)
    # filtered backprojection blurs W by an isotropic Gaussian of this variance per axis
    meta = {"reg_s": job["reg_s"], "n_angles": sino.n_angles,
            "reconstructed_mass": grid.mass(), "blur_variance": job["reg_s"] / 4.0}
    text = format_lattice(PHASE_SPACE_HEADER, grid.q_grid, grid.p_grid, grid.values)
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


_NO_DEFAULT = object()  # the default of a required field
_STATE = (_parse_state, _NO_DEFAULT)
_PND_FIELDS = {"state": _STATE, "max_total": (_integral(0), 32),
               "degree_cap": (_integral(0), 64), "mass_tol": (_number(0.0, 1.0), 1e-10)}
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
        "method": (_method, "exact"), "wigner_samples": (_integral(2), 513),
        "wigner_span": (_positive, None)}),
    "tomo-invert": (_job_tomo_invert, {
        "sinogram": (_existing_file, _NO_DEFAULT), "grid": (_parse_phase_grid, _NO_DEFAULT),
        "reg_s": (_positive, 1e-2)}),
    "verify": (_job_verify, {}),
}


def execute_job(cfg: JobConfig) -> dict[str, str]:
    """Run a validated job; returns {filename: text content} artifacts.

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


def write_output(artifacts: dict[str, str], out_dir) -> list[Path]:
    """Write artifacts under out_dir; byte-stable for identical inputs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(artifacts):
        (out_dir / name).write_text(artifacts[name], encoding="utf-8")
    return [out_dir / name for name in sorted(artifacts)]


def _stderr_line(doc: dict) -> None:
    json.dump(doc, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)

    try:
        if args.config is None and args.command != "verify":
            raise ConfigError("--config", "a config file is required for this command")
        if args.config is not None and not Path(args.config).exists():
            raise ConfigError("--config", f"file {args.config} does not exist")
        text = "{}" if args.config is None else Path(args.config).read_text(encoding="utf-8")
        artifacts = execute_job(parse_config(text, args.command))
        for warning in json.loads(artifacts[f"{args.command}.meta.json"]).get("warnings", []):
            _stderr_line({"warning": warning})
        written = write_output(artifacts, args.out_dir)
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


if __name__ == "__main__":
    sys.exit(main())
