"""Batch front end: JSON job configs in, CSV/JSON artifacts out.

Usage: qopt <command> --config job.json --out-dir out/ [--threads K] [--verbose]

Commands: pnd, wigner, qfunc, evolve, epsilon, cat, tomo-forward, tomo-invert,
verify.  Outputs are byte-stable across runs: floats are written with their
shortest round-trip decimal (Python repr), JSON keys are sorted, and nothing
depends on wall-clock time or randomized defaults.
Jobs run serially; ``--threads`` is accepted for old scripts and ignored, since
splitting grid rows over threads gained nothing.  Counts that are not integral
or fall below their bound, a ``wigner_span`` that is not a positive number and
a ``mass_tol`` outside (0, 1) are configuration errors naming the field (exit
status 2).  An artifact that would hold inf or nan is a ``NonFiniteError``
naming it (exit status 1).  Library warnings raised during a job are listed in
the sidecar's ``warnings`` key and written to stderr as JSON lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cats import CatState, cat_from_dict, cat_moments, cat_pnd_table, cat_q_eval, cat_wigner_eval
from .dynamics import (evolve_gaussian, flow_expm, hamiltonian_from_dict,
                       integrate_symplectic_flow, parametric_oscillator)
from .errors import NonFiniteError
from .gaussian import (QREP_CONVENTION, GaussianState, make_coherent, make_squeezed_vacuum,
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
    command: str
    options: dict


def _require(options: dict, field: str, path: str):
    if field not in options:
        raise ConfigError(f"{path}.{field}" if path else field, "missing required field")
    return options[field]


def _parse_grid(obj, path: str) -> np.ndarray:
    if isinstance(obj, dict):
        for key in ("min", "max", "num"):
            _require(obj, key, path)
        num = _integral(obj["num"], f"{path}.num", 2)
        if not obj["min"] < obj["max"]:
            raise ConfigError(f"{path}.min", "grid bounds must satisfy min < max")
        return np.linspace(float(obj["min"]), float(obj["max"]), num)
    grid = np.asarray(obj, dtype=float)
    if grid.ndim != 1 or grid.shape[0] == 0:
        raise ConfigError(path, "grid must be a nonempty list of numbers")
    if grid.shape[0] > 1 and np.any(np.diff(grid) <= 0):
        raise ConfigError(path, "grid values must be strictly increasing")
    return grid


def _parse_complex(obj, path: str) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(float(obj[0]), float(obj[1]))
    raise ConfigError(path, "expected a number or an [re, im] pair")


def _parse_state(obj, path: str):
    """Gaussian-family or cat state from its JSON spec."""
    if not isinstance(obj, dict):
        raise ConfigError(path, "state must be an object")
    kind = obj.get("kind", "gaussian" if "disp" in obj else None)
    if kind is None:
        raise ConfigError(f"{path}.kind", "missing state kind")
    try:
        if kind == "gaussian":
            return state_from_dict({k: v for k, v in obj.items() if k != "kind"})
        if kind == "coherent":
            alpha = _require(obj, "alpha", path)
            if isinstance(alpha, list) and alpha and isinstance(alpha[0], (list, tuple)):
                amps = [_parse_complex(a, f"{path}.alpha[{i}]") for i, a in enumerate(alpha)]
            else:
                amps = [_parse_complex(alpha, f"{path}.alpha")]
            return make_coherent(amps)
        if kind == "thermal":
            return make_thermal_oscillator(float(_require(obj, "temperature", path)),
                                           float(obj.get("omega", 1.0)))
        if kind == "squeezed_vacuum":
            return make_squeezed_vacuum(float(_require(obj, "r", path)))
        if kind == "cat":
            _require(obj, "A", path)
            _require(obj, "parity", path)
            return cat_from_dict(obj)
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown state kind {kind!r}")


_REQUIRED = {
    "pnd": ("state",),
    "wigner": ("state", "grid"),
    "qfunc": ("state", "grid"),
    "evolve": ("state", "hamiltonian", "t_end"),
    "epsilon": ("profile", "t_end"),
    "cat": ("state",),
    "tomo-forward": ("state",),
    "tomo-invert": ("sinogram", "grid"),
    "verify": (),
}
_LEAST_COUNT = {"max_total": 0, "degree_cap": 0, "num": 1, "n_angles": 1, "wigner_samples": 2}


def _integral(value, field: str, least: int) -> int:
    """``value`` as an int: an int or a float with no fractional part, at least ``least``.

    Bools, strings, fractions and non-finite numbers are config errors naming ``field``.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value != int(value) or value < least):
        raise ConfigError(field, f"must be an integer >= {least}, got {value!r}")
    return int(value)


def _count(options: dict, field: str, default: int) -> int:
    """The count ``field`` of a job's options (``default`` when absent)."""
    return _integral(options.get(field, default), field, _LEAST_COUNT[field])


def _positive(value, field: str) -> float:
    """``value`` as a float when it is a finite positive number; else a config error."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value <= 0):
        raise ConfigError(field, f"must be a finite positive number, got {value!r}")
    return float(value)


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
    for field in _REQUIRED[cmd]:
        _require(options, field, "")
    # eagerly validate the pieces shared across commands
    if "state" in options and cmd in _REQUIRED and "state" in _REQUIRED[cmd]:
        _parse_state(options["state"], "state")
    if "grid" in options and cmd in ("wigner", "qfunc", "tomo-invert"):
        grid = options["grid"]
        if not isinstance(grid, dict):
            raise ConfigError("grid", "must be an object with 'q' and 'p'")
        _parse_grid(_require(grid, "q", "grid"), "grid.q")
        _parse_grid(_require(grid, "p", "grid"), "grid.p")
    for field, least in _LEAST_COUNT.items():
        if field in options:
            _integral(options[field], field, least)
    if "wigner_span" in options:
        _positive(options["wigner_span"], "wigner_span")
    if "mass_tol" in options and not 0.0 < float(options["mass_tol"]) < 1.0:
        raise ConfigError("mass_tol", f"must lie in (0, 1), got {options['mass_tol']!r}")
    return JobConfig(cmd, options)


def _require_one_mode(state, path):
    if state.n_modes != 1:
        raise ConfigError(path, "phase-space grids are defined for one-mode states")
    return state


def _check_finite(artifact: str, *arrays):
    """Raise NonFiniteError naming ``artifact`` when any of ``arrays`` holds inf or nan."""
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"{artifact} would hold a non-finite value")


def _state_wigner_fn(state):
    if isinstance(state, CatState):
        return lambda q, p: cat_wigner_eval(state, q[..., np.newaxis], p[..., np.newaxis])
    return lambda q, p: wigner_eval(state, np.stack([p, q], axis=-1))


def _state_qfunc_fn(state):
    q_eval_fn = cat_q_eval if isinstance(state, CatState) else q_eval
    return lambda q, p: q_eval_fn(state, ((q + 1j * p) / math.sqrt(2))[..., np.newaxis])


def _grid_job(options, name: str, density_fn, title: str):
    """(artifacts, values, sidecar health figures) of a one-mode density on the config's
    grid: the mass (1 when the grid holds the state) and the boundary-to-peak ratio
    (small when it holds the support)."""
    state = _require_one_mode(_parse_state(options["state"], "state"), "state")
    q_grid = _parse_grid(options["grid"]["q"], "grid.q")
    p_grid = _parse_grid(options["grid"]["p"], "grid.p")
    values = density_fn(state)(*np.meshgrid(q_grid, p_grid, indexing="ij"))
    _check_finite(f"{name}.csv", q_grid, p_grid, values)
    artifacts = {f"{name}.csv": format_lattice(PHASE_SPACE_HEADER, q_grid, p_grid, values)}
    if options.get("plot", False):
        artifacts[f"{name}.gp"] = _plot_script(f"{name}.csv", q_grid.shape[0],
                                               p_grid.shape[0], title)
    return artifacts, values, {"mass": lattice_mass(q_grid, p_grid, values),
                               "boundary_peak_ratio": boundary_peak_ratio(values)}


def _job_pnd(options, artifact: str = "pnd.csv"):
    state = _parse_state(options["state"], "state")
    if isinstance(state, CatState):
        max_total = _count(options, "max_total", 32)
        indices, probs = cat_pnd_table(state, max_total)
        meta = {"cumulative_probability": sum(probs.tolist()), "max_total": max_total}
    else:
        table = photon_pnd_table(state,
                                 mass_tol=float(options.get("mass_tol", 1e-10)),
                                 degree_cap_per_mode=_count(options, "degree_cap", 64))
        indices, probs = zip(*sorted(table.probabilities.items()))
        meta = {"cumulative_probability": table.cumulative,
                "max_total_degree": table.max_total_degree,
                "cap_hit": table.cap_hit}
    _check_finite(artifact, probs)
    return {artifact: _pnd_csv(indices, probs)}, meta


def _pnd_csv(indices, probs) -> str:
    """Rows (n_1, ..., n_N, probability): integer counts, float probabilities."""
    counts = np.array(indices, dtype=np.int64)
    header = [f"n{j + 1}" for j in range(counts.shape[1])] + ["probability"]
    return format_table(header, [*counts.T, np.array(probs, dtype=float)])


def _job_wigner(options):
    artifacts, values, health = _grid_job(options, "wigner", _state_wigner_fn, "Wigner density")
    return artifacts, {"negative_fraction": float(np.mean(values < 0.0)), **health}


def _job_qfunc(options):
    artifacts, _, health = _grid_job(options, "qfunc", _state_qfunc_fn, "Husimi density")
    return artifacts, {"beta_convention": "beta = (q + i p) / sqrt(2)", **health}


def _job_evolve(options):
    state = _parse_state(options["state"], "state")
    if isinstance(state, CatState):
        raise ConfigError("state.kind", "evolve requires a Gaussian-family state")
    ham_doc = options["hamiltonian"]
    if isinstance(ham_doc, dict) and ham_doc.get("preset") == "parametric":
        profile = profile_from_dict(_require(ham_doc, "omega_squared", "hamiltonian"))
        ham = parametric_oscillator(profile, mass=float(ham_doc.get("mass", 1.0)))
    else:
        try:
            ham = hamiltonian_from_dict(ham_doc)
        except ValueError as exc:
            raise ConfigError("hamiltonian", str(exc)) from exc
    if 2 * ham.n_modes != state.mean.shape[0]:
        raise ConfigError("hamiltonian", "mode count does not match the state")
    t_end = float(options["t_end"])
    num = _count(options, "num", 51)
    tol = float(options.get("tol", 1e-9))
    if ham.is_constant:
        sample_at = functools.partial(flow_expm, ham)
    else:
        sample_at = integrate_symplectic_flow(ham, t_end, tol).at
    ts = np.linspace(0.0, t_end, num)
    dim = 2 * ham.n_modes

    state_rows, flow_rows, defect = [], [], 0.0
    for t in ts:
        sample = sample_at(t)
        st = evolve_gaussian(state, sample)
        defect = max(defect, sample.symplectic_defect())
        state_rows.append(np.concatenate([[t], st.mean, st.disp.ravel()]))
        flow_rows.append(np.concatenate([[t], sample.lam.ravel(), sample.delta]))
    _check_finite("evolve.csv", state_rows)
    _check_finite("flow.csv", flow_rows)
    mean_cols = [f"mean_{i}" for i in range(dim)]
    disp_cols = [f"disp_{i}{j}" for i in range(dim) for j in range(dim)]
    lam_cols = [f"lam_{i}{j}" for i in range(dim) for j in range(dim)]
    delta_cols = [f"delta_{i}" for i in range(dim)]
    artifacts = {
        "evolve.csv": format_table(["t"] + mean_cols + disp_cols, np.array(state_rows).T),
        "flow.csv": format_table(["t"] + lam_cols + delta_cols, np.array(flow_rows).T),
    }
    return artifacts, {"tol": tol, "symplectic_defect": defect}


def _job_epsilon(options):
    try:
        profile = profile_from_dict(options["profile"])
    except ValueError as exc:
        raise ConfigError("profile", str(exc)) from exc
    t_end = float(options["t_end"])
    num = _count(options, "num", 201)
    tol = float(options.get("tol", 1e-9))
    traj = solve_epsilon(profile, t_end, tol)
    rows = []
    for t in np.linspace(0.0, t_end, num):
        eps, epsdot = traj.at(t)
        rows.append([t, eps.real, eps.imag, epsdot.real, epsdot.imag])
    header = ["t", "re_eps", "im_eps", "re_epsdot", "im_epsdot"]
    _check_finite("epsilon.csv", rows)
    return ({"epsilon.csv": format_table(header, np.array(rows, dtype=float).T)},
            {"tol": tol, "wronskian_defect": traj.wronskian_defect,
             "profile_kind": profile.kind})


def _job_cat(options):
    state = _parse_state(options["state"], "state")
    if not isinstance(state, CatState):
        raise ConfigError("state.kind", "cat command requires a cat state")
    artifacts, meta = _job_pnd(options, "cat_pnd.csv")
    moments = cat_moments(state)
    moment_columns = [np.arange(state.n_modes), moments.mean_photon,
                      np.diagonal(moments.number_covariance), moments.mandel_q]
    _check_finite("cat_moments.csv", *moment_columns)
    artifacts["cat_moments.csv"] = format_table(["mode", "mean_photon", "variance", "mandel_q"],
                                                moment_columns)
    return artifacts, meta


def _job_tomo_forward(options):
    state = _require_one_mode(_parse_state(options["state"], "state"), "state")
    n_angles = _count(options, "n_angles", 180)
    x_grid = _parse_grid(options.get("x", {"min": -12.0, "max": 12.0, "num": 257}), "x")
    thetas = np.arange(n_angles) * math.pi / n_angles
    method = options.get("method", "exact" if isinstance(state, GaussianState) else "numeric")
    if method == "exact":
        if not isinstance(state, GaussianState) or state.n_modes != 1:
            raise ConfigError("method", "exact marginals need a one-mode Gaussian state")
        sino = gaussian_sinogram(state, thetas, x_grid)
    elif method == "numeric":
        num = _count(options, "wigner_samples", 513)
        span = _positive(options.get("wigner_span", max(abs(x_grid[0]), abs(x_grid[-1]))),
                         "wigner_span")
        inner = np.linspace(-span, span, num)
        grid = wigner_grid_from_callable(_state_wigner_fn(state), inner, inner)
        sino = forward_marginal_numeric(grid, thetas, x_grid)
    else:
        raise ConfigError("method", f"unknown method {method!r}")
    _check_finite("sinogram.csv", sino.theta_grid, sino.x_grid, sino.values)
    meta = {"n_angles": n_angles, "method": method,
            "max_normalization_defect": float(sino.normalization_defects.max())}
    return {"sinogram.csv": sinogram_csv(sino)}, meta


def _job_tomo_invert(options):
    sino_path = Path(options["sinogram"])
    if not sino_path.exists():
        raise ConfigError("sinogram", f"file {sino_path} does not exist")
    sino = sinogram_from_csv(sino_path)
    q_grid = _parse_grid(options["grid"]["q"], "grid.q")
    p_grid = _parse_grid(options["grid"]["p"], "grid.p")
    reg_s = float(options.get("reg_s", 1e-2))
    grid = inverse_radon(sino, q_grid, p_grid, reg_s=reg_s)
    _check_finite("wigner_reconstructed.csv", grid.q_grid, grid.p_grid, grid.values)
    # filtered backprojection blurs W by an isotropic Gaussian of this variance per axis
    meta = {"reg_s": reg_s, "n_angles": sino.n_angles, "reconstructed_mass": grid.mass(),
            "blur_variance": reg_s / 4.0}
    text = format_lattice(PHASE_SPACE_HEADER, grid.q_grid, grid.p_grid, grid.values)
    return {"wigner_reconstructed.csv": text}, meta


def _job_verify(options):
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


_JOBS = {
    "pnd": _job_pnd,
    "wigner": _job_wigner,
    "qfunc": _job_qfunc,
    "evolve": _job_evolve,
    "epsilon": _job_epsilon,
    "cat": _job_cat,
    "tomo-forward": _job_tomo_forward,
    "tomo-invert": _job_tomo_invert,
    "verify": _job_verify,
}


def execute_job(cfg: JobConfig) -> dict[str, str]:
    """Run a validated job; returns {filename: text content} artifacts.

    Warnings that the active filters show, raised during the job, go into the sidecar
    as a ``warnings`` list of {category, message} entries in the order raised; the
    key is absent if there was none.  Entering the recording context resets the
    once-per-location registry, so every job records its own warnings.
    """
    with warnings.catch_warnings(record=True) as caught:
        artifacts, meta = _JOBS[cfg.command](cfg.options)
    sidecar = {
        "command": cfg.command,
        "config": cfg.options,
        "version": __version__,
        "qrep_convention": QREP_CONVENTION,
        "numeric_format": "shortest round-trip decimal (repr)",
    }
    sidecar.update(meta)
    if caught:
        sidecar["warnings"] = [{"category": w.category.__name__, "message": str(w.message)}
                               for w in caught]
    artifacts[f"{cfg.command}.meta.json"] = json.dumps(
        sidecar, indent=2, sort_keys=True, default=str) + "\n"
    return artifacts


def write_output(artifacts: dict[str, str], out_dir) -> list[Path]:
    """Write artifacts under out_dir; byte-stable for identical inputs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(artifacts):
        path = out_dir / name
        path.write_text(artifacts[name], encoding="utf-8")
        written.append(path)
    return written


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
        if args.config is None:
            if args.command != "verify":
                raise ConfigError("--config", "a config file is required for this command")
            text = "{}"
        else:
            path = Path(args.config)
            if not path.exists():
                raise ConfigError("--config", f"file {path} does not exist")
            text = path.read_text(encoding="utf-8")
        cfg = parse_config(text, args.command)
        artifacts = execute_job(cfg)
        written = write_output(artifacts, args.out_dir)
    except ConfigError as exc:
        json.dump({"error": {"kind": "config", "field": exc.field, "message": str(exc)}},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary: report and exit nonzero
        json.dump({"error": {"kind": "execution", "command": args.command,
                             "type": type(exc).__name__, "message": str(exc)}},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1

    sidecar = json.loads(artifacts[f"{args.command}.meta.json"])
    for warning in sidecar.get("warnings", []):
        json.dump({"warning": warning}, sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
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
