"""Independent output checks for every job class of the benchmark.

Nothing here imports qopt.  Each check reads the artifacts a job wrote and
compares them with a closed form or an independent numerical method, written
from the conventions the README documents:

* quadratures are ordered Q = (p_1..p_N, q_1..q_N), beta = (q + i p)/sqrt(2),
  and the Wigner density integrates to one against dq dp / (2 pi);
* the homodyne quadrature at angle theta is X = q cos(theta) - p sin(theta);
* filtered backprojection blurs the reconstruction by an isotropic Gaussian
  of variance reg_s / 4 per axis;
* the flow (Lam, Delta) solves dLam/dt = Lam Sigma B, dDelta/dt = Lam Sigma C;
* eps'' + w^2(t) eps = 0 with eps(0) = 1, eps'(0) = i.

Photon statistics of Gaussian states are checked against the total-photon
generating function

    G(z) = E[z^N] = prod_k 2 / sqrt((1 + z) + 2 (1 - z) l_k)
                    * exp(-(1 - z) sum_k m_k^2 / ((1 + z) + 2 (1 - z) l_k)),

with l_k the eigenvalues of the dispersion matrix and m the mean in its
eigenbasis.  G is analytic on the closed unit disc, so an FFT over the unit
circle gives P(N = n) to machine precision.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm


class CheckFailed(Exception):
    """A job's output disagrees with its oracle."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _read_csv(path: Path, n_cols: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(data.shape[1] == n_cols, f"{path.name}: expected {n_cols} columns")
    return data


def _sidecar(out_dir: Path, command: str) -> dict:
    return json.loads((out_dir / f"{command}.meta.json").read_text(encoding="utf-8"))


def symplectic_form(n_modes: int) -> np.ndarray:
    """Sigma = [[0, I], [-I, 0]] in the (p, q) ordering."""
    eye, zero = np.eye(n_modes), np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


# --------------------------------------------------------------------------
# closed forms

def total_photon_distribution(mean, disp, size: int = 8192) -> np.ndarray:
    """P(N = n), n < size, for a Gaussian state, from its generating function.

    ``mean`` and ``disp`` may carry leading axes for a stack of states; the
    distribution then has the same leading axes.
    """
    mean = np.asarray(mean, dtype=float)
    lam, vec = np.linalg.eigh(np.asarray(disp, dtype=float))
    mu = np.einsum("...ji,...j->...i", vec, mean)
    z = np.exp(2j * math.pi * np.arange(size) / size)
    fac = (1.0 + z)[:, None] + 2.0 * (1.0 - z)[:, None] * lam[..., None, :]
    gen = (2.0 ** (mean.shape[-1] // 2) / np.prod(np.sqrt(fac), axis=-1)
           * np.exp(-(1.0 - z) * np.sum(mu[..., None, :] ** 2 / fac, axis=-1)))
    return np.fft.fft(gen, axis=-1).real / size


def shells_to_mass(mean, disp, mass_tol: float, size: int = 256):
    """Smallest total degree D with P(N <= D) >= 1 - mass_tol, or None if
    the answer sits within round-off of the target or beyond ``size``.

    For a stack of states, an integer array holding -1 where the answer is None.
    """
    cum = np.cumsum(total_photon_distribution(mean, disp, size), axis=-1)
    margin = 1e-13
    above = cum >= 1.0 - mass_tol + margin
    d = np.argmax(above, axis=-1)
    before = np.take_along_axis(cum, np.maximum(d - 1, 0)[..., None], axis=-1)[..., 0]
    unsure = ~above.any(axis=-1) | ((d > 0) & (before >= 1.0 - mass_tol - margin))
    d = np.where(unsure, -1, d)
    if d.ndim:
        return d
    return None if d < 0 else int(d)


def photon_mean(mean, disp) -> float:
    """Total mean photon number, 1/2 (tr M - N) + 1/2 |<Q>|^2."""
    mean = np.asarray(mean, dtype=float)
    return 0.5 * (float(np.trace(disp)) - len(mean) // 2) + 0.5 * float(mean @ mean)


def gaussian_wigner(mean, disp, q, p) -> np.ndarray:
    """One-mode Gaussian Wigner density det(M)^{-1/2} exp(-d.M^-1.d / 2), d = (p, q) - mean."""
    disp = np.asarray(disp, dtype=float)
    inv = np.linalg.inv(disp)
    dp, dq = p - mean[0], q - mean[1]
    quad = inv[0, 0] * dp * dp + 2.0 * inv[0, 1] * dp * dq + inv[1, 1] * dq * dq
    return np.exp(-0.5 * quad) / math.sqrt(np.linalg.det(disp))


def gaussian_husimi(mean, disp, q, p) -> np.ndarray:
    """Husimi density: the Wigner density smoothed by vacuum noise, M -> M + I/2."""
    return gaussian_wigner(mean, np.asarray(disp) + 0.5 * np.eye(2), q, p)


def _cat_weight2(amps, parity) -> float:
    a2 = float(np.sum(np.abs(amps) ** 2))
    sign = 1.0 if parity == "even" else -1.0
    return 1.0 / (2.0 * (1.0 + sign * math.exp(-2.0 * a2)))


def _coherent_wavefunction(alpha, x):
    return math.pi ** -0.25 * np.exp(-0.5 * x * x + math.sqrt(2.0) * alpha * x
                                     - 0.5 * alpha * alpha - 0.5 * abs(alpha) ** 2)


def cat_wigner_by_quadrature(alpha, parity, q, p, half_width: float = 14.0,
                             points: int = 4001) -> np.ndarray:
    """One-mode cat Wigner density from its wavefunction,
    W = 2 int psi*(q + y) psi(q - y) exp(2 i p y) dy, by trapezoid quadrature."""
    sign = 1.0 if parity == "even" else -1.0
    y = np.linspace(-half_width, half_width, points)
    q = np.asarray(q, dtype=float)[..., None]
    p = np.asarray(p, dtype=float)[..., None]

    def psi(x):
        return _coherent_wavefunction(alpha, x) + sign * _coherent_wavefunction(-alpha, x)

    integrand = np.conj(psi(q + y)) * psi(q - y) * np.exp(2j * p * y)
    return 2.0 * _cat_weight2([alpha], parity) * np.trapezoid(integrand, y, axis=-1).real


def cat_wigner_blurred(alpha, parity, q, p, blur_var: float = 0.0) -> np.ndarray:
    """One-mode cat Wigner density convolved with an isotropic Gaussian of
    variance ``blur_var`` per axis.

    The density is a sum of four Gaussians K exp(-|x|^2 + c.x) over dyads
    |a><b|; each convolves to K exp(c.c/4 - |x - c/2|^2 / (1 + 2 s)) / (1 + 2 s).
    """
    sign = 1.0 if parity == "even" else -1.0
    s = blur_var
    out = np.zeros(np.broadcast(q, p).shape, dtype=complex)
    for a, b, w in ((alpha, alpha, 1.0), (-alpha, -alpha, 1.0),
                    (alpha, -alpha, sign), (-alpha, alpha, sign)):
        k = 2.0 * np.exp(-a * np.conj(b) - 0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2)
        cq = math.sqrt(2.0) * (a + np.conj(b))
        cp = math.sqrt(2.0) * 1j * (np.conj(b) - a)
        shift2 = (q - 0.5 * cq) ** 2 + (p - 0.5 * cp) ** 2
        spread = 1.0 + 2.0 * s
        out += w * k * np.exp(0.25 * (cq * cq + cp * cp) - shift2 / spread) / spread
    return _cat_weight2([alpha], parity) * out.real


def cat_husimi(alpha, parity, q, p) -> np.ndarray:
    """|<beta|psi>|^2 with <beta|a> = exp(-|beta|^2/2 - |a|^2/2 + beta* a)."""
    sign = 1.0 if parity == "even" else -1.0
    beta = (np.asarray(q) + 1j * np.asarray(p)) / math.sqrt(2.0)

    def overlap(a):
        return np.exp(-0.5 * np.abs(beta) ** 2 - 0.5 * abs(a) ** 2 + np.conj(beta) * a)

    return _cat_weight2([alpha], parity) * np.abs(overlap(alpha) + sign * overlap(-alpha)) ** 2


def cat_marginal(alpha, parity, theta, x) -> np.ndarray:
    """Homodyne density of a one-mode cat: the amplitude rotates to alpha e^{i theta}."""
    sign = 1.0 if parity == "even" else -1.0
    rot = alpha * np.exp(1j * theta)
    amp = _coherent_wavefunction(rot, x) + sign * _coherent_wavefunction(-rot, x)
    return _cat_weight2([alpha], parity) * np.abs(amp) ** 2


def cat_total(amps, parity, total: int) -> float:
    """(|A|^2)^n / (n! cosh |A|^2) on parity-matching totals, sinh for odd."""
    if total % 2 != (0 if parity == "even" else 1):
        return 0.0
    a2 = float(np.sum(np.abs(amps) ** 2))
    denom = math.cosh(a2) if parity == "even" else math.sinh(a2)
    return math.exp(total * math.log(a2) - math.lgamma(total + 1)) / denom


def cat_mean_photons(amps, parity) -> np.ndarray:
    a2 = float(np.sum(np.abs(amps) ** 2))
    weight = math.tanh(a2) if parity == "even" else 1.0 / math.tanh(a2)
    return np.abs(np.asarray(amps)) ** 2 * weight


def _as_complex(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


# --------------------------------------------------------------------------
# checks by command

def check_gaussian_pnd(truth: dict, cfg: dict, out_dir: Path) -> None:
    rows = _read_csv(out_dir / "pnd.csv", truth["n_modes"] + 1)
    meta = _sidecar(out_dir, "pnd")
    probs = rows[:, -1]
    totals = rows[:, :-1].sum(axis=1).astype(int)
    _require(np.all(np.isfinite(probs)), "non-finite probability")
    _require(np.all(probs >= 0.0), "negative probability")
    mass = float(probs.sum())
    mass_tol = float(cfg.get("mass_tol", 1e-10))
    _require(mass >= 1.0 - mass_tol or meta["cap_hit"],
             f"mass {mass!r} misses 1 - {mass_tol} and no cap_hit is reported")
    _require(abs(mass - meta["cumulative_probability"]) <= 1e-12, "sidecar mass disagrees")

    dist = total_photon_distribution(truth["mean"], truth["disp"])
    top = int(totals.max())
    shells = np.bincount(totals, weights=probs, minlength=top + 1)
    worst = float(np.abs(shells - dist[:top + 1]).max())
    _require(worst <= 1e-9, f"shell totals off the generating function by {worst:.3e}")

    closed = photon_mean(truth["mean"], truth["disp"])
    tail = float(np.sum(np.arange(top + 1, dist.size) * dist[top + 1:]))
    series = float(totals @ probs)
    _require(abs(series + tail - closed) <= 1e-8 * max(1.0, closed),
             f"series mean {series!r} + tail {tail:.3e} != closed form {closed!r}")


def _check_cat_rows(truth, rows) -> None:
    amps = _as_complex(truth["A"])
    totals = rows[:, :-1].sum(axis=1).astype(int)
    probs = rows[:, -1]
    _require(np.all(np.isfinite(probs)) and np.all(probs >= 0.0), "invalid cat probability")
    shells = np.bincount(totals, weights=probs)
    want = np.array([cat_total(amps, truth["parity"], n) for n in range(shells.size)])
    worst = float(np.abs(shells - want).max())
    _require(worst <= 1e-12, f"cat shell totals off the closed form by {worst:.3e}")


def check_cat_pnd(truth: dict, cfg: dict, out_dir: Path) -> None:
    _check_cat_rows(truth, _read_csv(out_dir / "pnd.csv", len(truth["A"]) + 1))


def check_cat(truth: dict, cfg: dict, out_dir: Path) -> None:
    _check_cat_rows(truth, _read_csv(out_dir / "cat_pnd.csv", len(truth["A"]) + 1))
    moments = _read_csv(out_dir / "cat_moments.csv", 4)
    want = cat_mean_photons(_as_complex(truth["A"]), truth["parity"])
    worst = float(np.abs(moments[:, 1] - want).max())
    _require(worst <= 1e-12 * max(1.0, float(want.max())), f"cat mean photons off by {worst:.3e}")


def _grid_axes(spec: dict) -> np.ndarray:
    return np.linspace(spec["min"], spec["max"], spec["num"])


def _read_grid(path: Path, cfg_grid: dict):
    data = _read_csv(path, 3)
    q_axis, p_axis = _grid_axes(cfg_grid["q"]), _grid_axes(cfg_grid["p"])
    _require(data.shape[0] == q_axis.size * p_axis.size, f"{path.name}: wrong row count")
    q = data[:, 0].reshape(q_axis.size, p_axis.size)
    p = data[:, 1].reshape(q_axis.size, p_axis.size)
    _require(np.array_equal(q[:, 0], q_axis) and np.array_equal(p[0], p_axis),
             f"{path.name}: grid coordinates differ from the configured lattice")
    values = data[:, 2].reshape(q_axis.size, p_axis.size)
    _require(np.all(np.isfinite(values)), f"{path.name}: non-finite value")
    return q_axis, p_axis, values


def _spot_indices(shape, seed: int, count: int = 24):
    rng = np.random.default_rng(seed)
    return rng.integers(0, shape[0], count), rng.integers(0, shape[1], count)


def _density(truth: dict, kind: str, q, p):
    if truth["family"] == "gaussian":
        fn = gaussian_wigner if kind == "wigner" else gaussian_husimi
        return fn(np.asarray(truth["mean"]), truth["disp"], q, p)
    alpha = complex(*truth["A"][0])
    if kind == "wigner":
        return cat_wigner_by_quadrature(alpha, truth["parity"], q, p)
    return cat_husimi(alpha, truth["parity"], q, p)


def check_grid(kind: str):
    """Grid mass against dq dp / (2 pi) plus spot values against direct evaluation."""

    def check(truth: dict, cfg: dict, out_dir: Path) -> None:
        q_axis, p_axis, values = _read_grid(out_dir / f"{kind}.csv", cfg["grid"])
        mass = float(np.trapezoid(np.trapezoid(values, p_axis, axis=1), q_axis)) / (2 * math.pi)
        _require(abs(mass - 1.0) <= 1e-6, f"{kind} grid mass {mass!r}")
        iq, ip = _spot_indices(values.shape, truth["spot_seed"])
        want = _density(truth, kind, q_axis[iq], p_axis[ip])
        worst = float(np.abs(values[iq, ip] - want).max())
        _require(worst <= 1e-9 * max(1.0, float(np.abs(values).max())),
                 f"{kind} spot values off by {worst:.3e}")

    return check


def _forward_exact(truth: dict, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    if truth["family"] == "gaussian":
        (pm, qm), disp = truth["mean"], np.asarray(truth["disp"])
        c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
        mean = qm * c - pm * s
        var = disp[1, 1] * c * c + disp[0, 0] * s * s - 2.0 * disp[0, 1] * s * c
        return np.exp(-(x - mean) ** 2 / (2.0 * var)) / np.sqrt(2.0 * math.pi * var)
    alpha = complex(*truth["A"][0])
    return np.array([cat_marginal(alpha, truth["parity"], t, x) for t in theta])


def check_tomo_forward(truth: dict, cfg: dict, out_dir: Path) -> None:
    data = _read_csv(out_dir / "sinogram.csv", 3)
    n_angles = int(cfg.get("n_angles", 180))
    x_axis = _grid_axes(cfg["x"])
    _require(data.shape[0] == n_angles * x_axis.size, "sinogram has the wrong row count")
    values = data[:, 2].reshape(n_angles, x_axis.size)
    theta = data[:, 0].reshape(n_angles, x_axis.size)[:, 0]
    _require(np.allclose(theta, np.arange(n_angles) * math.pi / n_angles, rtol=0, atol=1e-15),
             "sinogram angles differ from the configured set")
    slice_mass = np.trapezoid(values, x_axis, axis=1)
    worst_mass = float(np.abs(slice_mass - 1.0).max())
    _require(worst_mass <= 1e-6, f"slice normalization off by {worst_mass:.3e}")
    want = _forward_exact(truth, theta, x_axis)
    tol = 1e-12 if truth["family"] == "gaussian" else 1e-4
    worst = float(np.abs(values - want).max())
    _require(worst <= tol * max(1.0, float(want.max())), f"marginals off by {worst:.3e}")


def check_tomo_invert(truth: dict, cfg: dict, out_dir: Path) -> None:
    q_axis, p_axis, values = _read_grid(out_dir / "wigner_reconstructed.csv", cfg["grid"])
    blur = float(cfg.get("reg_s", 1e-2)) / 4.0
    qq, pp = np.meshgrid(q_axis, p_axis, indexing="ij")
    if truth["family"] == "gaussian":
        want = gaussian_wigner(np.asarray(truth["mean"]),
                               np.asarray(truth["disp"]) + blur * np.eye(2), qq, pp)
    else:
        want = cat_wigner_blurred(complex(*truth["A"][0]), truth["parity"], qq, pp, blur)
    err = float(np.abs(values - want).max() / np.abs(want).max())
    _require(err <= 0.02, f"reconstruction error {err:.4f} exceeds 0.02")


def _flow_rows(out_dir: Path, dim: int):
    flow = _read_csv(out_dir / "flow.csv", 1 + dim * dim + dim)
    state = _read_csv(out_dir / "evolve.csv", 1 + dim + dim * dim)
    return flow, state


def _reference_flow(truth: dict, ts: np.ndarray):
    """(Lam, Delta) at ts: one augmented matrix exponential for constant H,
    otherwise an independent RK45 solve at tight tolerance."""
    n = truth["n_modes"]
    dim = 2 * n
    sigma = symplectic_form(n)
    if "B" in truth:
        gen = np.zeros((dim + 1, dim + 1))
        gen[:dim, :dim] = sigma @ np.asarray(truth["B"])
        gen[:dim, dim] = sigma @ np.asarray(truth["C"])
        blocks = [expm(gen * t) for t in ts]
        return (np.array([b[:dim, :dim] for b in blocks]), np.array([b[:dim, dim] for b in blocks]))
    w2 = profile_function(truth["profile"])
    mass = truth["mass"]

    def rhs(t, y):
        lam = y.reshape(dim, dim)
        return (lam @ sigma @ np.diag([1.0 / mass, mass * w2(t)])).ravel()

    sol = solve_ivp(rhs, (0.0, ts[-1]), np.eye(dim).ravel(), method="RK45", t_eval=ts,
                    rtol=1e-12, atol=1e-14)
    _require(sol.success, "reference integration failed")
    return sol.y.T.reshape(-1, dim, dim), np.zeros((ts.size, dim))


def check_evolve(truth: dict, cfg: dict, out_dir: Path) -> None:
    n = truth["n_modes"]
    dim = 2 * n
    flow, state = _flow_rows(out_dir, dim)
    ts = flow[:, 0]
    _require(np.array_equal(ts, state[:, 0]), "flow and state rows have different times")
    lam = flow[:, 1:1 + dim * dim].reshape(-1, dim, dim)
    delta = flow[:, 1 + dim * dim:]
    ref_lam, ref_delta = _reference_flow(truth, ts)
    scale = max(1.0, float(np.abs(ref_lam).max()), float(np.abs(ref_delta).max()))
    worst = max(float(np.abs(lam - ref_lam).max()), float(np.abs(delta - ref_delta).max()))
    _require(worst <= 1e-6 * scale, f"flow off the reference by {worst:.3e}")

    mean0, disp0 = np.asarray(truth["mean"]), np.asarray(truth["disp"])
    means = state[:, 1:1 + dim]
    disps = state[:, 1 + dim:].reshape(-1, dim, dim)
    worst = 0.0
    for k in range(ts.size):
        inv = np.linalg.inv(ref_lam[k])
        worst = max(worst, float(np.abs(means[k] - inv @ (mean0 - ref_delta[k])).max()),
                    float(np.abs(disps[k] - inv @ disp0 @ inv.T).max()))
    _require(worst <= 1e-6 * scale ** 2, f"evolved moments off by {worst:.3e}")


_EXPR_NAMESPACE = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp, "log": math.log,
    "sqrt": math.sqrt, "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "abs": abs, "pi": math.pi, "e": math.e,
}


def profile_function(doc: dict):
    """w^2(t) of a profile document, evaluated without qopt."""
    if "preset" in doc:
        value = {"free": 0.0, "oscillator": 1.0, "repulsive": -1.0}[doc["preset"]]
        return lambda t: value
    if "table" in doc:
        table = np.asarray(doc["table"], dtype=float)
        return lambda t: float(np.interp(t, table[:, 0], table[:, 1]))
    code = compile(doc["expression"], "<omega_squared>", "eval")
    return lambda t: float(eval(code, {"__builtins__": {}}, {**_EXPR_NAMESPACE, "t": t}))


_PRESET_EPS = {
    "free": (lambda t: 1.0 + 1j * t, lambda t: 1j * np.ones_like(t)),
    "oscillator": (lambda t: np.exp(1j * t), lambda t: 1j * np.exp(1j * t)),
    "repulsive": (lambda t: np.cosh(t) + 1j * np.sinh(t), lambda t: np.sinh(t) + 1j * np.cosh(t)),
}


def check_epsilon(truth: dict, cfg: dict, out_dir: Path) -> None:
    rows = _read_csv(out_dir / "epsilon.csv", 5)
    ts = rows[:, 0]
    eps = rows[:, 1] + 1j * rows[:, 2]
    epsdot = rows[:, 3] + 1j * rows[:, 4]
    tol = float(cfg.get("tol", 1e-9))
    wron = float(np.abs(eps * np.conj(epsdot) - np.conj(eps) * epsdot + 2j).max())
    _require(wron <= 100.0 * tol, f"Wronskian defect {wron:.3e} exceeds 100 tol")
    profile = cfg["profile"]
    if "preset" in profile:
        f, fd = _PRESET_EPS[profile["preset"]]
        want, want_dot = f(ts), fd(ts)
        rel = 1e-12
    else:
        w2 = profile_function(profile)
        sol = solve_ivp(lambda t, y: np.array([y[1], -w2(t) * y[0]]), (0.0, ts[-1]),
                        np.array([1.0 + 0j, 1j]), method="RK45", t_eval=ts,
                        rtol=1e-12, atol=1e-14)
        _require(sol.success, "reference integration failed")
        want, want_dot = sol.y[0], sol.y[1]
        rel = 1e-6
    scale = max(1.0, float(np.abs(want).max()), float(np.abs(want_dot).max()))
    worst = max(float(np.abs(eps - want).max()), float(np.abs(epsdot - want_dot).max()))
    _require(worst <= rel * scale, f"eps off the reference by {worst:.3e}")


def check_verify(truth: dict, cfg: dict, out_dir: Path) -> None:
    doc = json.loads((out_dir / "verify.json").read_text(encoding="utf-8"))
    _require(doc["passed"] is True, "verify reports a failed check")
    failing = [c["name"] for c in doc["checks"] if not c["passed"]]
    _require(not failing, f"failing checks: {failing}")


CHECKS = {
    "pnd": check_gaussian_pnd,
    "pnd-cat": check_cat_pnd,
    "cat": check_cat,
    "wigner": check_grid("wigner"),
    "qfunc": check_grid("qfunc"),
    "tomo-forward": check_tomo_forward,
    "tomo-invert": check_tomo_invert,
    "evolve": check_evolve,
    "epsilon": check_epsilon,
    "verify": check_verify,
}
