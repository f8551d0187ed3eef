"""Seeded job lists for the three workloads.

The seed only chooses states, Hamiltonians and grid extents; the program
receives the generated configs.  Work sizes are fixed by construction so that
every seed yields comparable run lengths: Gaussian photon-statistics jobs are
drawn from their family and kept only when the independent generating
function says they need a given number of photon shells (a stratum), and
grid and tomography jobs use fixed lattice sizes.

A job is a dict:

    id       unique name, also its output directory under the work directory
    cls      job class; the report line and traced runs give per-class medians
    command  qopt command
    config   JSON config handed to the program (None for verify)
    threads  value of --threads
    check    key into oracles.CHECKS
    truth    what the oracle needs, in the benchmark's own terms
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from oracles import shells_to_mass, symplectic_form

WORKLOADS = ("photon-stats", "grids-tomo", "cli-sweep")

# (command, state family, lattice points per axis); each runs with
# --threads 1 and --threads 2.
GRID_CLASSES = (("wigner", "gauss", 401), ("wigner", "cat", 321),
                ("qfunc", "gauss", 241), ("qfunc", "cat", 161))

# Job classes of each workload, in the order the per-class medians are listed.
JOB_CLASSES = {
    "photon-stats": ("pnd_coherent", "pnd_squeezed", "pnd_thermal", "pnd_random",
                     "pnd_readme", "pnd_cat3", "cat_cat2", "pnd_2mode"),
    "grids-tomo": tuple(f"{command}_{family}{num}_t{threads}"
                        for command, family, num in GRID_CLASSES for threads in (1, 2))
    + ("tomo_forward_exact", "tomo_invert_exact", "tomo_forward_numeric",
       "tomo_invert_numeric"),
    "cli-sweep": ("evolve_free", "evolve_oscillator", "evolve_bc", "evolve_parametric",
                  "epsilon_table", "epsilon_expression", "epsilon_preset", "verify", "pnd",
                  "cat", "wigner"),
}

# Fewest timed passes over the job list in one run.  Passes repeat the same
# jobs, so every job after the first pass is also a determinism check, and
# per-job medians over several passes shrug off a pass slowed by a noisy
# machine.  cli-sweep jobs are alike (import-bound), so two passes suffice
# and keep its runs as long as the others.
MIN_PASSES = {"photon-stats": 4, "grids-tomo": 3, "cli-sweep": 2}

# Untimed passes before the timed ones.  photon-stats passes are short, so one
# of them buys a warm process (allocator arenas, caches) at little cost; the
# other workloads' passes are too long to spare one.
WARMUP_PASSES = {"photon-stats": 1, "grids-tomo": 0, "cli-sweep": 0}

MASS_TOL = 1e-10

# Photon shells (total degree at which the mass target is met) of the Gaussian
# pnd jobs.  Two-mode members come from the tier-1 test family and cost
# about C(2D + 4, 4) Hermite entries each.  They are over half of a pass, so
# the median job and the tail both fall inside the two-mode block, the median
# a fifth of the way up it rather than at its lower edge.  All twelve share one
# stratum, the family's smallest in the 15-35 range: two states with the same
# shell count still differ in run time by up to a fifth, so each percentile is
# taken over many states rather than one or two, and a table of
# about 8 MB is less exposed to neighbours on a shared cache than the 17 to
# 34 MB tables of 18 to 22 shells.
ONE_MODE_SHELLS = {"coherent": 20, "squeezed": 30, "thermal": 30, "random": 40}
TWO_MODE_SHELLS = (15,) * 12


def _tier1_states(rng, count, n_modes, mean_scale, noise_scale, symplectic_scale):
    """``count`` random mixed Gaussian states, drawn as the tier-1 tests draw
    theirs; (means, dispersions) with a leading axis of length ``count``."""
    sigmas = rng.uniform(0.5, noise_scale, size=(count, n_modes))
    disp0 = np.zeros((count, 2 * n_modes, 2 * n_modes))
    idx = np.arange(2 * n_modes)
    disp0[:, idx, idx] = np.concatenate([sigmas, sigmas], axis=1)
    b = rng.normal(size=(count, 2 * n_modes, 2 * n_modes)) * symplectic_scale
    sym = expm(symplectic_form(n_modes) @ (b + b.transpose(0, 2, 1)))
    mean = rng.normal(size=(count, 2 * n_modes)) * mean_scale
    disp = sym @ disp0 @ sym.transpose(0, 2, 1)
    return mean, 0.5 * (disp + disp.transpose(0, 2, 1))


def _tier1_state(rng, n_modes, mean_scale, noise_scale, symplectic_scale):
    """One random mixed Gaussian state, drawn as the tier-1 tests draw theirs."""
    mean, disp = _tier1_states(rng, 1, n_modes, mean_scale, noise_scale, symplectic_scale)
    return mean[0], disp[0]


def _gaussian_truth(mean, disp):
    mean = np.asarray(mean, dtype=float)
    return {"family": "gaussian", "n_modes": len(mean) // 2,
            "mean": [float(v) for v in mean],
            "disp": [[float(v) for v in row] for row in np.asarray(disp, dtype=float)]}


def _gaussian_spec(truth):
    return {"kind": "gaussian", "n_modes": truth["n_modes"], "mean": truth["mean"],
            "disp": truth["disp"]}


def _draw_1mode(rng, kind):
    """(config state spec, truth) of one draw of a one-mode family."""
    if kind == "coherent":
        alpha = rng.uniform(0.3, 2.5) * np.exp(2j * math.pi * rng.uniform())
        alpha = complex(float(alpha.real), float(alpha.imag))
        truth = _gaussian_truth([math.sqrt(2) * alpha.imag, math.sqrt(2) * alpha.real],
                                0.5 * np.eye(2))
        return {"kind": "coherent", "alpha": [alpha.real, alpha.imag]}, truth
    if kind == "squeezed":
        r = float(rng.uniform(0.05, 1.0))
        truth = _gaussian_truth([0.0, 0.0], 0.5 * np.diag([math.exp(2 * r), math.exp(-2 * r)]))
        return {"kind": "squeezed_vacuum", "r": r}, truth
    if kind == "thermal":
        temperature = float(rng.uniform(0.2, 2.0))
        sigma = 0.5 / math.tanh(0.5 / temperature)
        truth = _gaussian_truth([0.0, 0.0], sigma * np.eye(2))
        return {"kind": "thermal", "temperature": temperature, "omega": 1.0}, truth
    mean, disp = _tier1_state(rng, 1, 0.6, 1.2, 0.4)
    truth = _gaussian_truth(mean, disp)
    return _gaussian_spec(truth), truth


def _draw_with_shells(draw, want):
    """Redraw until the state needs exactly ``want`` photon shells."""
    for _ in range(100_000):
        spec, truth = draw()
        if shells_to_mass(truth["mean"], truth["disp"], MASS_TOL, size=128) == want:
            return spec, truth
    raise RuntimeError(f"no state with {want} shells found")


def _two_mode_states(rng, shells):
    """Truths of two-mode family members needing the given photon shells, one
    per entry, in the order drawn.  States are drawn in batches because a
    stratum keeps only about one draw in two thousand."""
    wanted, found = list(shells), []
    for _ in range(1000):
        means, disps = _tier1_states(rng, 512, 2, 0.4, 0.7, 0.2)
        for mean, disp, need in zip(means, disps,
                                    shells_to_mass(means, disps, MASS_TOL, size=128)):
            if need in wanted:
                wanted.remove(need)
                found.append(_gaussian_truth(mean, disp))
        if not wanted:
            return found
    raise RuntimeError(f"no states with {wanted} shells found")


def _cat(rng, n_modes, modulus=(0.3, 1.2)):
    amps = [rng.uniform(*modulus) * np.exp(2j * math.pi * rng.uniform()) for _ in range(n_modes)]
    pairs = [[float(a.real), float(a.imag)] for a in amps]
    parity = str(rng.choice(["even", "odd"]))
    return {"kind": "cat", "A": pairs, "parity": parity}


def _cat_truth(spec, spot_seed=0):
    return {"family": "cat", "A": spec["A"], "parity": spec["parity"], "spot_seed": spot_seed}


def _job(jobs, cls, command, config, check, truth, threads=1):
    jobs.append({"id": f"{len(jobs):02d}-{cls}", "cls": cls, "command": command,
                 "config": config, "threads": threads, "check": check, "truth": truth})


def photon_stats(rng, work):
    jobs = []
    for kind, shells in ONE_MODE_SHELLS.items():
        spec, truth = _draw_with_shells(lambda k=kind: _draw_1mode(rng, k), shells)
        _job(jobs, f"pnd_{kind}", "pnd", {"state": spec}, "pnd", truth)
    # the README example; it stops at the degree cap
    _job(jobs, "pnd_readme", "pnd", {"state": {"kind": "squeezed_vacuum", "r": 1.0}}, "pnd",
         _gaussian_truth([0.0, 0.0], 0.5 * np.diag([math.exp(2.0), math.exp(-2.0)])))
    spec = _cat(rng, 3)
    _job(jobs, "pnd_cat3", "pnd", {"state": spec}, "pnd-cat", _cat_truth(spec))
    spec = _cat(rng, 2)
    _job(jobs, "cat_cat2", "cat", {"state": spec}, "cat", _cat_truth(spec))
    for truth in _two_mode_states(rng, TWO_MODE_SHELLS):
        _job(jobs, "pnd_2mode", "pnd", {"state": _gaussian_spec(truth)}, "pnd", truth)
    return jobs


def _grid(half, num):
    axis = {"min": -half, "max": half, "num": num}
    return {"q": dict(axis), "p": dict(axis)}


def _grid_gaussian(rng, max_var):
    """One-mode tier-1 state that the grids used resolve and contain."""
    while True:
        mean, disp = _tier1_state(rng, 1, 0.6, 1.2, 0.4)
        eig = np.linalg.eigvalsh(disp)
        if eig.min() >= 0.15 and eig.max() <= max_var and np.abs(mean).max() <= 2.0:
            return _gaussian_truth(mean, disp)


def grids_tomo(rng, work):
    jobs = []
    for command, family, num in GRID_CLASSES:
        if family == "gauss":
            truth = _grid_gaussian(rng, max_var=2.5)
            truth["spot_seed"] = int(rng.integers(1 << 30))
            spec = _gaussian_spec(truth)
            reach = max(abs(v) for v in truth["mean"]) + 8.0 * math.sqrt(max(
                np.linalg.eigvalsh(np.asarray(truth["disp"]) + 0.5 * np.eye(2))))
        else:
            spec = _cat(rng, 1, modulus=(0.8, 2.5))
            truth = _cat_truth(spec, int(rng.integers(1 << 30)))
            reach = math.sqrt(2.0) * abs(complex(*spec["A"][0])) + 7.0
        config = {"state": spec, "grid": _grid(math.ceil(reach), num)}
        for threads in (1, 2):
            _job(jobs, f"{command}_{family}{num}_t{threads}", command, config, command, truth,
                 threads)
    x_axis = {"min": -12.0, "max": 12.0, "num": 257}
    inv_grid = _grid(12.0, 257)
    truth = _grid_gaussian(rng, max_var=2.0)
    _job(jobs, "tomo_forward_exact", "tomo-forward",
         {"state": _gaussian_spec(truth), "x": x_axis}, "tomo-forward", truth)
    _job(jobs, "tomo_invert_exact", "tomo-invert",
         {"sinogram": f"{work}/{jobs[-1]['id']}/sinogram.csv", "grid": inv_grid},
         "tomo-invert", truth)
    spec = _cat(rng, 1, modulus=(0.8, 2.5))
    truth = _cat_truth(spec)
    # 90 angles rather than the default 180 keep a pass within a third of a run
    _job(jobs, "tomo_forward_numeric", "tomo-forward",
         {"state": spec, "method": "numeric", "x": x_axis, "n_angles": 90}, "tomo-forward",
         truth)
    _job(jobs, "tomo_invert_numeric", "tomo-invert",
         {"sinogram": f"{work}/{jobs[-1]['id']}/sinogram.csv", "grid": inv_grid},
         "tomo-invert", truth)
    return jobs


def _random_b(rng, n_modes):
    a = rng.normal(size=(2 * n_modes, 2 * n_modes)) * 0.4
    return a @ a.T + 0.5 * np.eye(2 * n_modes)


def cli_sweep(rng, work):
    jobs = []
    t_end = lambda lo, hi: float(round(rng.uniform(lo, hi), 3))

    def state(n_modes):
        return _gaussian_truth(*_tier1_state(rng, n_modes, 0.8, 1.2, 0.4))

    for preset in ("free", "oscillator"):
        truth = state(1)
        mass, omega = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
        ham = {"preset": preset, "mass": mass}
        b = [1.0 / mass, 0.0]
        if preset == "oscillator":
            ham["omega"] = omega
            b[1] = mass * omega ** 2
        truth.update(B=np.diag(b).tolist(), C=[0.0, 0.0])
        _job(jobs, f"evolve_{preset}", "evolve",
             {"state": _gaussian_spec(truth), "hamiltonian": ham, "t_end": t_end(1, 6)},
             "evolve", truth)
    truth = state(2)
    b = _random_b(rng, 2)
    c = rng.normal(size=4) * 0.5
    truth.update(B=b.tolist(), C=c.tolist())
    _job(jobs, "evolve_bc", "evolve",
         {"state": _gaussian_spec(truth), "hamiltonian": {"B": truth["B"], "C": truth["C"]},
          "t_end": t_end(1, 4)}, "evolve", truth)

    table = [[0.0, 1.0]] + [[float(t), float(round(rng.uniform(0.5, 1.5), 3))]
                            for t in (4.0, 8.0, 12.0)]
    expression = f"1 + {rng.uniform(0.1, 0.4):.3f}*sin({rng.uniform(0.5, 2.0):.3f}*t)"
    truth = state(1)
    mass = float(rng.uniform(0.5, 2.0))
    truth.update(profile={"expression": expression}, mass=mass)
    _job(jobs, "evolve_parametric", "evolve",
         {"state": _gaussian_spec(truth),
          "hamiltonian": {"preset": "parametric", "mass": mass, "omega_squared": truth["profile"]},
          "t_end": t_end(2, 8)}, "evolve", truth)
    for cls, profile, t_hi in (("epsilon_table", {"table": table}, 12.0),
                               ("epsilon_expression", {"expression": expression}, 12.0),
                               ("epsilon_preset", {"preset": str(rng.choice(
                                   ["free", "oscillator", "repulsive"]))}, 6.0)):
        _job(jobs, cls, "epsilon", {"profile": profile, "t_end": t_end(t_hi / 2, t_hi)},
             "epsilon", {})
    _job(jobs, "verify", "verify", None, "verify", {})
    spec, truth = _draw_1mode(rng, "coherent")
    _job(jobs, "pnd", "pnd", {"state": spec}, "pnd", truth)
    spec = _cat(rng, 2)
    _job(jobs, "cat", "cat", {"state": spec}, "cat", _cat_truth(spec))
    spec = _cat(rng, 1, modulus=(0.8, 2.5))
    reach = math.sqrt(2.0) * abs(complex(*spec["A"][0])) + 7.0
    _job(jobs, "wigner", "wigner", {"state": spec, "grid": _grid(math.ceil(reach), 161)},
         "wigner", _cat_truth(spec, int(rng.integers(1 << 30))))
    return jobs


_GENERATORS = {"photon-stats": photon_stats, "grids-tomo": grids_tomo, "cli-sweep": cli_sweep}


def make_jobs(workload: str, seed: int, work) -> list[dict]:
    """The job list of one pass; identical for identical (workload, seed)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _GENERATORS[workload](rng, work)
