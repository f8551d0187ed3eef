"""qopt benchmark: seeded job mixes through the qopt CLI, every output checked.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {photon-stats,grids-tomo,cli-sweep}
                         --seed N --seconds S --trace {0,1}

The program is used from ``src/`` as checked out; nothing is installed.  A
run makes whole passes over the workload's job list, one job after another
(closed loop, one client): first the workload's untimed warm-up passes, then
timed passes until one more would take the timed passes past S seconds, with
a workload-specific minimum number of timed passes.  In-process jobs start
with a collected heap (the collection is not timed).  Set-up probes (fresh
interpreters importing ``qopt.cli``) are spread over the first passes, so a
burst of load on a shared machine cannot skew all of them; their time does
not count towards S.  The first pass
checks every job's artifacts against an independent oracle (``oracles.py``);
later passes must reproduce them byte for byte.  A job fails if it raises,
exits nonzero or misses a check.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a checked
untraced pass, a pass under the tracer (``tracer.py``) and another untraced
pass, and prints the per-layer metrics.  The last line of standard output is
the result object; the line before it is a report with sample counts, the
tail percentile, per-class medians, the machine and the failures, by job.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_PROBES = 5
JOB_TIMEOUT_S = 120
IMPORT_MODULES = {"scipy_integrate": "scipy.integrate", "scipy_ndimage": "scipy.ndimage",
                  "qopt_dynamics": "qopt.dynamics", "qopt_tomography": "qopt.tomography"}

SETUP_PROBE = ("import time; start = time.perf_counter(); import qopt.cli; "
               "print(time.monotonic(), time.perf_counter() - start)")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds per module from ``-X importtime`` lines."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) * 1e-6
    return out


def percentile(values, pct):
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(min_jobs: int) -> int:
    """The highest whole percentile with at least ten jobs beyond it in the
    fewest jobs a run times.  Fixed per workload, so that runs with more
    passes, and faster versions of the program, report the same percentile."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / min_jobs)))


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


class Runner:
    """Runs jobs one after another and keeps each job's verdict and timing.

    Set-up probes run between jobs, one every ``probe_every`` jobs, until
    ``SETUP_PROBES`` have run.
    """

    def __init__(self, workload: str, jobs: list, work: Path, probe_every: int,
                 importtime: bool):
        sys.path.insert(0, str(SRC))
        import qopt.cli  # also fills the bytecode cache the probes and job processes use

        self.cli = qopt.cli if workload != "cli-sweep" else None
        self.jobs = jobs
        self.work = work
        self.reference = {}   # job id -> artifact digest of its checked first run
        self.failures = []    # (pass, job id, reason)
        self.attempted = 0
        self.probe_every = probe_every
        self.importtime = importtime
        self.setups, self.splits = [], []
        self.probe_s = 0.0    # wall time spent in set-up probes
        self._since_probe = probe_every
        for job in jobs:
            if job["config"] is not None:
                path = work / "configs" / f"{job['id']}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(job["config"], indent=1), encoding="utf-8")
                job["config_path"] = str(path.relative_to(ROOT))

    def probe_setup(self) -> None:
        """Time one fresh interpreter from spawn until ``qopt.cli`` is imported."""
        cmd = [sys.executable] + (["-X", "importtime"] if self.importtime else [])
        start = time.monotonic()
        proc = subprocess.run(cmd + ["-c", SETUP_PROBE], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
        self.probe_s += time.monotonic() - start
        if proc.returncode != 0:
            raise RuntimeError(f"importing qopt.cli failed:\n{proc.stderr[-2000:]}")
        imported_at, import_s = (float(v) for v in proc.stdout.split())
        self.setups.append(imported_at - start)
        split = parse_importtime(proc.stderr)
        split["total"] = import_s
        self.splits.append(split)

    def finish_probes(self) -> None:
        while len(self.setups) < SETUP_PROBES:
            self.probe_setup()

    def argv(self, job) -> list:
        args = [job["command"]]
        if job["config"] is not None:
            args += ["--config", job["config_path"]]
        return args + ["--out-dir", str(self.out_dir(job).relative_to(ROOT)),
                       "--threads", str(job["threads"])]

    def out_dir(self, job) -> Path:
        return self.work / "out" / job["id"]

    def execute(self, job, traced: bool, summaries: list) -> tuple[float, int]:
        """Wall seconds and exit code of one job; nothing else is timed."""
        if self.cli is not None:
            # every job starts from an empty collector, not from the garbage
            # of the jobs before it
            gc.collect()
            start = time.perf_counter()
            code = self.cli.main(self.argv(job))
            return time.perf_counter() - start, code
        summary = self.work / "summary.json"
        if traced:
            cmd = [sys.executable, "-X", "importtime", str(BENCH / "child.py"), str(summary)]
        else:
            cmd = [sys.executable, "-m", "qopt.cli"]
        start = time.perf_counter()
        proc = subprocess.run(cmd + self.argv(job), env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if traced and summary.exists():
            summaries.append(json.loads(summary.read_text(encoding="utf-8")))
            summary.unlink()
            split = parse_importtime(proc.stderr)
            split["total"] = summaries[-1]["import.total_s"]
            self.splits.append(split)
        return elapsed, proc.returncode

    def run_pass(self, index: int, traced: bool = False, summaries=None) -> list:
        """One pass over the job list; returns (job, seconds) per job that ran."""
        from oracles import CHECKS, CheckFailed

        timings = []
        for job in self.jobs:
            if len(self.setups) < SETUP_PROBES and self._since_probe >= self.probe_every:
                self.probe_setup()
                self._since_probe = 0
            self._since_probe += 1
            out = self.out_dir(job)
            shutil.rmtree(out, ignore_errors=True)
            self.attempted += 1
            try:
                elapsed, code = self.execute(job, traced, summaries)
            except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
                self.failures.append((index, job["id"], f"raised {type(exc).__name__}: {exc}"))
                continue
            timings.append((job, elapsed))
            reason = None
            if code != 0:
                reason = f"exit code {code}"
            elif job["id"] not in self.reference:
                try:
                    CHECKS[job["check"]](job["truth"], job["config"] or {}, out)
                    self.reference[job["id"]] = digest(out)
                except CheckFailed as exc:
                    reason = f"check: {exc}"
                except Exception as exc:  # noqa: BLE001 - unreadable output fails the job
                    reason = f"check raised {type(exc).__name__}: {exc}"
                if reason is not None:
                    self.reference[job["id"]] = None
            elif self.reference[job["id"]] is None:
                reason = "failed its check in an earlier pass"
            elif digest(out) != self.reference[job["id"]]:
                reason = "artifacts differ from the first pass"
            if reason is not None:
                self.failures.append((index, job["id"], reason))
        return timings


def class_medians(timings, classes) -> dict:
    by_class = {}
    for job, seconds in timings:
        by_class.setdefault(job["cls"], []).append(seconds)
    return {cls: statistics.median(by_class[cls]) if cls in by_class else 0.0
            for cls in classes}


def end_to_end(runner: Runner, timings, tail_pct) -> tuple[dict, dict]:
    times = [t for _, t in timings]
    by_job = {}
    for job, seconds in timings:
        by_job.setdefault(job["id"], []).append(seconds)
    # each job at its median time over the passes; pooled order statistics
    # would put the median on the gap between two job sizes
    per_job = [statistics.median(v) for v in by_job.values()]
    who = resource.RUSAGE_SELF if runner.cli is not None else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": (statistics.median(runner.setups), "s"),
        "jobs_per_s": (len(per_job) / sum(per_job), "1/s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "job_tail_s": (percentile(times, tail_pct), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((runner.attempted - len(runner.failures)) / runner.attempted, "ratio"),
    }
    report = {"jobs_timed": len(times), "tail_percentile": tail_pct,
              "setup_samples": len(runner.setups),
              "failed_frac": len(runner.failures) / runner.attempted}
    return metrics, report


def layer_metrics(s: dict, splits: list, medians: dict, overhead: float,
                  coverage: float) -> dict:
    def g(key):
        return float(s.get(key, 0.0))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {"import.total_s": (statistics.median(x["total"] for x in splits), "s")}
    for name, module in IMPORT_MODULES.items():
        m[f"import.{name}_s"] = (statistics.median(x.get(module, 0.0) for x in splits), "s")
    m.update({
        "hermite.calls": (g("hermite.calls"), "count"),
        "hermite.self_s": (g("hermite.self_s"), "s"),
        "hermite.entries": (g("hermite.entries"), "count"),
        "hermite.entries_per_s": (rate(g("hermite.entries"), g("hermite.self_s")), "1/s"),
        "gaussian.self_s": (g("gaussian.self_s"), "s"),
        "gaussian.probabilities": (g("gaussian.probabilities"), "count"),
        "gaussian.probabilities_per_s": (
            rate(g("gaussian.probabilities"), g("gaussian.probability_span_s")), "1/s"),
        "gaussian.entries_per_probability": (
            rate(g("hermite.entries"), g("gaussian.probabilities")), "ratio"),
        "gaussian.grid_points_per_s": (
            rate(g("gaussian.grid_points"), g("gaussian.grid_span_s")), "1/s"),
        "cats.self_s": (g("cats.self_s"), "s"),
        "cats.probabilities": (g("cats.probabilities"), "count"),
        "cats.grid_points_per_s": (rate(g("cats.grid_points"), g("cats.grid_span_s")), "1/s"),
        "tomography.forward_s": (g("tomography.forward_s"), "s"),
        "tomography.lines_per_s": (rate(g("tomography.lines"), g("tomography.forward_s")), "1/s"),
        "tomography.inverse_s": (g("tomography.inverse_s"), "s"),
        "tomography.backprojected_points_per_s": (
            rate(g("tomography.backprojected_points"), g("tomography.inverse_s")), "1/s"),
        "tomography.read_s": (g("tomography.read_s"), "s"),
    })
    for layer in ("dynamics", "parametric"):
        m[f"{layer}.self_s"] = (g(f"{layer}.self_s"), "s")
        m[f"{layer}.ode_steps"] = (g(f"{layer}.ode_steps"), "count")
        m[f"{layer}.solves"] = (g(f"{layer}.solves"), "count")
    m.update({
        "verification.self_s": (g("verification.self_s"), "s"),
        "verification.checks": (g("verification.checks"), "count"),
        "cli.parse_s": (g("cli.parse_s"), "s"),
        "cli.format_s": (g("cli.format_s"), "s"),
        "cli.write_s": (g("cli.write_s"), "s"),
        "cli.bytes_out": (g("cli.bytes_out"), "B"),
        "cli.format_mb_per_s": (rate(g("cli.bytes_out") / 1e6, g("cli.format_s")), "MB/s"),
    })
    from tracer import LAYERS
    for layer in LAYERS:
        m[f"{layer}.errors"] = (g(f"{layer}.errors"), "count")
    for cls, value in medians.items():
        m[f"job.{cls}_s"] = (value, "s")
    m["trace.overhead_frac"] = (overhead, "ratio")
    m["trace.coverage_frac"] = (coverage, "ratio")
    return m


def merge(summaries: list) -> dict:
    total = {}
    for s in summaries:
        for key, value in s.items():
            total[key] = total.get(key, 0.0) + value
    return total


def traced_pass(runner: Runner) -> tuple[list, dict]:
    summaries = []
    if runner.cli is None:
        return runner.run_pass(1, traced=True, summaries=summaries), merge(summaries)
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        timings = runner.run_pass(1, traced=True)
    finally:
        tracer.uninstall()
    return timings, tracer.summary()


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import JOB_CLASSES, MIN_PASSES, WARMUP_PASSES, make_jobs

    work = ROOT / ".bench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        jobs = make_jobs(workload, seed, work.relative_to(ROOT) / "out")
        min_passes, warmup = MIN_PASSES[workload], WARMUP_PASSES[workload]
        runner = Runner(workload, jobs, work,
                        probe_every=max(1, (warmup + min_passes) * len(jobs) // SETUP_PROBES),
                        importtime=trace)
        report = {"machine": machine()}
        if not trace:
            # the measured window is the wall time of the timed passes, less
            # the set-up probes run between their jobs
            timings, passes, measured = [], 0, 0.0
            while True:
                pass_start, probes_before = time.monotonic(), runner.probe_s
                pass_timings = runner.run_pass(passes)
                pass_s = time.monotonic() - pass_start - (runner.probe_s - probes_before)
                if passes >= warmup:
                    timings += pass_timings
                    measured += pass_s
                passes += 1
                if passes >= warmup + min_passes and measured + pass_s > seconds:
                    break
            runner.finish_probes()
            tail_pct = tail_percentile(min_passes * len(jobs))
            metrics, figures = end_to_end(runner, timings, tail_pct)
            report.update(figures, passes=passes, warmup_passes=warmup,
                          class_median_s=class_medians(timings, JOB_CLASSES[workload]))
        else:
            # pass 0 is the checked reference and warms the process; the traced
            # pass is compared with the untraced pass after it
            runner.run_pass(0)
            traced, summary = traced_pass(runner)
            plain = runner.run_pass(2)
            runner.finish_probes()
            traced_s = sum(t for _, t in traced)
            plain_s = sum(t for _, t in plain)
            covered = summary.get("trace.covered_s", 0.0) + summary.get("import.total_s", 0.0)
            overhead = (len(plain) / plain_s) / (len(traced) / traced_s) - 1.0
            classes = [c for w in JOB_CLASSES.values() for c in w]
            metrics = layer_metrics(summary, runner.splits, class_medians(plain, classes),
                                    overhead, covered / traced_s)
            report.update(passes=3, jobs_timed=len(plain) + len(traced))
        report["failures"] = [{"pass": p, "job": j, "reason": r} for p, j, r in runner.failures]
        return {"report": report, "attempted": runner.attempted,
                "failed": len(runner.failures), "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qopt" / "cli.py").is_file():
        print(f"bench: no qopt sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report = dict(result["report"], workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
