#!/usr/bin/env python3
"""westinv benchmark: end-to-end reconstruction cost, plus a traced run that
splits it by layer.

    python3 bench/run.py --workload newton-frozen --seed 11 --seconds 32 --trace 0

Run it from anywhere; it imports westinv from the ``src`` directory next to
``bench``.  One process drives the public API closed loop: the next
reconstruction (or ``westinv sweep``) starts when the previous one returns,
until ``--seconds`` have passed (at least three samples).  Every result is
checked; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

recon_s           median seconds of one run_inversion call (data synthesis
                  included), or of one sweep entry (sweep wall / entries)
sweep_runs_per_s  reconstructions or sweep entries completed per second
setup_s           median seconds for a fresh process to import westinv and
                  run build_problem for the workload's configs
err_l2            L2 error of kappa at the stop index (mean over sweep entries)
peak_rss_mb       peak resident memory of this process

Times are given at a reference host speed.  On a shared host the CPU's speed
swings by up to 2x for seconds to minutes at a time, which moves the median
wall time of a 30-second run by 30 % or more.  So every timed call sits
between two runs of a fixed calibration loop (calibration_seconds), and its
wall time is scaled by CALIBRATION_REF_S over their mean.  The raw wall
median, minimum, maximum and sample count are printed with every run.

``--trace 1`` splits the time between an untraced and a traced loop, reports
the per-layer metrics from the traced one (see tracer.py) and the tracing
overhead, and prints a calls x cost-per-call table.  Every repetition, traced
or not, must reproduce the first one exactly.

Workloads (the seed is the noise seed; sweep entry i gets seed + i):

newton-frozen     criterion-5/6 problem (nx=101, nt=400, 41 Gaussian bumps),
                  frozen Newton-LM.  Frozen Jacobian assembly (41 sensitivity
                  marches) dominates; no adjoint or Hessian runs.
halley-frozen     same problem and data, frozen Halley.  The directional
                  Hessian (second-derivative marches) dominates, and it reuses
                  the sensitivities cached on the Jacobian.
landweber-frozen  criterion-7 problem (nx=51, T=2, b=0.01, tent truth), frozen
                  Landweber with mu given, a fixed 20-iteration budget that
                  ends at max-iter.  Nonlinear forward solves and adjoint
                  solves dominate; no Jacobian, no Hessian.
sweep-mixed       ``westinv sweep`` through ``cli.main`` with --jobs
                  min(2, nproc) over six smaller entries (nx=61, nt=200, m=21)
                  mixing frozen and unfrozen Newton, Halley, unfrozen
                  Landweber, three bases, and one entry with diagnostics.  The
                  only workload using the sweep pool, artifacts and spectra.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and in every process it starts;
# set before numpy is imported.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "_out")

DEFAULT_SEED = 11
MIN_SAMPLES = 3
SETUP_LAUNCHES = 3
LANDWEBER_ITERS = 20
REFERENCE_RTOL = 1e-8  # err_l2 against the recorded default-seed values
CALIBRATION_LOOPS = 3000
CALIBRATION_REF_S = 0.066  # calibration_seconds() on an idle 2.1 GHz x86-64

CRITERION_5 = dict(
    nx=101, nt=400, t_final=1.0, b=0.2, basis_kind="gaussian", n_basis=41,
    truth_family="smooth_bump", truth_amplitude=0.3, time_profile="ramp",
    noise=0.01, sample_count=50, tau=2.0, alpha0=4.0, theta=0.5, max_iter=20,
)
CRITERION_7 = dict(
    CRITERION_5, nx=51, t_final=2.0, b=0.01, truth_family="tent",
    method="landweber", alpha0=None, mu=0.002, max_iter=LANDWEBER_ITERS,
)
SWEEP_BASE = dict(CRITERION_5, nx=61, nt=200, n_basis=21)
SWEEP_ENTRIES = [
    ("newton-frozen-gauss-diag",
     dict(method="newton", basis_kind="gaussian", diagnostics=True)),
    ("newton-unfrozen-hat", dict(method="newton", frozen=False,
                                 basis_kind="hat")),
    ("halley-gauss", dict(method="halley", basis_kind="gaussian")),
    ("halley-haar", dict(method="halley", basis_kind="haar",
                         truth_family="two_step")),
    ("landweber-unfrozen-hat", dict(method="landweber", frozen=False,
                                    basis_kind="hat", noise=0.001,
                                    alpha0=None, mu=None, max_iter=6)),
    ("newton-frozen-haar", dict(method="newton", basis_kind="haar",
                                truth_family="tent")),
]
TINY = dict(nx=41, nt=80, n_basis=7)  # criterion-10 scale, for the smoke test

WORKLOADS = ("newton-frozen", "halley-frozen", "landweber-frozen",
             "sweep-mixed")

END_TO_END_UNITS = {"recon_s": "s", "sweep_runs_per_s": "1/s", "setup_s": "s",
                    "err_l2": "1", "peak_rss_mb": "MB"}

# Single-run figures of the ROADMAP baseline table (nx=101, nt=400, m=41),
# checked against the traced run.  The table's own tolerance is +-15 %.
ROADMAP_BASELINE = {
    "solve_forward kappa=0": 0.037,
    "solve_forward kappa=truth": 0.116,
    "solve_adjoint": 0.033,
    "assemble_jacobian": 1.33,
    "assemble_directional_hessian": 1.31,
    "run_inversion newton": 1.75,
    "run_inversion halley": 4.3,
}
ROADMAP_TOLERANCE = 0.15

# Per-layer metrics read straight off the spans of one name, per
# reconstruction (per sweep on sweep-mixed): "<span name>.<calls|self_s|
# total_s>".  total_s includes the span's children.
SPAN_METRICS = (
    "laplacian.solve.calls", "laplacian.solve.self_s",
    "laplacian.banded.calls", "laplacian.banded.self_s",
    "laplacian.apply.calls", "laplacian.apply.self_s",
    "forward.solve.calls", "forward.solve.self_s",
    "derivatives.jacobian.calls", "derivatives.jacobian.total_s",
    "derivatives.sensitivity.calls", "derivatives.sensitivity.self_s",
    "derivatives.hessian.calls", "derivatives.hessian.total_s",
    "derivatives.second_derivative.calls",
    "derivatives.second_derivative.self_s",
    "derivatives.adjoint.calls", "derivatives.adjoint.self_s",
    "derivatives.gradient.self_s",
    "basis.project.calls", "basis.project.self_s", "basis.evaluate.calls",
    "data.synthesize.self_s", "data.prefilter.self_s",
    "spectra.svd.calls", "spectra.svd.self_s",
    "experiment.build_problem.self_s",
    "experiment.write_artifacts.calls", "experiment.write_artifacts.self_s",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "forward.inner_per_step":
        return "solves/step"
    if name == "experiment.artifact_bytes":
        return "B"
    if name in ("cli.sweep.scaling_eff", "trace.overhead"):
        return "ratio"
    return "count"


def workload_configs(workload: str, seed: int, tiny: bool) -> list:
    """(name, ExperimentConfig keyword arguments) for each run of one
    repetition of the workload."""
    size = TINY if tiny else {}
    if workload == "newton-frozen":
        return [(workload, dict(CRITERION_5, method="newton", seed=seed,
                                **size))]
    if workload == "halley-frozen":
        return [(workload, dict(CRITERION_5, method="halley", seed=seed,
                                **size))]
    if workload == "landweber-frozen":
        return [(workload, dict(CRITERION_7, seed=seed, **size))]
    return [(name, dict(SWEEP_BASE, **extra, seed=seed + i, **size))
            for i, (name, extra) in enumerate(SWEEP_ENTRIES)]


def expected_stop(cfg: dict) -> str:
    return "max-iter" if cfg["method"] == "landweber" else "discrepancy"


@dataclass(frozen=True)
class Timing:
    wall: float  # seconds
    scaled: float  # seconds at the reference host speed


def calibration_seconds() -> float:
    """Wall seconds of a fixed loop of 101-point banded solves, shaped like
    the solvers' inner loop.  It lives here, not in westinv, so no change to
    the program moves it: it measures how fast the host runs right now."""
    import numpy as np
    from scipy.linalg import solve_banded

    ab = np.zeros((3, 101))
    ab[0, 1:] = ab[2, :-1] = -1.0
    ab[1] = 4.0
    x = np.ones(101)
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_LOOPS):
        y = ab[1] * x
        y[:-1] -= x[1:]
        x = solve_banded((1, 1), ab, 0.5 * y + 1.0, check_finite=False)
    return time.perf_counter() - t0


class Stopwatch:
    """Times calls between two readings of the calibration loop; a call's
    closing reading opens the next call.  With `cpus`, a reading is the mean
    over those CPUs (every CPU a multi-threaded call may run on); without,
    the loop runs wherever the scheduler has this process."""

    def __init__(self, cpus: list | None = None):
        self.cpus = cpus
        self.last = self._calibrate()

    def _calibrate(self) -> float:
        if self.cpus is None:
            return calibration_seconds()
        allowed = os.sched_getaffinity(0)
        readings = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                readings.append(calibration_seconds())
        finally:
            os.sched_setaffinity(0, allowed)
        return statistics.fmean(readings)

    def time(self, fn) -> tuple:
        """fn's result and a Timing whose scaled seconds divide out the
        host's speed at the time."""
        before = self.last
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        self.last = self._calibrate()
        return result, Timing(wall, wall * 2 * CALIBRATION_REF_S
                              / (before + self.last))


def median_scaled(timings: list) -> float:
    return statistics.median(t.scaled for t in timings)


@dataclass(frozen=True)
class Outcome:
    stop_index: int
    stop_reason: str
    err_l2: float
    exit_code: int


class Bench:
    """One benchmark invocation: workload inputs, checks and counters."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        from westinv.experiment import ExperimentConfig

        self.workload = workload
        self.tiny = tiny
        self.entries = workload_configs(workload, seed, tiny)
        self.configs = [ExperimentConfig(**kw) for _, kw in self.entries]
        for cfg in self.configs:
            cfg.validate()
        self.nproc = len(os.sched_getaffinity(0))
        self.jobs = min(2, self.nproc)
        cpus = sorted(os.sched_getaffinity(0))[:self.jobs]
        self.stopwatch = Stopwatch(cpus if self.is_sweep and self.jobs > 1
                                   else None)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: list | None = None
        self.references = None
        if seed == DEFAULT_SEED and not tiny:
            with open(os.path.join(HERE, "references.json")) as fh:
                self.references = json.load(fh)[workload]

    @property
    def is_sweep(self) -> bool:
        return self.workload == "sweep-mixed"

    # -- one repetition ------------------------------------------------------

    def prepare(self) -> None:
        """Untimed work before each repetition."""
        if self.is_sweep:
            shutil.rmtree(os.path.join(OUT, "sweep"), ignore_errors=True)

    def run_once(self, jobs: int | None = None) -> list:
        """One reconstruction, or one whole sweep; returns an Outcome (or
        the exception text) per entry."""
        if self.is_sweep:
            return self._sweep(jobs or self.jobs)
        from westinv.experiment import run_inversion

        try:
            result = run_inversion(self.configs[0])
        except Exception as exc:  # counted as a failed reconstruction
            return [f"{type(exc).__name__}: {exc}"]
        r = result.report
        return [Outcome(r.stop_index, r.stop_reason,
                        float(r.errors_l2[r.stop_index]), result.exit_code)]

    def _sweep(self, jobs: int) -> list:
        from westinv import cli

        out = os.path.join(OUT, "sweep")
        spec = os.path.join(OUT, "sweep.json")
        with open(spec, "w") as fh:
            json.dump({"runs": [{"name": name, "config": cfg.to_dict()}
                                for (name, _), cfg in zip(self.entries,
                                                          self.configs)]}, fh)
        printed = io.StringIO()
        try:
            with contextlib.redirect_stdout(printed):
                cli.main(["sweep", "--config", spec, "--jobs", str(jobs),
                          "--out", out])
        except Exception as exc:  # the whole sweep failed
            return [f"{type(exc).__name__}: {exc}"] * len(self.entries)
        outcomes = []
        for name, _ in self.entries:
            try:
                with open(os.path.join(out, name, "report.json")) as fh:
                    rep = json.load(fh)
                outcomes.append(Outcome(
                    rep["stop_index"], rep["stop_reason"],
                    float(rep["errors_l2"][rep["stop_index"]]),
                    rep["exit_code"]))
            except (OSError, KeyError, ValueError) as exc:
                outcomes.append(f"{name}: no usable report.json ({exc})")
        return outcomes

    # -- checks ----------------------------------------------------------------

    def check(self, outcomes: list) -> None:
        """Count and check the entries of one repetition."""
        if self.first is None:
            self.first = outcomes
        for i, ((name, kw), got) in enumerate(zip(self.entries, outcomes)):
            self.attempted += 1
            bad = self._entry_problems(i, kw, got)
            if bad:
                self.failed += 1
                self.problems.extend(f"{name}: {b}" for b in bad)

    def _entry_problems(self, i: int, kw: dict, got) -> list:
        if isinstance(got, str):
            return [got]
        bad = []
        want_reason = expected_stop(kw)
        want_exit = 3 if want_reason == "max-iter" else 0
        if got.stop_reason != want_reason or got.exit_code != want_exit:
            bad.append(f"stopped by {got.stop_reason} (exit {got.exit_code}),"
                       f" expected {want_reason} (exit {want_exit})")
        if not math.isfinite(got.err_l2):
            bad.append(f"err_l2 {got.err_l2} is not finite")
        if self.first[i] != got:  # traced repetitions included
            bad.append(f"{got} differs from the first, untraced repetition "
                       f"{self.first[i]}")
        if self.references is not None:
            ref = self.references[i]
            if got.stop_index != ref["stop_index"] or not math.isclose(
                    got.err_l2, ref["err_l2"], rel_tol=REFERENCE_RTOL):
                bad.append(f"stop_index {got.stop_index}, err_l2 "
                           f"{got.err_l2!r} miss the seed-{DEFAULT_SEED} "
                           f"reference {ref}")
        return bad

    def newton_err_l2(self) -> float | None:
        """Newton's err_l2 on the same data as this Halley workload, for
        criterion 6; None unless the workload is halley-frozen at full size
        (criterion 6 is a claim about that problem, not the tiny one)."""
        if self.workload != "halley-frozen" or self.tiny:
            return None
        from westinv.experiment import ExperimentConfig, run_inversion

        self.attempted += 1
        cfg = ExperimentConfig(**dict(self.entries[0][1], method="newton"))
        try:
            r = run_inversion(cfg).report
            return float(r.errors_l2[r.stop_index])
        except Exception as exc:  # counted as a failed reconstruction
            self.failed += 1
            self.problems.append(f"newton run for criterion 6: {exc}")
            return math.nan

    def check_halley_vs_newton(self, newton: float | None) -> None:
        """Criterion 6: Halley's error is at most Newton's on the same data."""
        if newton is None:
            return
        halley = self.first[0]
        if isinstance(halley, str) or not halley.err_l2 <= newton:
            self.failed += 1
            self.problems.append(f"halley {halley} is not <= newton err_l2 "
                                 f"{newton!r}")

    # -- measurement -----------------------------------------------------------

    def loop(self, deadline: float) -> list:
        """Closed loop until the next repetition would end after `deadline`
        (a perf_counter value), with at least MIN_SAMPLES repetitions;
        returns a Timing per repetition."""
        timings = []
        while True:
            self.prepare()
            t0 = time.perf_counter()
            outcomes, timing = self.stopwatch.time(self.run_once)
            timings.append(timing)
            self.check(outcomes)
            now = time.perf_counter()
            if len(timings) >= MIN_SAMPLES and 2 * now - t0 > deadline:
                return timings

    def setup_seconds(self) -> list:
        """Wall seconds for fresh processes to import westinv and build the
        workload's problems."""
        code = ("import json, sys\n"
                "from westinv.experiment import ExperimentConfig, "
                "build_problem\n"
                "for c in json.loads(sys.argv[1]):\n"
                "    build_problem(ExperimentConfig.from_dict(c))\n")
        arg = json.dumps([cfg.to_dict() for cfg in self.configs])
        env = dict(os.environ, PYTHONPATH=SRC)
        return [self.stopwatch.time(lambda: subprocess.run(
            [sys.executable, "-c", code, arg], env=env, check=True,
            timeout=120))[1] for _ in range(SETUP_LAUNCHES)]

    def recon_seconds(self, timings: list) -> float:
        """Median seconds of one reconstruction (one sweep entry), at the
        reference host speed."""
        return median_scaled(timings) / len(self.entries)

    def runs_per_second(self, timings: list) -> float:
        return len(self.entries) / median_scaled(timings)


# -- reporting -----------------------------------------------------------------


def environment(bench: Bench) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (TypeError, KeyError):
            return "unknown"

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy),
            "scipy_blas": blas(scipy), "nproc": bench.nproc,
            "sweep_jobs": bench.jobs, "threads": THREAD_ENV}


def describe(timings: list, label: str) -> None:
    wall = [t.wall for t in timings]
    print(f"{label}: wall median {statistics.median(wall):.4f} s, min "
          f"{min(wall):.4f} s, max {max(wall):.4f} s; at reference speed "
          f"median {median_scaled(timings):.4f} s; n={len(timings)}")


def end_to_end(bench: Bench, deadline: float) -> dict:
    setup = bench.setup_seconds()
    describe(setup, "setup (fresh process: import westinv + build_problem)")
    newton = bench.newton_err_l2()
    times = bench.loop(deadline)
    describe(times, "sweep" if bench.is_sweep else "run_inversion")
    bench.check_halley_vs_newton(newton)
    errs = [o.err_l2 for o in bench.first if isinstance(o, Outcome)]
    return {
        "recon_s": bench.recon_seconds(times),
        "sweep_runs_per_s": bench.runs_per_second(times),
        "setup_s": median_scaled(setup),
        "err_l2": statistics.fmean(errs) if errs else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(bench: Bench, deadline: float) -> dict:
    from tracer import Tracer

    newton = bench.newton_err_l2()
    now = time.perf_counter()
    untraced = bench.loop(now + (deadline - now) / 2)
    bench.check_halley_vs_newton(newton)
    serial = None
    if bench.is_sweep:
        bench.prepare()
        outcomes, serial = bench.stopwatch.time(
            lambda: bench.run_once(jobs=1))
        bench.check(outcomes)

    tracer = Tracer()
    with tracer.installed():
        traced = bench.loop(deadline)
    units = len(traced)  # reconstructions, or sweeps
    artifact_bytes = 0
    if bench.is_sweep:
        for dirpath, _, files in os.walk(os.path.join(OUT, "sweep")):
            artifact_bytes += sum(os.path.getsize(os.path.join(dirpath, f))
                                  for f in files)

    tracer.write_csv(os.path.join(OUT, f"trace-{bench.workload}.csv"))
    summary = tracer.summary()

    def row(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                  "work": 0})

    def per_unit(name, key):
        return row(name)[key] / units

    inversion = [row(n) for n in ("inversion.landweber", "inversion.newton",
                                  "inversion.halley")]
    steps = row("forward.solve")["work"]
    traced_recon = bench.recon_seconds(traced)
    untraced_recon = bench.recon_seconds(untraced)
    metrics = {name: per_unit(*name.rsplit(".", 1)) for name in SPAN_METRICS}
    metrics.update({
        "laplacian.solve.columns": per_unit("laplacian.solve", "work"),
        "forward.inner_per_step": (
            tracer.child_calls("laplacian.solve", "forward.solve") / steps
            if steps else 0.0),
        "inversion.iterations": sum(r["work"] for r in inversion) / units,
        "inversion.self_s": sum(r["self_s"] for r in inversion) / units,
        "experiment.artifact_bytes": float(artifact_bytes),
        "cli.sweep.scaling_eff": (
            serial.scaled / (bench.jobs * median_scaled(untraced))
            if serial is not None else 0.0),
        "trace.overhead": traced_recon / untraced_recon - 1.0,
    })
    describe(untraced, "untraced")
    describe(traced, "traced")
    print_layer_table(summary, units, "sweep" if bench.is_sweep else "recon")
    if not bench.is_sweep:  # sweep spans overlap across worker threads
        print_split(summary, units)
    if not bench.tiny:
        roadmap_rows(bench, tracer, untraced)
    return metrics


def print_layer_table(summary: dict, units: int, unit: str) -> None:
    print(f"layer table, per {unit} (n={units}): calls x self per call = "
          f"self; total includes children")
    for name, r in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        calls = r["calls"] / units
        per_call = r["self_s"] / r["calls"]
        print(f"  {name:32s} {calls:10.1f} x {per_call * 1e3:10.4f} ms = "
              f"{r['self_s'] / units:8.4f} s   total {r['total_s'] / units:8.4f}"
              f" s")


def print_split(summary: dict, units: int) -> None:
    """Print the share of the traced run_inversion time taken by the layers
    the single-run workloads were chosen for."""
    def share(*names):
        return sum(summary[n]["total_s"] for n in names if n in summary) \
            / summary["experiment.run_inversion"]["total_s"]

    def calls(name):
        return summary.get(name, {"calls": 0})["calls"] / units

    print(f"split: of traced run_inversion time, derivatives.jacobian "
          f"{share('derivatives.jacobian'):.0%}, derivatives.hessian "
          f"{share('derivatives.hessian'):.0%}, forward.solve + "
          f"derivatives.adjoint "
          f"{share('forward.solve', 'derivatives.adjoint'):.0%}; calls per "
          f"recon: jacobian {calls('derivatives.jacobian'):g}, hessian "
          f"{calls('derivatives.hessian'):g}")


def roadmap_rows(bench: Bench, tracer, untraced: list) -> None:
    """Cross-check against the single-run ROADMAP baseline table, in raw
    wall seconds like the table (span times include the tracer's cost)."""
    solves_under = {}
    for s in tracer.spans:
        if s.name == "laplacian.solve" and s.parent is not None:
            solves_under[id(s.parent)] = solves_under.get(id(s.parent), 0) + 1
    fwd = [s for s in tracer.spans if s.name == "forward.solve"]
    rows = {}
    if bench.workload in ("newton-frozen", "halley-frozen"):
        linear = [s.total_s for s in fwd
                  if solves_under.get(id(s), 0) == s.work]
        truth = [s.total_s for s in fwd
                 if s.parent is not None and s.parent.name == "data.synthesize"]
        rows["solve_forward kappa=0"] = statistics.median(linear)
        rows["solve_forward kappa=truth"] = statistics.median(truth)
        rows["assemble_jacobian"] = statistics.median(
            s.total_s for s in tracer.named("derivatives.jacobian"))
        method = bench.workload.split("-")[0]
        rows[f"run_inversion {method}"] = statistics.median(
            t.wall for t in untraced)
    if bench.workload == "halley-frozen":
        rows["assemble_directional_hessian"] = statistics.median(
            s.total_s for s in tracer.named("derivatives.hessian"))
    if bench.workload == "landweber-frozen":
        rows["solve_adjoint"] = statistics.median(
            s.total_s for s in tracer.named("derivatives.adjoint"))
    for name, measured in rows.items():
        base = ROADMAP_BASELINE[name]
        ratio = measured / base
        flag = "OFF" if abs(ratio - 1) > ROADMAP_TOLERANCE else "ok"
        note = " (nx=51 here)" if bench.workload == "landweber-frozen" else ""
        print(f"roadmap {name:30s} table {base:8.4f} s  measured "
              f"{measured:8.4f} s  ratio {ratio:5.2f}  {flag}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: nx=41, nt=80, m=7, for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.seconds

    if not os.path.isfile(os.path.join(SRC, "westinv", "__init__.py")):
        print(f"westinv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    bench = Bench(args.workload, args.seed, args.size == "tiny")
    print("env " + json.dumps(environment(bench), sort_keys=True))
    if args.trace:
        metrics = per_layer(bench, deadline)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(bench, deadline)
        units = END_TO_END_UNITS
    fail_frac = bench.failed / max(bench.attempted, 1)
    for problem in bench.problems[:20]:
        print(f"FAIL {problem}")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(f"metric fail_frac = {fail_frac!r} 1 "
          f"({bench.failed}/{bench.attempted})")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
