"""Command-line interface: data synthesis, reconstruction, diagnostics,
a manufactured-solution convergence study and parameter sweeps."""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import fields, replace

import numpy as np

from .data import synthesize_data
from .errors import ConfigError, WestinvError
from .experiment import (
    BASIS_ALIASES,
    EXCITATIONS,
    EXIT_CONFIG,
    EXIT_SOLVER,
    METHODS,
    TIME_PROFILES,
    ExperimentConfig,
    _trace_csv,
    _write_json,
    build_problem,
    read_json_config,
    run_experiment,
    write_error_report,
)
from .forward import solve_forward
from .grids import IMPEDANCE
from .inversion import InversionContext
from .spectra import eigenvalues, pole_distinctness, poles, svd_csv, svd_decay
from .trace import write_csv

# ExperimentConfig field -> (override flag, help, choices); the flag takes
# the field's type
OVERRIDES = {
    "method": ("--method", "reconstruction method", METHODS),
    "noise": ("--noise", "relative noise level", None),
    "seed": ("--seed", "noise seed", None),
    "basis_kind": ("--basis", "basis", list(BASIS_ALIASES)),
    "n_basis": ("--n-basis", "basis size", None),
    "tau": ("--tau", "discrepancy parameter", None),
    "alpha0": ("--alpha0", "first regularization parameter", None),
    "theta": ("--theta", "regularization decay factor", None),
    "max_iter": ("--max-iter", "iteration cap", None),
}


def _config_from_args(args) -> tuple:
    """The config with its overrides, and the (problem, basis, truth) its
    validation built."""
    cfg = (ExperimentConfig.from_json(args.config) if args.config
           else ExperimentConfig())
    for name in OVERRIDES:
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    return cfg, cfg.validate()


def cmd_synth(args) -> int:
    cfg, (problem, _, truth) = _config_from_args(args)
    full, coarse, noisy = synthesize_data(problem, truth, cfg.noise, cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    _write_json(cfg.to_dict(), os.path.join(args.out, "config.json"))
    _trace_csv(full, os.path.join(args.out, "trace_clean.csv"))
    _trace_csv(noisy, os.path.join(args.out, "trace_noisy.csv"))
    print(f"wrote clean and noisy traces to {args.out} "
          f"(eta = {noisy.noise_level:.6g})")
    return 0


def cmd_reconstruct(args) -> int:
    cfg, _ = _config_from_args(args)
    code = run_experiment(cfg, args.out)
    with open(os.path.join(args.out, "report.json")) as fh:
        report = json.load(fh)
    if "error" in report:
        print(f"solver failure: {report['error']}")
    else:
        print(f"{cfg.method}: stopped by {report['stop_reason']} after "
              f"{report['iterations']} recorded iterates "
              f"(final residual {report['residuals'][-1]:.6g})")
    return code


def cmd_diagnose(args) -> int:
    cfg, (problem, basis, _) = _config_from_args(args)
    if args.what == "poles" and args.count < 1:
        raise ConfigError("--count must be at least 1")
    if args.what == "poles" and IMPEDANCE in (cfg.bc_left, cfg.bc_right):
        raise ConfigError("diagnose poles needs Dirichlet or Neumann ends")
    if args.what == "svd":
        sigma = InversionContext(problem, basis).frozen_jacobian.svd()[1]
        q = svd_decay(sigma)
        os.makedirs(args.out, exist_ok=True)
        svd_csv(sigma, os.path.join(args.out, "svd.csv"))
        print(f"sigma_max = {sigma[0]:.6g}, sigma_min = {sigma[-1]:.6g}, "
              f"fitted geometric rate q = {q:.6g}")
        return 0
    lam = eigenvalues(problem.bc, args.count)
    pairs = [poles(problem.params.b, problem.params.c2, v) for v in lam]
    report = {
        "eigenvalues": [float(v) for v in lam],
        "bc": f"{problem.bc.left}-{problem.bc.right}",
        "poles": [{"lambda": float(v), "p_plus": [p.real, p.imag],
                   "p_minus": [q.real, q.imag]}
                  for v, (p, q) in zip(lam, pairs)],
        "distinctness": pole_distinctness(lam, pairs),
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "poles.json")
    _write_json(report, path)
    print(f"wrote {args.count} pole pairs to {path} "
          f"(distinct: {report['distinctness']['distinct']})")
    return 0


def cmd_convergence_study(args) -> int:
    cfg, _ = _config_from_args(args)
    if min(args.nx0, args.nt0) < 3:
        raise ConfigError("--nx0 and --nt0 must be at least 3")
    if args.levels < 1:
        raise ConfigError("--levels must be at least 1")
    if IMPEDANCE in (cfg.bc_left, cfg.bc_right):  # f beta does not satisfy it
        raise ConfigError("convergence-study needs Dirichlet or Neumann ends")
    f = EXCITATIONS[cfg.excitation][0]
    beta = TIME_PROFILES[cfg.time_profile][0]
    rows = []
    prev_err = None
    for level in range(args.levels):
        nx = (args.nx0 - 1) * 2**level + 1
        nt = args.nt0 * 2**level
        # the study reads the whole field: no trace node, no projected truth
        problem = build_problem(replace(cfg, nx=nx, nt=nt, obs_point=1.0,
                                        truth_in_span=False))[0]
        state = solve_forward(problem, None)
        exact = np.outer(f(problem.grid.nodes), beta(problem.tgrid.times))
        err = float(np.max(np.abs(state.values - exact)))
        order = np.log2(prev_err / err) if prev_err else float("nan")
        rows.append((nx, nt, err, order))
        prev_err = err
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "convergence.csv"),
              "nx,nt,err_linf,order", rows)
    for nx, nt, err, order in rows:
        print(f"nx={nx:5d} nt={nt:6d}  err={err:.4e}  order={order:.3f}")
    return 0


def _run_sweep_entry(cfg, out_dir, shared: dict) -> int:
    """run_experiment for one entry: an unwritable output is its config error
    (exit 2), any other exception its error report (exit 4)."""
    try:
        try:
            return run_experiment(cfg, out_dir, shared)
        except OSError:
            raise
        except Exception as exc:  # a boundary: the sweep keeps running
            traceback.print_exc()
            return write_error_report(out_dir, f"{type(exc).__name__}: {exc}")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    if not args.config:
        raise ConfigError("sweep requires --config pointing at a run list")
    spec = read_json_config(args.config)
    runs = spec.get("runs") if isinstance(spec, dict) else None
    if not isinstance(runs, list) or not runs:
        raise ConfigError('sweep config must be an object with a nonempty '
                          '"runs" list')
    unknown = sorted(spec.keys() - {"runs"})
    if unknown:
        raise ConfigError(f"unknown sweep key {unknown[0]!r}")
    jobs = []
    for i, entry in enumerate(runs):
        if not isinstance(entry, dict):
            raise ConfigError(f"sweep entry {i} must be a JSON object")
        name = entry.get("name", f"run{i:03d}")
        if not isinstance(name, str):
            raise ConfigError(f"sweep entry {i}: name must be a string")
        try:  # a file name: at most 255 bytes, and encodable
            size = len(os.fsencode(name))
        except UnicodeError:  # a lone surrogate, say
            size = 256
        if name in ("", ".", "..") or size > 255 or any(
                sep and sep in name for sep in ("/", os.sep, os.altsep, "\0")):
            raise ConfigError(f"sweep entry {i}: name {name!r} is not one "
                              "plain path component")
        if any(name == job[0] for job in jobs):
            raise ConfigError(f"sweep entry {i}: name {name!r} is repeated")
        if "config" in entry:
            unknown = sorted(entry.keys() - {"name", "config"})
            if unknown:
                raise ConfigError(f"sweep entry {i}: unknown key "
                                  f"{unknown[0]!r}")
            entry = entry["config"]
        else:  # the entry is the config itself, next to its name
            entry = {k: v for k, v in entry.items() if k != "name"}
        cfg = ExperimentConfig.from_dict(entry)
        jobs.append((name, cfg, os.path.join(args.out, name)))
    shared = {}  # lives for this sweep only: see run_inversion
    codes = []
    for name, cfg, out_dir in jobs:  # each line as soon as its entry ends
        codes.append(_run_sweep_entry(cfg, out_dir, shared))
        print(f"{name}: exit {codes[-1]} -> {out_dir}", flush=True)
    return max(codes)


def _subcommand(sub, name, func, summary, overrides=()):
    """A subparser that takes --config, --out and the override flags of the
    named ExperimentConfig fields; any other flag is a usage error (exit 2)."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(func=func)
    p.add_argument("--config", help="JSON config file (schema 1)")
    settings = {f.name: f for f in fields(ExperimentConfig)}
    for key in overrides:
        flag, text, choices = OVERRIDES[key]
        default = settings[key].default
        p.add_argument(flag, dest=key, type=settings[key].metadata["type"],
                       choices=choices, help=text if default is None
                       else f"{text} (default {default})")
    p.add_argument("--out", default="out", help="output directory")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="westinv",
        description="Reconstruct the space-dependent nonlinearity coefficient "
                    "of the 1-D Westervelt equation from boundary time traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # synth records every setting in config.json
    _subcommand(sub, "synth", cmd_synth, "generate clean and noisy traces",
                OVERRIDES)
    _subcommand(sub, "reconstruct", cmd_reconstruct, "run a reconstruction",
                OVERRIDES)

    p = _subcommand(sub, "diagnose", cmd_diagnose, "ill-posedness diagnostics",
                    ("basis_kind", "n_basis"))
    p.add_argument("what", choices=["svd", "poles"])
    p.add_argument("--count", type=int, default=20,
                   help="number of eigenvalues for the pole table")

    p = _subcommand(sub, "convergence-study", cmd_convergence_study,
                    "manufactured-solution refinement study")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--nx0", type=int, default=26)
    p.add_argument("--nt0", type=int, default=50)

    p = _subcommand(sub, "sweep", cmd_sweep, "run many configs in order")
    p.add_argument("--jobs", type=int, default=1,
                   help="at least 1; no effect, as the entries run in order")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # sizes that cannot be allocated, and an --out that cannot be written
    except (ConfigError, MemoryError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WestinvError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
