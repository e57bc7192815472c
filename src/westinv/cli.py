"""Command-line interface: data synthesis, reconstruction, diagnostics,
a manufactured-solution convergence study and concurrent parameter sweeps."""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .data import synthesize_data
from .errors import ConfigError, WestinvError
from .experiment import (
    EXCITATIONS,
    EXIT_CONFIG,
    EXIT_SOLVER,
    TIME_PROFILES,
    ExperimentConfig,
    _trace_csv,
    build_problem,
    read_json_config,
    run_experiment,
    write_error_report,
)
from .forward import Problem, manufactured_source, solve_forward
from .grids import BoundaryCondition, MaterialParams, SpatialGrid, TimeGrid
from .inversion import InversionContext
from .spectra import SpectralData, pole_distinctness, svd_csv, svd_decay


def _add_common_flags(parser):
    parser.add_argument("--config", help="JSON config file (schema 1)")
    parser.add_argument("--method", choices=["landweber", "newton", "halley"])
    parser.add_argument("--noise", type=float, help="relative noise level")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--basis", choices=["hat", "gauss", "haar"])
    parser.add_argument("--n-basis", type=int, default=None,
                        help="basis size (default 41)")
    parser.add_argument("--tau", type=float, default=None,
                        help="discrepancy parameter (default 2.0)")
    parser.add_argument("--alpha0", type=float, default=None)
    parser.add_argument("--theta", type=float, default=None,
                        help="regularization decay factor (default 0.5)")
    parser.add_argument("--max-iter", type=int, default=None)
    parser.add_argument("--out", default="out", help="output directory")


def _config_from_args(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = ExperimentConfig()
    overrides = {
        "method": getattr(args, "method", None),
        "noise": getattr(args, "noise", None),
        "seed": getattr(args, "seed", None),
        "basis_kind": getattr(args, "basis", None),
        "n_basis": getattr(args, "n_basis", None),
        "tau": getattr(args, "tau", None),
        "alpha0": getattr(args, "alpha0", None),
        "theta": getattr(args, "theta", None),
        "max_iter": getattr(args, "max_iter", None),
    }
    for name, value in overrides.items():
        if value is not None:
            setattr(cfg, name, value)
    cfg.validate()
    return cfg


def cmd_synth(args) -> int:
    cfg = _config_from_args(args)
    problem, _, truth = build_problem(cfg)
    full, coarse, noisy = synthesize_data(problem, truth, cfg.noise, cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "config.json"), "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _trace_csv(full, os.path.join(args.out, "trace_clean.csv"))
    _trace_csv(noisy, os.path.join(args.out, "trace_noisy.csv"))
    print(f"wrote clean and noisy traces to {args.out} "
          f"(eta = {noisy.noise_level:.6g})")
    return 0


def cmd_reconstruct(args) -> int:
    cfg = _config_from_args(args)
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
    cfg = _config_from_args(args)
    if args.what == "poles" and args.count < 1:
        raise ConfigError("--count must be at least 1")
    os.makedirs(args.out, exist_ok=True)
    problem, basis, _ = build_problem(cfg)
    if args.what == "svd":
        sigma = InversionContext(problem, basis).frozen_jacobian().svd()[1]
        q = svd_decay(sigma)
        svd_csv(sigma, os.path.join(args.out, "svd.csv"))
        print(f"sigma_max = {sigma[0]:.6g}, sigma_min = {sigma[-1]:.6g}, "
              f"fitted geometric rate q = {q:.6g}")
        return 0
    params = problem.params
    spec = SpectralData.build(problem.bc, args.count, params.b, params.c2)
    report = {
        "eigenvalues": [float(v) for v in spec.eigenvalues],
        "bc": spec.bc_tag,
        "poles": spec.pole_table(),
        "distinctness": pole_distinctness(spec),
    }
    path = os.path.join(args.out, "poles.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.count} pole pairs to {path} "
          f"(distinct: {report['distinctness']['distinct']})")
    return 0


def cmd_convergence_study(args) -> int:
    cfg = _config_from_args(args)
    if min(args.nx0, args.nt0) < 3:
        raise ConfigError("--nx0 and --nt0 must be at least 3")
    if args.levels < 1:
        raise ConfigError("--levels must be at least 1")
    params = MaterialParams(cfg.c2, cfg.b)
    bc = BoundaryCondition.from_kinds(cfg.bc_left, cfg.bc_right)
    f, f_xx = EXCITATIONS["sine_half"]
    beta, beta_t, beta_tt = TIME_PROFILES["t2"]
    rows = []
    prev_err = None
    for level in range(args.levels):
        nx = (args.nx0 - 1) * 2**level + 1
        nt = args.nt0 * 2**level
        grid, tgrid = SpatialGrid(nx), TimeGrid(nt, cfg.t_final)
        source = manufactured_source(f, f_xx, beta, beta_t, beta_tt, params,
                                     grid, tgrid, bc)
        state = solve_forward(Problem(params, grid, tgrid, bc, source), None)
        exact = f(grid.nodes)[:, None] * beta(tgrid.times)[None, :]
        err = float(np.max(np.abs(state.values - exact)))
        order = np.log2(prev_err / err) if prev_err else float("nan")
        rows.append((nx, nt, err, order))
        prev_err = err
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "convergence.csv")
    with open(path, "w") as fh:
        fh.write("nx,nt,err_linf,order\n")
        for nx, nt, err, order in rows:
            fh.write(f"{nx},{nt},{err:.17g},{order:.17g}\n")
    for nx, nt, err, order in rows:
        print(f"nx={nx:5d} nt={nt:6d}  err={err:.4e}  order={order:.3f}")
    return 0


def _run_sweep_entry(job) -> int:
    """run_experiment for one sweep entry.  Any other exception becomes this
    entry's error report (exit 4), so the other entries still finish."""
    _, cfg, out_dir = job
    try:
        return run_experiment(cfg, out_dir)
    except Exception as exc:  # a boundary: the sweep keeps running
        traceback.print_exc()
        return write_error_report(out_dir, f"{type(exc).__name__}: {exc}")


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
        if name in ("", ".", "..") or any(
                sep and sep in name for sep in ("/", os.sep, os.altsep)):
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
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        codes = list(pool.map(_run_sweep_entry, jobs))
    for (name, _, out_dir), code in zip(jobs, codes):
        print(f"{name}: exit {code} -> {out_dir}")
    return max(codes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="westinv",
        description="Reconstruct the space-dependent nonlinearity coefficient "
                    "of the 1-D Westervelt equation from boundary time traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate clean and noisy traces")
    _add_common_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("reconstruct", help="run a reconstruction")
    _add_common_flags(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("diagnose", help="ill-posedness diagnostics")
    p.add_argument("what", choices=["svd", "poles"])
    p.add_argument("--count", type=int, default=20,
                   help="number of eigenvalues for the pole table")
    _add_common_flags(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("convergence-study",
                       help="manufactured-solution refinement study")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--nx0", type=int, default=26)
    p.add_argument("--nt0", type=int, default=50)
    _add_common_flags(p)
    p.set_defaults(func=cmd_convergence_study)

    p = sub.add_parser("sweep", help="run many configs concurrently")
    p.add_argument("--jobs", type=int, default=4)
    _add_common_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WestinvError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
