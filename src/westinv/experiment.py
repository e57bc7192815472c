"""Experiment orchestration: validated JSON configuration, the end-to-end
reconstruction pipeline and deterministic artifact persistence.

Exit code conventions: 0 when the run stops by discrepancy or stagnation,
2 for configuration errors, 3 when the iteration cap is reached before the
discrepancy level, 4 for forward/adjoint solver failures.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet, CoefficientField, clip_nonnegative, project
from .data import (
    DEFAULT_SAMPLE_COUNT,
    prefilter,
    synthesize_data,
    truth_field,
)
from .errors import ConfigError, IncompatibleBCError, OffGridError, WestinvError
from .forward import Problem, manufactured_source
from .grids import (
    DIRICHLET,
    NEUMANN,
    BoundaryCondition,
    MaterialParams,
    SpatialGrid,
    TimeGrid,
)
from .inversion import (
    InversionContext,
    RegularizationSchedule,
    StoppingRule,
    halley_run,
    landweber_run,
    newton_lm_run,
)
from .spectra import svd_csv, svd_decay
from .trace import TimeTrace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MAX_ITER = 3
EXIT_SOLVER = 4

METHODS = ("landweber", "newton", "halley")
BASIS_ALIASES = {"gauss": "gaussian", "gaussian": "gaussian",
                 "hat": "hat", "haar": "haar"}

EXCITATIONS = {
    # excitation spatial profile f(x) and its second derivative
    "sine_half": (
        lambda x: np.sin(np.pi * x / 2),
        lambda x: -((np.pi / 2) ** 2) * np.sin(np.pi * x / 2),
    ),
}

TIME_PROFILES = {
    # beta(t), beta'(t), beta''(t); all vanish to first order at t = 0
    "t2": (lambda t: t**2, lambda t: 2 * t, lambda t: 2 * np.ones_like(t)),
    "t3": (lambda t: t**3, lambda t: 3 * t**2, lambda t: 6 * t),
    # smooth ramp to 1: keeps the pressure near its peak for most of the
    # window, which maximizes the coefficient signal in the trace
    "ramp": (
        lambda t: 0.5 * (1 - np.cos(np.pi * np.minimum(t, 1.0))),
        lambda t: 0.5 * np.pi * np.sin(np.pi * np.minimum(t, 1.0)),
        lambda t: 0.5 * np.pi**2 * np.cos(np.pi * np.minimum(t, 1.0))
        * (t <= 1.0),
    ),
}


@dataclass
class ExperimentConfig:
    """Validated experiment description (JSON schema version 1)."""

    nx: int = 101
    nt: int = 400
    t_final: float = 1.0
    c2: float = 1.0
    b: float = 0.2
    bc_left: str = DIRICHLET
    bc_right: str = NEUMANN
    basis_kind: str = "gaussian"
    n_basis: int = 41
    truth_family: str = "smooth_bump"
    truth_amplitude: float = 0.2
    truth_in_span: bool = False
    excitation: str = "sine_half"
    time_profile: str = "t2"
    noise: float = 0.01
    seed: int = 0
    sample_count: int = DEFAULT_SAMPLE_COUNT
    method: str = "newton"
    frozen: bool = True
    tau: float = 2.0
    alpha0: float | None = None
    theta: float = 0.5
    max_iter: int = 20
    mu: float | None = None
    diagnostics: bool = False
    obs_point: float = 1.0
    smoothing_s: int = 0

    def validate(self) -> None:
        """Raise ConfigError unless a run can be built from this config.

        Checked here, as no constructor owns them: finite floats, nx and nt
        at least 3, not pure Neumann, the basis, excitation, time profile
        and method names, noise and seed nonnegative, sample_count at least
        4, mu positive, n_basis at most nx, Halley frozen and Landweber
        observing at x = 1.  The rest comes from building what a run builds
        (build_problem, StoppingRule, RegularizationSchedule and
        InversionContext): their ValueError, IncompatibleBCError and
        OffGridError become ConfigError."""
        for name, value in vars(self).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        checks = [
            (self.nx >= 3, "nx must be at least 3"),
            (self.nt >= 3, "nt must be at least 3"),
            (not (self.bc_left == NEUMANN and self.bc_right == NEUMANN),
             "pure Neumann conditions are not supported"),
            (self.basis_kind in BASIS_ALIASES,
             f"unknown basis {self.basis_kind!r}"),
            (self.excitation in EXCITATIONS,
             f"unknown excitation {self.excitation!r}"),
            (self.time_profile in TIME_PROFILES,
             f"unknown time profile {self.time_profile!r}"),
            (self.noise >= 0, "noise must be nonnegative"),
            (self.seed >= 0, "seed must be nonnegative"),
            (self.sample_count >= 4, "sample_count must be at least 4"),
            (self.method in METHODS, f"unknown method {self.method!r}"),
            (self.mu is None or self.mu > 0, "mu must be positive"),
            (self.n_basis <= self.nx,
             f"n_basis = {self.n_basis} exceeds nx = {self.nx}"),
            (self.method != "halley" or self.frozen,
             "halley runs only frozen; frozen must be true"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        try:
            problem, basis, _ = build_problem(self)
            StoppingRule(self.tau, 0.0, self.max_iter)
            RegularizationSchedule(self.alpha0, self.theta)
            InversionContext(problem, basis, self.smoothing_s)
        except (ValueError, IncompatibleBCError, OffGridError) as exc:
            raise ConfigError(str(exc)) from exc
        if self.method == "landweber" and problem.obs_index != self.nx - 1:
            # the adjoint solve takes the residual as a boundary flux there
            raise ConfigError("landweber needs obs_point 1.0, got "
                              f"{self.obs_point}")

    def to_dict(self) -> dict:
        out = {"schema": 1}
        for name, (section, key, _) in _SCHEMA.items():
            target = out if section is None else out.setdefault(section, {})
            target[key] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, cfg: dict) -> "ExperimentConfig":
        """Read a schema-1 dict.  "schema" must be the integer 1.  Bool
        fields take only JSON booleans, int fields only integers and float
        fields only numbers; an unknown key, a value of another type and any
        config validate rejects raise ConfigError."""
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        schema = cfg.get("schema")
        if type(schema) is not int or schema != 1:
            raise ConfigError("config schema must be 1")
        sections = {None: cfg}
        for section, _, _ in _SCHEMA.values():
            value = cfg.get(section, {}) if section else cfg
            if not isinstance(value, dict):
                raise ConfigError(
                    f"config section {section!r} must be an object")
            sections[section] = value
        for section, value in sections.items():
            known = {key for s, key, _ in _SCHEMA.values() if s == section}
            if section is None:
                known |= {"schema", *sections}
            for key in value:
                if key not in known:
                    where = f"{section}.{key}" if section else key
                    raise ConfigError(f"unknown config key {where!r}")
        out = cls()
        try:
            for name, (section, key, kind) in _SCHEMA.items():
                if key in sections[section]:
                    setattr(out, name,
                            _typed(name, sections[section][key], kind))
            out.validate()
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc
        return out

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json_config(path))


# ExperimentConfig field -> (JSON section, None for the top level; key; type)
_SCHEMA = {
    "nx": ("grid", "nx", int),
    "nt": ("time", "nt", int),
    "t_final": ("time", "t_final", float),
    "c2": ("params", "c2", float),
    "b": ("params", "b", float),
    "bc_left": ("bc", "left", str),
    "bc_right": ("bc", "right", str),
    "basis_kind": ("basis", "kind", str),
    "n_basis": ("basis", "m", int),
    "truth_family": ("truth", "family", str),
    "truth_amplitude": ("truth", "amplitude", float),
    "truth_in_span": ("truth", "in_span", bool),
    "excitation": ("excitation", "profile", str),
    "time_profile": ("excitation", "time_profile", str),
    "noise": (None, "noise", float),
    "seed": (None, "seed", int),
    "sample_count": (None, "sample_count", int),
    "method": (None, "method", str),
    "frozen": ("method_options", "frozen", bool),
    "tau": ("method_options", "tau", float),
    "alpha0": ("method_options", "alpha0", float),
    "theta": ("method_options", "theta", float),
    "max_iter": ("method_options", "max_iter", int),
    "mu": ("method_options", "mu", float),
    "smoothing_s": ("method_options", "smoothing_s", int),
    "diagnostics": (None, "diagnostics", bool),
    "obs_point": (None, "obs_point", float),
}

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number"}


def _typed(name: str, value, kind):
    """A JSON value checked against its field's type.  A bool is not a
    number here; None is accepted where the field defaults to None; strings
    are left to validate, which checks them against the known names."""
    if kind is str or (value is None
                       and getattr(ExperimentConfig, name) is None):
        return value
    if kind is bool:
        ok = isinstance(value, bool)
    else:
        ok = (not isinstance(value, bool)
              and isinstance(value, int if kind is int else (int, float)))
    if not ok:
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def read_json_config(path):
    """Parse a JSON config file; unreadable, malformed or too deeply nested
    files raise ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


@dataclass
class ExperimentResult:
    """In-memory results of an experiment run."""

    config: ExperimentConfig
    report: object
    truth: CoefficientField
    exit_code: int
    delta: float
    eta: float
    sigma: np.ndarray | None = None
    q: float | None = None
    traces: dict = field(default_factory=dict)


def build_problem(cfg: ExperimentConfig):
    """Construct the forward problem, the basis and the truth field."""
    grid = SpatialGrid(cfg.nx)
    tgrid = TimeGrid(cfg.nt, cfg.t_final)
    params = MaterialParams(cfg.c2, cfg.b)
    bc = BoundaryCondition.from_kinds(cfg.bc_left, cfg.bc_right)
    basis = BasisSet(BASIS_ALIASES[cfg.basis_kind], cfg.n_basis)
    f, f_xx = EXCITATIONS[cfg.excitation]
    beta, beta_t, beta_tt = TIME_PROFILES[cfg.time_profile]
    # an overflowing profile is reported by SourceTerm as non-finite values
    with np.errstate(over="ignore", invalid="ignore"):
        source = manufactured_source(f, f_xx, beta, beta_t, beta_tt, params,
                                     grid, tgrid, bc)
    problem = Problem(
        params, grid, tgrid, bc, source, obs_point=cfg.obs_point,
        sample_times=np.linspace(0.0, cfg.t_final, cfg.sample_count),
    )
    truth = truth_field(cfg.truth_family, grid, cfg.truth_amplitude)
    if cfg.truth_in_span:
        # project onto the basis, then clip: the iterates are clipped after
        # every step, so an attainable truth must be nonnegative as well
        coeffs = project(basis, truth.samples, grid)
        truth = clip_nonnegative(
            CoefficientField.from_coefficients(basis, coeffs, grid)
        )
    return problem, basis, truth


def run_inversion(cfg: ExperimentConfig):
    """Synthesize data and run the configured reconstruction method."""
    problem, basis, truth = build_problem(cfg)
    full, coarse, noisy = synthesize_data(problem, truth, cfg.noise, cfg.seed)
    filtered = prefilter(noisy, problem.tgrid.nt)
    eta = noisy.noise_level
    delta = np.sqrt(cfg.sample_count) * eta  # Euclidean norm on the samples

    ctx = InversionContext(problem, basis, smoothing_s=cfg.smoothing_s)
    init = CoefficientField.from_coefficients(
        basis, np.zeros(basis.m), problem.grid
    )
    stop = StoppingRule(cfg.tau, delta, cfg.max_iter)
    reg = RegularizationSchedule(cfg.alpha0, cfg.theta)
    if cfg.method == "landweber":
        report = landweber_run(noisy, init, cfg.frozen, cfg.mu, stop, ctx,
                               truth=truth)
    elif cfg.method == "newton":
        report = newton_lm_run(noisy, init, cfg.frozen, reg, stop, ctx,
                               truth=truth)
    else:
        report = halley_run(noisy, init, reg, stop, ctx, truth=truth)

    sigma = q = None
    if cfg.diagnostics:
        sigma = ctx.frozen_jacobian.svd()[1]
        q = svd_decay(sigma)

    exit_code = EXIT_OK if report.stop_reason in ("discrepancy", "stagnation") \
        else EXIT_MAX_ITER
    return ExperimentResult(
        cfg, report, truth, exit_code, delta, eta, sigma, q,
        traces={"clean": full, "coarse": coarse, "noisy": noisy,
                "filtered": filtered},
    )


def _trace_csv(trace: TimeTrace, path) -> None:
    with open(path, "w") as fh:
        fh.write("t,h\n")
        for t, h in zip(trace.times, trace.values):
            fh.write(f"{t:.17g},{h:.17g}\n")


def _write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_artifacts(result: ExperimentResult, out_dir) -> None:
    """Persist the experiment artifacts to out_dir (deterministic bytes)."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = result.config
    _write_json(cfg.to_dict(), os.path.join(out_dir, "config.json"))
    _trace_csv(result.traces["clean"], os.path.join(out_dir, "trace_clean.csv"))
    _trace_csv(result.traces["noisy"], os.path.join(out_dir, "trace_noisy.csv"))
    _trace_csv(result.traces["filtered"],
               os.path.join(out_dir, "trace_filtered.csv"))

    report = result.report.to_dict()
    report.update({
        "method": cfg.method,
        "noise_level": cfg.noise,
        "eta": float(result.eta),
        "delta": float(result.delta),
        "noise_norm": "max-norm bound eta; discrepancy uses sqrt(ns)*eta "
                      "in the Euclidean sample norm",
        "seed": cfg.seed,
        "exit_code": result.exit_code,
    })
    if result.q is not None:
        report["svd_decay_rate"] = float(result.q)
    _write_json(report, os.path.join(out_dir, "report.json"))

    result.report.history_csv(os.path.join(out_dir, "history.csv"))

    grid = result.truth.grid
    rec = result.report.final.samples
    with open(os.path.join(out_dir, "kappa_final.csv"), "w") as fh:
        fh.write("x,kappa_true,kappa_rec\n")
        for x, kt, kr in zip(grid.nodes, result.truth.samples, rec):
            fh.write(f"{x:.17g},{kt:.17g},{kr:.17g}\n")

    if result.sigma is not None:
        svd_csv(result.sigma, os.path.join(out_dir, "svd.csv"))


def write_error_report(out_dir, message: str) -> int:
    """Write a failed run's report.json; returns EXIT_SOLVER."""
    os.makedirs(out_dir, exist_ok=True)
    _write_json({"error": message, "exit_code": EXIT_SOLVER},
                os.path.join(out_dir, "report.json"))
    return EXIT_SOLVER


def run_experiment(cfg: ExperimentConfig, out_dir) -> int:
    """End-to-end pipeline; returns the process exit code."""
    cfg.validate()
    try:
        result = run_inversion(cfg)
    except WestinvError as exc:
        return write_error_report(out_dir, str(exc))
    write_artifacts(result, out_dir)
    return result.exit_code
