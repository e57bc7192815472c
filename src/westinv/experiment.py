"""Experiment orchestration: validated JSON configuration, the end-to-end
reconstruction pipeline and deterministic artifact persistence.

Exit code conventions: 0 when the run stops by discrepancy or stagnation,
2 for configuration errors, 3 when the iteration cap is reached before the
discrepancy level, 4 for forward/adjoint solver failures.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .basis import BasisSet, CoefficientField, clip_nonnegative, project
from .data import (
    DEFAULT_SAMPLE_COUNT,
    prefilter,
    synthesize_data,
    truth_field,
)
from .errors import ConfigError, WestinvError
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
from .trace import TimeTrace, write_csv

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


def _setting(section: str | None, key: str, default):
    """A config field stored as cfg[section][key], or cfg[key] for section
    None; its JSON type is its default's, float where the default is None."""
    return field(default=default, metadata={
        "json": (section, key),
        "type": float if default is None else type(default)})


@dataclass
class ExperimentConfig:
    """Validated experiment description (JSON schema version 1)."""

    nx: int = _setting("grid", "nx", 101)
    nt: int = _setting("time", "nt", 400)
    t_final: float = _setting("time", "t_final", 1.0)
    c2: float = _setting("params", "c2", 1.0)
    b: float = _setting("params", "b", 0.2)
    bc_left: str = _setting("bc", "left", DIRICHLET)
    bc_right: str = _setting("bc", "right", NEUMANN)
    basis_kind: str = _setting("basis", "kind", "gaussian")
    n_basis: int = _setting("basis", "m", 41)
    truth_family: str = _setting("truth", "family", "smooth_bump")
    truth_amplitude: float = _setting("truth", "amplitude", 0.2)
    truth_in_span: bool = _setting("truth", "in_span", False)
    excitation: str = _setting("excitation", "profile", "sine_half")
    time_profile: str = _setting("excitation", "time_profile", "t2")
    noise: float = _setting(None, "noise", 0.01)
    seed: int = _setting(None, "seed", 0)
    sample_count: int = _setting(None, "sample_count", DEFAULT_SAMPLE_COUNT)
    method: str = _setting(None, "method", "newton")
    frozen: bool = _setting("method_options", "frozen", True)
    tau: float = _setting("method_options", "tau", 2.0)
    alpha0: float | None = _setting("method_options", "alpha0", None)
    theta: float = _setting("method_options", "theta", 0.5)
    max_iter: int = _setting("method_options", "max_iter", 20)
    mu: float | None = _setting("method_options", "mu", None)
    diagnostics: bool = _setting(None, "diagnostics", False)
    obs_point: float = _setting(None, "obs_point", 1.0)
    smoothing_s: int = _setting("method_options", "smoothing_s", 0)

    def validate(self, shared: dict | None = None) -> tuple:
        """Raise ConfigError unless a run can be built from this config;
        return what it built, build_problem's (problem, basis, truth).

        Each rule on one value is checked by the constructor that takes it,
        which validate builds as a run would (build_problem, StoppingRule,
        RegularizationSchedule, InversionContext); their ValueError becomes
        ConfigError.  Its own rules span fields (not pure Neumann,
        n_basis <= nx, Halley frozen, no observation at a Dirichlet node),
        meet a run only after its data solve (noise, seed, sample_count, mu)
        or pick code (the method, excitation and time-profile names)."""
        checks = [
            (not (self.bc_left == NEUMANN and self.bc_right == NEUMANN),
             "pure Neumann conditions are not supported"),
            (self.excitation in EXCITATIONS,
             f"unknown excitation {self.excitation!r}"),
            (self.time_profile in TIME_PROFILES,
             f"unknown time profile {self.time_profile!r}"),
            (0 <= self.noise <= 1, "noise must be in [0, 1]"),
            (self.seed >= 0, "seed must be nonnegative"),
            (self.sample_count >= 4, "sample_count must be at least 4"),
            (self.method in METHODS, f"unknown method {self.method!r}"),
            (self.mu is None or 0 < self.mu < np.inf,
             "mu must be finite and positive"),
            (self.n_basis <= self.nx,
             f"n_basis = {self.n_basis} exceeds nx = {self.nx}"),
            (self.method != "halley" or self.frozen,
             "halley runs only frozen; frozen must be true"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        try:
            problem, basis, truth = build_problem(self, shared)
            if problem.obs_index in problem.operator.dirichlet_nodes:
                raise ConfigError(f"obs_point {self.obs_point} is a Dirichlet "
                                  "node, where the trace is identically 0")
            StoppingRule(self.tau, 0.0, self.max_iter)
            RegularizationSchedule(self.alpha0, self.theta)
            InversionContext(problem, basis, self.smoothing_s)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return problem, basis, truth

    def to_dict(self) -> dict:
        out = {"schema": 1}
        for setting in fields(self):
            section, key = setting.metadata["json"]
            target = out if section is None else out.setdefault(section, {})
            target[key] = getattr(self, setting.name)
        return out

    @classmethod
    def from_dict(cls, cfg: dict) -> "ExperimentConfig":
        """Read a schema-1 dict, each field at its place (see _setting).
        "schema" must be the integer 1.  Bool fields take only JSON
        booleans, int fields only integers, float fields only numbers and
        str fields only strings; an unknown key, a value of another type and
        any config validate rejects raise ConfigError."""
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        schema = cfg.get("schema")
        if type(schema) is not int or schema != 1:
            raise ConfigError("config schema must be 1")
        known = {None: {"schema"}}  # JSON section -> its keys
        for setting in fields(cls):
            section, key = setting.metadata["json"]
            known.setdefault(section, set()).add(key)
        known[None] |= known.keys() - {None}
        sections = {s: cfg.get(s, {}) if s else cfg for s in known}
        for section, value in sections.items():
            if not isinstance(value, dict):
                raise ConfigError(
                    f"config section {section!r} must be an object")
        for section, value in sections.items():
            for key in value:
                if key not in known[section]:
                    where = f"{section}.{key}" if section else key
                    raise ConfigError(f"unknown config key {where!r}")
        out = cls()
        try:
            for setting in fields(cls):
                section, key = setting.metadata["json"]
                if key in sections[section]:
                    setattr(out, setting.name,
                            _typed(setting, sections[section][key]))
            out.validate()
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc
        return out

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json_config(path))


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string"}


def _typed(setting, value):
    """A JSON value checked against its ExperimentConfig field's type.  A
    bool is not a number here; None is accepted where the field defaults to
    None."""
    kind = setting.metadata["type"]
    if value is None and setting.default is None:
        return value
    if not (isinstance(value, (int, float) if kind is float else kind)
            and (kind is bool or not isinstance(value, bool))):
        raise ConfigError(f"{setting.name} must be {_TYPE_NAMES[kind]}, "
                          f"got {value!r}")
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


def build_problem(cfg: ExperimentConfig, shared: dict | None = None):
    """Construct the forward problem, the basis and the truth field.  With
    shared (see run_inversion), the problem is the first one built there
    for the config fields that Problem reads."""
    key = (cfg.nx, cfg.nt, cfg.t_final, cfg.c2, cfg.b, cfg.bc_left,
           cfg.bc_right, cfg.excitation, cfg.time_profile, cfg.obs_point,
           cfg.sample_count)
    problem = None if shared is None else shared.get(key)
    if problem is None:
        grid = SpatialGrid(cfg.nx)
        tgrid = TimeGrid(cfg.nt, cfg.t_final)
        params = MaterialParams(cfg.c2, cfg.b)
        bc = BoundaryCondition(cfg.bc_left, cfg.bc_right)
        f, f_xx = EXCITATIONS[cfg.excitation]
        beta, beta_t, beta_tt = TIME_PROFILES[cfg.time_profile]
        # an overflowing profile is reported by Problem as non-finite values
        with np.errstate(over="ignore", invalid="ignore"):
            source = manufactured_source(f, f_xx, beta, beta_t, beta_tt,
                                         params, grid, tgrid, bc)
        problem = Problem(
            params, grid, tgrid, bc, source, obs_point=cfg.obs_point,
            sample_times=np.linspace(0.0, cfg.t_final, cfg.sample_count),
        )
        if shared is not None:
            shared[key] = problem
    grid = problem.grid
    basis = BasisSet(BASIS_ALIASES.get(cfg.basis_kind, cfg.basis_kind),
                     cfg.n_basis)
    truth = truth_field(cfg.truth_family, grid, cfg.truth_amplitude)
    if cfg.truth_in_span:
        # project onto the basis, then clip: the iterates are clipped after
        # every step, so an attainable truth must be nonnegative as well
        coeffs = project(basis, truth.samples, grid)
        truth = clip_nonnegative(
            CoefficientField.from_coefficients(basis, coeffs, grid)
        )
    return problem, basis, truth


def run_inversion(cfg: ExperimentConfig, shared: dict | None = None):
    """Validate cfg, synthesize data and run the configured method.  shared,
    a dictionary that lives for one sweep, holds the sweep's Problems and,
    per (problem, truth samples), the clean traces: the entries share their
    deterministic kappa = 0 caches and clean solves and add their own noise,
    so sharing changes no bits.  A failed solve stores nothing."""
    problem, basis, truth = cfg.validate(shared)
    key = (problem, truth.samples.tobytes())  # of the clean traces in shared
    clean = None if shared is None else shared.get(key)
    full, coarse, noisy = synthesize_data(problem, truth, cfg.noise, cfg.seed,
                                          clean)
    if shared is not None:
        shared[key] = (full, coarse)
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
    write_csv(path, "t,h", zip(trace.times, trace.values))


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

    write_csv(os.path.join(out_dir, "kappa_final.csv"),
              "x,kappa_true,kappa_rec", zip(result.truth.grid.nodes,
                                            result.truth.samples,
                                            result.report.final.samples))

    if result.sigma is not None:
        svd_csv(result.sigma, os.path.join(out_dir, "svd.csv"))


def write_error_report(out_dir, message: str) -> int:
    """Write a failed run's report.json; returns EXIT_SOLVER."""
    os.makedirs(out_dir, exist_ok=True)
    _write_json({"error": message, "exit_code": EXIT_SOLVER},
                os.path.join(out_dir, "report.json"))
    return EXIT_SOLVER


def run_experiment(cfg: ExperimentConfig, out_dir, shared=None) -> int:
    """End-to-end pipeline (shared as in run_inversion); returns the process
    exit code."""
    try:
        result = run_inversion(cfg, shared)
    except ConfigError:
        raise
    except WestinvError as exc:
        return write_error_report(out_dir, str(exc))
    write_artifacts(result, out_dir)
    return result.exit_code
