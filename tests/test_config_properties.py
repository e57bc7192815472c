"""Property tests of the JSON config schema (round trip, a named exit for
every valid config's run, and rejection of values of the wrong JSON type
and of unknown keys) and of the exported scalar entry points, which take
any float or small integer (Problem also lists of them as its sample
times)."""

import json
import os
import re
import tempfile

import numpy as np
import pytest

from westinv import (
    BasisSet,
    BoundaryCondition,
    ConfigError,
    DegeneracyError,
    ExperimentConfig,
    MaterialParams,
    Problem,
    RegularizationSchedule,
    SpatialGrid,
    StateField,
    StoppingRule,
    TimeGrid,
    TimeTrace,
    WestinvError,
    eigenvalues,
    evaluate_basis,
    poles,
    prefilter,
    run_experiment,
    run_inversion,
    truth_field,
)
from westinv.data import TRUTH_FAMILIES
from westinv.experiment import (
    BASIS_ALIASES,
    EXIT_MAX_ITER,
    EXIT_OK,
    EXIT_SOLVER,
    METHODS,
    TIME_PROFILES,
)
from westinv.forward import POSITIVITY_FLOOR

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=30, deadline=None, database=None)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def valid_configs(draw, max_nx=60, max_nt=500, max_samples=200,
                  max_iter=100):
    nx = draw(st.integers(3, max_nx))
    method = draw(st.sampled_from(METHODS))
    # sine_half, the one excitation, vanishes only at x = 0 and is flat only
    # at x = 1; every method observes at any node but a Dirichlet one
    bc_left = draw(st.sampled_from(["dirichlet", "impedance"]))
    obs = draw(st.integers(int(bc_left == "dirichlet"), nx - 1))
    frozen = True if method == "halley" else draw(st.booleans())
    return ExperimentConfig(
        nx=nx,
        nt=draw(st.integers(3, max_nt)),
        t_final=draw(floats(0.01, 10.0)),
        c2=draw(floats(0.01, 10.0)),
        b=draw(floats(0.001, 1.0)),
        bc_left=bc_left,
        bc_right=draw(st.sampled_from(["neumann", "impedance"])),
        basis_kind=draw(st.sampled_from(sorted(BASIS_ALIASES))),
        n_basis=draw(st.integers(1, nx)),
        truth_family=draw(st.sampled_from(sorted(TRUTH_FAMILIES))),
        truth_amplitude=draw(floats(0.0, 1.0)),
        truth_in_span=draw(st.booleans()),
        time_profile=draw(st.sampled_from(sorted(TIME_PROFILES))),
        noise=draw(floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32)),
        sample_count=draw(st.integers(4, max_samples)),
        method=method,
        frozen=frozen,
        tau=draw(floats(1.01, 10.0)),
        alpha0=draw(st.none() | floats(1e-6, 1e3)),
        theta=draw(floats(0.01, 0.99)),
        max_iter=draw(st.integers(1, max_iter)),
        mu=draw(st.none() | floats(1e-6, 1.0)),
        diagnostics=draw(st.booleans()),
        obs_point=obs / (nx - 1),
        smoothing_s=draw(st.sampled_from([0, 1])),
    )


def typed_leaves(d):
    """(section or None, key) of every bool, int or float value."""
    for key, value in d.items():
        if isinstance(value, dict):
            yield from ((key, k) for k, v in value.items()
                        if isinstance(v, (bool, int, float)))
        elif key != "schema" and isinstance(value, (bool, int, float)):
            yield None, key


@SETTINGS
@hypothesis.given(valid_configs())
def test_config_json_round_trip(cfg):
    cfg.validate()
    text = json.dumps(cfg.to_dict())
    assert ExperimentConfig.from_dict(json.loads(text)) == cfg


@hypothesis.settings(max_examples=50, deadline=None, database=None)
@hypothesis.given(valid_configs(max_nx=30, max_nt=120, max_samples=40,
                                max_iter=4))
def test_every_valid_config_runs_to_a_named_exit(cfg):
    # a small run of any valid config, with RuntimeWarning an error (see
    # pyproject.toml), ends in exit 0, 3 or 4 and never in a traceback; its
    # report.json carries the code, a run that ended carries finite
    # residuals, and a run that failed reports a solver error whose
    # condition holds
    with tempfile.TemporaryDirectory() as out:
        code = run_experiment(cfg, out)
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
    assert code in (EXIT_OK, EXIT_MAX_ITER, EXIT_SOLVER)
    assert report["exit_code"] == code
    if code != EXIT_SOLVER:
        assert np.all(np.isfinite(report["residuals"]))
        return
    with pytest.raises(WestinvError) as info:
        run_inversion(cfg)
    assert not isinstance(info.value, ConfigError)
    assert report["error"] == str(info.value)
    if isinstance(info.value, DegeneracyError):
        margin = re.match(r"1 - 2\*kappa\*p = (\S+) fell below", report["error"])
        assert float(margin[1]) <= POSITIVITY_FLOOR


@SETTINGS
@hypothesis.given(valid_configs(), st.data())
def test_config_wrong_type_raises(cfg, data):
    d = cfg.to_dict()
    section, key = data.draw(st.sampled_from(sorted(
        typed_leaves(d), key=lambda sk: (sk[0] or "", sk[1]))))
    target = d if section is None else d[section]
    value = target[key]
    bad = [str(value)]
    if isinstance(value, int) and not isinstance(value, bool):
        bad.append(value + 0.5)
    for replacement in bad:
        target[key] = replacement
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)


@SETTINGS
@hypothesis.given(valid_configs(), st.data())
def test_config_unknown_key_raises(cfg, data):
    d = cfg.to_dict()
    section = data.draw(st.sampled_from(
        [None] + sorted(k for k, v in d.items() if isinstance(v, dict))))
    target = d if section is None else d[section]
    key = data.draw(st.text(min_size=1).filter(lambda k: k not in target))
    target[key] = 0
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig.from_dict(d)


# any float, with NaN, the infinities and the float limits drawn often, and
# integers about [-5, 60]; nx, nt and m also take floats, since their
# owners refuse non-integers
FLOATS = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1.0,
                          np.finfo(float).max, 5e-324]) | st.floats()
INTS = st.integers(-5, 60)
PAIRS = [BoundaryCondition(left, right)
         for left in ("dirichlet", "neumann", "impedance")
         for right in ("dirichlet", "neumann", "impedance")]
GRID, TGRID = SpatialGrid(11), TimeGrid(10)
RAW = TimeTrace(np.linspace(0.0, 1.0, 8), np.sin(np.arange(8.0)))


def _attrs(obj, *names):
    return [getattr(obj, name) for name in names]


def _problem_values(obs_point, sample_times):
    # one finite value per sample time, of a trace that is not constant
    problem = Problem(MaterialParams(), GRID, TGRID, BoundaryCondition(),
                      np.zeros((11, 11)), obs_point=obs_point,
                      sample_times=sample_times)
    state = StateField(np.sin(np.add.outer(GRID.nodes, 7.0 * TGRID.times)),
                       GRID, TGRID)
    trace = problem.sampled_trace(state)
    assert trace.shape == (len(problem.sample_times),) == (
        problem.sample_times.shape)
    return [problem.obs_index, problem.sample_times, trace]


def _basis_values(kind, m, sigma):
    basis = BasisSet(kind, m, sigma)
    return [*_attrs(basis, "sigma", "spacing", "nodes"),
            evaluate_basis(basis, GRID)]


# entry point -> (argument strategies, call returning the values to check)
ENTRY_POINTS = {
    "SpatialGrid": ((INTS | FLOATS,),
                    lambda nx: _attrs(SpatialGrid(nx), "dx", "nodes")),
    "TimeGrid": ((INTS | FLOATS, FLOATS),
                 lambda nt, t: _attrs(TimeGrid(nt, t), "dt", "times")),
    "MaterialParams": ((FLOATS, FLOATS),
                       lambda c2, b: _attrs(MaterialParams(c2, b), "c2", "b")),
    "BasisSet": ((st.sampled_from(["gaussian", "hat", "haar"]), INTS | FLOATS,
                  st.none() | FLOATS), _basis_values),
    "StoppingRule": ((FLOATS, FLOATS, INTS),
                     lambda tau, delta, n: _attrs(StoppingRule(tau, delta, n),
                                                  "tau", "delta")),
    "RegularizationSchedule": (
        (st.none() | FLOATS, FLOATS),
        lambda alpha0, theta: _attrs(RegularizationSchedule(alpha0, theta),
                                     "alpha0", "theta")),
    "truth_field": ((st.sampled_from(sorted(TRUTH_FAMILIES)), INTS, FLOATS),
                    lambda name, nx, amplitude: [truth_field(
                        name, SpatialGrid(nx), amplitude).samples]),
    "Problem": ((FLOATS, st.none() | FLOATS | st.lists(FLOATS, max_size=4)
                 | st.lists(st.lists(FLOATS, min_size=2, max_size=2),
                            min_size=1, max_size=2)), _problem_values),
    "prefilter": ((INTS,), lambda nt: _attrs(prefilter(RAW, nt), "times",
                                             "values", "noise_level")),
    "poles": ((FLOATS, FLOATS, FLOATS), lambda *args: list(poles(*args))),
    "eigenvalues": ((st.sampled_from(PAIRS), INTS),
                    lambda bc, count: [eigenvalues(bc, count)]),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@hypothesis.settings(max_examples=50, deadline=None, database=None)
@hypothesis.given(data=st.data())
def test_entry_points_return_finite_values_or_raise_value_error(name, data):
    # no OverflowError, IndexError, TypeError or ZeroDivisionError, and no
    # RuntimeWarning, which pytest turns into an error
    strategies, call = ENTRY_POINTS[name]
    args = data.draw(st.tuples(*strategies))
    try:
        values = call(*args)
    except ValueError:
        return
    for value in values:
        assert value is None or np.all(np.isfinite(value)), (name, args)
