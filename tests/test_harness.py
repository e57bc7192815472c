"""End-to-end harness: data synthesis, noise and prefiltering, config
validation, artifact persistence, exit codes and the command-line interface."""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import westinv
from westinv import (
    BoundaryCondition,
    ConfigError,
    ExperimentConfig,
    MaterialParams,
    Problem,
    SpatialGrid,
    TimeGrid,
    TimeTrace,
    add_noise,
    manufactured_source,
    prefilter,
    run_experiment,
    run_inversion,
    synthesize_data,
    truth_field,
)
from westinv.cli import main as cli_main
from westinv.experiment import (
    EXIT_CONFIG,
    EXIT_MAX_ITER,
    EXIT_OK,
    EXIT_SOLVER,
    build_problem,
)

PARAMS = MaterialParams(c2=1.0, b=0.2)
BC = BoundaryCondition("dirichlet", "neumann")


def small_config(**overrides):
    cfg = ExperimentConfig(nx=41, nt=80, n_basis=7, sample_count=25,
                           max_iter=4, noise=0.01, alpha0=1.0)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def make_data(noise, seed, sample_count=30):
    grid, tgrid = SpatialGrid(41), TimeGrid(80)
    f = lambda x: np.sin(np.pi * x / 2)
    f_xx = lambda x: -((np.pi / 2) ** 2) * np.sin(np.pi * x / 2)
    source = manufactured_source(
        f, f_xx, lambda t: t**2, lambda t: 2 * t,
        lambda t: 2 * np.ones_like(t), PARAMS, grid, tgrid, BC,
    )
    problem = Problem(PARAMS, grid, tgrid, BC, source,
                      sample_times=np.linspace(0.0, 1.0, sample_count))
    truth = truth_field("smooth_bump", grid, 0.15)
    return synthesize_data(problem, truth, noise, seed)


def test_zero_noise_returns_clean_samples():
    # noise level 0: noisy trace equals the downsampled clean one
    full, coarse, noisy = make_data(0.0, 0)
    np.testing.assert_array_equal(noisy.values, coarse.values)
    assert noisy.noise_level == 0.0


def test_noise_bound_and_recorded_eta():
    # invariant: |h_noisy - h|_inf <= eta with eta = level * max|h| recorded
    full, coarse, noisy = make_data(0.01, 7)
    eta = 0.01 * np.max(np.abs(coarse.values))
    assert np.max(np.abs(noisy.values - coarse.values)) <= eta
    np.testing.assert_allclose(noisy.noise_level, eta)


def test_noise_seed_reproducible():
    # invariant: fixed seed gives bit-identical noise
    _, coarse, noisy1 = make_data(0.01, 42)
    _, _, noisy2 = make_data(0.01, 42)
    np.testing.assert_array_equal(noisy1.values, noisy2.values)
    _, _, other = make_data(0.01, 43)
    assert np.any(other.values != noisy1.values)


def test_prefilter_preserves_affine():
    # moving average + spline keep an affine trace exactly
    times = np.linspace(0.0, 1.0, 20)
    trace = TimeTrace(times, 3.0 * times + 1.0)
    out = prefilter(trace, 80)
    np.testing.assert_allclose(out.values, 3.0 * out.times + 1.0, atol=1e-12)
    assert len(out) == 81


def test_prefilter_reduces_noise():
    # a noisy smooth signal gets closer to the clean one
    times = np.linspace(0.0, 1.0, 60)
    clean = np.sin(2 * np.pi * times)
    noisy = add_noise(TimeTrace(times, clean), 0.02, 5)
    filtered = prefilter(noisy, 200)
    exact = np.sin(2 * np.pi * filtered.times)
    raw_err = np.linalg.norm(noisy.values - clean) / np.sqrt(len(times))
    flt_err = np.linalg.norm(filtered.values - exact) / np.sqrt(len(filtered))
    assert flt_err < raw_err


@pytest.mark.parametrize("level", [-0.1, np.nan, np.inf, 1e308, 2.0])
def test_add_noise_refuses_a_level_outside_zero_one(level):
    # the rule validate applies to the noise setting, and never numpy's
    # OverflowError
    trace = TimeTrace(np.linspace(0.0, 1.0, 5), np.ones(5))
    with pytest.raises(ValueError, match=r"noise level must be in \[0, 1\]"):
        add_noise(trace, level, 0)


def test_add_noise_at_level_one():
    # eta = max|h|, and the draw is the seeded uniform one
    trace = TimeTrace(np.linspace(0.0, 1.0, 5), np.array([0, 1, -2, 1, 0.]))
    noisy = add_noise(trace, 1.0, 3)
    draw = np.random.Generator(np.random.Philox(3)).uniform(-2.0, 2.0, 5)
    assert noisy.noise_level == 2.0
    assert np.array_equal(noisy.values, trace.values + draw)


def test_prefilter_too_few_samples():
    times = np.linspace(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        prefilter(TimeTrace(times, times), 10)


@pytest.mark.parametrize("target_nt", [0, -1, -5])
def test_prefilter_needs_one_step(target_nt):
    # target_nt = 0 would give a one-level trace, -1 an empty one
    times = np.linspace(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="target_nt must be at least 1"):
        prefilter(TimeTrace(times, times), target_nt)


def scipy_prefilter(raw, target_nt):
    # the same moving average, then scipy's not-a-knot CubicSpline
    from scipy.interpolate import CubicSpline

    smooth = raw.values.copy()
    smooth[1:-1] = (raw.values[:-2] + raw.values[1:-1] + raw.values[2:]) / 3.0
    times = np.linspace(raw.times[0], raw.times[-1], target_nt + 1)
    return times, CubicSpline(raw.times, smooth)(times)


def assert_close_to_scipy(values, expected):
    # rtol 1e-12, and rounding of the largest term where the spline crosses 0
    np.testing.assert_allclose(values, expected, rtol=1e-12,
                               atol=1e-14 * np.abs(expected).max())


@pytest.mark.parametrize("t_final, nt", [(1.0, 400), (2.0, 400), (1.0, 200),
                                         (2.0, 200)])
def test_prefilter_matches_scipy_on_the_bench_sample_grids(t_final, nt):
    # 50 noisy samples on [0, t_final], splined onto nt + 1 solver levels
    cfg = ExperimentConfig(nx=41, nt=nt, t_final=t_final, n_basis=7,
                           time_profile="ramp", truth_family="tent")
    problem, _, truth = build_problem(cfg)
    _, _, noisy = synthesize_data(problem, truth, cfg.noise, 11)
    assert len(noisy) == 50
    times, expected = scipy_prefilter(noisy, nt)
    out = prefilter(noisy, nt)
    np.testing.assert_array_equal(out.times, times)
    assert_close_to_scipy(out.values, expected)


@pytest.mark.parametrize("seed", range(24))
def test_prefilter_matches_scipy_on_random_grids(seed):
    # n = 4 (the smallest the prefilter takes) up to 80 uneven samples
    rng = np.random.default_rng(seed)
    n = 4 if seed < 3 else int(rng.integers(4, 81))
    times = np.cumsum(rng.uniform(0.01, 1.0, n)) - rng.uniform(0.0, 2.0)
    raw = TimeTrace(times, rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3))
    target_nt = int(rng.integers(3, 500))
    _, expected = scipy_prefilter(raw, target_nt)
    assert_close_to_scipy(prefilter(raw, target_nt).values, expected)


@pytest.mark.parametrize("where", ["time", "value"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_prefilter_rejects_non_finite_samples(where, bad):
    # TimeTrace refuses a non-finite time, and the prefilter a non-finite
    # value
    times, values = np.linspace(0.0, 1.0, 8), np.ones(8)
    (times if where == "time" else values)[-1] = bad
    with pytest.raises(ValueError, match="finite"):
        prefilter(TimeTrace(times, values), 20)


@pytest.mark.parametrize("times", [[np.nan, 0.5], [0.1, np.inf],
                                   [[0.0, 0.1], [0.2, 0.3]]],
                         ids=["nan", "inf", "2-d"])
def test_time_trace_refuses_times_that_are_not_a_finite_vector(times):
    # each passed the ascending check, and a 2-D trace failed later inside
    # prefilter's spline with numpy's dimension message
    with pytest.raises(ValueError, match="must be finite and 1-D"):
        TimeTrace(times, np.ones(np.shape(times)))


def run_fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports this westinv;
    the in-process suite has loaded scipy.linalg itself."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(westinv.__path__[0]),
         *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    return out.stdout.strip()


def test_no_scipy_interpolate_import():
    # the prefilter's spline runs on LAPACK's dgtsv; importing the package and
    # building the default problem must not load scipy.interpolate
    assert run_fresh(
        "import sys, westinv, westinv.cli, westinv.experiment\n"
        "from westinv.experiment import ExperimentConfig, build_problem\n"
        "build_problem(ExperimentConfig())\n"
        "print('scipy.interpolate' in sys.modules)\n") == "False"


# the LAPACK routines as the modules that call them hold them
ROUTINES = ("import westinv.data, westinv.laplacian as lap\n"
            "ours = (westinv.data.dgtsv, lap.dptsv, lap.dpttrf, lap.dpttrs)\n")
SCIPYS = ("import scipy.linalg.lapack as lapack\n"
          "theirs = (lapack.dgtsv, lapack.dptsv, lapack.dpttrf, lapack.dpttrs)\n"
          "print(all(a is b for a, b in zip(ours, theirs)))\n")


def test_no_scipy_linalg_import():
    # the routines come from scipy's _flapack, loaded without running
    # scipy.linalg's __init__, whose array-API layer is most of start-up
    assert run_fresh(
        "import sys, westinv, westinv.cli\n"
        "from westinv.experiment import ExperimentConfig, build_problem\n"
        "build_problem(ExperimentConfig())\n"
        "for method, frozen in [('newton', True), ('newton', False),\n"
        "                       ('halley', True), ('landweber', False)]:\n"
        "    westinv.run_inversion(ExperimentConfig(\n"
        "        nx=41, nt=80, n_basis=7, sample_count=25, max_iter=6,\n"
        "        method=method, frozen=frozen, diagnostics=True))\n"
        "print('scipy.linalg' in sys.modules)\n") == "False"


def test_routines_are_scipy_linalg_lapacks_own_after_a_later_import():
    # the loader dropped its sys.modules entry, so scipy.linalg loads
    # _flapack itself and sets its attribute; the routines are the same
    assert run_fresh(
        ROUTINES + SCIPYS
        + "import sys, numpy as np, scipy.linalg\n"
          "print(scipy.linalg._flapack is sys.modules['scipy.linalg._flapack'])\n"
          "*_, x, info = lapack.dptsv([4.0, 4.0, 4.0], [1.0, 1.0], [5.0, 6.0, 5.0])\n"
          "print(info == 0 and np.allclose(x, 1.0))\n"
    ).split() == ["True"] * 3


def test_routines_after_an_earlier_scipy_linalg_import():
    # westinv takes scipy's loaded _flapack and leaves scipy's entries be
    assert run_fresh(
        "import sys, scipy.linalg.lapack\n"
        "before = {k: v for k, v in sys.modules.items()\n"
        "          if k.startswith('scipy')}\n"
        + ROUTINES + SCIPYS
        + "print(all(sys.modules[k] is v for k, v in before.items()))\n"
    ).split() == ["True"] * 2


@pytest.mark.parametrize("patch", [
    "import os.path\n"
    "isfile = os.path.isfile\n"
    "os.path.isfile = lambda p: '_flapack' not in p and isfile(p)\n",
    "import importlib.util\n"
    "def refuse(*args, **kwargs):\n"
    "    raise ImportError('no loader')\n"
    "importlib.util.spec_from_file_location = refuse\n",
], ids=["missing", "unloadable"])
def test_routines_fall_back_to_scipy_linalg_lapack(patch):
    assert run_fresh(
        patch + ROUTINES
        + "import sys\n"
          "print('scipy.linalg.lapack' in sys.modules)\n" + SCIPYS
    ).split() == ["True"] * 2


def test_config_validation_errors():
    for overrides in (
        {"method": "bfgs"},
        {"noise": -0.1},
        {"basis_kind": "fourier"},
        {"truth_family": "spike"},
        {"tau": 0.5},
        {"bc_left": "neumann", "bc_right": "neumann"},
        {"theta": 1.5},
        {"smoothing_s": 2},
        {"c2": 0.0},
        {"obs_point": 0.51},  # between the nodes 0.5 and 0.525
        {"bc_left": "robin"},
        {"bc_right": "robin"},
        {"seed": -1},  # the noise generator takes only nonnegative seeds
        {"method": "halley", "frozen": False},  # Halley runs only frozen
        # the grids and the material constants own their bounds
        {"nx": 2, "n_basis": 2},
        {"nt": 2},
        {"t_final": np.inf},
        {"c2": np.inf},
        {"b": np.nan},
        {"mu": np.inf},  # validate's own rule: a run meets mu after its solve
        {"obs_point": np.inf},  # no node: a ValueError, not OverflowError
    ):
        with pytest.raises(ConfigError):
            small_config(**overrides).validate()



def test_config_json_roundtrip(tmp_path):
    cfg = small_config(method="halley", seed=9, truth_in_span=True)
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    back = ExperimentConfig.from_json(path)
    assert back == cfg


def test_config_schema_rejection(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 2}')
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(path)
    path.write_text("not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(path)


def test_run_experiment_artifacts_and_exit_code(tmp_path):
    out = tmp_path / "run"
    code = run_experiment(small_config(max_iter=8), out)
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    for name in ("config.json", "trace_clean.csv", "trace_noisy.csv",
                 "trace_filtered.csv", "report.json", "history.csv",
                 "kappa_final.csv"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == code
    assert report["delta"] == pytest.approx(
        np.sqrt(small_config().sample_count) * report["eta"]
    )
    # trace CSV round-trips at full precision
    rows = np.loadtxt(out / "trace_noisy.csv", delimiter=",", skiprows=1)
    result = run_inversion(small_config(max_iter=8))
    np.testing.assert_allclose(rows[:, 1], result.traces["noisy"].values,
                               rtol=1e-15)


def test_run_experiment_max_iter_exit(tmp_path):
    # unreachable discrepancy level within 1 iteration -> exit code 3
    cfg = small_config(max_iter=1, noise=0.0001)
    code = run_experiment(cfg, tmp_path / "short")
    assert code == EXIT_MAX_ITER


def test_run_experiment_deterministic_bytes(tmp_path):
    cfg = small_config(diagnostics=True)
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    for name in ("config.json", "report.json", "history.csv",
                 "kappa_final.csv", "trace_noisy.csv", "svd.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


@pytest.mark.parametrize("overrides", [
    {"method": "typo"},
    {"method": "halley", "frozen": False},
    {"method": "landweber", "obs_point": 0.0},
    {"method": "newton", "obs_point": 0.0},
    {"method": "halley", "obs_point": 0.0},
], ids=["unknown-method", "unfrozen-halley", "landweber-dirichlet-obs",
        "newton-dirichlet-obs", "halley-dirichlet-obs"])
def test_run_inversion_rejects_what_validate_rejects(tmp_path, monkeypatch,
                                                     overrides):
    # run_inversion checks its config before any solve: no data are
    # synthesized, and run_experiment raises the ConfigError (exit 2)
    # without writing anything
    monkeypatch.setattr("westinv.experiment.synthesize_data",
                        lambda *args: pytest.fail("data were synthesized"))
    cfg = small_config(max_iter=3, noise=1e-3, time_profile="ramp",
                       **overrides)
    with pytest.raises(ConfigError):
        run_inversion(cfg)
    with pytest.raises(ConfigError):
        run_experiment(cfg, tmp_path / "o")
    assert not (tmp_path / "o").exists()


def test_run_experiment_solver_failure(tmp_path):
    # amplitude far past the degeneracy budget -> solver failure, exit 4
    cfg = small_config(truth_amplitude=5.0, time_profile="ramp")
    code = run_experiment(cfg, tmp_path / "fail")
    assert code == 4
    report = json.loads((tmp_path / "fail" / "report.json").read_text())
    assert "error" in report and report["exit_code"] == 4


def write_small_config(tmp_path, **overrides):
    cfg = small_config(**overrides)
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    return path


def test_cli_synth_and_reconstruct(tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    out = tmp_path / "synth"
    assert cli_main(["synth", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    assert (out / "trace_noisy.csv").exists()
    out2 = tmp_path / "rec"
    code = cli_main(["reconstruct", "--config", str(cfg_path),
                     "--max-iter", "8", "--out", str(out2)])
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    assert (out2 / "kappa_final.csv").exists()
    assert "stopped by" in capsys.readouterr().out


def test_cli_diagnose(tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    out = tmp_path / "diag"
    assert cli_main(["diagnose", "svd", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    assert (out / "svd.csv").exists()
    assert cli_main(["diagnose", "poles", "--config", str(cfg_path),
                     "--count", "10", "--out", str(out)]) == 0
    poles = json.loads((out / "poles.json").read_text())
    assert len(poles["poles"]) == 10
    assert poles["distinctness"]["distinct"] is True


def test_cli_diagnose_poles_file(tmp_path, capsys):
    # the whole poles.json of a Dirichlet-Neumann run: ((j - 1/2) pi)^2 and
    # the roots of s^2 + b lam s + c2 lam as [real, imag]
    cfg = small_config()
    cfg_path = write_small_config(tmp_path)
    out = tmp_path / "diag"
    assert cli_main(["diagnose", "poles", "--config", str(cfg_path),
                     "--count", "3", "--out", str(out)]) == 0
    lams = [float(v) for v in ((np.arange(1, 4) - 0.5) * np.pi) ** 2]
    rows = []
    for lam in lams:
        p, q = westinv.poles(cfg.b, cfg.c2, lam)
        rows.append({"lambda": lam, "p_plus": [p.real, p.imag],
                     "p_minus": [q.real, q.imag]})
    assert json.loads((out / "poles.json").read_text()) == {
        "eigenvalues": lams,
        "bc": "dirichlet-neumann",
        "poles": rows,
        "distinctness": {"distinct": True, "violations": []},
    }


def test_cli_basis_flag_takes_the_config_names(tmp_path, capsys):
    # "gaussian" is the config's own name for the "gauss" basis
    cfg_path = write_small_config(tmp_path)
    outs = {}
    for name in ("gauss", "gaussian"):
        outs[name] = tmp_path / name
        assert cli_main(["diagnose", "svd", "--config", str(cfg_path),
                         "--basis", name, "--out", str(outs[name])]) == 0
    assert ((outs["gauss"] / "svd.csv").read_bytes()
            == (outs["gaussian"] / "svd.csv").read_bytes())


def test_cli_convergence_study(tmp_path, capsys):
    out = tmp_path / "conv"
    assert cli_main(["convergence-study", "--levels", "2", "--nx0", "21",
                     "--nt0", "40", "--out", str(out)]) == 0
    rows = np.loadtxt(out / "convergence.csv", delimiter=",", skiprows=1)
    assert rows.shape == (2, 4)
    assert rows[1, 3] > 1.8  # measured order on the finer level


def test_cli_sweep(tmp_path):
    sweep = {
        "runs": [
            {"name": "a", "config": small_config(seed=1, max_iter=8).to_dict()},
            {"name": "b", "config": small_config(seed=2, max_iter=8).to_dict()},
        ]
    }
    path = tmp_path / "sweep.json"
    with open(path, "w") as fh:
        json.dump(sweep, fh)
    out = tmp_path / "sweep_out"
    code = cli_main(["sweep", "--config", str(path), "--jobs", "2",
                     "--out", str(out)])
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    assert (out / "a" / "report.json").exists()
    assert (out / "b" / "report.json").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    code = cli_main(["reconstruct", "--config", str(cfg_path),
                     "--tau", "0.5", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def _expect_config_error(capsys, argv):
    assert cli_main(argv) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_cli_sweep_missing_config_file(tmp_path, capsys):
    _expect_config_error(capsys, ["sweep", "--config",
                                  str(tmp_path / "missing.json"),
                                  "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("spec", [
    [{"name": "a", "config": {"schema": 1}}],  # top level is a list
    {"runs": [5]},  # an entry that is not an object
    {"runs": [{"name": 3, "config": {"schema": 1}}]},  # non-string name
], ids=["list-top-level", "entry-not-object", "name-not-string"])
def test_cli_sweep_malformed_spec(tmp_path, capsys, spec):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    _expect_config_error(capsys, ["sweep", "--config", str(path),
                                  "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("section", ["grid", "time", "params", "bc", "basis",
                                     "truth", "excitation", "method_options"])
def test_cli_config_section_wrong_type(tmp_path, capsys, section):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": 1, section: []}))
    _expect_config_error(capsys, ["reconstruct", "--config", str(path),
                                  "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("text", [
    '{"schema": 1, "time": {"t_final": 1e400}}',
    '{"schema": 1, "grid": {"nx": 1e400}}',
    '{"schema": 1, "params": {"c2": Infinity}}',
], ids=["t_final-inf", "nx-inf", "c2-inf"])
def test_cli_config_non_finite_number(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    _expect_config_error(capsys, ["reconstruct", "--config", str(path),
                                  "--out", str(tmp_path / "o")])


def test_cli_config_unhashable_value(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"schema": 1, "basis": {"kind": []}}')
    _expect_config_error(capsys, ["reconstruct", "--config", str(path),
                                  "--out", str(tmp_path / "o")])


def _write_config(tmp_path, edit):
    cfg = small_config().to_dict()
    edit(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("section, key, value", [
    ("method_options", "frozen", "false"),
    (None, "diagnostics", "no"),
    ("truth", "in_span", 1),
    ("grid", "nx", 50.9),
    (None, "seed", True),
    (None, "noise", "0.01"),
    ("method_options", "alpha0", "1.0"),
], ids=["frozen-string", "diagnostics-string", "in_span-int", "nx-fraction",
        "seed-bool", "noise-string", "alpha0-string"])
def test_cli_config_wrong_json_type(tmp_path, capsys, section, key, value):
    # bools take only JSON booleans, ints only integers, floats only numbers
    def edit(cfg):
        (cfg if section is None else cfg[section])[key] = value
    path = _write_config(tmp_path, edit)
    _expect_config_error(capsys, ["reconstruct", "--config", str(path),
                                  "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("name, section, key, value", [
    ("method", None, "method", 5),
    ("basis_kind", "basis", "kind", []),
    ("bc_left", "bc", "left", None),
], ids=["method-int", "basis-kind-list", "bc-left-null"])
def test_config_string_fields_take_only_strings(name, section, key, value):
    cfg = small_config().to_dict()
    (cfg if section is None else cfg[section])[key] = value
    with pytest.raises(ConfigError, match=f"^{name} must be a string, got "):
        ExperimentConfig.from_dict(cfg)


@pytest.mark.parametrize("command", ["reconstruct", "synth", "sweep"])
def test_cli_noise_above_one(tmp_path, capsys, monkeypatch, command):
    # noise is relative to max|h|; a level past 1 is a config error before
    # anything runs, in a sweep before any entry runs
    monkeypatch.setattr(westinv.experiment, "synthesize_data", None)
    monkeypatch.setattr(westinv.cli, "synthesize_data", None)
    path = write_small_config(tmp_path)
    argv = [command, "--config", str(path), "--noise", "1.5"]
    if command == "sweep":
        runs = [{"name": "good", "config": small_config(max_iter=2).to_dict()},
                {"name": "bad", "config": small_config(noise=1.5).to_dict()}]
        path.write_text(json.dumps({"runs": runs}))
        argv = ["sweep", "--config", str(path), "--jobs", "1"]
    out = tmp_path / "o"
    _expect_config_error(capsys, [*argv, "--out", str(out)])
    assert not out.exists()


def _right_dirichlet(cfg):
    cfg["bc"]["right"] = "dirichlet"  # sine_half is 1 at x = 1


def _obs_off_grid(cfg):
    cfg["obs_point"] = 2.0


def _basis_exceeds_grid(cfg):
    cfg["grid"]["nx"] = 21
    cfg["basis"]["m"] = 30


def _source_overflow(cfg):
    cfg["time"]["t_final"] = 1e200  # finite, but t^2 overflows


@pytest.mark.parametrize("edit", [
    _right_dirichlet, _obs_off_grid, _basis_exceeds_grid,
    pytest.param(_source_overflow,
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
], ids=["excitation-vs-dirichlet", "obs-point-off-grid",
        "basis-exceeds-grid", "source-overflow"])
def test_cli_config_rejected_before_solving(tmp_path, capsys, edit):
    # mistakes a solver or the basis projection would only find later; the
    # overflowing source is reported without numpy's RuntimeWarnings first
    path = _write_config(tmp_path, edit)
    _expect_config_error(capsys, ["reconstruct", "--config", str(path),
                                  "--out", str(tmp_path / "o")])


def test_cli_sweep_rejects_bad_entry_before_running(tmp_path, capsys):
    for edit in (_basis_exceeds_grid, _source_overflow):
        good = small_config(max_iter=2).to_dict()
        bad = small_config().to_dict()
        edit(bad)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"runs": [{"name": "good", "config": good},
                                             {"name": "bad", "config": bad}]}))
        out = tmp_path / "o"
        _expect_config_error(capsys, ["sweep", "--config", str(path),
                                      "--jobs", "1", "--out", str(out)])
        assert not (out / "good").exists()


@pytest.mark.parametrize("section", [None, "grid", "time", "params", "bc",
                                     "basis", "truth", "excitation",
                                     "method_options"])
def test_cli_config_unknown_key(tmp_path, capsys, section):
    # a misspelt key is an error, not a silent fallback to the default
    def edit(cfg):
        (cfg if section is None else cfg[section])["bogus_key"] = 1
    path = _write_config(tmp_path, edit)
    assert cli_main(["reconstruct", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "bogus_key" in err
    assert not (tmp_path / "o").exists()


def test_cli_sweep_entry_without_config_wrapper(tmp_path):
    # an entry may be the config itself, with its name beside the keys
    entry = dict(small_config(max_iter=2).to_dict(), name="flat")
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"runs": [entry]}))
    out = tmp_path / "o"
    code = cli_main(["sweep", "--config", str(path), "--jobs", "1",
                     "--out", str(out)])
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    assert (out / "flat" / "report.json").exists()


def _observation(method, obs_point=0.5):
    cfg = {"schema": 1, "grid": {"nx": 41}, "time": {"nt": 80},
           "basis": {"m": 7}, "sample_count": 25, "truth": {"amplitude": 0.3},
           "method": method, "obs_point": obs_point}
    if method == "landweber":
        cfg.update(noise=0.0001, method_options={"max_iter": 2, "mu": 0.01})
    else:
        cfg.update(noise=0.01, method_options={"max_iter": 8, "alpha0": 1.0})
    return cfg


def test_cli_landweber_interior_observation_runs(tmp_path):
    # the adjoint solve takes the residual at the observation node
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_observation("landweber")))
    out = tmp_path / "o"
    assert cli_main(["reconstruct", "--config", str(path),
                     "--out", str(out)]) in (EXIT_OK, EXIT_MAX_ITER)
    assert (out / "report.json").exists()


def test_cli_newton_interior_observation_runs(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_observation("newton")))
    assert cli_main(["reconstruct", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_OK


@pytest.mark.parametrize("method", ["landweber", "newton", "halley"])
def test_cli_dirichlet_observation_rejected(tmp_path, capsys, method):
    # the trace at a Dirichlet node is identically 0, so no method may stop
    # there by discrepancy: a config error that writes nothing
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_observation(method, obs_point=0.0)))
    _expect_config_error(capsys, ["reconstruct", "--config", str(path),
                                  "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, spec", [
    ("jbos", lambda entry: {"runs": [entry], "jbos": 8}),
    ("nmae", lambda entry: {"runs": [dict(entry, nmae="typo")]}),
], ids=["top-level", "wrapped-entry"])
def test_cli_sweep_unknown_key(tmp_path, capsys, key, spec):
    # a misspelt key outside the configs is an error, not silently dropped
    entry = {"name": "a", "config": small_config(max_iter=2).to_dict()}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec(entry)))
    out = tmp_path / "o"
    assert cli_main(["sweep", "--config", str(path), "--jobs", "1",
                     "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and key in err
    assert not out.exists()


def test_cli_sweep_isolates_an_entry_that_raises(tmp_path, capsys,
                                                 monkeypatch):
    # an unexpected exception in one entry becomes that entry's error
    # report (exit 4); the other entries still finish and print their line
    import westinv.experiment as experiment

    real = experiment.run_inversion

    def flaky(cfg, shared=None):
        if cfg.seed == 2:
            raise RuntimeError("injected failure")
        return real(cfg, shared)

    monkeypatch.setattr(experiment, "run_inversion", flaky)
    runs = [{"name": name, "config": small_config(seed=seed,
                                                  max_iter=2).to_dict()}
            for name, seed in (("a", 1), ("bad", 2), ("c", 3))]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"runs": runs}))
    out = tmp_path / "o"
    code = cli_main(["sweep", "--config", str(path), "--jobs", "2",
                     "--out", str(out)])
    assert code == EXIT_SOLVER
    assert json.loads((out / "bad" / "report.json").read_text()) == {
        "error": "RuntimeError: injected failure", "exit_code": EXIT_SOLVER}
    for name in ("a", "c"):
        report = json.loads((out / name / "report.json").read_text())
        assert "error" not in report
        assert report["exit_code"] in (EXIT_OK, EXIT_MAX_ITER)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["a", "bad", "c"]
    assert "bad: exit 4" in lines[1]


# one physical problem, two truths (smooth_bump and tent), and frozen Newton,
# unfrozen Newton and Landweber: every entry takes at least one step
SHARED_PROBLEM = dict(max_iter=3, noise=1e-3, time_profile="ramp",
                      truth_amplitude=0.3)
SHARING_SWEEP = [
    ("newton-frozen", dict(seed=1)),
    ("newton-unfrozen", dict(seed=2, frozen=False, basis_kind="hat")),
    ("landweber", dict(seed=3, method="landweber", truth_family="tent",
                       alpha0=None)),
    ("newton-haar", dict(seed=4, basis_kind="haar", n_basis=8,
                         truth_family="tent")),
]


def run_sweep(tmp_path, name, entries, jobs=1):
    """cli sweep of (entry name, small_config overrides) into tmp_path/name;
    returns the exit code and the output directory."""
    runs = [{"name": entry, "config": small_config(**overrides).to_dict()}
            for entry, overrides in entries]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"runs": runs}))
    out = tmp_path / name
    code = cli_main(["sweep", "--config", str(path), "--jobs", str(jobs),
                     "--out", str(out)])
    return code, out


def assert_same_artifacts(got, want):
    assert sorted(os.listdir(got)) == sorted(os.listdir(want))
    for name in os.listdir(want):
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


def test_sweep_solves_each_problem_and_truth_once(tmp_path, monkeypatch):
    # the entries share one Problem, so one two-column kappa = 0 march of
    # p0 and the impulse response, no kappa = 0 forward solve, and one clean
    # solve per truth; a second sweep in the process solves them all again,
    # so nothing outlives its sweep
    import westinv.data as data
    import westinv.forward as forward
    import westinv.inversion as inversion

    counts = {}

    def counting(module, solve):
        def counted(problem, kappa):
            kind = ("clean" if module is data else "kappa=0" if kappa is None
                    else "iterate")
            counts[kind] = counts.get(kind, 0) + 1
            return solve(problem, kappa)
        return counted

    for module in (forward, data, inversion):
        monkeypatch.setattr(module, "solve_forward",
                            counting(module, module.solve_forward))
    march = forward.cn_march

    def counted_march(problem, forcing, advance, *args):
        if forcing is not problem.step_forcing:  # not a forward solve
            counts["kappa=0 march"] = counts.get("kappa=0 march", 0) + 1
        return march(problem, forcing, advance, *args)

    monkeypatch.setattr(forward, "cn_march", counted_march)
    entries = [(name, dict(SHARED_PROBLEM, **overrides))
               for name, overrides in SHARING_SWEEP]
    for sweep in ("first", "second"):
        counts.clear()
        code, _ = run_sweep(tmp_path, sweep, entries)
        assert code == EXIT_MAX_ITER
        # the four runs take 3 steps each; every entry's iterate 0 reads the
        # shared kappa = 0 solution
        assert counts == {"clean": 2, "kappa=0 march": 1, "iterate": 12}, \
            sweep


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_shared_sweep_artifacts_match_solo_runs(tmp_path, jobs):
    # sharing changes no bits: every entry writes what it writes alone, and
    # --jobs, which has no effect, changes no byte
    entries = [(name, dict(SHARED_PROBLEM, **overrides))
               for name, overrides in SHARING_SWEEP]
    code, out = run_sweep(tmp_path, "sweep", entries, jobs)
    assert code == EXIT_MAX_ITER
    for name, overrides in entries:
        solo = tmp_path / "solo" / name
        run_experiment(small_config(**overrides), solo)
        assert_same_artifacts(out / name, solo)


def test_sweep_runs_its_entries_in_order_on_the_calling_thread(
        tmp_path, monkeypatch):
    # --jobs starts no worker: each entry runs on the main thread, in the
    # order of the run list
    import westinv.cli as cli

    calls = []
    real = cli.run_experiment

    def recording(cfg, out_dir, shared=None):
        calls.append((threading.current_thread(), os.path.basename(out_dir)))
        return real(cfg, out_dir, shared)

    monkeypatch.setattr(cli, "run_experiment", recording)
    names = ["c", "a", "b"]
    code, _ = run_sweep(tmp_path, "sweep", [
        (name, dict(seed=seed, max_iter=2)) for seed, name in enumerate(names)
    ], jobs=2)
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    assert calls == [(threading.main_thread(), name) for name in names]


def test_sweep_prints_each_line_as_its_entry_ends(tmp_path, capsys,
                                                  monkeypatch):
    # the first entry's summary line is on stdout before the second starts
    import westinv.cli as cli

    seen = []
    real = cli.run_experiment

    def recording(cfg, out_dir, shared=None):
        seen.append(capsys.readouterr().out)
        return real(cfg, out_dir, shared)

    monkeypatch.setattr(cli, "run_experiment", recording)
    code, out = run_sweep(tmp_path, "sweep", [
        (name, dict(seed=seed, max_iter=2)) for seed, name in enumerate("ab")
    ])
    codes = [json.loads((out / name / "report.json").read_text())["exit_code"]
             for name in "ab"]
    lines = [f"{name}: exit {c} -> {out / name}\n"
             for name, c in zip("ab", codes)]
    assert seen == ["", lines[0]]
    assert capsys.readouterr().out == lines[1]
    assert code == max(codes)


@pytest.mark.parametrize("raises", [False, True], ids=["runs", "raises"])
def test_sweep_entry_whose_directory_is_a_file(tmp_path, capsys, monkeypatch,
                                               raises):
    # the first entry cannot write its directory, a file, not even the error
    # report of a run that raises: its line reads exit 2, and the second
    # entry still runs and writes; only the raising run prints a traceback
    import westinv.experiment as experiment

    real = experiment.run_inversion

    def flaky(cfg, shared=None):
        if raises and cfg.seed == 1:
            raise RuntimeError("injected failure")
        return real(cfg, shared)

    monkeypatch.setattr(experiment, "run_inversion", flaky)
    (tmp_path / "sweep").mkdir()
    (tmp_path / "sweep" / "a").write_text("a file")
    code, out = run_sweep(tmp_path, "sweep", [("a", dict(seed=1, max_iter=2)),
                                              ("b", dict(seed=2, max_iter=2))])
    report = json.loads((out / "b" / "report.json").read_text())
    assert code == max(EXIT_CONFIG, report["exit_code"])
    assert (out / "a").read_text() == "a file"
    captured = capsys.readouterr()
    assert "config error:" in captured.err
    assert ("Traceback" in captured.err) is raises
    lines = captured.out.splitlines()
    assert lines[0] == f"a: exit {EXIT_CONFIG} -> {out / 'a'}"
    assert lines[1] == f"b: exit {report['exit_code']} -> {out / 'b'}"


def test_sweep_entry_with_a_degenerate_truth_fails_alone(tmp_path):
    # the clean solve of amplitude 2.0 degenerates; it stores nothing, so the
    # second entry with that truth fails the same way, and the sibling on
    # the same problem writes what it writes alone
    degenerate = dict(truth_amplitude=2.0)
    code, out = run_sweep(tmp_path, "sweep", [
        ("bad1", degenerate), ("ok", dict(max_iter=2)), ("bad2", degenerate)])
    assert code == EXIT_SOLVER
    report = (out / "bad1" / "report.json").read_text()
    assert "fell below the floor 0.25" in json.loads(report)["error"]
    assert (out / "bad2" / "report.json").read_text() == report
    run_experiment(small_config(max_iter=2), tmp_path / "solo")
    assert_same_artifacts(out / "ok", tmp_path / "solo")


def test_shared_state_is_read_only():
    # sweep entries share these arrays: no entry can change what another reads
    problem, _, truth = build_problem(small_config())
    full, coarse, _ = synthesize_data(problem, truth, 0.01, 0)
    for array in (problem.source, problem.frozen_base.values,
                  problem.impulse_response, problem.step_forcing, full.times,
                  full.values, coarse.times, coarse.values):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


@pytest.mark.parametrize("names", [("a", "a"), ("run001", None)],
                         ids=["named-twice", "default-name"])
def test_cli_sweep_repeated_name(tmp_path, capsys, names):
    # two entries with one name would write into one output directory; an
    # entry without a name is named run<index>
    entries = []
    for seed, name in enumerate(names, start=1):
        entry = small_config(seed=seed, max_iter=2).to_dict()
        if name is not None:
            entry["name"] = name
        entries.append(entry)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"runs": entries}))
    out = tmp_path / "o"
    _expect_config_error(capsys, ["sweep", "--config", str(path), "--jobs",
                                  "2", "--out", str(out)])
    assert not out.exists()


# 2**50 elements of 8 bytes exceed the user address space, so allocating
# them fails at once, touching no memory
HUGE = 2**50


@pytest.mark.parametrize("argv", [
    ["sweep", "--jobs", "0"],
    ["diagnose", "poles", "--count", "0"],
    ["convergence-study", "--nx0", "1"],
    ["convergence-study", "--nt0", "1"],
    ["convergence-study", "--levels", "0"],
    ["convergence-study", "--levels", "-1"],
    ["diagnose", "poles", "--count", str(HUGE)],
    ["convergence-study", "--nx0", str(HUGE)],
], ids=["jobs", "count", "nx0", "nt0", "levels-0", "levels-negative",
        "count-huge", "nx0-huge"])
def test_cli_integer_out_of_range(tmp_path, capsys, argv):
    cfg_path = write_small_config(tmp_path)
    if argv[0] == "sweep":
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"runs": [
            {"name": "a", "config": small_config(max_iter=2).to_dict()}]}))
    out = tmp_path / "o"
    _expect_config_error(capsys, [*argv, "--config", str(cfg_path),
                                  "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command", ["reconstruct", "synth", "sweep"])
@pytest.mark.parametrize("section, key", [
    ("grid", "nx"), ("time", "nt"), (None, "sample_count")],
    ids=["nx", "nt", "sample_count"])
def test_cli_size_that_cannot_be_allocated(tmp_path, capsys, command,
                                           section, key):
    def edit(cfg):
        (cfg if section is None else cfg[section])[key] = HUGE
    path = _write_config(tmp_path, edit)
    if command == "sweep":
        path.write_text(json.dumps({"runs": [
            {"name": "a", "config": json.loads(path.read_text())}]}))
    out = tmp_path / "o"
    _expect_config_error(capsys, [command, "--config", str(path),
                                  "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("name", ["", ".", "..", "./a", "a/b", "../escaped",
                                  "a\u0000b", "\ud800", "\u00e9" * 150],
                         ids=["empty", "dot", "dot-dot", "dot-slash",
                              "nested", "escaped", "nul", "lone-surrogate",
                              "300-bytes"])
def test_cli_sweep_name_not_one_path_component(tmp_path, capsys, name):
    # the name is the entry's directory under --out; one that is empty,
    # "." or "..", or that holds a separator, would write elsewhere, and
    # the filesystem takes no name with a NUL, no name that does not encode
    # and no name over 255 bytes (150 two-byte characters here)
    runs = [{"name": "good", "config": small_config(max_iter=2).to_dict()},
            {"name": name, "config": small_config(max_iter=2).to_dict()}]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"runs": runs}))
    out = tmp_path / "sweeps" / "o"
    _expect_config_error(capsys, ["sweep", "--config", str(path), "--jobs",
                                  "1", "--out", str(out)])
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["sweep.json"]


@pytest.mark.parametrize("argv", [
    ["synth"], ["reconstruct"], ["diagnose", "svd"], ["diagnose", "poles"],
    ["convergence-study", "--levels", "1"], ["sweep"],
], ids=["synth", "reconstruct", "diagnose-svd", "diagnose-poles",
        "convergence-study", "sweep"])
def test_cli_out_that_is_a_file(tmp_path, capsys, argv):
    # an --out that cannot be written is a config error, not a traceback,
    # and the file stays as it was
    path = write_small_config(tmp_path, max_iter=2)
    if argv[0] == "sweep":
        path.write_text(json.dumps({"runs": [
            {"name": "a", "config": small_config(max_iter=2).to_dict()}]}))
    out = tmp_path / "o"
    out.write_text("a file")
    _expect_config_error(capsys, [*argv, "--config", str(path),
                                  "--out", str(out)])
    assert out.read_text() == "a file"


@pytest.mark.parametrize("command", ["reconstruct", "sweep"])
def test_cli_deeply_nested_config(tmp_path, capsys, command):
    # the JSON parser recurses per nesting level; a file nested past the
    # recursion limit is a config error, not a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    _expect_config_error(capsys, [command, "--config", str(path),
                                  "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("schema", [True, 1.0, "1"])
def test_config_schema_must_be_the_integer_one(schema):
    cfg = small_config().to_dict()
    cfg["schema"] = schema
    with pytest.raises(ConfigError, match="schema"):
        ExperimentConfig.from_dict(cfg)


@pytest.mark.parametrize("argv", [
    ["sweep", "--method", "halley"],
    ["sweep", "--max-iter", "99"],
    ["convergence-study", "--noise", "0.5"],
    ["convergence-study", "--basis", "hat"],
    ["diagnose", "svd", "--method", "halley"],
    ["diagnose", "poles", "--tau", "3"],
], ids=["sweep-method", "sweep-max-iter", "convergence-noise",
        "convergence-basis", "diagnose-method", "diagnose-tau"])
def test_cli_rejects_an_override_it_does_not_read(tmp_path, capsys, argv):
    # a flag that would change nothing is a usage error, not dropped
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli_main([*argv, "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_cli_convergence_study_reads_the_config(tmp_path, capsys):
    # the manufactured solution is f(x) beta(t) with the config's f and beta
    path = write_small_config(tmp_path, time_profile="t3")
    assert cli_main(["convergence-study", "--config", str(path), "--levels",
                     "1", "--out", str(tmp_path / "o")]) == EXIT_OK
    assert "nx=   26 nt=    50  err=2.0473e-04" in capsys.readouterr().out


@pytest.mark.parametrize("side", ["left", "right"])
def test_cli_convergence_study_rejects_impedance(tmp_path, capsys, side):
    # f beta does not satisfy an impedance condition, so the measured error
    # would not converge to zero
    path = _write_config(tmp_path, lambda cfg: cfg["bc"].update(
        {side: "impedance"}))
    out = tmp_path / "o"
    _expect_config_error(capsys, ["convergence-study", "--config", str(path),
                                  "--out", str(out)])
    assert not out.exists()


def test_cli_diagnose_poles_rejects_impedance(tmp_path, capsys):
    # the pole table has closed-form eigenvalues for Dirichlet and Neumann
    # ends only
    path = _write_config(tmp_path, lambda cfg: cfg["bc"].update(
        {"left": "impedance", "right": "neumann"}))
    out = tmp_path / "o"
    _expect_config_error(capsys, ["diagnose", "poles", "--config", str(path),
                                  "--out", str(out)])
    assert not out.exists()


def write_degenerate_config(tmp_path):
    # kappa far past the degeneracy budget: 1 - 2 kappa p turns negative
    # while the data are synthesized
    return write_small_config(tmp_path, nx=21, nt=40, n_basis=5,
                              sample_count=10, truth_amplitude=5.0)


def test_cli_solver_error_exit_code(tmp_path, capsys):
    # a WestinvError outside run_experiment reaches main: exit 4
    path = write_degenerate_config(tmp_path)
    code = cli_main(["synth", "--config", str(path),
                     "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER
    assert "solver error: 1 - 2*kappa*p" in capsys.readouterr().err


def test_cli_reconstruct_reports_solver_failure(tmp_path, capsys):
    # run_experiment turns the failure into report.json and exit 4, and
    # reconstruct prints it
    path, out = write_degenerate_config(tmp_path), tmp_path / "o"
    code = cli_main(["reconstruct", "--config", str(path),
                     "--out", str(out)])
    assert code == EXIT_SOLVER
    report = json.loads((out / "report.json").read_text())
    assert capsys.readouterr().out == f"solver failure: {report['error']}\n"
    assert report["exit_code"] == EXIT_SOLVER
