"""End-to-end harness: data synthesis, noise and prefiltering, config
validation, artifact persistence, exit codes and the command-line interface."""

import json

import numpy as np
import pytest

from westinv import (
    BoundaryCondition,
    ConfigError,
    ExperimentConfig,
    MaterialParams,
    Problem,
    SpatialGrid,
    TimeGrid,
    TimeTrace,
    TooFewSamplesError,
    add_noise,
    manufactured_source,
    prefilter,
    run_experiment,
    run_inversion,
    synthesize_data,
    truth_field,
)
from westinv.cli import main as cli_main
from westinv.experiment import EXIT_CONFIG, EXIT_MAX_ITER, EXIT_OK, EXIT_SOLVER

PARAMS = MaterialParams(c2=1.0, b=0.2)
BC = BoundaryCondition.from_kinds("dirichlet", "neumann")


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


def test_prefilter_too_few_samples():
    times = np.linspace(0.0, 1.0, 3)
    with pytest.raises(TooFewSamplesError):
        prefilter(TimeTrace(times, times), 10)


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
        {"seed": -1},  # the noise generator takes only nonnegative seeds
        {"method": "halley", "frozen": False},  # Halley runs only frozen
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


def _interior_observation(method):
    cfg = {"schema": 1, "grid": {"nx": 41}, "time": {"nt": 80},
           "basis": {"m": 7}, "sample_count": 25, "truth": {"amplitude": 0.3},
           "method": method, "obs_point": 0.5}
    if method == "landweber":
        cfg.update(noise=0.0001, method_options={"max_iter": 2, "mu": 0.01})
    else:
        cfg.update(noise=0.01, method_options={"max_iter": 8, "alpha0": 1.0})
    return cfg


def test_cli_landweber_interior_observation_rejected(tmp_path, capsys):
    # the adjoint solve needs the observation at x = 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_interior_observation("landweber")))
    _expect_config_error(capsys, ["reconstruct", "--config", str(path),
                                  "--out", str(tmp_path / "o")])


def test_cli_newton_interior_observation_runs(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_interior_observation("newton")))
    assert cli_main(["reconstruct", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_OK


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

    def flaky(cfg):
        if cfg.seed == 2:
            raise RuntimeError("injected failure")
        return real(cfg)

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


@pytest.mark.parametrize("argv", [
    ["sweep", "--jobs", "0"],
    ["diagnose", "poles", "--count", "0"],
    ["convergence-study", "--nx0", "1"],
    ["convergence-study", "--nt0", "1"],
    ["convergence-study", "--levels", "0"],
    ["convergence-study", "--levels", "-1"],
], ids=["jobs", "count", "nx0", "nt0", "levels-0", "levels-negative"])
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


@pytest.mark.parametrize("name", ["", ".", "..", "./a", "a/b", "../escaped"],
                         ids=["empty", "dot", "dot-dot", "dot-slash",
                              "nested", "escaped"])
def test_cli_sweep_name_not_one_path_component(tmp_path, capsys, name):
    # the name is the entry's directory under --out; one that is empty,
    # "." or "..", or that holds a separator, would write elsewhere
    runs = [{"name": "good", "config": small_config(max_iter=2).to_dict()},
            {"name": name, "config": small_config(max_iter=2).to_dict()}]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"runs": runs}))
    out = tmp_path / "sweeps" / "o"
    _expect_config_error(capsys, ["sweep", "--config", str(path), "--jobs",
                                  "1", "--out", str(out)])
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["sweep.json"]


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
