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
    SpatialGrid,
    TimeGrid,
    TimeTrace,
    TooFewSamplesError,
    add_noise,
    downsample,
    manufactured_source,
    prefilter,
    run_experiment,
    run_inversion,
    synthesize_data,
    truth_field,
)
from westinv.cli import main as cli_main
from westinv.experiment import EXIT_CONFIG, EXIT_MAX_ITER, EXIT_OK

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
    truth = truth_field("smooth_bump", grid, 0.15)
    return synthesize_data(truth, PARAMS, source, grid, tgrid, BC, 1.0,
                           noise, seed, sample_count)


def test_zero_noise_returns_clean_samples():
    # noise level 0: noisy trace equals the downsampled clean one
    full, coarse, noisy = make_data(0.0, 0)
    np.testing.assert_array_equal(noisy.values, coarse.values)
    assert noisy.noise_level == 0.0
    assert noisy.provenance == "synthetic-clean"


def test_noise_bound_and_recorded_eta():
    # invariant: |h_noisy - h|_inf <= eta with eta = level * max|h| recorded
    full, coarse, noisy = make_data(0.01, 7)
    eta = 0.01 * np.max(np.abs(coarse.values))
    assert np.max(np.abs(noisy.values - coarse.values)) <= eta
    np.testing.assert_allclose(noisy.noise_level, eta)
    assert noisy.provenance == "synthetic-noisy"


def test_noise_seed_reproducible():
    # invariant: fixed seed gives bit-identical noise
    _, coarse, noisy1 = make_data(0.01, 42)
    _, _, noisy2 = make_data(0.01, 42)
    np.testing.assert_array_equal(noisy1.values, noisy2.values)
    _, _, other = make_data(0.01, 43)
    assert np.any(other.values != noisy1.values)


def test_downsample_endpoints_and_linear():
    tgrid = TimeGrid(100)
    trace = TimeTrace(tgrid.times, 2.0 * tgrid.times - 0.5)
    coarse = downsample(trace, 13)
    assert coarse.times[0] == 0.0 and coarse.times[-1] == 1.0
    np.testing.assert_allclose(coarse.values, 2.0 * coarse.times - 0.5,
                               atol=1e-14)


def test_prefilter_preserves_affine():
    # moving average + spline keep an affine trace exactly
    times = np.linspace(0.0, 1.0, 20)
    trace = TimeTrace(times, 3.0 * times + 1.0)
    out = prefilter(trace, 80)
    np.testing.assert_allclose(out.values, 3.0 * out.times + 1.0, atol=1e-12)
    assert len(out) == 81
    assert out.provenance == "prefiltered"


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
