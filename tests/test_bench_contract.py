"""The benchmark's contract with the package: every name that bench/tracer.py
patches resolves and takes the call shape the tracer reads, every patch is
undone on exit, and build_problem accepts a config built the way the
benchmark's setup builds one.  Only reads bench/; bench/smoke.py covers the
same ground end to end but takes far longer."""

import importlib
import importlib.util
import pathlib
import sys
from dataclasses import replace

from westinv.experiment import ExperimentConfig, build_problem, run_inversion
from westinv.forward import Problem

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("westinv_bench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patch_sites(traced):
    """(owner, attribute, original) for every place the tracer patches:
    the class for a method, every westinv module holding a function."""
    for module, _, _ in traced.values():
        importlib.import_module(module)
    modules = [m for n, m in list(sys.modules.items())
               if n == "westinv" or n.startswith("westinv.")]
    sites = []
    for module, path, _ in traced.values():
        owner = sys.modules[module]
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, parts[-1])
        if len(parts) > 1:
            sites.append((owner, parts[-1], original))
            continue
        sites.extend((mod, attr, original) for mod in modules
                     for attr, value in list(vars(mod).items())
                     if value is original)
    return sites


def test_tracer_patches_resolve_and_are_undone():
    tracer_module = load_tracer_module()
    sites = patch_sites(tracer_module.TRACED)
    cfg = ExperimentConfig(nx=21, nt=40, n_basis=3, sample_count=10,
                           max_iter=1, noise=0.01, alpha0=1.0)
    tracer = tracer_module.Tracer()
    with tracer.installed():
        for owner, attr, original in sites:
            assert getattr(owner, attr).__wrapped__ is original, attr
        report = run_inversion(cfg).report
        # frozen Newton's Jacobian marches no sensitivities; Halley's F''(0)
        # tensor does, at the first step (noise-free data: the run takes one)
        run_inversion(replace(cfg, method="halley", noise=0.0))
    for owner, attr, original in sites:
        assert getattr(owner, attr) is original, attr
    summary = tracer.summary()
    for name in ("experiment.build_problem", "data.synthesize",
                 "forward.solve", "laplacian.solve", "derivatives.jacobian",
                 "derivatives.sensitivity", "inversion.newton"):
        assert summary[name]["calls"] >= 1, name
    assert summary["forward.solve"]["work"] % cfg.nt == 0
    assert summary["inversion.newton"]["work"] == report.stop_index


def test_build_problem_from_default_config_dict():
    cfg = ExperimentConfig.from_dict(ExperimentConfig().to_dict())
    problem, basis, truth = build_problem(cfg)
    assert isinstance(problem, Problem)
    assert problem.obs_index == cfg.nx - 1
    assert len(problem.sample_times) == cfg.sample_count
    assert basis.m == cfg.n_basis and truth.samples.shape == (cfg.nx,)
