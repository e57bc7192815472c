"""Golden bytes of every CSV artifact: ints print as str, floats (NaN
included) as .17g, one shared writer."""

import numpy as np

from westinv import cli
from westinv.basis import CoefficientField
from westinv.experiment import (
    ExperimentConfig,
    ExperimentResult,
    write_artifacts,
)
from westinv.forward import StateField
from westinv.grids import SpatialGrid
from westinv.inversion import InversionReport
from westinv.trace import TimeTrace

NAN = float("nan")


def test_artifact_csv_bytes(tmp_path):
    grid = SpatialGrid(3)
    trace = TimeTrace([0.0, 0.5, 1.0], [0.1, NAN, -2.5e-300])
    final = CoefficientField(None, None, np.array([1 / 3, 0.0, -0.0]), grid)
    truth = CoefficientField(None, None, np.array([0.0, NAN, 0.25]), grid)
    # err_l2 NaN, as a run without a truth records it
    report = InversionReport([1.0, 0.1], [0.5, NAN], [NAN, NAN], 1,
                             "max-iter", final)
    result = ExperimentResult(
        ExperimentConfig(), report, truth, 3, 0.2, 0.1,
        sigma=np.array([3.0, NAN, 1e-17]), q=0.5,
        traces={"clean": trace, "noisy": trace, "filtered": trace})
    write_artifacts(result, tmp_path)
    golden = {
        "trace_clean.csv": "t,h\n0,0.10000000000000001\n0.5,nan\n"
                           "1,-2.5e-300\n",
        "history.csv": "iter,residual,err_linf,err_l2\n0,1,0.5,nan\n"
                       "1,0.10000000000000001,nan,nan\n",
        "kappa_final.csv": "x,kappa_true,kappa_rec\n0,0,0.33333333333333331\n"
                           "0.5,nan,0\n1,0.25,-0\n",
        "svd.csv": "k,sigma_k\n0,3\n1,nan\n2,1.0000000000000001e-17\n",
    }
    for name, text in golden.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name


def test_convergence_csv_bytes(tmp_path, monkeypatch):
    # a stand-in solve of -1/3 everywhere: the exact field f(x) t^2 peaks at
    # 1 at x = t = 1, so every level's error is 4/3 and the first order NaN
    monkeypatch.setattr(
        cli, "solve_forward", lambda problem, kappa: StateField(
            np.full((problem.grid.nx, problem.tgrid.nt + 1), -1 / 3),
            problem.grid, problem.tgrid))
    assert cli.main(["convergence-study", "--levels", "2", "--nx0", "5",
                     "--nt0", "8", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "convergence.csv").read_bytes() == (
        b"nx,nt,err_linf,order\n5,8,1.3333333333333333,nan\n"
        b"9,16,1.3333333333333333,0\n")
