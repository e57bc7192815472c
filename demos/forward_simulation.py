"""Forward simulation walkthrough.

Solves the damped nonlinear wave model with a space-dependent nonlinearity
coefficient, verifies second-order convergence against a manufactured
solution with the ``westinv convergence-study`` subcommand, and shows how
the nonlinearity distorts the boundary pressure trace relative to the
linear model.

Run from the repository root:  python3 demos/forward_simulation.py
"""

import os

import numpy as np

from westinv import cli, smooth_bump, solve_forward
from westinv.experiment import ExperimentConfig, build_problem
from westinv.trace import write_csv

OUT = os.path.join(os.path.dirname(__file__), "output", "forward")


def convergence_study():
    print("Manufactured-solution refinement study (exact p = f(x) t^2):")
    code = cli.main(["convergence-study", "--levels", "4", "--nx0", "26",
                     "--nt0", "50", "--out", OUT])
    if code != 0:
        raise SystemExit(code)


def nonlinear_trace_comparison():
    print("\nEffect of the nonlinearity on the boundary trace at x = 1:")
    # the default sine_half excitation on 101 nodes and 400 steps; the
    # smooth ramp keeps the pressure near its peak, which is where the
    # quadratic nonlinearity is most visible
    problem, _, _ = build_problem(ExperimentConfig(time_profile="ramp"))
    grid, tgrid = problem.grid, problem.tgrid
    kappa = smooth_bump(grid, amplitude=0.3)
    obs = problem.obs_index
    linear = solve_forward(problem, None).values[obs]
    nonlin = solve_forward(problem, kappa).values[obs]
    gap = np.max(np.abs(nonlin - linear))
    rel = gap / np.max(np.abs(linear))
    print(f"  max |h_nonlinear - h_linear| = {gap:.4e} "
          f"({100 * rel:.2f}% of the peak trace)")
    print("  this gap is the signal the reconstruction methods invert.")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "traces.csv")
    write_csv(path, "t,h_linear,h_nonlinear",
              zip(tgrid.times, linear, nonlin))
    print(f"  traces written to {path}")


if __name__ == "__main__":
    convergence_study()
    nonlinear_trace_comparison()
