"""Reconstruction method comparison.

Synthesizes a noisy boundary trace for a smooth truth coefficient and
reconstructs it with the three iterative methods — gradient descent
(Landweber), regularized frozen Newton and the frozen Halley
predictor-corrector — all stopped by the discrepancy principle.

Run from the repository root:  python3 demos/reconstruction_comparison.py
(takes around half a minute)
"""

import os

from westinv import ExperimentConfig, run_inversion
from westinv.trace import write_csv

OUT = os.path.join(os.path.dirname(__file__), "output", "reconstruction")


def base_config(method):
    return ExperimentConfig(
        nx=101, nt=400, truth_family="smooth_bump", truth_amplitude=0.3,
        time_profile="ramp", noise=0.01, seed=11, method=method,
        alpha0=4.0, max_iter=20, mu=0.01,
    )


def main():
    os.makedirs(OUT, exist_ok=True)
    print("Reconstruction of a two-bump coefficient from a 1% noisy trace")
    print(f"{'method':>10} {'iterations':>10} {'stop':>12} "
          f"{'err Linf':>10} {'err L2':>10}")
    finals = {}
    for method in ("landweber", "newton", "halley"):
        result = run_inversion(base_config(method))
        rep = result.report
        k = rep.stop_index
        print(f"{method:>10} {k:>10d} {rep.stop_reason:>12} "
              f"{rep.errors_linf[k]:>10.4f} {rep.errors_l2[k]:>10.4f}")
        finals[method] = rep.final.samples
        truth = result.truth

    path = os.path.join(OUT, "kappa_comparison.csv")
    write_csv(path, "x,kappa_true,landweber,newton,halley",
              zip(truth.grid.nodes, truth.samples, finals["landweber"],
                  finals["newton"], finals["halley"]))
    print(f"\nreconstructions written to {path}")
    print("note: Halley matches or slightly beats Newton per iteration, "
          "while Landweber needs far more iterations for comparable error.")


if __name__ == "__main__":
    main()
