"""Synthetic data generation, noise injection and trace prefiltering."""

from __future__ import annotations

import numpy as np

from ._lapack import dgtsv
from .basis import CoefficientField
from .forward import Problem, solve_forward
from .grids import SpatialGrid
from .trace import TimeTrace

DEFAULT_SAMPLE_COUNT = 50


def add_noise(trace: TimeTrace, level: float, seed: int) -> TimeTrace:
    """Add i.i.d. uniform noise on [-eta, eta] with eta = level * max|h|,
    level in [0, 1] (ValueError otherwise).

    The recorded noise level is eta itself (max-norm convention).  The RNG is
    the counter-based Philox generator, fully determined by the seed.
    """
    if not 0 <= level <= 1:  # NaN too
        raise ValueError(f"noise level must be in [0, 1], got {level}")
    if level == 0:
        return TimeTrace(trace.times.copy(), trace.values.copy(), 0.0)
    eta = level * np.max(np.abs(trace.values))
    rng = np.random.Generator(np.random.Philox(seed))
    noise = rng.uniform(-eta, eta, size=trace.values.shape)
    return TimeTrace(trace.times.copy(), trace.values + noise, eta)


def synthesize_data(problem: Problem, truth, noise_level: float, seed: int,
                    clean: tuple | None = None):
    """Forward-simulate the truth coefficient, observe, sample the trace at
    the problem's sample times (the coarse measurement grid) and add uniform
    noise.  clean, when given, is an earlier call's (full, coarse) for this
    problem and truth, and takes the place of the forward solve.

    Returns (clean full-resolution trace, clean coarse trace, noisy coarse
    trace); the clean traces are read-only.
    """
    if clean is None:
        state = solve_forward(problem, truth)
        clean = (TimeTrace(problem.tgrid.times,
                           state.values[problem.obs_index].copy()),
                 TimeTrace(problem.sample_times, problem.sampled_trace(state)))
        for trace in clean:
            trace.times.setflags(write=False)
            trace.values.setflags(write=False)
    full, coarse = clean
    return full, coarse, add_noise(coarse, noise_level, seed)


def _spline(x: np.ndarray, y: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """scipy's not-a-knot CubicSpline(x, y)(xs) for n >= 4 ascending finite x
    and xs in [x[0], x[-1]]: its slope system, solved by the dgtsv that its
    solve_banded calls, and its power form y + m s + c1 s^2 + c0 s^2 s."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    rhs = np.r_[((dx[0] + 2 * d0) * dx[1] * slope[0]
                 + dx[0] * dx[0] * slope[1]) / d0,
                3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
                (dx[-1] * dx[-1] * slope[-2]
                 + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1]
    m = dgtsv(np.r_[dx[1:], d1], np.r_[dx[1], 2 * (dx[:-1] + dx[1:]), dx[-2]],
              np.r_[d0, dx[:-1]], rhs, overwrite_b=True)[3]
    t = (m[:-1] + m[1:] - 2 * slope) / dx
    i = np.clip(np.searchsorted(x, xs, "right") - 1, 0, len(dx) - 1)
    s = xs - x[i]
    return (y[i] + m[i] * s + ((slope - m[:-1]) / dx - t)[i] * (s * s)
            + (t / dx)[i] * (s * s * s))


def prefilter(raw: TimeTrace, target_nt: int) -> TimeTrace:
    """Smooth a coarse trace with a centered moving average (window 3, the
    endpoints kept as-is so affine traces pass through unchanged) and
    cubic-spline it onto the solver time grid of target_nt >= 1 steps."""
    if target_nt < 1:
        raise ValueError(f"target_nt must be at least 1, got {target_nt}")
    if len(raw) < 4:
        raise ValueError("prefilter needs at least 4 samples")
    smooth = raw.values.copy()
    smooth[1:-1] = (raw.values[:-2] + raw.values[1:-1] + raw.values[2:]) / 3.0
    if not np.all(np.isfinite(smooth)):  # TimeTrace checks the times
        raise ValueError("prefilter needs finite sample values")
    times = np.linspace(raw.times[0], raw.times[-1], target_nt + 1)
    return TimeTrace(times, _spline(raw.times, smooth, times), raw.noise_level)


def smooth_bump(grid: SpatialGrid, amplitude: float = 0.2) -> np.ndarray:
    """Sum of two Gaussian bumps, the default smooth truth coefficient."""
    x = grid.nodes
    return amplitude * (
        np.exp(-((x - 0.35) ** 2) / 0.01) + 0.6 * np.exp(-((x - 0.7) ** 2) / 0.02)
    )


def tent(grid: SpatialGrid, amplitude: float = 0.2) -> np.ndarray:
    """Piecewise-linear tent centered at x = 0.5 with support [0.25, 0.75]."""
    x = grid.nodes
    return amplitude * np.clip(1.0 - np.abs(x - 0.5) / 0.25, 0.0, 1.0)


def two_step(grid: SpatialGrid, amplitude: float = 0.2) -> np.ndarray:
    """Piecewise-constant profile with two plateaus."""
    x = grid.nodes
    out = np.zeros_like(x)
    out[(x >= 0.2) & (x < 0.45)] = amplitude
    out[(x >= 0.55) & (x < 0.8)] = 0.5 * amplitude
    return out


TRUTH_FAMILIES = {
    "smooth_bump": smooth_bump,
    "tent": tent,
    "two_step": two_step,
}


def truth_field(name: str, grid: SpatialGrid,
                amplitude: float = 0.2) -> CoefficientField:
    """A named truth coefficient as a CoefficientField of grid samples; a
    non-finite amplitude, or one whose samples overflow, raises ValueError."""
    if name not in TRUTH_FAMILIES:
        raise ValueError(
            f"unknown truth family {name!r}; choose from {sorted(TRUTH_FAMILIES)}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        samples = TRUTH_FAMILIES[name](grid, amplitude)
    if not (np.isfinite(amplitude) and np.all(np.isfinite(samples))):
        raise ValueError(f"truth samples must be finite, got amplitude {amplitude}")
    return CoefficientField.from_samples(samples, grid)
