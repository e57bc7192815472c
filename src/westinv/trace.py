"""Boundary time-trace observations, and the CSV writer of every artifact
table."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TimeTrace:
    """Sampled boundary observation h(t), clean or noisy.

    times must be a 1-D array, finite and strictly ascending; noise_level
    is the recorded max-norm noise bound (0 for clean traces).
    """

    times: np.ndarray
    values: np.ndarray
    noise_level: float = 0.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")
        if self.times.ndim != 1 or not np.all(np.isfinite(self.times)):
            raise ValueError("sample times must be finite and 1-D")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly ascending")
        if not 0 <= self.noise_level < np.inf:
            raise ValueError("noise level must be finite and nonnegative")

    def __len__(self) -> int:
        return len(self.times)


def write_csv(path, header: str, rows) -> None:
    """Write a header line and one line per row: ints as str, floats (NaN
    included) as .17g."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(str(v) if isinstance(v, int) else f"{v:.17g}"
                               for v in row) + "\n" for row in rows)
