"""Step timing with host-speed calibration.

The benchmark runs on shared hosts where other tenants slow a single core
by up to 2x for seconds to minutes at a time. A fixed calibration kernel,
run just before and just after each step and outside the step's time,
measures how fast the host is at that moment; each step's time is rescaled
to a reference host on which the kernel takes ``CAL_REF_S``. Interference
that slows the step and the kernel alike cancels out; a change in msfusion
does not touch the kernel, so it shows in full.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# A round figure near the kernel's typical time on a 2-core Xeon VM, so
# normalized times read close to that host's seconds.
CAL_REF_S = 0.012

_CAL_X = np.pad(
    np.random.default_rng(0).standard_normal((3, 16, 14, 14)), ((0, 0), (0, 0), (1, 1), (1, 1))
)
_CAL_W = np.random.default_rng(1).standard_normal((16, 16, 3, 3))

clock = time.perf_counter


def _kernel() -> None:
    items = [(i % 97, str(i), i * 0.5) for i in range(3000)]
    items.sort(key=lambda t: (-t[0], t[2]))
    groups: dict[int, list[float]] = {}
    for key, _, value in items:
        groups.setdefault(key, []).append(value)
    windows = sliding_window_view(_CAL_X, (3, 3), axis=(2, 3))
    np.einsum("fchwuv,ocuv->fohw", windows, _CAL_W)


def calibrate(repeats: int = 5) -> float:
    """Seconds that a fixed mix of interpreter work (tuples, sorting, dict
    grouping) and a numpy strided einsum takes on the host right now: the
    fastest of ``repeats`` runs, so a garbage-collection pause or a
    millisecond spike does not count, while a slowdown lasting the whole
    measurement does."""
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        _kernel()
        best = min(best, clock() - t0)
    return best


class StepTimer:
    """Accumulates the seconds of each named step of one op.

    With ``calibrated`` set, :func:`calibrate` runs before and after every
    step (the run after one step serves as the run before the next) and
    ``normalized`` accumulates each step's time rescaled by the mean of the
    two to the reference host.
    """

    def __init__(self, calibrated: bool = False):
        self.calibrated = calibrated
        self.steps: dict[str, float] = defaultdict(float)
        self.normalized = 0.0
        self._last_cal: float | None = None

    @contextmanager
    def step(self, name: str):
        if self.calibrated and self._last_cal is None:
            self._last_cal = calibrate()
        t0 = clock()
        yield
        elapsed = clock() - t0
        self.steps[name] += elapsed
        if self.calibrated:
            before, self._last_cal = self._last_cal, calibrate()
            self.normalized += elapsed * CAL_REF_S * 2.0 / (before + self._last_cal)

    @property
    def total(self) -> float:
        """The op's own time: every step, no calibration."""
        return sum(self.steps.values())
