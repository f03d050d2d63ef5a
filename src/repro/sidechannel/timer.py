"""Timing measurement with realistic jitter.

The simulator's cache latencies are deterministic; real ``rdtscp``
measurements are not.  The :class:`Timer` adds seeded Gaussian noise on
top of the true latency, so every attack has to do the same thresholding
and repetition work as on hardware — including the §7.3 noise handling.
"""

from __future__ import annotations

import random
from collections.abc import Callable


class Timer:
    """Jittered cycle measurements over a machine's timing primitives."""

    def __init__(self, machine, *, rng: random.Random | None = None,
                 sigma: float | None = None) -> None:
        self.machine = machine
        self.rng = rng or random.Random(0x7133)
        self._sigma = sigma

    @property
    def sigma(self) -> float:
        if self._sigma is not None:
            return self._sigma
        return self.machine.timing_jitter_sigma

    def _jitter(self, cycles: int) -> int:
        sigma = self._sigma
        if sigma is None:
            sigma = self.machine.timing_jitter_sigma
        noisy = cycles + self.rng.gauss(0.0, sigma)
        return max(0, round(noisy))

    def time_load(self, va: int) -> int:
        """Measured latency of a data load at *va* (jittered cycles)."""
        return self._jitter(self.machine.timed_user_load(va))

    def time_exec(self, va: int) -> int:
        """Measured latency of an instruction fetch at *va*."""
        return self._jitter(self.machine.timed_user_exec(va))

    def time_call(self, fn: Callable[[], None]) -> int:
        """Measured duration of *fn* via the cycle counter."""
        start = self.machine.cycles
        fn()
        return self._jitter(self.machine.cycles - start)


def calibrate_threshold(timer: Timer, va: int, *, rounds: int = 32,
                        exec_: bool = False) -> int:
    """Return a hit/miss latency threshold for address *va*.

    Measures *rounds* hot and cold accesses and picks the midpoint of
    the two means — the standard Flush+Reload calibration loop.
    """
    if rounds < 1:
        raise ValueError(f"calibrate_threshold: rounds must be >= 1, "
                         f"got {rounds}")
    measure = timer.time_exec if exec_ else timer.time_load
    touch = (timer.machine.user_exec_touch if exec_
             else timer.machine.user_touch)
    hot, cold = [], []
    for _ in range(rounds):
        touch(va)
        hot.append(measure(va))
        timer.machine.clflush(va)
        cold.append(measure(va))
    hot_mean = sum(hot) / len(hot)
    cold_mean = sum(cold) / len(cold)
    if not cold_mean > hot_mean:
        raise RuntimeError("calibration failed: no hit/miss separation")
    return round((hot_mean + cold_mean) / 2)
