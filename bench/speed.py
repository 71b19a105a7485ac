"""Scaling measured times to a reference machine speed.

The speed of this kind of shared machine drifts with other tenants' load,
by 10-40 % for tens of seconds at a time and on every CPU at once, so two
runs of the same code can differ by more than any useful regression bound.
Each timed call is therefore bracketed by a fixed pure-Python calibration
loop, and its time is scaled by REFERENCE_S over the loop's time around
it: the result is the call's time at the speed at which the loop takes
REFERENCE_S (its fastest on the development machine).  A change to the
package moves the call's time but not the loop's, so it still shows in
full.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.024


def calibrate() -> float:
    """Seconds for the calibration loop: integer arithmetic, then tuple,
    dict and list work, so that both kinds of slow-down it tracks weigh in."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc += i * i
    table: dict = {}
    recent: list = []
    for i in range(30_000):
        key = (i & 255, i >> 8)
        table[key] = table.get(key, 0) + 1
        recent.append(key)
        if len(recent) > 500:
            recent = recent[250:]
    sorted(table.items())
    return time.perf_counter() - t0


class Meter:
    """Scales consecutive timed calls; the loop after one call is the loop
    before the next."""

    def __init__(self):
        self.last = calibrate()

    def scale(self, seconds: float) -> float:
        now = calibrate()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return seconds * factor


def scaled_median(fn, reps: int) -> tuple[float, object]:
    """Median over reps of fn's scaled time, and fn's last result."""
    meter, times, result = Meter(), [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(meter.scale(time.perf_counter() - t0))
    return statistics.median(times), result
