"""Machine-speed calibration of the benchmark's timings.

On a shared machine other tenants slow a whole core for stretches of
seconds: on a 2-vCPU x86 VM, a fixed pure-Python loop took anywhere from
1.0x to 1.75x its fastest time, and runs of the same work differed by up
to 50%.  So the benchmark times a fixed reference loop, which shares no
code with grpn, between requests, and scales each timing by
``NOMINAL_S / reference time measured next to it``.  A calibrated time is
what the work would take on a core on which the reference loop takes
NOMINAL_S, the loop's fastest time on that VM.
Raw times are recorded beside the calibrated ones.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left, bisect_right

NOMINAL_S = 140e-6
PROBE_INTERVAL_S = 0.05
PROBE_REPEATS = 5

_PERMS = [random.Random(k).sample(range(1, 25), 24) for k in range(4)]


def reference_loop() -> float:
    """Seconds for a fixed mix of Schensted insertion, tuples and dicts,
    the interpreter work grpn does most."""
    start = time.perf_counter()
    for perm in _PERMS:
        rows: list[list[int]] = []
        for x in perm:
            for row in rows:
                pos = bisect_right(row, x)
                if pos == len(row):
                    row.append(x)
                    break
                x, row[pos] = row[pos], x
            else:
                rows.append([x])
        shape = tuple(tuple(row) for row in rows)
        index = {x: (t, len(row)) for t, row in enumerate(shape) for x in row}
        sum(1 for a in perm for b in perm if a < b and index[a][0] > index[b][0])
    return time.perf_counter() - start


class Calibrator:
    """Reference-loop times taken between requests, and the speed factor
    of any interval from the probes that bracket it."""

    def __init__(self):
        self.times: list[float] = []  # when each probe ended
        self.probes: list[float] = []  # best of PROBE_REPEATS loop times
        self.spent = 0.0  # seconds spent probing

    def probe(self) -> None:
        start = time.perf_counter()
        best = min(reference_loop() for _ in range(PROBE_REPEATS))
        end = time.perf_counter()
        self.times.append(end)
        self.probes.append(best)
        self.spent += end - start

    def maybe_probe(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_INTERVAL_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean of the last probe before ``start`` and the
        first probe after ``end``."""
        before = bisect_right(self.times, start) - 1
        after = bisect_left(self.times, end)
        around = [self.probes[k] for k in (before, after) if 0 <= k < len(self.probes)]
        return NOMINAL_S * len(around) / sum(around)
