"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the same op can take half again as long from
one second to the next, while the host core is busy elsewhere.  To
compare commits, a fixed pure-Python reference task runs every
``PERIOD_S`` of op time from a SIGALRM handler inside the process that
runs the op, so it meets the same machine state.  Timings are then
reported at nominal speed: raw seconds x ``REF_S`` / mean reference time.
The time the handler takes is subtracted from each op.  Raw figures and
the mean reference time are printed beside the calibrated ones.
"""

from __future__ import annotations

import gc
import json
import signal
import time

PERIOD_S = 0.1
# The reference task's time on the 2-vCPU machine the bounds were set on,
# in its faster state; calibrated seconds are seconds at that speed.
REF_S = 1.3e-3


def reference_task() -> int:
    """Small dicts, JSON text and tuples: the kind of work srqkd's Python does."""
    rows = []
    for i in range(300):
        d = {"round_id": i, "setting": "number" if i & 1 else "superposition", "p": i * 0.5, "lost": i % 3 == 0}
        rows.append(json.dumps(d))
        rows.append(tuple(sorted(d)))
    return len(rows)


class Calibrator:
    """Reference-task times sampled while inside ``with calibrator:`` blocks.

    The timer's remaining time is kept between blocks, so sampling follows
    op time however short each op is.
    """

    def __init__(self):
        self.slices: list = []
        self.total = 0.0
        self._remaining = PERIOD_S
        self._previous = None

    def sample(self, *_) -> None:
        # No collections of the op's objects inside a sample: its time must
        # follow the machine, not the heap the code under test left behind.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_task()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.slices.append(took)
        self.total += took

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self._remaining, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._remaining = signal.setitimer(signal.ITIMER_REAL, 0)[0] or PERIOD_S
        signal.signal(signal.SIGALRM, self._previous)

    def mean(self) -> float:
        if not self.slices:
            self.sample()
        return sum(self.slices) / len(self.slices)
