"""The reference loop, and a pacer that samples it inside a process.

The shared machine this was written on changes a thread's speed from
one moment to the next, by up to 1.7x, as other tenants come and go.
A fixed pure-Python loop that never touches the library slows with it,
so the benchmark prices work in iterations of that loop: a time times
the loop's rate measured on the same thread at the same moment.

In-process ops take the loop right before and after them (see
run.run_pass). A child process that runs for seconds cannot: its speed
drifts while it runs, and the parent's samples do not follow it (their
correlation with the child's time was below 0.35). `Pacer` therefore
runs a short sample of the loop inside the child every PERIOD_S, from a
timer signal, and reports the mean rate over the child's life. On that
machine the child's time and the inverse of that rate correlated at
about 0.9, and priced in iterations two CLI commands spread by 0.05 and
0.09 over eight runs, against 0.19 and 0.17 in seconds. The samples
take about 0.3% of the child's time.
"""

from __future__ import annotations

import signal
import time

PACE_LOOP = 2_000
PERIOD_S = 0.05


def loop_seconds(iterations: int) -> float:
    """Time of a fixed pure-Python loop that never touches the library."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return time.perf_counter() - start


class Pacer:
    """Samples the reference loop every PERIOD_S on this process's main thread."""

    def __init__(self):
        self.samples: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def sample(self) -> None:
        self.samples.append(loop_seconds(PACE_LOOP))

    def stop(self) -> float:
        """Stop sampling; the loop's mean rate, in iterations per second."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.sample()  # a process shorter than PERIOD_S still gets one
        return PACE_LOOP * len(self.samples) / sum(self.samples)
