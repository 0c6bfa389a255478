"""Host-speed meter: fixed calibration work, sampled on a wall-clock timer.

A shared host can change speed by a quarter from one second to the next
(other tenants contend for the core's caches and execution units; no CPU
time is stolen, so process time drifts with wall time). A timed command
then reads fast or slow with the host, and a 20 s run can sit mostly in a
fast or a slow stretch, which no median within the run removes.

While a ``Meter`` is entered, a SIGALRM every ``INTERVAL_S`` runs one
calibration round between two bytecodes of whatever is running, stabmatch
included, and records the round's time. The rounds never call stabmatch.
A command's time in *reference seconds* is its time divided by the median
round time sampled during it (and the last round before it), times
``CALIBRATION_REF_S``: the host's drift moves numerator and denominator
together and cancels, while a change to the program moves only the
numerator. The time the rounds take is kept out of every reading of
``clock``, so it is not charged to the command or span they interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time

CALIBRATION_N = 400
INTERVAL_S = 0.025
# The median time of one calibration round on the reference host (2-vCPU
# Intel Xeon VM, CPython 3.11.7). Fixed: it only sets the scale.
CALIBRATION_REF_S = 0.001


class _Cell:
    __slots__ = ("key", "depth")

    def __init__(self, key, depth):
        self.key = key
        self.depth = depth


def calibration_round() -> float:
    """Times fixed pure-Python work of the kinds stabmatch does: dict
    building, sorting with a key, string formatting and joining, and small
    objects keyed by tuples in a memo, as the search keeps them."""
    start = time.perf_counter()
    pointer = {}
    for i in range(CALIBRATION_N):
        pointer[i] = (i * 7919) % CALIBRATION_N
    order = sorted(pointer.items(), key=lambda kv: (kv[1], kv[0]))
    text = "\n".join(f"{u} {v}" for u, v in order)
    memo, frontier = {}, [tuple(range(6))]
    for i in range(CALIBRATION_N):
        state = frontier[i % len(frontier)]
        nxt = tuple(sorted(state[1:] + ((state[0] * 31 + i) % 97,)))
        if nxt not in memo:
            memo[nxt] = _Cell(nxt, i)
            frontier.append(nxt)
    if len(text) + len(memo) <= 0:
        raise AssertionError("calibration round computed nothing")
    return time.perf_counter() - start


class Meter:
    """Samples calibration rounds while entered; see the module docstring."""

    def __init__(self):
        self.rounds: list[float] = []
        self.spent = 0.0  # seconds spent in sampling, kept out of clock()
        self._previous = None

    def __enter__(self) -> Meter:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        self.rounds.append(calibration_round())
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        """``time.perf_counter`` less the time spent sampling. Retries if a
        round ran between reading the two, so the reading is exact."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def mark(self) -> int:
        """Marks the start of an interval; pass it to ``to_ref``."""
        return len(self.rounds)

    def to_ref(self, seconds: float, mark: int = 0) -> float:
        """``seconds`` measured since ``mark``, in reference seconds: scaled
        by the median round of the interval and the last round before it
        (with no mark, of every round so far). The median ignores a round
        that an interrupt slowed."""
        rounds = self.rounds[max(0, mark - 1):]
        return seconds / statistics.median(rounds) * CALIBRATION_REF_S
