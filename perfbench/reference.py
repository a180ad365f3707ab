"""A fixed reference loop, timed beside the program to factor out the machine's drift.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by tens
of percent within a second, and by a factor of up to two over a minute, so
raw times of the same code on the same inputs spread wider than any useful
bound.  The reference loop is pure-Python work from the benchmark's own code:
``members.is_member`` on fixed permutations (tight loops over small tuples)
and ``members.build`` from a fixed seed (random draws and list building).
On a shared 2-vCPU Xeon VM, over ten minutes of drift, the two together
followed the program's ops more closely than either alone.  The loop never
calls eigenperm, so no change to the program changes its cost.

While ops run, a timer signal interrupts the program every ``TICK_S`` and
times one loop.  The samples cut the program's time into gaps, and the
handler's own time falls outside them.  Times "at reference speed" are
quoted for a machine on which one loop takes ``LOOP_S``: an op's time at
reference speed is the sum, over the gaps it overlaps, of

    overlap * LOOP_S / (loop time sampled around the gap)

so that an op that runs partly while the host is fast and partly while it
is slow is weighed by each part, not by the median of the two states.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import sys
import time
from array import array
from bisect import bisect_right
from types import FrameType

import members
from members import Shape

LOOP_S = 1e-3  # the nominal loop time that reference-speed times are quoted for
TICK_S = 0.02  # the timer's period while ops run
WARM_LOOPS = 50
BUILD_SHAPE = Shape(0.3)
HANDLER_FRAMES = 200  # stack headroom a sample needs, with a wide margin


class Reference:
    def __init__(self) -> None:
        rng = random.Random(0)
        self.perms = [members.build(40, Shape(0.35), rng).perm for _ in range(3)]
        self.perms += members.all_members(7)[7][:60]
        self.begins = array("d")  # when each sample's handler started
        self.ends = array("d")  # when it ended
        self.loops = array("d")  # how long its loop took
        self.weights = array("d")  # LOOP_S over the loop time around each gap
        self.stolen = 0.0  # time spent in the timer's handler
        self._busy = False
        # Frames the program may stand on for a tick to still sample: the
        # loop needs a few dozen more.
        self.max_depth = sys.getrecursionlimit() - HANDLER_FRAMES

    def loop(self) -> float:
        """Time one loop.  The collector is off so that garbage the program left
        is collected in the program's time, not the loop's."""
        is_member, build, perms = members.is_member, members.build, self.perms
        gc.disable()
        try:
            t0 = time.perf_counter()
            for p in perms:
                is_member(p)
            rng = random.Random(1)
            for _ in range(2):
                build(50, BUILD_SHAPE, rng)
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def warm(self) -> None:
        for _ in range(WARM_LOOPS):
            self.loop()

    def median(self, loops: int) -> float:
        return statistics.median(self.loop() for _ in range(loops))

    def sample(self) -> None:
        """Time one loop and record it."""
        if self._busy:  # a tick that arrived during the handler
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            loop = self.loop()
            self.begins.append(t0)
            self.ends.append(time.perf_counter())
            self.loops.append(loop)
        finally:
            self.stolen += time.perf_counter() - t0
            self._busy = False

    def _tick(self, signum: int, frame: FrameType | None) -> None:
        """The timer's handler.  Near the recursion limit the loop's own calls
        would raise RecursionError inside the program, so a tick that finds
        the program that deep is skipped; the gap around it simply grows."""
        depth = 0
        while frame is not None and depth < self.max_depth:
            frame, depth = frame.f_back, depth + 1
        if frame is None:
            self.sample()

    def start(self) -> None:
        """Sample now and then every TICK_S until stop()."""
        del self.begins[:], self.ends[:], self.loops[:]
        self.sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        self.weigh()

    def weigh(self) -> None:
        # Gap i runs from the end of sample i-1 to the start of sample i; its
        # loop time is the median of the four samples nearest to it, so that
        # one loop the host interrupted does not weigh a whole gap.
        loops, last = self.loops, len(self.loops) - 1
        self.weights = array("d", [0.0])
        for i in range(1, last + 1):
            self.weights.append(LOOP_S / statistics.median(loops[max(0, i - 2): min(last, i + 1) + 1]))

    def at_ref(self, begin: float, end: float) -> float:
        """The program's time between ``begin`` and ``end`` at reference speed:
        call it after stop() for a span inside the sampled stretch."""
        begins, ends, weights = self.begins, self.ends, self.weights
        total = 0.0
        i = max(1, bisect_right(ends, begin))
        while i < len(begins) and ends[i - 1] < end:
            overlap = min(end, begins[i]) - max(begin, ends[i - 1])
            if overlap > 0:
                total += overlap * weights[i]
            i += 1
        return total
