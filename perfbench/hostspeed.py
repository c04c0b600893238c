"""Fixed probes that read the host's current speed.

On a shared host the same code runs up to 1.3x slower for tens of
seconds at a time, which no amount of repetition within one run averages
out.  The benchmark therefore times a probe next to every timed call and
every set-up, and reports times scaled to the speed at which the probe
takes its ``reference_s``: ``seconds * reference_s / probe``.  The
probes run none of ``repro``'s code, so a change to the program moves
the scaled times exactly as much as the raw ones.

The slow state hurts interpreter work and array work unequally, so each
workload is scaled by the probe that resembles its work: an interpreter
loop for the pure-Python engine, the loop plus numpy sorts for the
array-heavy planes and sweeps (see the README for the measurements).
"""

import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

_KEYS = np.random.default_rng(2018).integers(0, 1 << 40, size=150_000)
#: Calls on each side whose probes set one call's speed estimate: a speed
#: state lasts tens of seconds, while one probe jitters by ~15%.
WINDOW = 4


@dataclass(frozen=True)
class Probe:
    name: str
    loops: int
    sorts: int
    #: The probe's median time on the 2-core Intel Xeon host where the
    #: benchmark was defined.
    reference_s: float

    def measure(self, repeats: int = 1) -> float:
        """Seconds the fixed work takes now: the median of ``repeats`` runs."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            total = 0
            for i in range(self.loops):
                total += i
            for _ in range(self.sorts):
                np.sort(_KEYS)
            times.append(time.perf_counter() - start)
        return sorted(times)[len(times) // 2]

    def scale(self, seconds: Sequence[float], probes: Sequence[float]) -> List[float]:
        """``seconds[i]`` at reference speed, each by the median probe of
        its neighbourhood of ``2 * WINDOW + 1`` entries."""
        out = []
        for i, raw in enumerate(seconds):
            near = sorted(probes[max(0, i - WINDOW) : i + WINDOW + 1])
            out.append(raw * self.reference_s / near[len(near) // 2])
        return out


INTERPRETER = Probe("interpreter", loops=200_000, sorts=0, reference_s=0.0107)
MIXED = Probe("mixed", loops=100_000, sorts=3, reference_s=0.0097)
PROBES = {probe.name: probe for probe in (INTERPRETER, MIXED)}
