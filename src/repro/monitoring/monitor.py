"""The epoch monitor: threshold-network testing plus alarm hysteresis.

Per epoch, the whole network executes one Theorem 1.2 trial (every node
fresh-samples and votes; the alarm count is compared to ``T``).  A single
epoch's verdict errs with probability up to 1/3; the monitor therefore
raises an **incident** only after ``raise_after`` consecutive alarming
epochs and clears it after ``clear_after`` consecutive quiet ones.  Since
epoch verdicts are independent given the stream, the false-incident rate
per healthy epoch is at most ``(1/3)^{raise_after}`` and the
missed-detection rate during a sustained deviation is at most
``(1/3)^{clear_after}`` — the standard hysteresis trade-off, measurable
with :meth:`UniformityMonitor.run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.monitoring.stream import EpochStream
from repro.rng import SeedLike, derive, ensure_rng, spawn
from repro.zeroround.decision import threshold_accepts
from repro.zeroround.threshold_tester import ThresholdNetworkTester


@dataclass(frozen=True)
class Incident:
    """A raised-and-cleared (or still-open) deviation incident.

    ``raised_at`` is the epoch the incident opened (the last of the
    ``raise_after`` consecutive alarms); ``cleared_at`` is the epoch it
    closed, or ``None`` if still open at the end of the run.
    """

    raised_at: int
    cleared_at: Optional[int]

    def duration(self, total_epochs: int) -> int:
        """Epochs the incident was open (clamped to the run length)."""
        end = self.cleared_at if self.cleared_at is not None else total_epochs
        return end - self.raised_at


@dataclass(frozen=True)
class EpochRecord:
    """One epoch's observation."""

    epoch: int
    alarms: int
    alarming: bool
    incident_open: bool


@dataclass(frozen=True)
class MonitorReport:
    """Full history of one monitoring run."""

    records: Tuple[EpochRecord, ...]
    incidents: Tuple[Incident, ...]

    @property
    def epochs(self) -> int:
        return len(self.records)

    def incident_open_at(self, epoch: int) -> bool:
        """Whether an incident was open during *epoch*."""
        if not 0 <= epoch < len(self.records):
            raise ParameterError(
                f"epoch must be in [0, {len(self.records)}), got {epoch}"
            )
        return self.records[epoch].incident_open

    def epochs_in_incident(self) -> int:
        """Total epochs spent inside incidents."""
        return sum(1 for r in self.records if r.incident_open)


@dataclass(frozen=True)
class UniformityMonitor:
    """Continuous uniformity monitoring with hysteresis.

    Parameters
    ----------
    tester:
        The solved Theorem 1.2 network tester run once per epoch.
    raise_after:
        Consecutive alarming epochs before an incident opens (≥ 1).
    clear_after:
        Consecutive quiet epochs before an open incident closes (≥ 1).
    """

    tester: ThresholdNetworkTester
    raise_after: int = 2
    clear_after: int = 2

    def __post_init__(self) -> None:
        if self.raise_after < 1:
            raise ParameterError(f"raise_after must be >= 1, got {self.raise_after}")
        if self.clear_after < 1:
            raise ParameterError(f"clear_after must be >= 1, got {self.clear_after}")

    def run(
        self,
        stream: EpochStream,
        epochs: int,
        rng: SeedLike = None,
    ) -> MonitorReport:
        """Monitor *stream* for *epochs* epochs; return the full history.

        Each epoch draws from its own stream keyed by ``(rng, epoch)``, so
        ``run(stream, N)`` records are a bit-identical prefix of
        ``run(stream, 2 * N)`` under the same seed: extending a run never
        rewrites its history.
        """
        if epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {epochs}")
        if rng is None or isinstance(rng, (int, np.integer)):
            # Stable per-epoch key: independent of how many epochs run.
            # ``None`` still means fresh entropy — but drawn once, so the
            # run is internally prefix-stable all the same.
            base = (
                int(np.random.SeedSequence().generate_state(1)[0])
                if rng is None
                else int(rng)
            )

            def epoch_rng(epoch: int) -> np.random.Generator:
                return derive(base, "monitor", epoch)

        else:
            # Generator / SeedSequence parent: sequential spawns are also
            # prefix-stable (spawn advances only the parent's spawn counter).
            gen = ensure_rng(rng)

            def epoch_rng(epoch: int) -> np.random.Generator:
                return spawn(gen, 1)[0]

        threshold = self.tester.params.threshold
        records: List[EpochRecord] = []
        incidents: List[Incident] = []
        consecutive_alarms = 0
        consecutive_quiet = 0
        open_incident: Optional[int] = None

        for epoch in range(epochs):
            distribution = stream.distribution_at(epoch)
            flags = self.tester.alarms(distribution, epoch_rng(epoch))
            alarms = int(flags.sum())
            alarming = not threshold_accepts(flags, threshold)
            if alarming:
                consecutive_alarms += 1
                consecutive_quiet = 0
            else:
                consecutive_quiet += 1
                consecutive_alarms = 0
            if open_incident is None and consecutive_alarms >= self.raise_after:
                open_incident = epoch
            elif open_incident is not None and consecutive_quiet >= self.clear_after:
                incidents.append(Incident(raised_at=open_incident, cleared_at=epoch))
                open_incident = None
            records.append(
                EpochRecord(
                    epoch=epoch,
                    alarms=alarms,
                    alarming=alarming,
                    incident_open=open_incident is not None,
                )
            )
        if open_incident is not None:
            incidents.append(Incident(raised_at=open_incident, cleared_at=None))
        return MonitorReport(records=tuple(records), incidents=tuple(incidents))
