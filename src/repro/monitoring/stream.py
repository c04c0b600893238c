"""Synthetic epoch streams for monitoring experiments.

An :class:`EpochStream` yields one distribution per epoch — the "state of
the world" the network samples during that epoch.  The included streams
model the scenarios from the paper's introduction:

- :class:`StationaryStream` — a fixed distribution (healthy baseline, or
  a persistent fault).
- :class:`DriftStream` — linear interpolation from one distribution to
  another over a window (slow sensor drift).
- :class:`AttackWindowStream` — a baseline with a foreign distribution
  mixed in during ``[start, end)`` (a DoS burst).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.distributions.base import DiscreteDistribution
from repro.exceptions import ParameterError


@runtime_checkable
class EpochStream(Protocol):
    """Yields the underlying distribution for each epoch."""

    def distribution_at(self, epoch: int) -> DiscreteDistribution:
        """The distribution the environment follows during *epoch*."""
        ...


@dataclass(frozen=True)
class StationaryStream:
    """The same distribution every epoch."""

    distribution: DiscreteDistribution

    def distribution_at(self, epoch: int) -> DiscreteDistribution:
        if epoch < 0:
            raise ParameterError(f"epoch must be >= 0, got {epoch}")
        return self.distribution


@dataclass(frozen=True)
class DriftStream:
    """Linear drift from *start* to *end* over ``duration`` epochs.

    Epoch 0 is exactly *start*; epochs ≥ duration are exactly *end*.
    """

    start: DiscreteDistribution
    end: DiscreteDistribution
    duration: int

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ParameterError(f"duration must be >= 1, got {self.duration}")
        if self.start.n != self.end.n:
            raise ParameterError("start and end must share a domain")

    def distribution_at(self, epoch: int) -> DiscreteDistribution:
        if epoch < 0:
            raise ParameterError(f"epoch must be >= 0, got {epoch}")
        if epoch >= self.duration:
            return self.end
        weight = 1.0 - epoch / self.duration
        return self.start.mix(self.end, weight)


@dataclass(frozen=True)
class AttackWindowStream:
    """A baseline with an attack mixture active during ``[start, end)``.

    During the window the environment follows
    ``(1 − share)·baseline + share·attack``.
    """

    baseline: DiscreteDistribution
    attack: DiscreteDistribution
    share: float
    start: int
    end: int

    def __post_init__(self) -> None:
        if not 0.0 < self.share <= 1.0:
            raise ParameterError(f"share must be in (0, 1], got {self.share}")
        if not 0 <= self.start < self.end:
            raise ParameterError(
                f"need 0 <= start < end, got [{self.start}, {self.end})"
            )
        if self.baseline.n != self.attack.n:
            raise ParameterError("baseline and attack must share a domain")

    def distribution_at(self, epoch: int) -> DiscreteDistribution:
        if epoch < 0:
            raise ParameterError(f"epoch must be >= 0, got {epoch}")
        if self.start <= epoch < self.end:
            return self.attack.mix(self.baseline, self.share)
        return self.baseline
