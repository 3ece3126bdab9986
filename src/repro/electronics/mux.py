"""Working-electrode multiplexer (paper Sec. II-C and Sec. III).

"Multiplexing circuits to support the readout of multiple current sources
and the drive of multiple control points for the potential" — and on the
Fig. 4 chip, "the different working electrodes share the same counter and
reference electrodes, so it is necessary to multiplex the signal of the
working electrodes, in order to activate them sequentially."

:class:`Multiplexer` models the analog switch matrix: channel count,
switch settling, charge injection, and the round-robin
:class:`MuxSchedule` that sequences the WEs.  Its throughput model feeds
the sample-throughput property of Sec. II-B and the readout-sharing
ablation (A5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ElectronicsError
from repro.units import ensure_non_negative, ensure_positive

__all__ = ["Multiplexer", "MuxSlot", "MuxSchedule"]


@dataclass(frozen=True)
class MuxSlot:
    """One dwell interval of the schedule: ``channel`` active in [start, end)."""

    channel: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ElectronicsError("slot end must be after start")

    @property
    def dwell(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class MuxSchedule:
    """A periodic round-robin schedule over named channels."""

    slots: tuple[MuxSlot, ...]

    def __post_init__(self) -> None:
        if not self.slots:
            raise ElectronicsError("schedule needs at least one slot")
        for a, b in zip(self.slots, self.slots[1:]):
            if b.start < a.end:
                raise ElectronicsError("slots must not overlap")

    @property
    def period(self) -> float:
        """One full scan over all channels, seconds."""
        return self.slots[-1].end - self.slots[0].start

    def channels(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(slot.channel for slot in self.slots))

    def active_channel(self, t: float) -> str | None:
        """Channel selected at time ``t`` (cyclic), ``None`` in gaps."""
        if self.period <= 0.0:
            return self.slots[0].channel
        phase = self.slots[0].start + math.fmod(
            max(t - self.slots[0].start, 0.0), self.period)
        for slot in self.slots:
            if slot.start <= phase < slot.end:
                return slot.channel
        return None

    def time_since_switch(self, t: float) -> float:
        """Seconds since the active slot began (settling bookkeeping)."""
        if self.period <= 0.0:
            return t
        phase = self.slots[0].start + math.fmod(
            max(t - self.slots[0].start, 0.0), self.period)
        for slot in self.slots:
            if slot.start <= phase < slot.end:
                return phase - slot.start
        return 0.0

    def times_since_switch(self, times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`time_since_switch` over a whole time axis.

        One ``searchsorted`` over the slot starts replaces the
        per-sample Python scan; gaps between slots map to 0.0, exactly
        as the scalar method does.
        """
        t = np.asarray(times, dtype=float)
        if self.period <= 0.0:
            return t.copy()
        start0 = self.slots[0].start
        phase = start0 + np.fmod(np.maximum(t - start0, 0.0), self.period)
        starts = np.asarray([slot.start for slot in self.slots])
        ends = np.asarray([slot.end for slot in self.slots])
        idx = np.searchsorted(starts, phase, side="right") - 1
        return np.where(phase < ends[idx], phase - starts[idx], 0.0)


@dataclass(frozen=True)
class Multiplexer:
    """Analog mux in front of a shared readout channel.

    Parameters
    ----------
    n_channels:
        Number of selectable working electrodes.
    settling_time:
        Time constant of the transient after a switch, seconds; samples
        taken before ~5 tau carry a settling error.
    charge_injection:
        Charge kicked into the sensor node per switching event, coulombs;
        appears as a decaying current spike.
    on_resistance:
        Switch on-resistance, ohms (adds to the solution resistance seen
        by the potentiostat).
    power, area_mm2:
        Cost-model bookkeeping.
    """

    n_channels: int = 5
    settling_time: float = 0.05
    charge_injection: float = 1.0e-12
    on_resistance: float = 100.0
    power: float = 5.0e-6
    area_mm2: float = 0.02

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise ElectronicsError("mux needs at least one channel")
        ensure_positive(self.settling_time, "settling_time")
        ensure_non_negative(self.charge_injection, "charge_injection")
        ensure_non_negative(self.on_resistance, "on_resistance")

    def round_robin(self, channels: list[str], dwell: float,
                    start: float = 0.0) -> MuxSchedule:
        """Equal-dwell schedule over ``channels``.

        ``dwell`` must leave room for settling: at least 5x the settling
        time, otherwise every sample in the slot is still slewing.
        """
        if not channels:
            raise ElectronicsError("need at least one channel to schedule")
        if len(channels) > self.n_channels:
            raise ElectronicsError(
                f"{len(channels)} channels exceed the mux's "
                f"{self.n_channels}")
        ensure_positive(dwell, "dwell")
        if dwell < 5.0 * self.settling_time:
            raise ElectronicsError(
                f"dwell {dwell:.3g}s is shorter than 5x settling "
                f"({5.0 * self.settling_time:.3g}s); samples would slew")
        slots = []
        t = start
        for name in channels:
            slots.append(MuxSlot(channel=name, start=t, end=t + dwell))
            t += dwell
        return MuxSchedule(tuple(slots))

    def settling_factor(self, time_since_switch: float) -> float:
        """Fraction of the true signal visible ``t`` after a switch.

        First-order settling: ``1 - exp(-t/tau)``.
        """
        t = max(float(time_since_switch), 0.0)
        return 1.0 - math.exp(-t / self.settling_time)

    def injection_current(self, time_since_switch: float) -> float:
        """Charge-injection spike decaying with the settling constant, A."""
        t = max(float(time_since_switch), 0.0)
        return (self.charge_injection / self.settling_time
                * math.exp(-t / self.settling_time))

    def settling_factors(self, times_since_switch: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`settling_factor` over an array of times."""
        t = np.maximum(np.asarray(times_since_switch, dtype=float), 0.0)
        return 1.0 - np.exp(-t / self.settling_time)

    def injection_currents(self, times_since_switch: np.ndarray,
                           ) -> np.ndarray:
        """Vectorised :meth:`injection_current` over an array of times."""
        t = np.maximum(np.asarray(times_since_switch, dtype=float), 0.0)
        return (self.charge_injection / self.settling_time
                * np.exp(-t / self.settling_time))

    def samples_per_channel(self, dwell: float, sample_rate: float,
                            settle_fraction: float = 0.99) -> int:
        """Usable conversions per dwell after waiting out the settling."""
        ensure_positive(sample_rate, "sample_rate")
        if not 0.0 < settle_fraction < 1.0:
            raise ElectronicsError("settle_fraction must be in (0, 1)")
        wait = -self.settling_time * math.log(1.0 - settle_fraction)
        usable = max(dwell - wait, 0.0)
        return int(usable * sample_rate)
