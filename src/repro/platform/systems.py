"""The paper's three evaluation platforms, as simulators.

Each platform composes the clock, battery, CPU/DVFS, thermal and energy-
ledger models and exposes the runtime interface the ENT interpreter and
the embedded runtime expect:

    battery_fraction() cpu_temperature() cpu_work(units)
    io_bytes(n) net_bytes(n) sleep(seconds) now()

* :class:`SystemA` — Intel i5 laptop, 4 GB RAM, Ubuntu 14.04, measured
  via jRAPL (CPU package energy only).
* :class:`SystemB` — Raspberry Pi 2 Model B with keyboard/mouse/HDMI/
  ethernet attached, measured at the wall by a Watts Up? Pro; the
  battery level is *simulated*, as in the paper.
* :class:`SystemC` — Nexus 5X running Android 6.0/ART, measured through
  BatteryManager; the noisiest platform (RERAN touch replay, radios).

Run-to-run variation is modelled with a seeded multiplicative speed
jitter whose magnitude reproduces the paper's relative-standard-
deviation bands (A and B within 2-3%, C visibly higher).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.obs.events import PlatformReadEvent
from repro.obs.tracer import NULL_TRACER
from repro.platform.battery import Battery
from repro.platform.clock import SimClock
from repro.platform.cpu import INTEL_I5, PI2_BCM2836, SNAPDRAGON_808, Cpu
from repro.platform.meter import (BatteryManagerMeter, EnergyLedger, Meter,
                                  RaplMeter, WattsUpMeter)
from repro.platform.thermal import ThermalModel

__all__ = ["Platform", "SystemA", "SystemB", "SystemC", "make_platform"]


class Platform:
    """Base simulated platform; subclasses set the hardware constants."""

    name = "generic"
    meter_class = RaplMeter
    cpu_spec = INTEL_I5

    #: Constant board power besides the CPU (peripherals), watts.
    peripheral_w = 0.0
    #: Display power while the device is on, watts.
    display_w = 0.0
    #: Storage: throughput (bytes/s) and active power (watts).
    io_bytes_per_s = 2.0e8
    io_active_w = 0.5
    #: Network: throughput (bytes/s) and active power (watts).
    net_bytes_per_s = 5.0e6
    net_active_w = 1.0
    #: Battery capacity in joules.
    battery_capacity_j = 1.8e5
    #: Per-run relative speed jitter (1 sigma).
    run_jitter_rel = 0.01
    #: Lumped-RC thermal constants (see :class:`ThermalModel`).
    ambient_c = 35.0
    r_th_c_per_w = 1.2
    tau_s = 25.0

    def __init__(self, seed: int = 0, governor: str = "ondemand",
                 battery_fraction: float = 1.0) -> None:
        self.governor_name = governor
        self.rng = random.Random()
        #: Observability hook; see :meth:`set_tracer`.
        self.tracer = NULL_TRACER
        self._seat(seed, battery_fraction, 1.0)

    def reset(self, seed: int = 0, battery_fraction: float = 1.0,
              capacity_scale: float = 1.0) -> None:
        """Re-seat this platform as a brand-new device.

        Equivalent to constructing a fresh platform of the same system
        and governor with ``seed``/``battery_fraction`` (bit-for-bit:
        both seat through :meth:`_seat`), keeping the tracer binding —
        the fleet's batched engine reuses one platform per shard this
        way.  ``capacity_scale`` shrinks the battery relative to the
        class capacity (drain profiles use it so a discharge fits in an
        episode).
        """
        self._seat(seed, battery_fraction, capacity_scale)

    def _seat(self, seed: int, battery_fraction: float,
              capacity_scale: float) -> None:
        """Build every piece of per-device simulation state."""
        self.rng.seed(seed)
        self.clock = SimClock()
        self.cpu = Cpu(self.cpu_spec, governor=self.governor_name)
        self.thermal = ThermalModel(ambient_c=self.ambient_c,
                                    r_th_c_per_w=self.r_th_c_per_w,
                                    tau_s=self.tau_s)
        self.battery = Battery(self.battery_capacity_j * capacity_scale,
                               fraction=battery_fraction)
        self.ledger = EnergyLedger()
        # One multiplicative speed factor per run: models JIT state,
        # scheduling, ambient variation.
        self._speed_factor = max(
            0.5, 1.0 + self.rng.gauss(0.0, self.run_jitter_rel))
        self.sleep_total_s = 0.0
        #: Temperature trace: (time, celsius) samples appended on
        #: every activity, consumed by the E3 harness.
        self.temperature_trace = [(0.0, self.thermal.temperature_c)]

    def set_tracer(self, tracer) -> None:
        """Attach a tracer: signal reads and meter windows are recorded,
        and the tracer's clock becomes this platform's sim clock."""
        self.tracer = tracer
        tracer.bind_platform(self)

    # ------------------------------------------------------------------
    # Interpreter / embedded-runtime interface

    def battery_fraction(self) -> float:
        fraction = self.battery.fraction(self.clock.now)
        if self.tracer.enabled:
            self.tracer.emit(PlatformReadEvent(
                ts=self.clock.now, signal="battery", value=fraction))
        return fraction

    def cpu_temperature(self) -> float:
        if self.tracer.enabled:
            self.tracer.emit(PlatformReadEvent(
                ts=self.clock.now, signal="temperature",
                value=self.thermal.temperature_c))
        return self.thermal.temperature_c

    #: Governor sampling period: large work requests are executed in
    #: slices so the ondemand governor can re-evaluate (as the real
    #: governor does on its sampling interval).
    governor_period_s = 0.1

    def cpu_work(self, units: float) -> None:
        cpu = self.cpu
        period_s = self.governor_period_s
        remaining = units
        while remaining > 0:
            slice_units, duration, cpu_power = cpu.execute(remaining,
                                                           period_s)
            self._account(duration * self._speed_factor, cpu_power)
            remaining -= slice_units

    def io_bytes(self, count: float) -> None:
        if count <= 0:
            return
        duration = count / self.io_bytes_per_s * self._speed_factor
        self._account(duration,
                      self.cpu.spec.idle_table[self.cpu.current_level],
                      extra=("io_j", self.io_active_w))

    def net_bytes(self, count: float) -> None:
        if count <= 0:
            return
        duration = count / self.net_bytes_per_s * self._speed_factor
        self._account(duration,
                      self.cpu.spec.idle_table[self.cpu.current_level],
                      extra=("net_j", self.net_active_w))

    def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        idle_power = self.cpu.idle(seconds)
        self.sleep_total_s += seconds
        self._account(seconds, idle_power)

    def now(self) -> float:
        return self.clock.now

    # ------------------------------------------------------------------

    def _account(self, duration: float, cpu_power: float,
                 extra: Optional[tuple] = None) -> None:
        """Advance time and integrate energy/thermal for one interval."""
        # The fixed components go straight onto the ledger's fields;
        # ``EnergyLedger.add`` validates names for outside callers.
        ledger = self.ledger
        ledger.cpu_j += cpu_power * duration
        ledger.peripheral_j += self.peripheral_w * duration
        ledger.display_j += self.display_w * duration
        total_power = cpu_power + self.peripheral_w + self.display_w
        if extra is not None:
            component, watts = extra
            ledger.add(component, watts * duration)
            total_power += watts
        temperature = self.thermal.step(cpu_power, duration)
        self.battery.drain(total_power * duration)
        clock = self.clock
        clock.advance(duration)
        self.temperature_trace.append((clock.now, temperature))

    def meter(self) -> Meter:
        return self.meter_class(self.ledger, rng=self.rng,
                                tracer=self.tracer)

    def energy_total_j(self) -> float:
        return self.ledger.total_j

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} t={self.clock.now:.3f}s "
                f"E={self.ledger.total_j:.2f}J "
                f"T={self.thermal.temperature_c:.1f}C "
                f"bat={self.battery.fraction(self.clock.now):.0%}>")


class SystemA(Platform):
    """Intel i5 laptop; energy measured via jRAPL (CPU package only)."""

    name = "A"
    meter_class = RaplMeter
    cpu_spec = INTEL_I5
    peripheral_w = 0.0       # RAPL sees only the package
    display_w = 0.0
    io_bytes_per_s = 4.0e8   # SATA SSD
    io_active_w = 1.2
    net_bytes_per_s = 1.2e7  # campus ethernet/wifi
    net_active_w = 1.5
    battery_capacity_j = 1.8e5   # ~50 Wh
    run_jitter_rel = 0.008
    ambient_c = 35.0
    r_th_c_per_w = 1.2
    tau_s = 25.0


class SystemB(Platform):
    """Raspberry Pi 2 Model B measured at the wall (Watts Up? Pro).

    Keyboard, mouse, HDMI monitor link and ethernet are attached, so a
    constant peripheral draw rides on top of the CPU.  The battery level
    is simulated (the Pi has no battery API), exactly as in the paper.
    """

    name = "B"
    meter_class = WattsUpMeter
    cpu_spec = PI2_BCM2836
    peripheral_w = 1.6
    display_w = 0.0
    io_bytes_per_s = 1.8e7   # SD card
    io_active_w = 0.35
    net_bytes_per_s = 1.1e7  # 100 Mb ethernet
    net_active_w = 0.4
    battery_capacity_j = 3.6e4   # a simulated 10 Wh pack
    run_jitter_rel = 0.006
    # Passively cooled small board: higher thermal resistance.
    ambient_c = 35.0
    r_th_c_per_w = 7.0
    tau_s = 40.0


class SystemC(Platform):
    """Nexus 5X (Android 6.0, ART), driven by replayed interaction.

    The paper reports clearly higher run-to-run deviation for System C
    (internet response, touch replay); we reproduce it with a larger
    run jitter plus the RERAN replay jitter in
    :mod:`repro.platform.reran`.
    """

    name = "C"
    meter_class = BatteryManagerMeter
    cpu_spec = SNAPDRAGON_808
    peripheral_w = 0.15
    display_w = 1.1
    io_bytes_per_s = 1.2e8   # eMMC flash
    io_active_w = 0.25
    net_bytes_per_s = 4.0e6  # wifi with real-world servers
    net_active_w = 0.85
    battery_capacity_j = 3.7e4   # 2700 mAh at 3.8 V
    run_jitter_rel = 0.028
    ambient_c = 33.0
    r_th_c_per_w = 6.0
    tau_s = 55.0


_SYSTEMS = {"A": SystemA, "B": SystemB, "C": SystemC}


def make_platform(system: str, seed: int = 0,
                  battery_fraction: float = 1.0,
                  governor: str = "ondemand") -> Platform:
    """Instantiate one of the paper's systems by letter."""
    try:
        cls = _SYSTEMS[system.upper()]
    except KeyError:
        raise ValueError(f"unknown system {system!r}; "
                         f"expected one of A, B, C") from None
    return cls(seed=seed, battery_fraction=battery_fraction,
               governor=governor)

