"""Configuration-port models: ICAP and the JTAG-based JCAP.

"Unfortunately the Spartan 3 does not include an internal configuration
port such as the ICAP, but in [11] the implementation of a virtual internal
configuration port (JCAP) based on the JTAG interface is presented. ...
The JCAP core offers a reconfiguration rate which is lower than the one
provided by the ICAP interface.  However ... it is also described how the
reconfiguration rate provided by the JCAP core may be increased."

Both ports price one configuration from its byte length and frame count
and report the time and energy it takes.  They do not parse the stream:
its sync word, FAR/FDRI packets and CRC are checked once, when the image
enters :class:`repro.reconfig.controller.BitstreamStore`, the one place
its bytes can change.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.blocks import BlockFootprint


@dataclass(frozen=True)
class ConfigurationEvent:
    """One completed (partial) configuration."""

    port: str
    bitstream_bytes: int
    frames: int
    duration_s: float
    energy_j: float
    description: str = ""


class ConfigPort:
    """Base configuration-port model.

    Subclasses define the effective configuration bandwidth and the power
    drawn while configuring.
    """

    name = "config-port"
    #: Logic power drawn by the port core and memory traffic while a
    #: configuration is in flight, watts.
    active_power_w = 0.025

    @property
    def bytes_per_second(self) -> float:
        raise NotImplementedError

    def configure(
        self, byte_count: int, frames: int, description: str = ""
    ) -> ConfigurationEvent:
        """Push a checked ``byte_count``-byte stream of ``frames`` frames
        through the port.

        Raises
        ------
        ValueError
            On a negative byte count.
        """
        duration = self.configure_time_s(byte_count)
        return ConfigurationEvent(
            port=self.name,
            bitstream_bytes=byte_count,
            frames=frames,
            duration_s=duration,
            energy_j=duration * self.active_power_w,
            description=description,
        )

    def configure_time_s(self, byte_count: int) -> float:
        """Time to push ``byte_count`` bytes (planning shortcut)."""
        if byte_count < 0:
            raise ValueError(f"negative byte count {byte_count}")
        return byte_count / self.bytes_per_second


class Icap(ConfigPort):
    """The Virtex-family Internal Configuration Access Port: an 8-bit
    parallel port clocked at up to 66 MHz (references [13], [9])."""

    name = "ICAP"

    def __init__(self, clock_mhz: float = 66.0):
        if clock_mhz <= 0:
            raise ValueError(f"clock must be positive, got {clock_mhz}")
        self.clock_mhz = clock_mhz

    @property
    def bytes_per_second(self) -> float:
        # One byte per clock.
        return self.clock_mhz * 1e6


class Jcap(ConfigPort):
    """The paper's virtual internal configuration port for Spartan-3
    (reference [11]): bitstream data is shifted serially through the JTAG
    TAP, one bit per TCK, with shift/update protocol overhead.

    ``improved=True`` models the rate increase [11] describes (full-speed
    TCK and streamed shifts); ``improved=False`` the conservative baseline.
    """

    name = "JCAP"
    #: Footprint of the JCAP core on the static side.
    FOOTPRINT = BlockFootprint(
        name="jcap",
        slices=92,
        registered_fraction=0.55,
        carry_fraction=0.10,
        mean_activity=0.05,
    )

    def __init__(self, tck_mhz: float = 33.0, improved: bool = True):
        if tck_mhz <= 0:
            raise ValueError(f"TCK must be positive, got {tck_mhz}")
        self.tck_mhz = tck_mhz
        self.improved = improved

    @property
    def protocol_overhead(self) -> float:
        """Extra TCK cycles per payload bit (TAP state walks, headers)."""
        return 1.12 if self.improved else 3.5

    @property
    def bytes_per_second(self) -> float:
        # One payload bit per TCK, derated by the protocol overhead.
        return self.tck_mhz * 1e6 / 8.0 / self.protocol_overhead
