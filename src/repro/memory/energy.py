"""Energy model constants and accounting.

The paper synthesises its logic with a 45 nm library scaled to 32 nm, uses
CACTI for the on-chip cache and DRAMsim3 for HBM energy.  We reproduce the
*structure* of that model — energy is the sum of compute (MAC operations),
on-chip cache accesses, and off-chip DRAM transfers — with per-event energy
constants in the well-established ratios for a ~32 nm node and HBM2:

* a 32-bit fixed-point MAC costs on the order of a picojoule,
* reading a 64-byte line from a ~512 KB SRAM costs tens of picojoules,
* transferring a byte across an HBM2 interface costs ~4 pJ/bit ≈ 32 pJ/byte.

Because GCN inference is overwhelmingly memory-bound, the DRAM term
dominates, so accelerator-to-accelerator energy ratios track their traffic
ratios — which is exactly the behaviour Fig. 13 of the paper shows.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy consumed by one simulation, split by component (joules)."""

    compute_joules: float
    cache_joules: float
    dram_joules: float

    @property
    def total_joules(self) -> float:
        """Total energy."""
        return self.compute_joules + self.cache_joules + self.dram_joules

    def as_dict(self) -> dict:
        """Return the breakdown as a dictionary (including the total)."""
        return {
            "compute": self.compute_joules,
            "cache": self.cache_joules,
            "dram": self.dram_joules,
            "total": self.total_joules,
        }

    def scaled(self, factor: float) -> "EnergyBreakdown":
        """Return a copy with every component multiplied by ``factor``."""
        return EnergyBreakdown(
            compute_joules=self.compute_joules * factor,
            cache_joules=self.cache_joules * factor,
            dram_joules=self.dram_joules * factor,
        )

    def to_dict(self) -> dict:
        """Round-trip serialisation (see :meth:`from_dict`)."""
        return {
            "compute_joules": self.compute_joules,
            "cache_joules": self.cache_joules,
            "dram_joules": self.dram_joules,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyBreakdown":
        """Rebuild a breakdown produced by :meth:`to_dict`."""
        return cls(
            compute_joules=float(data["compute_joules"]),
            cache_joules=float(data["cache_joules"]),
            dram_joules=float(data["dram_joules"]),
        )

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            compute_joules=self.compute_joules + other.compute_joules,
            cache_joules=self.cache_joules + other.cache_joules,
            dram_joules=self.dram_joules + other.dram_joules,
        )


@dataclass(frozen=True)
class EnergyTable:
    """Per-event energy constants.

    Attributes:
        mac_pj: Energy per 32-bit multiply-accumulate, in picojoules.
        cache_access_pj: Energy per 64-byte cache access.
        dram_pj_per_byte: Energy per byte moved across the DRAM interface.
    """

    mac_pj: float = 1.2
    cache_access_pj: float = 28.0
    dram_pj_per_byte: float = 32.0

    def breakdown(
        self,
        num_macs: float,
        cache_accesses: float,
        dram_bytes: float,
    ) -> EnergyBreakdown:
        """Convert event counts to an :class:`EnergyBreakdown` (joules)."""
        return EnergyBreakdown(
            compute_joules=num_macs * self.mac_pj * 1e-12,
            cache_joules=cache_accesses * self.cache_access_pj * 1e-12,
            dram_joules=dram_bytes * self.dram_pj_per_byte * 1e-12,
        )
