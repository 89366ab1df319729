"""Hardware configuration dataclasses (paper Table III).

The configuration mirrors the system configuration used by SGCN's evaluation:

* accelerator engines run at 1 GHz,
* the combination engine is a 32x32 systolic array,
* the aggregation engine is a 16-way SIMD unit,
* there are 8 aggregation and 8 combination engines,
* a 512 KB, 16-way, LRU global cache,
* HBM2 off-chip memory with 256 GB/s peak bandwidth, 8 channels and 4x4 banks.

All values are overridable so the sensitivity studies (cache size, number of
engines, HBM generation) can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.errors import ConfigurationError

#: Size of a cacheline / minimum DRAM access granularity in bytes.
CACHELINE_BYTES = 64

#: Bytes per feature element (32-bit fixed point per Table III).
ELEMENT_BYTES = 4


@dataclass(frozen=True)
class CacheConfig:
    """Configuration of the on-chip global cache.

    Attributes:
        capacity_bytes: Total cache capacity in bytes (paper default 512 KB).
        ways: Set associativity (paper default 16).
        line_bytes: Cacheline size in bytes (64 B).
        replacement: Replacement policy name; only ``"lru"`` is implemented.
        schedule_capacity_bytes: Capacity the *static schedule* (tiling, psum
            buffer split, pinned-row selection) is planned for.  ``None`` means
            the schedule is planned for ``capacity_bytes`` — the default, and
            the only behaviour before capacity sensitivity sweeps existed.
            Sweeps that resize the physical cache under a fixed design set this
            to the nominal capacity so every capacity point shares one trace
            and schedule and only the replay hit test changes.
    """

    capacity_bytes: int = 512 * 1024
    ways: int = 16
    line_bytes: int = CACHELINE_BYTES
    replacement: str = "lru"
    schedule_capacity_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("cache capacity must be positive")
        if self.ways <= 0:
            raise ConfigurationError("cache associativity must be positive")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError("cache line size must be a positive power of two")
        if self.capacity_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigurationError(
                "cache capacity must be divisible by ways * line size "
                f"(got {self.capacity_bytes} / ({self.ways} * {self.line_bytes}))"
            )
        if self.replacement not in ("lru",):
            raise ConfigurationError(f"unsupported replacement policy: {self.replacement!r}")
        if self.schedule_capacity_bytes is not None and self.schedule_capacity_bytes <= 0:
            raise ConfigurationError("schedule capacity must be positive")

    @property
    def schedule_capacity(self) -> int:
        """Capacity in bytes the static schedule is planned for."""
        # A capacity override pins schedule_capacity_bytes to the nominal
        # value (build_config), so capacity sweeps share one schedule.
        if self.schedule_capacity_bytes is not None:
            return self.schedule_capacity_bytes
        return self.capacity_bytes

    @property
    def num_sets(self) -> int:
        """Number of cache sets."""
        return self.capacity_bytes // (self.ways * self.line_bytes)

    @property
    def num_lines(self) -> int:
        """Total number of cachelines the cache can hold."""
        return self.capacity_bytes // self.line_bytes

    def scaled(self, factor: float) -> "CacheConfig":
        """Return a copy whose capacity is scaled by ``factor``.

        The capacity is rounded to the nearest legal value (a multiple of
        ``ways * line_bytes``) and clamped to at least one line per way.
        Used when datasets are scaled down so that the working-set-to-cache
        ratio of the paper's configuration is preserved.
        """
        unit = self.ways * self.line_bytes
        capacity = max(unit, int(round(self.capacity_bytes * factor / unit)) * unit)
        schedule = self.schedule_capacity_bytes
        if schedule is not None:
            schedule = max(unit, int(round(schedule * factor / unit)) * unit)
        return replace(self, capacity_bytes=capacity, schedule_capacity_bytes=schedule)


@dataclass(frozen=True)
class DRAMConfig:
    """Configuration of the off-chip HBM memory.

    Attributes:
        name: Human readable name, e.g. ``"HBM2"``.
        peak_bandwidth_gbps: Peak bandwidth in GB/s.
        channels: Number of independent channels.
        banks_per_channel: Banks per channel (paper lists 4x4 = 16).
        burst_bytes: Minimum burst size in bytes.
        row_buffer_bytes: Row buffer (page) size per bank.
        base_efficiency: Fraction of peak bandwidth achievable for perfectly
            streamed, aligned accesses.
        random_efficiency: Fraction of peak bandwidth achievable for fully
            random single-burst accesses.
    """

    name: str = "HBM2"
    peak_bandwidth_gbps: float = 256.0
    channels: int = 8
    banks_per_channel: int = 16
    burst_bytes: int = 64
    row_buffer_bytes: int = 1024
    base_efficiency: float = 0.80
    random_efficiency: float = 0.50

    def __post_init__(self) -> None:
        if self.peak_bandwidth_gbps <= 0:
            raise ConfigurationError("peak bandwidth must be positive")
        if self.channels <= 0 or self.banks_per_channel <= 0:
            raise ConfigurationError("channels and banks must be positive")
        if self.burst_bytes <= 0:
            raise ConfigurationError("burst size must be positive")
        if not (0.0 < self.random_efficiency <= self.base_efficiency <= 1.0):
            raise ConfigurationError(
                "efficiencies must satisfy 0 < random <= base <= 1 "
                f"(got random={self.random_efficiency}, base={self.base_efficiency})"
            )

    def bytes_per_cycle(self, frequency_ghz: float) -> float:
        """Peak deliverable bytes per accelerator cycle at ``frequency_ghz``."""
        if frequency_ghz <= 0:
            raise ConfigurationError("frequency must be positive")
        return self.peak_bandwidth_gbps / frequency_ghz


#: The two HBM generations used in the scalability study (Fig. 18).
HBM2 = DRAMConfig(name="HBM2", peak_bandwidth_gbps=256.0)
HBM1 = DRAMConfig(name="HBM1", peak_bandwidth_gbps=128.0, row_buffer_bytes=1024)


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of the compute engines.

    Attributes:
        frequency_ghz: Accelerator clock (1 GHz in the paper).
        num_aggregation_engines: Number of parallel aggregation engines.
        num_combination_engines: Number of parallel combination engines.
        simd_width: SIMD lanes (multipliers) per aggregation engine; 16 lanes
            process one 64-byte cacheline of fp32/fixed32 values per cycle.
        systolic_rows: Rows of the combination systolic array.
        systolic_cols: Columns of the combination systolic array.
    """

    frequency_ghz: float = 1.0
    num_aggregation_engines: int = 8
    num_combination_engines: int = 8
    simd_width: int = 16
    systolic_rows: int = 32
    systolic_cols: int = 32

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0:
            raise ConfigurationError("frequency must be positive")
        for name in (
            "num_aggregation_engines",
            "num_combination_engines",
            "simd_width",
            "systolic_rows",
            "systolic_cols",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")


@dataclass(frozen=True)
class ScheduleConfig:
    """The part of a :class:`SystemConfig` the static schedule reads.

    The schedule stage (tiling plan, access trace, pinned rows) receives this
    record and no other configuration, so two configs with equal records
    schedule identically by construction.  That makes the record the
    config half of a run's replay class
    (:func:`repro.core.session.replay_class_key`).  It is derived in one
    place, :attr:`SystemConfig.schedule`.

    Attributes:
        schedule_capacity_bytes: Cache capacity the schedule is planned for
            (:attr:`CacheConfig.schedule_capacity`, before dataset scaling).
        line_bytes: Cacheline size in bytes.
        num_aggregation_engines: Engines the access trace interleaves.
        sac_strip_height: Strip height of sparsity-aware cooperation.
    """

    schedule_capacity_bytes: int
    line_bytes: int
    num_aggregation_engines: int
    sac_strip_height: int


@dataclass(frozen=True)
class SystemConfig:
    """Full system configuration (Table III of the paper).

    Attributes:
        engines: Compute-engine configuration.
        cache: Global cache configuration.
        dram: Off-chip memory configuration.
        sac_strip_height: Strip height used by sparsity-aware cooperation;
            paper default 32 vertices.
        pipeline_phases: Whether aggregation and combination are pipelined
            (overlapped) as in the SGCN/HyGCN/GCNAX designs.
    """

    engines: EngineConfig = field(default_factory=EngineConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    dram: DRAMConfig = field(default_factory=lambda: HBM2)
    sac_strip_height: int = 32
    pipeline_phases: bool = True

    def __post_init__(self) -> None:
        if self.sac_strip_height <= 0:
            raise ConfigurationError("SAC strip height must be positive")

    @property
    def schedule(self) -> ScheduleConfig:
        """The :class:`ScheduleConfig` record of this configuration."""
        return ScheduleConfig(
            schedule_capacity_bytes=self.cache.schedule_capacity,
            line_bytes=self.cache.line_bytes,
            num_aggregation_engines=self.engines.num_aggregation_engines,
            sac_strip_height=self.sac_strip_height,
        )

    def with_engines(self, num_engines: int) -> "SystemConfig":
        """Return a copy with ``num_engines`` aggregation and combination engines."""
        return replace(
            self,
            engines=replace(
                self.engines,
                num_aggregation_engines=num_engines,
                num_combination_engines=num_engines,
            ),
        )

    def describe(self) -> Dict[str, object]:
        """Return a flat dictionary describing the configuration.

        This is the representation used to regenerate the paper's Table III.
        """
        return {
            "frequency": f"{self.engines.frequency_ghz:g} GHz",
            "combination": (
                f"{self.engines.systolic_rows}x{self.engines.systolic_cols} systolic array"
            ),
            "aggregation": f"{self.engines.simd_width}-way SIMD",
            "aggregation_engines": self.engines.num_aggregation_engines,
            "combination_engines": self.engines.num_combination_engines,
            "cache_capacity": f"{self.cache.capacity_bytes // 1024} KB",
            "cache_ways": self.cache.ways,
            "cache_replacement": self.cache.replacement.upper(),
            "dram": self.dram.name,
            "dram_peak_bandwidth": f"{self.dram.peak_bandwidth_gbps:g} GB/s",
            "dram_channels": self.dram.channels,
            "dram_banks": self.dram.banks_per_channel,
        }
