"""Common interfaces of the feature compression formats.

A format is a traffic model: :meth:`FeatureFormat.build_layout` produces a
:class:`FeatureLayout`, a description of where every feature row lives in
(simulated) DRAM and how many cachelines a read or write of that row
touches.  The accelerator models replay aggregation traces against these
layouts through the row cache, which is how the memory-traffic differences
between Dense, CSR, COO, BSR, Blocked Ellpack, and BEICSR (paper Fig. 3 and
Fig. 19) arise.

Addresses are expressed in units of cachelines (64 bytes).  A layout places
its arrays at distinct base addresses so that, for formats with separate
index arrays (CSR's row pointers and column indices), index traffic competes
for cache space with value traffic exactly as it would in hardware.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.errors import FormatError

#: Cacheline size in bytes (also the DRAM access granularity we model).
CACHELINE_BYTES = 64

#: Bytes per feature element (32-bit fixed point, Table III).
ELEMENT_BYTES = 4


def bytes_to_lines(num_bytes: int, line_bytes: int = CACHELINE_BYTES) -> int:
    """Number of cachelines needed to hold ``num_bytes`` (ceiling division)."""
    if num_bytes < 0:
        raise FormatError("byte count must be non-negative")
    return (num_bytes + line_bytes - 1) // line_bytes


def span_lines(start_byte: int, num_bytes: int, line_bytes: int = CACHELINE_BYTES) -> range:
    """Cacheline indices touched by an access of ``num_bytes`` at ``start_byte``.

    Unaligned accesses straddle one extra line; this helper is what makes the
    misalignment penalty of packed variable-length formats appear naturally.
    """
    if num_bytes <= 0:
        return range(0)
    first = start_byte // line_bytes
    last = (start_byte + num_bytes - 1) // line_bytes
    return range(first, last + 1)


def span_line_counts(
    start_bytes: np.ndarray, num_bytes: np.ndarray, line_bytes: int = CACHELINE_BYTES
) -> np.ndarray:
    """Vectorized line count of :func:`span_lines` for arrays of accesses."""
    start_bytes = np.asarray(start_bytes, dtype=np.int64)
    num_bytes = np.asarray(num_bytes, dtype=np.int64)
    last = (start_bytes + num_bytes - 1) // line_bytes
    first = start_bytes // line_bytes
    return np.where(num_bytes > 0, last - first + 1, 0)


class FeatureLayout(ABC):
    """Memory layout of a feature matrix in a given format.

    A layout knows, for every feature row, which cachelines a read touches
    and how many bytes a (compressed) write produces.  Rows are identified by
    their vertex id.
    """

    def __init__(self, num_rows: int, width: int, base_line: int = 0) -> None:
        if num_rows <= 0 or width <= 0:
            raise FormatError("layout dimensions must be positive")
        self.num_rows = num_rows
        self.width = width
        self.base_line = base_line

    # -- traffic ---------------------------------------------------------- #
    @abstractmethod
    def row_read_lines(self, row: int) -> np.ndarray:
        """Absolute cacheline addresses touched when reading row ``row``."""

    def row_read_line_counts(self) -> np.ndarray:
        """Number of cachelines each row read transfers, for every row.

        The performance simulator replays every feature-row access at this
        granularity, so the whole table is its inner-loop input.  Concrete
        layouts override this with closed-form array arithmetic; this
        default materialises each row's line list and is the reference the
        unit tests compare the overrides against.
        """
        return np.fromiter(
            (self.row_read_lines(row).size for row in range(self.num_rows)),
            dtype=np.int64,
            count=self.num_rows,
        )

    @abstractmethod
    def row_read_bytes(self, row: int) -> int:
        """Bytes transferred from DRAM when reading row ``row`` uncached."""

    @abstractmethod
    def row_write_bytes(self, row: int) -> int:
        """Bytes written to DRAM when producing row ``row`` as a layer output."""

    # -- helpers ---------------------------------------------------------- #
    def _span(self, start_byte: int, num_bytes: int) -> np.ndarray:
        """Absolute cacheline addresses of :func:`span_lines` for one access."""
        lines = span_lines(start_byte, num_bytes)
        return np.arange(lines.start, lines.stop, dtype=np.int64) + self.base_line

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.num_rows:
            raise FormatError(f"row {row} out of range (0..{self.num_rows - 1})")


class FeatureFormat(ABC):
    """A feature compression format, modelled by the layout it builds."""

    #: Short name used by the format table and in result tables.
    name: str = "abstract"

    #: Whether layer outputs can be written in parallel without serialising
    #: on a shared append pointer (true for fixed-stride / in-place formats).
    supports_parallel_write: bool = True

    #: Whether reads are aligned to cacheline boundaries (affects the DRAM
    #: row-buffer / bandwidth efficiency model).
    aligned: bool = True

    #: Whether the format actually compresses (skips zero elements).
    compressed: bool = True

    @abstractmethod
    def build_layout(
        self,
        row_nnz: np.ndarray,
        width: int,
        base_line: int = 0,
        slice_nnz: Optional[np.ndarray] = None,
    ) -> FeatureLayout:
        """Build the memory layout for a matrix described by per-row nnz.

        Args:
            row_nnz: Non-zero count of every feature row.
            width: Feature width (columns).
            base_line: First cacheline address available to the layout.
            slice_nnz: Optional ``(rows, slices)`` per-slice non-zero counts
                for formats that store per-slice metadata (sliced BEICSR);
                other formats ignore it.  Supplied by measured sparsity
                providers (:mod:`repro.gcn.providers`) for simulation runs;
                when omitted, sliced formats fall back to an even per-row
                split.
        """

    # -- convenience ------------------------------------------------------ #
    def cache_token(self) -> tuple:
        """Hashable identity of this format's *layout behaviour*.

        Two formats with equal tokens build identical layouts for identical
        inputs, so per-run derived tables (row line counts, per-pass sizes)
        may be shared across runs keyed on it.  Covers every constructor
        parameter that influences :meth:`build_layout`.
        """
        return (
            self.name,
            getattr(self, "slice_size", None),
            getattr(self, "in_place", None),
            getattr(self, "block_rows", None),
            getattr(self, "block_cols", None),
            getattr(self, "block_size", None),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


def validate_row_nnz(row_nnz: np.ndarray, width: int) -> np.ndarray:
    """Validate and normalise a per-row non-zero-count array."""
    row_nnz = np.asarray(row_nnz, dtype=np.int64)
    if row_nnz.ndim != 1 or row_nnz.size == 0:
        raise FormatError("row_nnz must be a non-empty 1-D array")
    if width <= 0:
        raise FormatError("width must be positive")
    if row_nnz.min() < 0 or row_nnz.max() > width:
        raise FormatError("row_nnz values must lie in [0, width]")
    return row_nnz
