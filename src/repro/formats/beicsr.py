"""BEICSR: Bitmap-index Embedded In-place CSR (the paper's format).

BEICSR is the feature compression format proposed by SGCN (Section V-A and
V-B).  Its three design choices, all reproduced here:

* **Embedded bitmap index** — instead of per-non-zero column indices, each
  row (or slice) stores a bitmap of ``width`` bits at its head, immediately
  followed by the packed non-zero values.  At ~50% sparsity the index
  overhead is ``width / 8`` bytes against ``width * 2`` bytes of values, i.e.
  ~6%, far below CSR's 100%.  Embedding the bitmap with the values means the
  index and the data arrive in the same (or adjacent) cachelines.
* **In-place compression** — every row/slice is stored at the fixed offset it
  would occupy uncompressed.  This gives cacheline-aligned reads, allows
  parallel writes from independent engines (no shared append pointer), and
  removes the need for an indirection array: the address is a multiply with
  the vertex id.  The cost is that capacity is not reduced — but traffic is,
  because only the occupied prefix of each row/slice is transferred.
* **Slicing support** — with feature-matrix slicing (tiling along the width),
  a single whole-row bitmap would force unaligned partial reads.  Sliced
  BEICSR instead partitions the bitmap per unit slice of ``C`` elements
  (default 96) and aligns every slice to a burst boundary.

A packed (non-in-place) variant is also provided (``in_place=False``) so the
ablation benchmarks can quantify how much the in-place choice matters — it
re-introduces the indirection array and the unaligned accesses the paper
argues against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import FormatError
from repro.formats.base import (
    CACHELINE_BYTES,
    ELEMENT_BYTES,
    FeatureFormat,
    FeatureLayout,
    bytes_to_lines,
    span_line_counts,
    validate_row_nnz,
)

#: Bytes per row-offset pointer in the packed (non-in-place) variant.
POINTER_BYTES = 4


def _bitmap_bytes(slice_width: int) -> int:
    """Bytes of bitmap needed to index ``slice_width`` elements."""
    return (slice_width + 7) // 8


def _split_row_nnz(row_nnz: np.ndarray, width: int, slice_size: int) -> np.ndarray:
    """Distribute per-row non-zero counts evenly over slices.

    Used when the caller only knows per-row counts.  The real per-slice
    distribution has small variance (paper Section V-B), so an even split is
    a faithful default; callers with actual matrices pass exact counts.
    """
    num_slices = (width + slice_size - 1) // slice_size
    rows = row_nnz.size
    slice_widths = np.full(num_slices, slice_size, dtype=np.int64)
    if width % slice_size:
        slice_widths[-1] = width % slice_size

    # Base fill: nnz // slices everywhere, capped by each slice's width.
    row_nnz = row_nnz.astype(np.int64)
    base = row_nnz // num_slices
    counts = np.minimum(base[:, None], slice_widths[None, :])
    leftover = row_nnz - counts.sum(axis=1)

    # The remainder is dealt round-robin over the slices that still have
    # headroom: `t` full deal rounds give every open slice min(headroom, t)
    # extra units.  Binary-search the largest t whose give-out still fits,
    # then hand the last partial round to the lowest-indexed open slices.
    headroom = slice_widths[None, :] - counts
    low = np.zeros(rows, dtype=np.int64)
    high = np.full(rows, int(headroom.max(initial=0)), dtype=np.int64)
    while np.any(low < high):
        mid = (low + high + 1) // 2
        fits = np.minimum(headroom, mid[:, None]).sum(axis=1) <= leftover
        low = np.where(fits, mid, low)
        high = np.where(fits, high, mid - 1)
    full_rounds = np.minimum(headroom, low[:, None])
    remainder = leftover - full_rounds.sum(axis=1)
    open_slice = headroom > low[:, None]
    rank = np.cumsum(open_slice, axis=1)
    counts += full_rounds + (open_slice & (rank <= remainder[:, None]))
    return counts


class BEICSRLayout(FeatureLayout):
    """In-place BEICSR layout (per-slice bitmap + packed values, aligned)."""

    def __init__(
        self,
        slice_nnz: np.ndarray,
        width: int,
        slice_size: int,
        base_line: int = 0,
    ) -> None:
        super().__init__(int(slice_nnz.shape[0]), width, base_line)
        self.slice_size = slice_size
        self.slice_nnz = slice_nnz
        self.num_slices = slice_nnz.shape[1]

        bitmap = _bitmap_bytes(slice_size)
        # A slice's reserved space holds its bitmap plus a fully dense slice,
        # rounded up to the cacheline boundary (so slices stay aligned).
        self.slice_stride_lines = bytes_to_lines(bitmap + slice_size * ELEMENT_BYTES)
        self.row_stride_lines = self.num_slices * self.slice_stride_lines
        self._bitmap_bytes = bitmap

    def _slice_read_lines(self, nnz: int) -> int:
        """Cachelines actually transferred when reading a slice with ``nnz``."""
        return bytes_to_lines(self._bitmap_bytes + int(nnz) * ELEMENT_BYTES)

    def row_read_lines(self, row: int) -> np.ndarray:
        self._check_row(row)
        row_base = self.base_line + row * self.row_stride_lines
        lines = []
        for slice_index in range(self.num_slices):
            slice_base = row_base + slice_index * self.slice_stride_lines
            count = self._slice_read_lines(self.slice_nnz[row, slice_index])
            lines.append(np.arange(slice_base, slice_base + count, dtype=np.int64))
        return np.concatenate(lines) if lines else np.zeros(0, dtype=np.int64)

    def row_read_line_counts(self) -> np.ndarray:
        # bytes_to_lines over the whole (rows, slices) matrix, summed per row.
        slice_lines = (
            self._bitmap_bytes + self.slice_nnz * ELEMENT_BYTES + CACHELINE_BYTES - 1
        ) // CACHELINE_BYTES
        return slice_lines.sum(axis=1).astype(np.int64)

    def row_read_bytes(self, row: int) -> int:
        self._check_row(row)
        total = 0
        for slice_index in range(self.num_slices):
            total += self._slice_read_lines(self.slice_nnz[row, slice_index])
        return total * CACHELINE_BYTES

    def row_write_bytes(self, row: int) -> int:
        # The post-combination compressor flushes each unit slice as full
        # cachelines; only the occupied prefix is written.
        return self.row_read_bytes(row)

class PackedBEICSRLayout(FeatureLayout):
    """Packed (non-in-place) BEICSR layout, used for the ablation study.

    Rows are stored back-to-back at byte granularity, so an indirection
    array of row offsets is required and reads usually straddle an extra
    cacheline.  Writes must serialise on the shared append pointer, so the
    format loses the parallel-write property.
    """

    def __init__(
        self,
        slice_nnz: np.ndarray,
        width: int,
        slice_size: int,
        base_line: int = 0,
    ) -> None:
        super().__init__(int(slice_nnz.shape[0]), width, base_line)
        self.slice_size = slice_size
        self.slice_nnz = slice_nnz
        self.num_slices = slice_nnz.shape[1]
        bitmap = _bitmap_bytes(slice_size)

        row_bytes = (
            self.num_slices * bitmap
            + slice_nnz.sum(axis=1).astype(np.int64) * ELEMENT_BYTES
        )
        self.row_offsets = np.zeros(self.num_rows + 1, dtype=np.int64)
        np.cumsum(row_bytes, out=self.row_offsets[1:])

        self.pointer_base = 0
        pointer_bytes = (self.num_rows + 1) * POINTER_BYTES
        self.data_base = bytes_to_lines(pointer_bytes) * CACHELINE_BYTES
        self.row_bytes = row_bytes

    def row_read_lines(self, row: int) -> np.ndarray:
        self._check_row(row)
        pointer_lines = self._span(self.pointer_base + row * POINTER_BYTES, 2 * POINTER_BYTES)
        data_lines = self._span(
            self.data_base + int(self.row_offsets[row]), int(self.row_bytes[row])
        )
        return np.concatenate([pointer_lines, data_lines])

    def row_read_line_counts(self) -> np.ndarray:
        rows = np.arange(self.num_rows, dtype=np.int64)
        return span_line_counts(
            self.pointer_base + rows * POINTER_BYTES, 2 * POINTER_BYTES
        ) + span_line_counts(self.data_base + self.row_offsets[:-1], self.row_bytes)

    def row_read_bytes(self, row: int) -> int:
        self._check_row(row)
        return int(self.row_read_lines(row).size) * CACHELINE_BYTES

    def row_write_bytes(self, row: int) -> int:
        self._check_row(row)
        return self.row_read_bytes(row)

class BEICSRFormat(FeatureFormat):
    """Bitmap-index Embedded In-place CSR (sliced or whole-row).

    Args:
        slice_size: Unit slice size ``C`` in elements (paper default 96);
            ``None`` produces the non-sliced variant (one bitmap per row).
        in_place: Reserve dense-size space per row/slice (the paper's
            choice).  ``False`` packs rows back-to-back for the ablation.
    """

    name = "beicsr"
    supports_parallel_write = True
    aligned = True
    compressed = True

    def __init__(self, slice_size: Optional[int] = 96, in_place: bool = True) -> None:
        if slice_size is not None and slice_size <= 0:
            raise FormatError("slice size must be positive")
        self.slice_size = slice_size
        self.in_place = in_place
        if slice_size is None:
            self.name = "beicsr_nonsliced"
        if not in_place:
            self.name = f"{self.name}_packed"
            self.supports_parallel_write = False
            self.aligned = False

    def build_layout(
        self,
        row_nnz: np.ndarray,
        width: int,
        base_line: int = 0,
        slice_nnz: Optional[np.ndarray] = None,
    ) -> FeatureLayout:
        row_nnz = validate_row_nnz(row_nnz, width)
        slice_size = self.slice_size if self.slice_size is not None else width
        num_slices = (width + slice_size - 1) // slice_size
        if slice_nnz is None:
            slice_nnz = _split_row_nnz(row_nnz, width, slice_size)
        else:
            slice_nnz = np.asarray(slice_nnz, dtype=np.int64)
            if slice_nnz.shape != (row_nnz.size, num_slices):
                raise FormatError(
                    f"slice_nnz must have shape {(row_nnz.size, num_slices)}, "
                    f"got {slice_nnz.shape}"
                )
            if not np.array_equal(slice_nnz.sum(axis=1), row_nnz):
                raise FormatError("slice_nnz rows must sum to row_nnz")
        if self.in_place:
            return BEICSRLayout(slice_nnz, width, slice_size, base_line)
        return PackedBEICSRLayout(slice_nnz, width, slice_size, base_line)
