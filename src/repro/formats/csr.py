"""Compressed Sparse Row storage of the feature matrix.

The "naive" alternative the paper argues against (Section II-B, Fig. 3):
every non-zero feature element costs a 4-byte value *and* a 4-byte column
index, plus a row-pointer array for locating rows.  Around 50% sparsity this
is a net capacity increase, rows are variable-length (so reads are usually
unaligned and writes must be serialised through a shared append pointer),
and the index arrays live apart from the values, hurting locality.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.formats.base import (
    CACHELINE_BYTES,
    ELEMENT_BYTES,
    FeatureFormat,
    FeatureLayout,
    bytes_to_lines,
    span_line_counts,
    validate_row_nnz,
)

#: Bytes per column index.
INDEX_BYTES = 4


class CSRLayout(FeatureLayout):
    """Packed CSR layout: row pointers, column indices, and values arrays.

    The three arrays are placed one after another in the address space so
    that index traffic and value traffic compete for the same cache, as in
    hardware.
    """

    def __init__(self, row_nnz: np.ndarray, width: int, base_line: int = 0) -> None:
        super().__init__(int(row_nnz.size), width, base_line)
        self.row_nnz = row_nnz
        self.row_offsets = np.zeros(self.num_rows + 1, dtype=np.int64)
        np.cumsum(row_nnz, out=self.row_offsets[1:])
        total_nnz = int(self.row_offsets[-1])

        # Array placement (in bytes, relative to base).
        self.rowptr_base = 0
        rowptr_bytes = (self.num_rows + 1) * INDEX_BYTES
        self.colidx_base = bytes_to_lines(rowptr_bytes) * CACHELINE_BYTES
        colidx_bytes = total_nnz * INDEX_BYTES
        self.values_base = self.colidx_base + bytes_to_lines(colidx_bytes) * CACHELINE_BYTES

    def row_read_lines(self, row: int) -> np.ndarray:
        self._check_row(row)
        nnz = int(self.row_nnz[row])
        offset = int(self.row_offsets[row])
        # Row pointer pair (start, end) — two consecutive 4-byte entries.
        ptr_lines = self._span(self.rowptr_base + row * INDEX_BYTES, 2 * INDEX_BYTES)
        idx_lines = self._span(self.colidx_base + offset * INDEX_BYTES, nnz * INDEX_BYTES)
        val_lines = self._span(self.values_base + offset * ELEMENT_BYTES, nnz * ELEMENT_BYTES)
        return np.concatenate([ptr_lines, idx_lines, val_lines])

    def row_read_line_counts(self) -> np.ndarray:
        rows = np.arange(self.num_rows, dtype=np.int64)
        offsets = self.row_offsets[:-1]
        nnz = self.row_nnz
        return (
            span_line_counts(self.rowptr_base + rows * INDEX_BYTES, 2 * INDEX_BYTES)
            + span_line_counts(self.colidx_base + offsets * INDEX_BYTES, nnz * INDEX_BYTES)
            + span_line_counts(self.values_base + offsets * ELEMENT_BYTES, nnz * ELEMENT_BYTES)
        )

    def row_read_bytes(self, row: int) -> int:
        self._check_row(row)
        return int(self.row_read_lines(row).size) * CACHELINE_BYTES

    def row_write_bytes(self, row: int) -> int:
        self._check_row(row)
        nnz = int(self.row_nnz[row])
        # Writing a compressed variable-length row touches the same lines a
        # read would (indices + values + updating the row pointer); because
        # rows are unaligned, partial lines still cost a full line of traffic
        # (read-modify-write).
        return self.row_read_bytes(row) if nnz else CACHELINE_BYTES

class CSRFeatureFormat(FeatureFormat):
    """CSR feature compression (column index per non-zero value)."""

    name = "csr"
    supports_parallel_write = False
    aligned = False
    compressed = True

    def build_layout(
        self,
        row_nnz: np.ndarray,
        width: int,
        base_line: int = 0,
        slice_nnz: Optional[np.ndarray] = None,
    ) -> CSRLayout:
        row_nnz = validate_row_nnz(row_nnz, width)
        return CSRLayout(row_nnz, width, base_line)
