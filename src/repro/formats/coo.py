"""Coordinate (COO) storage of the feature matrix.

COO stores a ``(row, column, value)`` triple per non-zero element — 12 bytes
per non-zero versus CSR's 8 — so its index overhead is even larger
(Section II-B: "The COO format has even more index overheads because it
stores both row and column indices for each non-zero element").  Locating a
row additionally needs a per-row offset array because the triples of one row
are stored contiguously but at a data-dependent position.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.formats.base import (
    CACHELINE_BYTES,
    FeatureFormat,
    FeatureLayout,
    bytes_to_lines,
    span_line_counts,
    validate_row_nnz,
)

#: Bytes per stored non-zero: row index + column index + value.
TRIPLE_BYTES = 12


class COOLayout(FeatureLayout):
    """Packed COO layout: an offsets array plus an array of 12-byte triples."""

    def __init__(self, row_nnz: np.ndarray, width: int, base_line: int = 0) -> None:
        super().__init__(int(row_nnz.size), width, base_line)
        self.row_nnz = row_nnz
        self.row_offsets = np.zeros(self.num_rows + 1, dtype=np.int64)
        np.cumsum(row_nnz, out=self.row_offsets[1:])

        self.offsets_base = 0
        offsets_bytes = (self.num_rows + 1) * 4
        self.triples_base = bytes_to_lines(offsets_bytes) * CACHELINE_BYTES

    def row_read_lines(self, row: int) -> np.ndarray:
        self._check_row(row)
        nnz = int(self.row_nnz[row])
        offset = int(self.row_offsets[row])
        offset_lines = self._span(self.offsets_base + row * 4, 8)
        triple_lines = self._span(
            self.triples_base + offset * TRIPLE_BYTES, nnz * TRIPLE_BYTES
        )
        return np.concatenate([offset_lines, triple_lines])

    def row_read_line_counts(self) -> np.ndarray:
        rows = np.arange(self.num_rows, dtype=np.int64)
        return span_line_counts(self.offsets_base + rows * 4, 8) + span_line_counts(
            self.triples_base + self.row_offsets[:-1] * TRIPLE_BYTES,
            self.row_nnz * TRIPLE_BYTES,
        )

    def row_read_bytes(self, row: int) -> int:
        self._check_row(row)
        return int(self.row_read_lines(row).size) * CACHELINE_BYTES

    def row_write_bytes(self, row: int) -> int:
        self._check_row(row)
        nnz = int(self.row_nnz[row])
        return self.row_read_bytes(row) if nnz else CACHELINE_BYTES

class COOFeatureFormat(FeatureFormat):
    """COO feature compression (row and column index per non-zero value)."""

    name = "coo"
    supports_parallel_write = False
    aligned = False
    compressed = True

    def build_layout(
        self,
        row_nnz: np.ndarray,
        width: int,
        base_line: int = 0,
        slice_nnz: Optional[np.ndarray] = None,
    ) -> COOLayout:
        row_nnz = validate_row_nnz(row_nnz, width)
        return COOLayout(row_nnz, width, base_line)
