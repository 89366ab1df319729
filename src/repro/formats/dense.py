"""Dense (uncompressed) feature storage.

This is the baseline used by every existing GCN accelerator the paper
compares against: the feature matrix is stored as a contiguous row-major
array, every row occupying ``width * 4`` bytes regardless of its sparsity.
Rows are padded to cacheline boundaries so every row read is aligned — the
best case for DRAM efficiency but the worst case for traffic volume once the
features become sparse.
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
    validate_row_nnz,
)


class DenseLayout(FeatureLayout):
    """Row-major dense layout with cacheline-aligned rows."""

    def __init__(self, num_rows: int, width: int, base_line: int = 0) -> None:
        super().__init__(num_rows, width, base_line)
        self.row_lines = bytes_to_lines(width * ELEMENT_BYTES)

    def row_read_lines(self, row: int) -> np.ndarray:
        self._check_row(row)
        start = self.base_line + row * self.row_lines
        return np.arange(start, start + self.row_lines, dtype=np.int64)

    def row_read_line_counts(self) -> np.ndarray:
        return np.full(self.num_rows, self.row_lines, dtype=np.int64)

    def row_read_bytes(self, row: int) -> int:
        self._check_row(row)
        return self.row_lines * CACHELINE_BYTES

    def row_write_bytes(self, row: int) -> int:
        self._check_row(row)
        return self.row_lines * CACHELINE_BYTES

class DenseFormat(FeatureFormat):
    """Uncompressed dense feature format."""

    name = "dense"
    supports_parallel_write = True
    aligned = True
    compressed = False

    def build_layout(
        self,
        row_nnz: np.ndarray,
        width: int,
        base_line: int = 0,
        slice_nnz: Optional[np.ndarray] = None,
    ) -> DenseLayout:
        row_nnz = validate_row_nnz(row_nnz, width)
        return DenseLayout(row_nnz.size, width, base_line)
