"""Blocked Ellpack storage of the feature matrix.

Blocked Ellpack stores, for every block-row, a fixed number of blocks equal
to the maximum non-empty block count over all block-rows, padding the
shorter block-rows with explicit zero blocks.  The fixed stride makes row
lookup trivial (no row pointers) and the layout aligned, but at moderate
element-level sparsity almost no blocks are empty, so the padding makes the
matrix *larger* than dense — exactly why the paper dismisses it for GCN
intermediate features (Fig. 3).
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
from repro.formats.bsr import _expected_nonempty_blocks

#: Bytes per block-column index.
INDEX_BYTES = 4


class BlockedEllpackLayout(FeatureLayout):
    """Fixed-stride blocked Ellpack layout."""

    def __init__(
        self,
        row_nnz: np.ndarray,
        width: int,
        block_rows: int,
        block_cols: int,
        base_line: int = 0,
    ) -> None:
        super().__init__(int(row_nnz.size), width, base_line)
        self.block_rows = block_rows
        self.block_cols = block_cols
        self.row_nnz = row_nnz
        num_block_rows = (self.num_rows + block_rows - 1) // block_rows

        per_blockrow = np.zeros(num_block_rows, dtype=np.int64)
        for block_row in range(num_block_rows):
            start = block_row * block_rows
            stop = min(self.num_rows, start + block_rows)
            nnz = int(row_nnz[start:stop].sum())
            per_blockrow[block_row] = _expected_nonempty_blocks(
                max(1, nnz // max(1, (stop - start))), width, block_cols, block_rows
            )
        # Ellpack pads every block-row to the maximum count.
        self.blocks_per_blockrow = int(per_blockrow.max()) if per_blockrow.size else 0
        self.actual_blocks = per_blockrow
        block_bytes = block_rows * block_cols * ELEMENT_BYTES

        self.idx_base = 0
        idx_bytes = num_block_rows * self.blocks_per_blockrow * INDEX_BYTES
        self.data_base = bytes_to_lines(idx_bytes) * CACHELINE_BYTES
        # Each block-row's data region is padded to a cacheline boundary so
        # the stride stays aligned.
        self.blockrow_data_lines = bytes_to_lines(self.blocks_per_blockrow * block_bytes)
        self.block_bytes = block_bytes

    def row_read_lines(self, row: int) -> np.ndarray:
        self._check_row(row)
        block_row = row // self.block_rows
        # Only the actually non-empty blocks need to be read; the padded tail
        # is skipped thanks to the per-block-row count (but storage-wise the
        # padding is still reserved).
        num_blocks = int(self.actual_blocks[block_row])
        idx_lines = self._span(
            self.idx_base + block_row * self.blocks_per_blockrow * INDEX_BYTES,
            num_blocks * INDEX_BYTES,
        )
        data_start = self.data_base + block_row * self.blockrow_data_lines * CACHELINE_BYTES
        data_lines = self._span(data_start, num_blocks * self.block_bytes)
        return np.concatenate([idx_lines, data_lines])

    def row_read_line_counts(self) -> np.ndarray:
        block_row = np.arange(self.num_rows, dtype=np.int64) // self.block_rows
        num_blocks = self.actual_blocks[block_row]
        data_starts = (
            self.data_base + block_row * self.blockrow_data_lines * CACHELINE_BYTES
        )
        return span_line_counts(
            self.idx_base + block_row * self.blocks_per_blockrow * INDEX_BYTES,
            num_blocks * INDEX_BYTES,
        ) + span_line_counts(data_starts, num_blocks * self.block_bytes)

    def row_read_bytes(self, row: int) -> int:
        self._check_row(row)
        return int(self.row_read_lines(row).size) * CACHELINE_BYTES

    def row_write_bytes(self, row: int) -> int:
        self._check_row(row)
        return self.row_read_bytes(row)

class BlockedEllpackFormat(FeatureFormat):
    """Blocked Ellpack feature compression (default 2x2 blocks)."""

    name = "blocked_ellpack"
    supports_parallel_write = True
    aligned = True
    compressed = True

    def __init__(self, block_rows: int = 2, block_cols: int = 2) -> None:
        if block_rows <= 0 or block_cols <= 0:
            raise FormatError("block dimensions must be positive")
        self.block_rows = block_rows
        self.block_cols = block_cols

    def build_layout(
        self,
        row_nnz: np.ndarray,
        width: int,
        base_line: int = 0,
        slice_nnz: Optional[np.ndarray] = None,
    ) -> BlockedEllpackLayout:
        row_nnz = validate_row_nnz(row_nnz, width)
        return BlockedEllpackLayout(
            row_nnz, width, self.block_rows, self.block_cols, base_line
        )
