"""Block Compressed Sparse Row (BSR) storage of the feature matrix.

BSR partitions the matrix into small dense blocks (default 2x2) and stores
only the blocks that contain at least one non-zero, each with a block-column
index.  It compresses well only when many blocks are *entirely* empty — at
the ~50% element-level sparsity of GCN intermediate features the probability
of an empty 2x2 block is only ~6%, so BSR mostly adds index overhead and
padding (paper Section II-B: blocked formats "are beneficial only when there
are many empty blocks ... GCN intermediate activations seldom exhibit such
patterns").
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

#: Bytes per block-column index.
INDEX_BYTES = 4


def _expected_nonempty_blocks(row_nnz: int, width: int, block_cols: int, block_rows: int) -> int:
    """Expected number of non-empty blocks in one block-row.

    Assumes non-zeros are spread uniformly over the ``block_rows`` rows x
    ``width`` columns of the block-row (the paper's own assumption when it
    argues blocked formats do not help).
    """
    num_blocks = (width + block_cols - 1) // block_cols
    cells_per_block = block_cols * block_rows
    total_cells = num_blocks * cells_per_block
    density = min(1.0, (row_nnz * block_rows) / max(total_cells, 1))
    prob_empty = (1.0 - density) ** cells_per_block
    return int(round(num_blocks * (1.0 - prob_empty)))


class BSRLayout(FeatureLayout):
    """BSR layout: block row pointers, block column indices, dense blocks."""

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

        # Expected non-empty blocks per block-row, derived from the nnz of
        # the rows it contains.
        self.blocks_per_blockrow = np.zeros(num_block_rows, dtype=np.int64)
        for block_row in range(num_block_rows):
            start = block_row * block_rows
            stop = min(self.num_rows, start + block_rows)
            nnz = int(row_nnz[start:stop].sum())
            self.blocks_per_blockrow[block_row] = _expected_nonempty_blocks(
                max(1, nnz // max(1, (stop - start))), width, block_cols, block_rows
            )
        self.block_offsets = np.zeros(num_block_rows + 1, dtype=np.int64)
        np.cumsum(self.blocks_per_blockrow, out=self.block_offsets[1:])
        total_blocks = int(self.block_offsets[-1])
        block_bytes = block_rows * block_cols * ELEMENT_BYTES

        self.ptr_base = 0
        ptr_bytes = (num_block_rows + 1) * INDEX_BYTES
        self.idx_base = bytes_to_lines(ptr_bytes) * CACHELINE_BYTES
        idx_bytes = total_blocks * INDEX_BYTES
        self.data_base = self.idx_base + bytes_to_lines(idx_bytes) * CACHELINE_BYTES
        self.block_bytes = block_bytes

    def row_read_lines(self, row: int) -> np.ndarray:
        self._check_row(row)
        block_row = row // self.block_rows
        num_blocks = int(self.blocks_per_blockrow[block_row])
        offset = int(self.block_offsets[block_row])
        ptr_lines = self._span(self.ptr_base + block_row * INDEX_BYTES, 2 * INDEX_BYTES)
        idx_lines = self._span(self.idx_base + offset * INDEX_BYTES, num_blocks * INDEX_BYTES)
        # Reading one feature row requires touching every non-empty block of
        # its block-row (the row's slice of each block is interleaved with the
        # other rows of the block, so whole blocks are fetched).
        data_lines = self._span(
            self.data_base + offset * self.block_bytes, num_blocks * self.block_bytes
        )
        return np.concatenate([ptr_lines, idx_lines, data_lines])

    def row_read_line_counts(self) -> np.ndarray:
        block_row = np.arange(self.num_rows, dtype=np.int64) // self.block_rows
        num_blocks = self.blocks_per_blockrow[block_row]
        offset = self.block_offsets[block_row]
        return (
            span_line_counts(self.ptr_base + block_row * INDEX_BYTES, 2 * INDEX_BYTES)
            + span_line_counts(self.idx_base + offset * INDEX_BYTES, num_blocks * INDEX_BYTES)
            + span_line_counts(
                self.data_base + offset * self.block_bytes, num_blocks * self.block_bytes
            )
        )

    def row_read_bytes(self, row: int) -> int:
        self._check_row(row)
        return int(self.row_read_lines(row).size) * CACHELINE_BYTES

    def row_write_bytes(self, row: int) -> int:
        self._check_row(row)
        return self.row_read_bytes(row)

class BSRFeatureFormat(FeatureFormat):
    """Block CSR feature compression (default 2x2 blocks)."""

    name = "bsr"
    supports_parallel_write = False
    aligned = False
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
    ) -> BSRLayout:
        row_nnz = validate_row_nnz(row_nnz, width)
        return BSRLayout(row_nnz, width, self.block_rows, self.block_cols, base_line)
