"""Vectorized per-row line-count tables vs the per-row reference walk."""

import numpy as np
import pytest

from repro.formats.base import FeatureLayout, span_line_counts, span_lines
from repro.formats.beicsr import _split_row_nnz
from repro.formats.registry import available_formats, get_format


def reference_counts(layout):
    return np.fromiter(
        (layout.row_read_lines(row).size for row in range(layout.num_rows)),
        dtype=np.int64,
        count=layout.num_rows,
    )


@pytest.mark.parametrize("format_name", available_formats())
def test_row_read_line_counts_match_reference(format_name):
    fmt = get_format(format_name)
    rng = np.random.default_rng(hash(format_name) % (2**32))
    for _ in range(15):
        width = int(rng.integers(1, 300))
        rows = int(rng.integers(1, 50))
        row_nnz = rng.integers(0, width + 1, size=rows).astype(np.int64)
        base_line = int(rng.integers(0, 7))
        layout = fmt.build_layout(row_nnz, width, base_line=base_line)
        got = layout.row_read_line_counts()
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_counts(layout)), (width, row_nnz)


@pytest.mark.parametrize("format_name", available_formats())
def test_counts_consistent_with_row_read_bytes(format_name):
    # For every built-in layout a row's read bytes are its line count x 64.
    fmt = get_format(format_name)
    row_nnz = np.asarray([0, 3, 17, 64], dtype=np.int64)
    layout = fmt.build_layout(row_nnz, 64)
    counts = layout.row_read_line_counts()
    for row in range(layout.num_rows):
        assert layout.row_read_bytes(row) == int(counts[row]) * 64


def test_span_line_counts_matches_span_lines():
    rng = np.random.default_rng(0)
    starts = rng.integers(0, 1000, size=200)
    lengths = rng.integers(0, 400, size=200)
    counts = span_line_counts(starts, lengths)
    for start, length, count in zip(starts.tolist(), lengths.tolist(), counts.tolist()):
        assert count == len(span_lines(start, length))


def test_base_class_fallback_used_by_custom_layouts():
    class TrivialLayout(FeatureLayout):
        def row_read_lines(self, row):
            self._check_row(row)
            return np.arange(row + 1, dtype=np.int64)

        def row_read_bytes(self, row):
            return (row + 1) * 64

        def row_write_bytes(self, row):
            return 0

    layout = TrivialLayout(num_rows=5, width=8)
    assert np.array_equal(layout.row_read_line_counts(), np.asarray([1, 2, 3, 4, 5]))


def test_split_row_nnz_matches_round_robin_reference():
    rng = np.random.default_rng(1)
    for _ in range(100):
        width = int(rng.integers(1, 300))
        slice_size = int(rng.integers(1, width + 1))
        rows = int(rng.integers(1, 25))
        row_nnz = rng.integers(0, width + 1, size=rows).astype(np.int64)
        got = _split_row_nnz(row_nnz, width, slice_size)

        num_slices = (width + slice_size - 1) // slice_size
        widths = np.full(num_slices, slice_size, dtype=np.int64)
        if width % slice_size:
            widths[-1] = width % slice_size
        for row in range(rows):
            remaining = int(row_nnz[row])
            base = remaining // num_slices
            counts = np.minimum(np.full(num_slices, base, dtype=np.int64), widths)
            leftover = remaining - int(counts.sum())
            slot = 0
            while leftover > 0:
                if counts[slot] < widths[slot]:
                    counts[slot] += 1
                    leftover -= 1
                slot = (slot + 1) % num_slices
            assert np.array_equal(got[row], counts), (width, slice_size, row_nnz[row])
        assert np.array_equal(got.sum(axis=1), row_nnz)
