"""Intermediate feature sparsity: measurement and synthesis.

Two use cases:

1. *Measurement* — given actual feature matrices produced by the numpy GCN
   models, compute their sparsity (fraction of exact zeros) per layer.  Used
   by examples, tests, and the small-graph experiments.
2. *Synthesis* — the paper's headline results use 28-layer residual GCNs
   trained on nine real datasets.  We cannot retrain those offline, so the
   accelerator experiments consume *synthetic sparsity profiles* calibrated
   to the published numbers: the average per-dataset sparsity of Table II and
   the per-layer trend of Fig. 2b (sparsity rises towards the output layer),
   and Fig. 1 / Fig. 2a's dependence on depth and residual connections.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import SimulationError


# --------------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------------- #
def measure_sparsity(matrix: np.ndarray) -> float:
    """Fraction of exactly-zero entries in ``matrix``."""
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        return 0.0
    return float(np.count_nonzero(matrix == 0) / matrix.size)


def per_slice_nonzeros(matrix: np.ndarray, slice_size: int) -> np.ndarray:
    """Non-zero count of every ``slice_size``-wide slice of every row.

    Returns an array of shape ``(rows, num_slices)`` where the last slice may
    cover fewer than ``slice_size`` columns.

    Implemented as a single pad-and-reshape ``count_nonzero`` (pinned equal
    to a loop-over-slices oracle by a randomized test); every
    measured-sparsity run calls it once per layer.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise SimulationError("feature matrix must be two-dimensional")
    if slice_size <= 0:
        raise SimulationError("slice size must be positive")
    rows, width = matrix.shape
    num_slices = (width + slice_size - 1) // slice_size
    nonzero = matrix != 0
    pad = num_slices * slice_size - width
    if pad:
        nonzero = np.concatenate(
            [nonzero, np.zeros((rows, pad), dtype=bool)], axis=1
        )
    return np.count_nonzero(
        nonzero.reshape(rows, num_slices, slice_size), axis=2
    ).astype(np.int64)


# --------------------------------------------------------------------------- #
# Synthesis
# --------------------------------------------------------------------------- #
def layer_sparsity_profile(
    num_layers: int,
    average_sparsity: float,
    rise: float = 0.12,
    noise: float = 0.02,
    seed: Optional[int] = 0,
    floor: float = 0.05,
    ceiling: float = 0.90,
) -> List[float]:
    """Per-layer sparsity profile averaging ``average_sparsity``.

    Matches the qualitative shape of paper Fig. 2b: sparsity generally rises
    towards the output layer (the network finds increasingly disentangled
    representations) with small per-layer fluctuations.

    Args:
        num_layers: Number of layers.
        average_sparsity: Target mean of the profile.
        rise: Total increase from the first to the last layer.
        noise: Standard deviation of per-layer fluctuations.
        seed: RNG seed; ``None`` disables the noise.
        floor: Minimum allowed per-layer sparsity.
        ceiling: Maximum allowed per-layer sparsity.

    Returns:
        A list of ``num_layers`` sparsity values in ``[floor, ceiling]`` whose
        mean is ``average_sparsity`` (to ~1e-12, whenever the target itself
        lies in ``[floor, ceiling]``; targets outside the band saturate at
        the nearest bound, which is the closest achievable mean).
    """
    if num_layers <= 0:
        raise SimulationError("number of layers must be positive")
    if not 0.0 <= average_sparsity <= 1.0:
        raise SimulationError("average sparsity must lie in [0, 1]")

    if num_layers == 1:
        trend = np.zeros(1)
    else:
        trend = np.linspace(-rise / 2.0, rise / 2.0, num_layers)
    profile = average_sparsity + trend
    if seed is not None and noise > 0:
        rng = np.random.default_rng(seed)
        profile = profile + rng.normal(0.0, noise, size=num_layers)
    profile = np.clip(profile, floor, ceiling)

    # Re-centre the mean after clipping so the average matches Table II.  A
    # single recentre-then-clip pass drifts whenever the correction pushes
    # layers into the floor/ceiling (the clipped layers absorb less than
    # their share), so the residual error is redistributed over the layers
    # that still have headroom until the mean converges.  When nothing
    # clips, the first pass is exact and the loop is a no-op, keeping the
    # historical profiles (and every cached scenario_id built on them)
    # byte-identical.
    correction = average_sparsity - profile.mean()
    profile = np.clip(profile + correction, floor, ceiling)
    for _ in range(8 * num_layers):
        error = average_sparsity - profile.mean()
        if abs(error) <= 1e-12:
            break
        free = profile < ceiling if error > 0 else profile > floor
        count = int(np.count_nonzero(free))
        if count == 0:
            break  # target outside [floor, ceiling]: saturated at a bound
        profile[free] = np.clip(
            profile[free] + error * num_layers / count, floor, ceiling
        )
    return [float(value) for value in profile]


def sparsity_vs_depth(
    num_layers: int,
    residual: bool,
    base_sparsity: float = 0.15,
    residual_sparsity: float = 0.52,
    depth_gain: float = 0.055,
    max_sparsity: float = 0.72,
) -> float:
    """Average intermediate sparsity as a function of depth (Fig. 1 / Fig. 2a).

    Traditional GCNs (no residual connections) stay at low sparsity
    (~5–30%) regardless of depth — and do not converge at all beyond a few
    layers.  Residual GCNs jump above 50% sparsity as soon as the residual
    connection is added and become sparser as the network deepens, saturating
    around 70%.

    Args:
        num_layers: Network depth.
        residual: Whether residual connections are used.
        base_sparsity: Sparsity of a shallow traditional GCN.
        residual_sparsity: Sparsity of a shallow residual GCN.
        depth_gain: Additional sparsity per doubling of depth (residual only).
        max_sparsity: Saturation level.
    """
    if num_layers <= 0:
        raise SimulationError("number of layers must be positive")
    if not residual:
        # Slight increase with depth, but the network stops learning, so the
        # sparsity stays low (Fig. 2a "Traditional").
        return float(min(0.30, base_sparsity + 0.01 * np.log2(max(num_layers, 1))))
    depth_factor = np.log2(max(num_layers, 2) / 2.0)
    return float(min(max_sparsity, residual_sparsity + depth_gain * depth_factor))


def expected_nonzeros_per_row(width: int, sparsity: float) -> float:
    """Expected number of non-zeros in a feature row of ``width`` columns."""
    if width <= 0:
        raise SimulationError("width must be positive")
    if not 0.0 <= sparsity <= 1.0:
        raise SimulationError("sparsity must lie in [0, 1]")
    return width * (1.0 - sparsity)


def row_nonzero_distribution(
    num_rows: int,
    width: int,
    sparsity: float,
    variability: float = 0.15,
    seed: Optional[int] = 0,
) -> np.ndarray:
    """Sample per-row non-zero counts around the expected value.

    The accelerator models often only need per-row non-zero counts rather
    than full matrices (the traffic depends on counts, not values).  Rows
    vary around the mean with relative standard deviation ``variability``,
    matching the paper's observation that per-slice counts have small
    variance with a few outliers (Section V-B).
    """
    if num_rows <= 0:
        raise SimulationError("num_rows must be positive")
    mean = expected_nonzeros_per_row(width, sparsity)
    rng = np.random.default_rng(seed)
    counts = rng.normal(mean, variability * max(mean, 1.0), size=num_rows)
    return np.clip(np.round(counts), 0, width).astype(np.int64)
