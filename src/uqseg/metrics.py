"""Overlap and surface-distance metrics for binary masks."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volumes import Connectivity, foreground_box, require_same_grid


@dataclass
class MetricResult:
    dice: float
    hd95: float | None


def dice(a, b) -> float:
    """2|A n B| / (|A| + |B|); two empty masks agree perfectly (1.0)."""
    require_same_grid(a, b)
    na = int(a.data.sum())
    nb = int(b.data.sum())
    if na + nb == 0:
        return 1.0
    inter = int((a.data & b.data).sum())
    return 2.0 * inter / (na + nb)


def surface(mask: np.ndarray) -> np.ndarray:
    """Foreground voxels with at least one background face-neighbour.

    Positions outside the array count as background, so foreground touching
    the array boundary is part of the surface.
    """
    from scipy import ndimage
    eroded = ndimage.binary_erosion(mask, structure=Connectivity.FACE6.structure(), border_value=0)
    return mask & ~eroded


def hausdorff95(a, b) -> float:
    """95th-percentile symmetric surface distance in millimetres.

    Each direction takes the 95th percentile (linear interpolation) of the
    Euclidean distances from one mask's surface voxels to the nearest surface
    voxel of the other; the result is the larger of the two. Two empty masks
    give 0; exactly one empty mask raises.
    """
    require_same_grid(a, b)
    a_any, b_any = a.data.any(), b.data.any()
    if a_any != b_any:
        raise ValueError("hausdorff95 undefined: exactly one mask is empty")
    if not a_any:
        return 0.0

    from scipy import ndimage
    # Outside the bounding box of a | b both masks are background and no surface voxel
    # lies, so the erosion (border_value=0) and both distance transforms are exact on it.
    box = foreground_box(a.data | b.data)
    surf_a = surface(a.data[box])
    surf_b = surface(b.data[box])
    dist_to_b = ndimage.distance_transform_edt(~surf_b, sampling=a.spacing)
    dist_to_a = ndimage.distance_transform_edt(~surf_a, sampling=a.spacing)
    p_ab = np.percentile(dist_to_b[surf_a], 95)
    p_ba = np.percentile(dist_to_a[surf_b], 95)
    return float(max(p_ab, p_ba))


def compare_masks(a, b, hd95_empty_sentinel: float | None = None) -> MetricResult:
    """Dice plus HD95, or ``hd95_empty_sentinel`` as HD95 when exactly one mask is empty."""
    d = dice(a, b)
    if a.data.any() != b.data.any():
        return MetricResult(dice=d, hd95=hd95_empty_sentinel)
    return MetricResult(dice=d, hd95=hausdorff95(a, b))
