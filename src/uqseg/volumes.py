"""Dense 3D volumes: standardization, connected components, axis flips.

Arrays are indexed ``[x, y, z]``; the canonical linear voxel order is
x-fastest (Fortran ravel), which also matches the on-disk NIfTI layout.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage


class DegenerateVolumeWarning(UserWarning):
    """Raised as a warning when an input is valid but statistically degenerate."""


class Axis(enum.Enum):
    X = 0
    Y = 1
    Z = 2


class Connectivity(enum.Enum):
    """Neighbourhood used for component analysis (face, edge or corner adjacency)."""

    FACE6 = 1
    EDGE18 = 2
    CORNER26 = 3

    def structure(self) -> np.ndarray:
        return ndimage.generate_binary_structure(3, self.value)


def _check_spacing(spacing) -> tuple[float, float, float]:
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or any(s <= 0 for s in spacing):
        raise ValueError(f"spacing must be three positive values, got {spacing}")
    return spacing


@dataclass(eq=False)
class Volume3D:
    """Scalar volume. ``data`` has shape (nx, ny, nz); spacing is mm per voxel."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3 or min(self.data.shape) < 1:
            raise ValueError(f"expected a non-empty 3D array, got shape {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise ValueError("volume contains non-finite values")
        self.spacing = _check_spacing(self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(eq=False)
class Mask3D:
    """Binary volume with the same layout conventions as :class:`Volume3D`."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.data = np.asarray(self.data).astype(bool)
        if self.data.ndim != 3 or min(self.data.shape) < 1:
            raise ValueError(f"expected a non-empty 3D array, got shape {self.data.shape}")
        self.spacing = _check_spacing(self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def voxel_count(self) -> int:
        return int(self.data.sum())


def require_same_dims(*vols) -> tuple[int, int, int]:
    dims = vols[0].dims
    for v in vols[1:]:
        if v.dims != dims:
            raise ValueError(f"dimension mismatch: {dims} vs {v.dims}")
    return dims


def require_same_grid(*vols) -> tuple[int, int, int]:
    """Dims as :func:`require_same_dims`; the spacings must be equal too."""
    dims = require_same_dims(*vols)
    for v in vols[1:]:
        if v.spacing != vols[0].spacing:
            raise ValueError(f"spacing mismatch: {vols[0].spacing} vs {v.spacing}")
    return dims


def standardize_nonzero(v: Volume3D) -> Volume3D:
    """Standardize the nonzero voxels to zero mean and unit variance.

    Zero voxels are background and stay at 0. Uses the population standard
    deviation over the nonzero set. A constant nonzero set (sigma = 0) maps
    to all zeros and emits :class:`DegenerateVolumeWarning`.
    """
    nz = v.data != 0
    if not nz.any():
        raise ValueError("no foreground intensities: volume is identically zero")
    values = v.data[nz]
    mu = values.mean()
    sigma = values.std()  # population (divide-by-N)
    out = np.zeros_like(v.data)
    if sigma == 0.0:
        warnings.warn(
            "constant nonzero intensities: standardized volume is identically zero",
            DegenerateVolumeWarning,
            stacklevel=2,
        )
    else:
        out[nz] = (values - mu) / sigma
    return Volume3D(out, v.spacing)


def count_components(m: Mask3D, connectivity: Connectivity = Connectivity.CORNER26) -> int:
    """Number of maximal connected foreground components."""
    return ndimage.label(m.data, structure=connectivity.structure())[1]


def remove_small_components(
    m: Mask3D, min_size: int, connectivity: Connectivity = Connectivity.CORNER26
) -> Mask3D:
    """Delete connected components with fewer than ``min_size`` voxels."""
    if min_size < 0:
        raise ValueError(f"min_size must be >= 0, got {min_size}")
    if min_size <= 1:
        return Mask3D(m.data.copy(), m.spacing)
    labels, n = ndimage.label(m.data, structure=connectivity.structure())
    if n == 0:
        return Mask3D(m.data.copy(), m.spacing)
    keep = np.bincount(labels.ravel(), minlength=n + 1) >= min_size
    keep[0] = False
    return Mask3D(keep[labels], m.spacing)


def flip_axis(v, axis: Axis):
    """Mirror a volume or mask along one axis. Applying twice restores the input."""
    flipped = np.flip(v.data, axis=axis.value).copy()
    return type(v)(flipped, v.spacing)
