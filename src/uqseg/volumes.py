"""Dense 3D volumes: standardization, connected components, axis flips.

Arrays are indexed ``[x, y, z]``; the canonical linear voxel order is
x-fastest (Fortran ravel), which also matches the on-disk NIfTI layout.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

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


@dataclass(eq=False)
class ComponentLabeling:
    """Dense labeling of mask components: 0 = background, labels 1..component_count.

    Labels are ordered by first appearance in the x-fastest linear scan, so the
    labeling is deterministic for a given mask and connectivity.
    """

    labels: np.ndarray
    component_sizes: np.ndarray = field(repr=False)
    component_count: int = 0

    def size_of(self, label: int) -> int:
        return int(self.component_sizes[label - 1])


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


def connected_components(m: Mask3D, connectivity: Connectivity = Connectivity.CORNER26) -> ComponentLabeling:
    """Label maximal connected foreground components.

    The component whose first voxel appears earliest in x-fastest scan order
    gets label 1, the next label 2, and so on.
    """
    raw, n = ndimage.label(m.data, structure=connectivity.structure())
    if n == 0:
        return ComponentLabeling(raw.astype(np.int64), np.zeros(0, dtype=np.int64), 0)
    flat = raw.ravel(order="F")
    first_seen = np.full(n + 1, flat.size, dtype=np.int64)
    np.minimum.at(first_seen, flat, np.arange(flat.size, dtype=np.int64))
    by_first = np.argsort(first_seen[1:], kind="stable") + 1
    remap = np.zeros(n + 1, dtype=np.int64)
    remap[by_first] = np.arange(1, n + 1)
    labels = remap[raw]
    sizes = np.bincount(labels.ravel(), minlength=n + 1)[1:].astype(np.int64)
    return ComponentLabeling(labels, sizes, n)


def remove_small_components(
    m: Mask3D, min_size: int, connectivity: Connectivity = Connectivity.CORNER26
) -> Mask3D:
    """Delete connected components with fewer than ``min_size`` voxels."""
    if min_size < 0:
        raise ValueError(f"min_size must be >= 0, got {min_size}")
    if min_size <= 1:
        return Mask3D(m.data.copy(), m.spacing)
    labeling = connected_components(m, connectivity)
    if labeling.component_count == 0:
        return Mask3D(m.data.copy(), m.spacing)
    keep = np.concatenate(([False], labeling.component_sizes >= min_size))
    return Mask3D(keep[labeling.labels], m.spacing)


def flip_axis(v, axis: Axis):
    """Mirror a volume or mask along one axis. Applying twice restores the input."""
    flipped = np.flip(v.data, axis=axis.value).copy()
    return type(v)(flipped, v.spacing)
