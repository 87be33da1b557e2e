"""Dense 3D volumes: standardization, connected components, flip axes.

Arrays are indexed ``[x, y, z]``; the canonical linear voxel order is
x-fastest (Fortran ravel), which also matches the on-disk NIfTI layout.
Arithmetic on a volume starts from :meth:`_Grid.float64` (under NEP 50 a
float32 array would compute in float32), so results equal a float64 copy's.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np


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
        from scipy import ndimage
        return ndimage.generate_binary_structure(3, self.value)


@dataclass(eq=False)
class _Grid:
    """``data`` has shape (nx, ny, nz); spacing is mm per voxel."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.data.ndim != 3 or min(self.data.shape) < 1:
            raise ValueError(f"expected a non-empty 3D array, got shape {self.data.shape}")
        self.spacing = tuple(float(s) for s in self.spacing)
        if len(self.spacing) != 3 or any(s <= 0 for s in self.spacing):
            raise ValueError(f"spacing must be three positive values, got {self.spacing}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def float64(self, where: np.ndarray | None = None) -> np.ndarray:
        """The data, or its ``where`` voxels (gathered inside their box, in grid order), as float64."""
        if where is None:
            return self.data.astype(np.float64, copy=False)
        box = foreground_box(where) or (slice(0, 0),) * 3
        return self.data[box][where[box]].astype(np.float64, copy=False)


class Volume3D(_Grid):
    """Scalar volume: uint8, int16, float32 or float64 data as given, else float64."""

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.dtype not in (np.uint8, np.int16, np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        super().__post_init__()
        if self.data.dtype.kind == "f" and not np.isfinite(self.data).all():
            raise ValueError("volume contains non-finite values")


class Mask3D(_Grid):
    """Binary volume with the same layout conventions as :class:`Volume3D`."""

    def __post_init__(self):
        self.data = np.asarray(self.data).astype(bool, copy=False)
        super().__post_init__()


def require_same_grid(*vols) -> None:
    """The one rule for volumes that meet voxel by voxel: equal dims, then equal spacings."""
    first = vols[0]
    for v in vols[1:]:
        if v.dims != first.dims:
            raise ValueError(f"dimension mismatch: {first.dims} vs {v.dims}")
    for v in vols[1:]:
        if v.spacing != first.spacing:
            raise ValueError(f"spacing mismatch: {first.spacing} vs {v.spacing}")


def standardize_nonzero(v: Volume3D) -> Volume3D:
    """Standardize the nonzero voxels to zero mean and unit variance.

    Zero voxels are background and stay at 0. Uses the population standard
    deviation over the nonzero set. A constant nonzero set (sigma = 0) maps
    to all zeros and emits :class:`DegenerateVolumeWarning`.
    """
    nz = v.data != 0
    if not nz.any():
        raise ValueError("no foreground intensities: volume is identically zero")
    values = v.float64(nz)
    mu = values.mean()
    sigma = values.std()  # population (divide-by-N)
    out = np.zeros_like(v.data, dtype=np.float64)
    if sigma == 0.0:
        warnings.warn(
            "constant nonzero intensities: standardized volume is identically zero",
            DegenerateVolumeWarning,
            stacklevel=2,
        )
    else:
        out[nz] = (values - mu) / sigma
    return Volume3D(out, v.spacing)


def require_within(v: Volume3D, lo: float, hi: float, name: str) -> None:
    """Refuse a volume with a value outside [lo, hi], as ``<name> values must lie in [lo, hi]``."""
    if v.data.min() < lo or v.data.max() > hi:
        raise ValueError(f"{name} values must lie in [{lo:g}, {hi:g}]")


def foreground_box(data: np.ndarray) -> tuple[slice, slice, slice] | None:
    """Smallest box holding every True voxel (x, y from ``any`` along z, then z); None if none."""
    xy = data.any(axis=2)
    xs, ys = np.flatnonzero(xy.any(axis=1)), np.flatnonzero(xy.any(axis=0))
    if xs.size == 0:
        return None
    x, y = slice(int(xs[0]), int(xs[-1]) + 1), slice(int(ys[0]), int(ys[-1]) + 1)
    zs = np.flatnonzero(data[x, y].any(axis=(0, 1)))
    return x, y, slice(int(zs[0]), int(zs[-1]) + 1)


def count_components(m: Mask3D, connectivity: Connectivity = Connectivity.CORNER26) -> int:
    """Number of maximal connected foreground components, labelled inside their box."""
    from scipy import ndimage
    box = foreground_box(m.data)
    return 0 if box is None else ndimage.label(m.data[box], structure=connectivity.structure())[1]


def remove_small_components(
    m: Mask3D, min_size: int, connectivity: Connectivity = Connectivity.CORNER26
) -> Mask3D:
    """Delete connected components with fewer than ``min_size`` voxels, labelling their box only."""
    if min_size < 0:
        raise ValueError(f"min_size must be >= 0, got {min_size}")
    box = None if min_size <= 1 else foreground_box(m.data)
    if box is None:
        return Mask3D(m.data.copy(order="F"), m.spacing)
    from scipy import ndimage
    labels, n = ndimage.label(m.data[box], structure=connectivity.structure())
    keep = np.bincount(labels.ravel(), minlength=n + 1) >= min_size
    keep[0] = False
    out = np.zeros(m.dims, dtype=bool, order="F")  # x-fastest, as every mask and label map
    out[box] = keep[labels]
    return Mask3D(out, m.spacing)
