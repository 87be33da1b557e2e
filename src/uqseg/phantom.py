"""Seeded synthetic tumor phantoms with controllable confidence profiles.

A phantom is a set of nested spheres (WT contains TC contains ET) with exact
ground-truth masks and per-region probability volumes that fall off radially
from an interior level to ~0. A wide falloff with a modest interior level
mimics a diffusely delineated region; a narrow falloff with a high level
mimics a confidently segmented one. The probability reaches roughly the 0.05
level near the true boundary, so diffuse regions are under-segmented at the
0.5 threshold but recovered by the 0.05 fallback.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .refine import REGION_ORDER, RegionLabel, SegmentationSet
from .volumes import Mask3D, Volume3D

@dataclass(frozen=True)
class SphereSpec:
    """One region's ground-truth sphere and probability profile.

    ``radius <= 0`` means the region is absent (empty ground truth, zero
    probability). ``falloff`` is the transition width in voxels; 0 gives a
    hard step at the boundary.
    """

    center: tuple[float, float, float]
    radius: float
    interior_level: float
    falloff: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.interior_level <= 1.0:
            raise ValueError(f"interior level must be in [0,1], got {self.interior_level}")
        if self.falloff < 0:
            raise ValueError(f"falloff must be >= 0, got {self.falloff}")


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int]
    regions: dict[RegionLabel, SphereSpec]
    q_inside: float = 0.05
    q_outside: float = 0.02
    noise_sigma: float = 0.01
    seed: int = 0
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        for name, level in (("q_inside", self.q_inside), ("q_outside", self.q_outside)):
            if not 0.0 <= level <= 0.5:
                raise ValueError(f"{name} must be in [0, 0.5], got {level}")
        for region in REGION_ORDER:
            if region not in self.regions:
                raise ValueError(f"missing region {region.value} in phantom spec")
        for region, sphere in self.regions.items():
            if sphere.radius <= 0:
                continue
            for c, dim in zip(sphere.center, self.dims):
                if c - sphere.radius < 0 or c + sphere.radius > dim - 1:
                    raise ValueError(
                        f"{region.value} sphere (center {sphere.center}, radius "
                        f"{sphere.radius}) exceeds volume bounds {self.dims}"
                    )
        for parent, child in (
            (RegionLabel.WHOLE_TUMOR, RegionLabel.TUMOR_CORE),
            (RegionLabel.TUMOR_CORE, RegionLabel.ENHANCING_TUMOR),
        ):
            ps, cs = self.regions[parent], self.regions[child]
            if cs.radius <= 0:
                continue
            gap = float(np.linalg.norm(np.subtract(cs.center, ps.center)))
            if ps.radius <= 0 or gap + cs.radius > ps.radius + 1e-9:
                raise ValueError(
                    f"{child.value} sphere is not contained in {parent.value} sphere"
                )


@dataclass
class PhantomConfig:
    preset: str = "hgg-like"
    dims: tuple[int, int, int] = (48, 48, 48)

    def __post_init__(self):
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise ValueError(f"dims must be three positive integers, got {list(self.dims)!r}")
        if self.preset not in PRESETS:
            raise ValueError(f"unknown phantom preset {self.preset!r}; choose from {sorted(PRESETS)}")


@dataclass
class PhantomCase:
    p: dict[RegionLabel, Volume3D]
    q: dict[RegionLabel, Volume3D]
    gt: SegmentationSet


def _radial_profile(r: np.ndarray, sphere: SphereSpec) -> np.ndarray:
    from scipy.special import expit
    if sphere.radius <= 0 or sphere.interior_level == 0.0:
        return np.zeros_like(r)
    if sphere.falloff == 0.0:
        return np.where(r <= sphere.radius, sphere.interior_level, 0.0)
    # Midpoint half a falloff inside the boundary puts ~0.12 * level at the
    # true edge, i.e. close to the 0.05 fallback threshold for diffuse levels.
    mid = sphere.radius - sphere.falloff / 2.0
    return sphere.interior_level * expit(4.0 * (mid - r) / sphere.falloff)


def generate_phantom(spec: PhantomSpec) -> PhantomCase:
    """Deterministic phantom volumes from a spec: same seed, same bytes."""
    rng = np.random.default_rng([abs(int(spec.seed))])
    grid = np.indices(spec.dims, dtype=np.float64)
    p: dict[RegionLabel, Volume3D] = {}
    q: dict[RegionLabel, Volume3D] = {}
    gt_masks: dict[RegionLabel, Mask3D] = {}
    for region in REGION_ORDER:
        sphere = spec.regions[region]
        r = np.sqrt(sum((grid[i] - sphere.center[i]) ** 2 for i in range(3)))
        clean = _radial_profile(r, sphere)
        noisy = clean + rng.normal(0.0, spec.noise_sigma, spec.dims)
        p[region] = Volume3D(np.clip(noisy, 0.0, 1.0), spec.spacing)
        truth = (r <= sphere.radius) if sphere.radius > 0 else np.zeros(spec.dims, dtype=bool)
        gt_masks[region] = Mask3D(truth, spec.spacing)
        q_clean = np.where(truth, spec.q_inside, spec.q_outside)
        q_noisy = q_clean + rng.normal(0.0, spec.noise_sigma, spec.dims)
        q[region] = Volume3D(np.clip(q_noisy, 0.0, 0.5), spec.spacing)
    gt = SegmentationSet(**{region.value: mask for region, mask in gt_masks.items()})
    return PhantomCase(p=p, q=q, gt=gt)


def _centered(dims, rng, jitter: float) -> tuple[float, float, float]:
    return tuple(d / 2.0 + rng.uniform(-jitter, jitter) for d in dims)


def hgg_like_spec(seed: int = 0, dims: tuple[int, int, int] = PhantomConfig.dims) -> PhantomSpec:
    """Confidently segmented phantom: all regions high-level, sharp falloff."""
    rng = np.random.default_rng([abs(int(seed)), 11])
    center = _centered(dims, rng, 1.5)
    r_wt = 16.0 + rng.uniform(-1.0, 1.0)
    r_tc = 10.0 + rng.uniform(-1.0, 1.0)
    r_et = 6.0 + rng.uniform(-0.8, 0.8)
    return PhantomSpec(
        dims=dims,
        regions={
            RegionLabel.WHOLE_TUMOR: SphereSpec(center, r_wt, 0.98, falloff=1.0),
            RegionLabel.TUMOR_CORE: SphereSpec(center, r_tc, 0.97, falloff=1.0),
            RegionLabel.ENHANCING_TUMOR: SphereSpec(center, r_et, 0.95, falloff=1.0),
        },
        seed=seed,
    )


def diffuse_lgg_like_spec(seed: int = 0, dims: tuple[int, int, int] = PhantomConfig.dims) -> PhantomSpec:
    """Vaguely delineated core: wide falloff, interior level well below the gate.

    The flip probability inside the tumor is 0.3: fusion turns p > 0.5 into
    1 - 0.3 = 0.7, so the fused WT and TC confidences stay below their gates.
    """
    rng = np.random.default_rng([abs(int(seed)), 13])
    center = _centered(dims, rng, 1.5)
    r_wt = 17.0 + rng.uniform(-1.0, 1.0)
    r_tc = 10.0 + rng.uniform(-1.0, 1.0)
    return PhantomSpec(
        dims=dims,
        regions={
            RegionLabel.WHOLE_TUMOR: SphereSpec(center, r_wt, 0.95, falloff=1.0),
            RegionLabel.TUMOR_CORE: SphereSpec(center, r_tc, 0.60, falloff=6.0),
            RegionLabel.ENHANCING_TUMOR: SphereSpec(center, 0.0, 0.0),
        },
        q_inside=0.3,
        seed=seed,
    )


PRESETS = {
    "hgg-like": hgg_like_spec,
    "diffuse-lgg-like": diffuse_lgg_like_spec,
}
