"""Workload and input-size definitions shared by the generator and the worker.

A run makes one pass of the survival chain over the cohort (train, predict,
cross-validate), then repeats whole rounds of one workload: each round runs
the listed cases through the case chain.
"""
from __future__ import annotations

from dataclasses import dataclass

MODELS = ("model-a", "model-b")


@dataclass(frozen=True)
class Size:
    """Case geometry, cohort size and forest size.

    Phantom sphere radii and falloffs are fixed in millimetres, so every size
    shows the same anatomy sampled on a different grid.
    """

    dims: tuple[int, int, int]
    spacing_mm: float
    cohort: int
    trees: int


SIZES = {
    # The BraTS field of view (240 x 240 x 155 mm) sampled at 2.5 mm.
    "bench": Size(dims=(96, 96, 62), spacing_mm=2.5, cohort=236, trees=1000),
    # Toy size for checking the harness in seconds.
    "smoke": Size(dims=(60, 60, 40), spacing_mm=4.0, cohort=45, trees=25),
}


@dataclass(frozen=True)
class Workload:
    suffix: str                      # file extension of every volume
    presets: tuple[str, ...]         # phantom preset of each case in a round
    thresholds: tuple[float, ...]    # uncertainty-curve grid


WORKLOADS = {
    "case-gz": Workload(
        suffix=".nii.gz",
        presets=("hgg-like",),
        thresholds=(0.0, 25.0, 50.0, 75.0, 100.0),
    ),
    "case-nii-fine": Workload(
        suffix=".nii",
        presets=("hgg-like", "diffuse-lgg-like"),
        thresholds=tuple(float(t) for t in range(101)),
    ),
}
