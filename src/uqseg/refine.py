"""Confidence-gated refinement of probability volumes into region masks.

Pipeline per region: threshold at 0.5, drop tiny components, then check the
mean probability inside the surviving mask. A low mean marks a vaguely
delineated region, and the channel is re-thresholded at 0.05 to capture the
diffuse tissue. Cross-region rules afterwards: an empty whole tumor triggers
a failsafe that keeps the highest-probability voxels until a minimum tumor
volume is reached, and then an empty tumor core inherits the whole-tumor mask.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .volumes import (
    Connectivity,
    DegenerateVolumeWarning,
    Mask3D,
    Volume3D,
    remove_small_components,
    require_same_grid,
)


class RegionLabel(enum.Enum):
    WHOLE_TUMOR = "wt"
    TUMOR_CORE = "tc"
    ENHANCING_TUMOR = "et"


REGION_ORDER = tuple(RegionLabel)

# BraTS label encoding: 4 = enhancing tumor, 1 = non-enhancing core, 2 = edema.
BRATS_ET = 4
BRATS_CORE = 1
BRATS_EDEMA = 2


@dataclass
class SegmentationSet:
    """One binary mask per tumor region, on a shared grid."""

    wt: Mask3D
    tc: Mask3D
    et: Mask3D

    def __post_init__(self):
        require_same_grid(self.wt, self.tc, self.et)

    def mask(self, region: RegionLabel) -> Mask3D:
        return getattr(self, region.value)


@dataclass
class RefinementConfig:
    """All refinement thresholds in one place.

    Defaults: detection threshold 0.5 with a 0.05 fallback, per-region mean
    confidence gates (WT 0.90, TC 0.75, ET 0.80), removal of components under
    10 voxels, and a 1000-voxel whole-tumor failsafe.
    """

    base_threshold: float = 0.5
    fallback_threshold: float = 0.05
    confidence_gate: dict[RegionLabel, float] = field(
        default_factory=lambda: {
            RegionLabel.WHOLE_TUMOR: 0.90,
            RegionLabel.TUMOR_CORE: 0.75,
            RegionLabel.ENHANCING_TUMOR: 0.80,
        }
    )
    min_component_size: int = 10
    failsafe_min_voxels: int = 1000
    connectivity: Connectivity = Connectivity.CORNER26
    enforce_nesting: bool = False

    def __post_init__(self):
        if not 0.0 < self.fallback_threshold < self.base_threshold < 1.0:
            raise ValueError(
                "thresholds must satisfy 0 < fallback < base < 1, got "
                f"fallback={self.fallback_threshold}, base={self.base_threshold}"
            )
        for region, gate in self.confidence_gate.items():
            if not 0.0 <= gate < 1.0:
                raise ValueError(f"confidence gate for {region.value} out of range: {gate}")
        if self.min_component_size < 0 or self.failsafe_min_voxels < 0:
            raise ValueError("component and failsafe sizes must be >= 0")


@dataclass
class RegionReport:
    """Audit record of the decisions taken for a single region.

    ``fallback_used`` is the confidence gate's decision: the filtered mask was
    empty or its mean confidence fell below the region's gate, so the channel
    was re-thresholded at the fallback threshold.
    """

    mean_confidence: float | None = None
    fallback_used: bool = False
    core_substituted: bool = False
    failsafe_triggered: bool = False
    final_threshold: float = 0.5

    def summary(self, region: RegionLabel) -> str:
        conf = "n/a" if self.mean_confidence is None else f"{self.mean_confidence:.4f}"
        notes = []
        if self.fallback_used:
            notes.append("fallback")
        if self.core_substituted:
            notes.append("core<-WT")
        if self.failsafe_triggered:
            notes.append("failsafe")
        note = ",".join(notes) if notes else "-"
        return (
            f"{region.value}: confidence={conf} threshold={self.final_threshold:g} "
            f"actions={note}"
        )


REPORT_COLUMNS = tuple(f"{r.value}_{f.name}" for r in REGION_ORDER for f in fields(RegionReport))


@dataclass
class RefinementReport:
    regions: dict[RegionLabel, RegionReport]

    def summary_lines(self) -> list[str]:
        return [self.regions[r].summary(r) for r in REGION_ORDER]

    def flat_record(self) -> dict[str, object]:
        """The report as one row keyed by REPORT_COLUMNS."""
        values = (getattr(self.regions[r], f.name) for r in REGION_ORDER for f in fields(RegionReport))
        return dict(zip(REPORT_COLUMNS, values))


def threshold_mask(p: Volume3D, t: float) -> Mask3D:
    """Foreground where the probability strictly exceeds t, compared in float64."""
    return Mask3D(p.data > np.float64(t), p.spacing)


def mean_region_confidence(p: Volume3D, m: Mask3D) -> float | None:
    """Mean probability inside the mask; None when the mask is empty."""
    require_same_grid(p, m)
    values = p.float64(m.data)
    return float(values.mean()) if values.size else None


def refine_region(
    p: Volume3D, region: RegionLabel, cfg: RefinementConfig | None = None
) -> tuple[Mask3D, RegionReport]:
    """Threshold, filter and confidence-gate one probability channel."""
    cfg = cfg or RefinementConfig()
    mask = remove_small_components(
        threshold_mask(p, cfg.base_threshold), cfg.min_component_size, cfg.connectivity
    )
    confidence = mean_region_confidence(p, mask)
    report = RegionReport(mean_confidence=confidence, final_threshold=cfg.base_threshold)
    if confidence is None or confidence < cfg.confidence_gate[region]:
        mask = remove_small_components(
            threshold_mask(p, cfg.fallback_threshold), cfg.min_component_size, cfg.connectivity
        )
        report = replace(report, fallback_used=True, final_threshold=cfg.fallback_threshold)
    return mask, report


def failsafe_mask(p: Volume3D, min_voxels: int) -> tuple[Mask3D, float]:
    """Keep the highest-probability voxels until at least ``min_voxels`` are kept.

    Implemented as an order-statistic cut: every voxel whose probability ties
    the cut value is included, so the mask can exceed ``min_voxels``. Returns
    the mask and the cut value; a cut of -0.0 is reported as 0.0.
    """
    flat = p.data.ravel()
    k = min(max(min_voxels, 1), flat.size)
    cut = float(np.partition(flat, flat.size - k)[flat.size - k]) + 0.0
    return Mask3D(p.data >= cut, p.spacing), cut


def refine_segmentation(
    p_wt: Volume3D,
    p_tc: Volume3D,
    p_et: Volume3D,
    cfg: RefinementConfig | None = None,
) -> tuple[SegmentationSet, RefinementReport]:
    """Run per-region refinement plus the cross-region substitution rules.

    After the per-region passes: an empty whole tumor is replaced by the
    failsafe mask of at least ``failsafe_min_voxels`` top-probability voxels,
    and then an empty tumor core becomes the whole-tumor mask (every glioma
    has a core). A failsafe cut of 0, as on an all-zero map, emits
    :class:`DegenerateVolumeWarning`: the mask then holds every voxel of
    non-negative probability. Optionally the regions are forced into the
    nested order ET within TC within WT.
    """
    cfg = cfg or RefinementConfig()
    require_same_grid(p_wt, p_tc, p_et)

    wt, wt_rep = refine_region(p_wt, RegionLabel.WHOLE_TUMOR, cfg)
    tc, tc_rep = refine_region(p_tc, RegionLabel.TUMOR_CORE, cfg)
    et, et_rep = refine_region(p_et, RegionLabel.ENHANCING_TUMOR, cfg)

    if not wt.data.any():
        wt, cut = failsafe_mask(p_wt, cfg.failsafe_min_voxels)
        if cut == 0.0:
            warnings.warn("failsafe cut is 0: the whole-tumor mask takes every voxel",
                          DegenerateVolumeWarning, stacklevel=2)
        wt_rep = replace(wt_rep, failsafe_triggered=True, final_threshold=cut)
    if not tc.data.any():
        tc = Mask3D(wt.data.copy(order="F"), wt.spacing)
        tc_rep = replace(tc_rep, core_substituted=True)
    if cfg.enforce_nesting:
        tc = Mask3D(tc.data & wt.data, wt.spacing)
        et = Mask3D(et.data & tc.data, wt.spacing)

    seg = SegmentationSet(wt=wt, tc=tc, et=et)
    report = RefinementReport(regions=dict(zip(REGION_ORDER, (wt_rep, tc_rep, et_rep))))
    return seg, report


def masks_to_brats_labels(s: SegmentationSet) -> Volume3D:
    """Encode the nested masks as a BraTS label volume (0/1/2/4).

    Priority: enhancing tumor (4) over core (1) over edema (2).
    """
    labels = np.zeros(s.wt.dims, dtype=np.uint8, order="F")  # x-fastest, as the masks and the file
    labels[s.wt.data] = BRATS_EDEMA
    labels[s.tc.data] = BRATS_CORE
    labels[s.et.data] = BRATS_ET
    return Volume3D(labels, s.wt.spacing)


def brats_labels_to_masks(labels: Volume3D) -> SegmentationSet:
    """Reconstruct the nested masks: WT = {1,2,4}, TC = {1,4}, ET = {4}.

    Every value must equal a BraTS label exactly: the three label comparisons must count every
    nonzero voxel, and only a map that fails is sorted to name its other values.
    """
    data = labels.data
    et, tc, wt = data == BRATS_ET, data == BRATS_CORE, data == BRATS_EDEMA
    if sum(map(np.count_nonzero, (et, tc, wt))) != np.count_nonzero(data):
        declared = [0, BRATS_CORE, BRATS_EDEMA, BRATS_ET]
        extra = [int(v) if v == int(v) else float(v) for v in np.unique(data) if v not in declared]
        raise ValueError(f"label values {extra} outside declared set {declared}")
    tc |= et  # in place: three arrays per map, not five
    wt |= tc
    sp = labels.spacing
    return SegmentationSet(wt=Mask3D(wt, sp), tc=Mask3D(tc, sp), et=Mask3D(et, sp))
