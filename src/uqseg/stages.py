"""The CLI's per-case steps, one function per subcommand, and :class:`CaseLayout`, the one owner of file names.

A stage reads and writes one call per file, works on volumes and records in between, and names the
file it refuses; a ``ValueError`` or ``OSError`` fails its case alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ensemble import PredictionPair, ensemble_with_flips
from .metrics import compare_masks
from .nifti import read_nifti, write_nifti
from .phantom import generate_phantom
from .refine import REGION_ORDER, brats_labels_to_masks, masks_to_brats_labels, refine_segmentation
from .survival import extract_features
from .tables import AUC_FIELDS, METRIC_FIELDS, cell, survival_days, write_results_table
from .uncertainty import (certainty_from_q, certainty_negative_only, certainty_symmetric, evaluate_uncertainty,
                          negative_only_uncertainty_raw, symmetric_uncertainty_raw)
from .volumes import require_same_grid, require_within, standardize_nonzero

REGION_KEYS = tuple(region.value for region in REGION_ORDER)
CHALLENGE_NAMES = {"wt": "whole", "tc": "core", "et": "enhance"}
NIFTI_SUFFIXES = (".nii.gz", ".nii")
# (formula, raw) -> the map written; flip has no raw form
CERTAINTY_FORMULAS = {("flip", False): certainty_from_q, ("symmetric", False): certainty_symmetric,
                      ("symmetric", True): symmetric_uncertainty_raw, ("negative-only", False): certainty_negative_only,
                      ("negative-only", True): negative_only_uncertainty_raw}


@dataclass(frozen=True)
class CaseLayout:
    """The file names in one directory.

    A prediction-pair directory holds ``{region}_p`` and ``{region}_q`` per region (wt, tc, et); fused probabilities
    are ``{region}_prob``; a label map is ``{case}``; certainty maps are ``{case}_unc_{whole,core,enhance}``;
    ``phantom`` writes a pair directory ``{case}`` per case and ``gt/{case}``. An input is found as ``.nii.gz``,
    else ``.nii``; a name a command picks is ``.nii.gz``.
    """

    root: Path

    def gz(self, stem: str) -> Path:
        return self.root / f"{stem}.nii.gz"

    def find(self, stem: str) -> Path:
        """The existing ``{stem}.nii.gz`` or ``{stem}.nii``, else the ``.nii.gz`` path."""
        for suffix in NIFTI_SUFFIXES:
            if (candidate := self.root / f"{stem}{suffix}").exists():
                return candidate
        return self.gz(stem)

    def pair(self, region: str, find=True) -> tuple[Path, Path]:
        name = self.find if find else self.gz
        return name(f"{region}_p"), name(f"{region}_q")

    def prob(self, region: str) -> Path:
        return self.gz(f"{region}_prob")

    def labels(self, case: str) -> Path:
        return self.find(case)

    def certainty(self, case: str) -> dict[str, Path]:
        return {region: self.find(f"{case}_unc_{CHALLENGE_NAMES[region]}") for region in REGION_KEYS}

    def gt(self, case: str) -> Path:
        return CaseLayout(self.root / "gt").gz(case)

    @staticmethod
    def phantom_case(seed: int) -> str:
        return f"phantom-{seed:04d}"

    def nifti_files(self) -> list[Path]:
        return sorted(p for p in self.root.iterdir() if p.name.endswith(NIFTI_SUFFIXES))

    @staticmethod
    def case_name(path: Path) -> str:
        return next((path.name[: -len(s)] for s in NIFTI_SUFFIXES if path.name.endswith(s)), path.name)


def standardize_file(src, dst) -> None:
    vol, header = read_nifti(src)
    write_nifti(standardize_nonzero(vol), dst, header_template=header)


def fuse_region(files, axes, out) -> None:
    """Fuse one region's (p, q) files in order into ``out``; errors name a refused pair, or a p off the first's grid."""
    pairs = []
    for p_path, q_path in files:
        p, header = read_nifti(p_path)
        q, _ = read_nifti(q_path)
        try:
            pairs.append(PredictionPair(p=p, q=q))
        except ValueError as exc:
            raise ValueError(f"{p_path}, {q_path}: {exc}") from exc
        require_same_grid(pairs[0].p, p, name=p_path)
    write_nifti(ensemble_with_flips(pairs, axes), out, header_template=header)


def refine_case(case, probs, cfg, out_labels, out_report):
    """Refine the wt, tc and et probability files into a label map and report; p must lie in [0, 1] on wt's grid."""
    volumes, headers = zip(*map(read_nifti, probs))
    for p, path in zip(volumes, probs):
        require_same_grid(volumes[0], p, name=path)
        require_within(p, 0.0, 1.0, f"{path}: p")
    seg, report = refine_segmentation(*volumes, cfg)
    if out_report is not None:  # first: a failed report write leaves no label map for evaluate
        write_results_table(out_report, [{"case_id": case, **report.flat_record()}], summary=False)
    write_nifti(masks_to_brats_labels(seg), out_labels, header_template=headers[0], dtype="uint8")
    return report


def certainty_map(src, formula, raw, dtype, out) -> None:
    vol, header = read_nifti(src)
    cert = CERTAINTY_FORMULAS[formula, raw](vol)
    if dtype == "uint8":
        np.rint(cert.data, out=cert.data)  # every formula returns a fresh float64 array
    write_nifti(cert, out, header_template=header, dtype=dtype)


def score_case(case, pred_file, gt_file, cert_files, cfg) -> dict[str, object]:
    """A results row: Dice and HD95 per region, and the uncertainty AUCs when ``cert_files`` are given."""
    pred_labels, _ = read_nifti(pred_file)
    pred_seg = brats_labels_to_masks(pred_labels, name=pred_file)
    gt_labels, _ = read_nifti(gt_file)
    require_same_grid(pred_labels, gt_labels, name=gt_file)
    gt_seg = brats_labels_to_masks(gt_labels, name=gt_file)
    row: dict[str, object] = {"case_id": case}
    for region in REGION_ORDER:
        pred_mask, gt_mask = pred_seg.mask(region), gt_seg.mask(region)
        result = compare_masks(pred_mask, gt_mask, hd95_empty_sentinel=cfg.hd95_empty_sentinel)
        row.update({f"{name}_{region.value}": getattr(result, name) for name in METRIC_FIELDS})
        if cert_files is not None:
            cert_file = cert_files[region.value]
            cert, _ = read_nifti(cert_file)
            require_same_grid(pred_labels, cert, name=cert_file)
            require_within(cert, 0.0, 100.0, f"{cert_file}: certainty")
            curve = evaluate_uncertainty(pred_mask, gt_mask, cert, cfg.uncertainty_thresholds)
            row.update({f"{name}_{region.value}": getattr(curve, name) for name in AUC_FIELDS})
    return row


def case_features(case, row, label_file, meta_csv, connectivity):
    """A survival record: component counts from the label map, age and survival days from the ``meta_csv`` row."""
    labels, _ = read_nifti(label_file)
    seg, age = brats_labels_to_masks(labels, name=label_file), cell(meta_csv, row, "age", float)
    return extract_features(seg, age, connectivity, case_id=case, survival_days=survival_days(meta_csv, row))


def write_phantom_case(case, spec, out: CaseLayout) -> None:
    data = generate_phantom(spec)
    pair_dir = CaseLayout(out.root / case)
    pair_dir.root.mkdir(parents=True, exist_ok=True)  # a file in its place is named as the case's error
    # the ground truth first: a failed write leaves no prediction pairs for ensemble
    write_nifti(masks_to_brats_labels(data.gt), out.gt(case), dtype="uint8")
    for region in REGION_ORDER:
        for volume, path in zip((data.p[region], data.q[region]), pair_dir.pair(region.value, find=False)):
            write_nifti(volume, path)
