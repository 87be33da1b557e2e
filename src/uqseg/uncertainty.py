"""Voxelwise certainty maps (challenge scale: 100 = certain) and their scoring.

Three conversions are provided: one from the model's own flip-probability q,
one symmetric formula for any sigmoid output, and one that treats positive
predictions as fully certain. Scoring removes voxels below a certainty
threshold and tracks how Dice and the filtered true-positive/true-negative
ratios evolve as the threshold rises.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volumes import Mask3D, Volume3D, require_same_grid, require_within

DEFAULT_THRESHOLDS = (0.0, 25.0, 50.0, 75.0, 100.0)


def certainty_from_q(q: Volume3D) -> Volume3D:
    """100 * (1 - 2q): flip-probability 0 is fully certain, 0.5 fully uncertain."""
    require_within(q, 0.0, 0.5, "q")
    cert = np.multiply(q.data, 2.0, dtype=np.float64)  # the one full-size array, then in place
    np.subtract(1.0, cert, out=cert)
    return Volume3D(np.multiply(cert, 100.0, out=cert), q.spacing)


def _probabilities(x: Volume3D) -> np.ndarray:
    """``x`` as float64, refused unless every value is a probability."""
    require_within(x, 0.0, 1.0, "p")
    return x.float64()


def symmetric_uncertainty_raw(x: Volume3D) -> Volume3D:
    """The raw symmetric uncertainty 100 * (1 - 2|0.5 - x|).

    Peaks at 100 on the decision boundary (x = 0.5) and falls to 0 at the
    extremes; it scores *uncertainty*, not challenge-scale certainty.
    """
    return Volume3D(100.0 * (1.0 - 2.0 * np.abs(0.5 - _probabilities(x))), x.spacing)


def certainty_symmetric(x: Volume3D) -> Volume3D:
    """Symmetric certainty 200 * |0.5 - x| on the 100-is-certain scale.

    The complement of :func:`symmetric_uncertainty_raw`. For a fused single
    prediction this reduces to the flip-probability score 100 * (1 - 2q).
    """
    return Volume3D(200.0 * np.abs(0.5 - _probabilities(x)), x.spacing)


def negative_only_uncertainty_raw(x: Volume3D) -> Volume3D:
    """The raw negative-only uncertainty 200 * max(0.5 - x, 0).

    This is an *uncertainty* assigned to negative predictions only; positive
    predictions get 0. See :func:`certainty_negative_only` for the same
    quantity on the 100-is-certain challenge scale.
    """
    return Volume3D(200.0 * np.maximum(0.5 - _probabilities(x), 0.0), x.spacing)


def certainty_negative_only(x: Volume3D) -> Volume3D:
    """Negative-only certainty: 100 for positives, 100 - 200*(0.5 - x) below."""
    return Volume3D(100.0 - negative_only_uncertainty_raw(x).data, x.spacing)


@dataclass
class UncertaintyEvalCurve:
    thresholds: tuple[float, ...]
    dice_at: tuple[float, ...]
    ftp_at: tuple[float, ...]
    ftn_at: tuple[float, ...]
    dice_auc: float
    ftp_auc: float
    ftn_auc: float


def evaluate_uncertainty(
    seg: Mask3D,
    gt: Mask3D,
    cert: Volume3D,
    thresholds=DEFAULT_THRESHOLDS,
) -> UncertaintyEvalCurve:
    """Filtered-Dice evaluation of a certainty map.

    At each threshold tau, voxels with certainty < tau are removed from
    scoring; Dice is computed on the remainder (1.0 when nothing remains on
    either side). ftp/ftn are the fractions of true positives / true
    negatives that were filtered out. AUCs use the trapezoidal rule over
    tau/100.
    """
    require_same_grid(seg, gt, cert)
    taus = tuple(float(t) for t in thresholds)
    if not taus or any(t < 0.0 or t > 100.0 for t in taus):
        raise ValueError(f"thresholds must be non-empty and within [0, 100], got {taus}")
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ValueError("thresholds must be ascending")

    # "certainty < tau" counts per voxel category at every threshold: one sort per
    # category and one search over all thresholds, all in exact integers. The counts
    # ignore voxel order; flat x-fastest views gather ten times faster than 3D arrays.
    s, g, c = (v.data.ravel(order="F") for v in (seg, gt, cert))
    counts = []
    for values in (c[s & g], c[s], c[g], c[s | g], c):
        values = np.array(values, dtype=np.float64)  # a fresh copy, sorted in place
        values.sort()
        counts.append((values.size, np.searchsorted(values, taus).tolist()))
    (tp_n, tp_out), (seg_n, seg_out), (gt_n, gt_out), (union_n, union_out), (all_n, all_out) = counts
    dice_at, ftp_at, ftn_at = [], [], []
    for tp_k, seg_k, gt_k, union_k, all_k in zip(tp_out, seg_out, gt_out, union_out, all_out):
        denom = seg_n - seg_k + gt_n - gt_k
        dice_at.append(1.0 if denom == 0 else 2.0 * (tp_n - tp_k) / denom)
        ftp_at.append(0.0 if tp_n == 0 else tp_k / tp_n)
        # true negatives are the voxels outside seg | gt
        ftn_at.append(0.0 if all_n == union_n else (all_k - union_k) / (all_n - union_n))

    grid = np.asarray(taus) / 100.0
    return UncertaintyEvalCurve(
        thresholds=taus,
        dice_at=tuple(dice_at),
        ftp_at=tuple(ftp_at),
        ftn_at=tuple(ftn_at),
        dice_auc=float(np.trapezoid(dice_at, grid)),
        ftp_auc=float(np.trapezoid(ftp_at, grid)),
        ftn_auc=float(np.trapezoid(ftn_at, grid)),
    )
