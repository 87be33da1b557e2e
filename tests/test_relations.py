"""Whole-pipeline metamorphic relations: the case chain commutes with moving the grid.

Each case runs in process through the package functions in the CLI's order:
two phantom models (seeds s and s + 1000, float32, x-fastest as read from a
file) fused with test-time flips, refined to a label map, certainty from model
a's q, then Dice, HD95 and the uncertainty curve per region against model a's
ground truth. Moving every input the same way must move the label map that way
and leave the metrics alone:

- flipping any non-empty set of axes;
- permuting the axes, with the spacing and the test-time flip axes permuted too;
- padding 6 voxels of p = q = 0 on each side (``ftn_auc`` is left out: its true
  negatives cover the whole field of view);
- doubling the spacing, which doubles HD95 exactly (power-of-two scaling is
  exact in binary floating point) and changes nothing else.

Labels, Dice, HD95 and the AUCs compare with ``==``. A flip or a permutation
gathers a region's voxels in another order, so the report's mean confidences
compare to a relative 1e-12, and a relation is skipped when a mean lies that
close to its gate.
"""
from __future__ import annotations

import itertools
from dataclasses import asdict
from functools import lru_cache

import numpy as np
import pytest

from uqseg.ensemble import PredictionPair, ensemble_with_flips
from uqseg.metrics import compare_masks
from uqseg.phantom import PRESETS, generate_phantom
from uqseg.refine import REGION_ORDER, RefinementConfig, masks_to_brats_labels, refine_segmentation
from uqseg.uncertainty import certainty_from_q, evaluate_uncertainty
from uqseg.volumes import Axis, Mask3D, Volume3D

DIMS = (42, 44, 46)  # three lengths, so a permutation that loses track of an axis changes a shape
SPACING = (1.0, 1.5, 2.5)
PAD = 6
THRESHOLDS = tuple(float(t) for t in range(101))
GATE_MARGIN = 1e-12
CASES = [(preset, seed) for preset in sorted(PRESETS) for seed in (1, 2, 3)]
# Test-time flips per seed: slabs across z, across z with x mirrored, and across y.
TTA = {1: (), 2: (0,), 3: (0, 2)}
FLIPS = [axes for n in (1, 2, 3) for axes in itertools.combinations(range(3), n)]
PERMUTATIONS = [perm for perm in itertools.permutations(range(3)) if perm != (0, 1, 2)]


def case_id(case):
    return f"{case[0]}-{case[1]}"


@lru_cache(maxsize=None)
def case_inputs(preset: str, seed: int):
    """Model a's and b's (p, q) per region, x-fastest float32, and model a's ground truth."""
    models = []
    for model_seed in (seed, seed + 1000):
        data = generate_phantom(PRESETS[preset](model_seed, dims=DIMS))
        models.append({r: tuple(np.asfortranarray(v[r].data, dtype=np.float32) for v in (data.p, data.q))
                       for r in REGION_ORDER})
        if model_seed == seed:
            gt = {r: np.asfortranarray(data.gt.mask(r).data) for r in REGION_ORDER}
    return models, gt


def run_chain(models, gt, spacing, tta):
    """Labels, the report's regions and per-region (dice, hd95, dice_auc, ftp_auc, ftn_auc)."""
    fused = {}
    for region in REGION_ORDER:
        pairs = [PredictionPair(p=Volume3D(m[region][0], spacing), q=Volume3D(m[region][1], spacing))
                 for m in models]
        fused[region] = ensemble_with_flips(pairs, [Axis(a) for a in tta])
    seg, report = refine_segmentation(*(fused[r] for r in REGION_ORDER), RefinementConfig())
    rows = {}
    for region in REGION_ORDER:
        truth = Mask3D(gt[region], spacing)
        metric = compare_masks(seg.mask(region), truth)
        cert = certainty_from_q(Volume3D(models[0][region][1], spacing))
        curve = evaluate_uncertainty(seg.mask(region), truth, cert, THRESHOLDS)
        rows[region] = (metric.dice, metric.hd95, curve.dice_auc, curve.ftp_auc, curve.ftn_auc)
    return masks_to_brats_labels(seg).data, report.regions, rows


@lru_cache(maxsize=None)
def base_run(preset: str, seed: int):
    models, gt = case_inputs(preset, seed)
    return run_chain(models, gt, SPACING, TTA[seed])


def moved_run(preset, seed, move, spacing=SPACING, tta=None):
    """The chain on every input volume passed through ``move``."""
    models, gt = case_inputs(preset, seed)
    models = [{r: tuple(np.asfortranarray(move(v)) for v in m[r]) for r in REGION_ORDER} for m in models]
    gt = {r: np.asfortranarray(move(gt[r])) for r in REGION_ORDER}
    return run_chain(models, gt, spacing, TTA[seed] if tta is None else tta)


def assert_same_report(got, want, exact_confidence=False):
    """Every report field equal; mean confidences to a relative 1e-12 unless ``exact_confidence``."""
    for region in REGION_ORDER:
        g, w = asdict(got[region]), asdict(want[region])
        conf_g, conf_w = g.pop("mean_confidence"), w.pop("mean_confidence")
        assert g == w, region
        if exact_confidence or conf_w is None:
            assert conf_g == conf_w, region
        else:
            assert conf_g == pytest.approx(conf_w, rel=GATE_MARGIN, abs=0.0), region


def skip_near_gate(report):
    gates = RefinementConfig().confidence_gate
    for region in REGION_ORDER:
        conf = report[region].mean_confidence
        if conf is not None and abs(conf - gates[region]) <= GATE_MARGIN * gates[region]:
            pytest.skip(f"{region.value} mean confidence {conf!r} lies within 1e-12 of its gate")


@pytest.mark.parametrize("axes", FLIPS, ids=lambda axes: "".join("xyz"[a] for a in axes))
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_flip_moves_labels_and_keeps_metrics(case, axes):
    labels, report, rows = base_run(*case)
    skip_near_gate(report)
    got_labels, got_report, got_rows = moved_run(*case, lambda a: np.flip(a, axis=axes))
    assert np.array_equal(got_labels, np.flip(labels, axis=axes))
    assert got_rows == rows
    assert_same_report(got_report, report)


@pytest.mark.parametrize("perm", PERMUTATIONS, ids=lambda perm: "".join("xyz"[a] for a in perm))
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_axis_permutation_moves_labels_and_keeps_metrics(case, perm):
    labels, report, rows = base_run(*case)
    skip_near_gate(report)
    spacing = tuple(SPACING[a] for a in perm)
    tta = tuple(sorted(perm.index(a) for a in TTA[case[1]]))
    got_labels, got_report, got_rows = moved_run(*case, lambda a: np.transpose(a, perm), spacing, tta)
    assert np.array_equal(got_labels, np.transpose(labels, perm))
    assert got_rows == rows
    assert_same_report(got_report, report)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_zero_padding_keeps_labels_and_metrics(case):
    labels, report, rows = base_run(*case)
    got_labels, got_report, got_rows = moved_run(*case, lambda a: np.pad(a, PAD))
    assert np.array_equal(got_labels, np.pad(labels, PAD))
    assert {r: row[:4] for r, row in got_rows.items()} == {r: row[:4] for r, row in rows.items()}
    assert_same_report(got_report, report, exact_confidence=True)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_doubled_spacing_doubles_hd95(case):
    labels, report, rows = base_run(*case)
    got_labels, got_report, got_rows = moved_run(*case, lambda a: a, tuple(2 * s for s in SPACING))
    assert np.array_equal(got_labels, labels)
    doubled = {r: (dice, None if hd95 is None else 2 * hd95, *aucs) for r, (dice, hd95, *aucs) in rows.items()}
    assert got_rows == doubled
    assert_same_report(got_report, report, exact_confidence=True)
