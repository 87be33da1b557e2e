"""Correctness checks on each operation's outputs, run after the timed loop.

Every expected value is computed here apart from the code under test (stdlib
gzip plus numpy.frombuffer for NIfTI, cKDTree for surface distances, counts
per certainty value for the uncertainty curve), or is a property the method
must have.
Each check function returns a list of failure messages; empty means passed.
"""
from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from uqseg.cli import CHALLENGE_NAMES, REGION_KEYS as REGIONS

from workloads import MODELS

_NIFTI_DTYPES = {2: "<u1", 4: "<i2", 16: "<f4"}


def decode(path: Path, dims) -> np.ndarray:
    """Decode a single-file NIfTI-1 volume and require the expected dims."""
    blob = path.read_bytes()
    if path.name.endswith(".gz"):
        blob = gzip.decompress(blob)
    if int(np.frombuffer(blob, "<i4", count=1)[0]) != 348:
        raise ValueError(f"{path.name}: not a little-endian NIfTI-1 header")
    dim = np.frombuffer(blob, "<i2", count=8, offset=40)
    shape = tuple(int(d) for d in dim[1:4])
    if int(dim[0]) != 3 or shape != tuple(dims):
        raise ValueError(f"{path.name}: dims {shape}, expected {tuple(dims)}")
    dtype = _NIFTI_DTYPES[int(np.frombuffer(blob, "<i2", count=1, offset=70)[0])]
    offset = int(np.frombuffer(blob, "<f4", count=1, offset=108)[0])
    return np.frombuffer(blob, dtype, count=math.prod(shape), offset=offset).reshape(shape, order="F")


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _masks(labels: np.ndarray) -> dict[str, np.ndarray]:
    return {"wt": np.isin(labels, (1, 2, 4)), "tc": np.isin(labels, (1, 4)), "et": labels == 4}


def _surface(mask: np.ndarray) -> np.ndarray:
    """Foreground voxels with a background face neighbour; outside counts as background."""
    padded = np.pad(mask, 1)
    interior = mask.copy()
    for axis in range(3):
        for shift in (-1, 1):
            interior &= np.roll(padded, shift, axis)[1:-1, 1:-1, 1:-1]
    return mask & ~interior


def hd95(a: np.ndarray, b: np.ndarray, spacing: float) -> float:
    if not a.any() and not b.any():
        return 0.0
    pa, pb = (np.argwhere(_surface(m)) * spacing for m in (a, b))
    d_ab = cKDTree(pb).query(pa)[0]
    d_ba = cKDTree(pa).query(pb)[0]
    return float(max(np.percentile(d_ab, 95), np.percentile(d_ba, 95)))


def dice(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    return 1.0 if na + nb == 0 else 2.0 * int(np.count_nonzero(a & b)) / (na + nb)


def curve_aucs(seg, gt, cert, thresholds) -> dict[str, float]:
    """Filtered Dice / TP / TN AUCs from counts of each integer certainty value."""
    c = cert.astype(np.intp)

    def kept(mask):  # kept(mask)[v] = voxels of mask with certainty >= v, for v = 0..101
        counts = np.bincount(c[mask], minlength=102)
        return counts[::-1].cumsum()[::-1]

    tp, tn = kept(seg & gt), kept(~seg & ~gt)
    n_seg, n_gt = kept(seg), kept(gt)
    curves = {"dice": [], "ftp": [], "ftn": []}
    for tau in thresholds:
        v = min(math.ceil(tau), 101)
        denom = n_seg[v] + n_gt[v]
        curves["dice"].append(1.0 if denom == 0 else 2.0 * int(tp[v]) / int(denom))
        curves["ftp"].append(0.0 if tp[0] == 0 else int(tp[0] - tp[v]) / int(tp[0]))
        curves["ftn"].append(0.0 if tn[0] == 0 else int(tn[0] - tn[v]) / int(tn[0]))
    x = [t / 100.0 for t in thresholds]
    return {
        kind: sum((y[i] + y[i + 1]) / 2.0 * (x[i + 1] - x[i]) for i in range(len(x) - 1))
        for kind, y in curves.items()
    }


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class CaseExpectation:
    """What any correct run of one case must produce, computed from its inputs."""

    def __init__(self, case: dict, inputs: Path, suffix: str, dims):
        cid = case["case_id"]
        self.fused, self.cert = {}, {}
        for key in REGIONS:
            # Fusion: mean over models and X-mirrored views of where(p > 0.5, 1 - q, q).
            views = []
            for model in MODELS:
                p = decode(inputs / cid / model / f"{key}_p{suffix}", dims).astype(np.float64)
                q = decode(inputs / cid / model / f"{key}_q{suffix}", dims).astype(np.float64)
                fused = np.where(p > 0.5, 1.0 - q, q)
                views += [fused, fused[::-1, :, :]]
            self.fused[key] = np.mean(views, axis=0)
            q = decode(inputs / cid / MODELS[0] / f"{key}_q{suffix}", dims).astype(np.float64)
            self.cert[key] = np.rint(100.0 * (1.0 - 2.0 * q))
        self.truth = _masks(decode(inputs / "gt" / f"{cid}{suffix}", dims))


def check_case(case: dict, expect: CaseExpectation, out: Path, suffix: str, dims, spacing: float,
               thresholds) -> list[str]:
    cid = case["case_id"]
    fail = []
    # Every output decodes to the expected dims (decode raises otherwise).
    volumes = sorted(p for p in out.rglob("*") if p.name.endswith(suffix))
    if len(volumes) != 7:
        fail.append(f"{cid}: expected 7 output volumes, found {len(volumes)}")
    for path in volumes:
        decode(path, dims)

    for key in REGIONS:
        got = decode(out / "fused" / f"{key}_prob{suffix}", dims).astype(np.float64)
        err = float(np.abs(got - expect.fused[key]).max())
        if err > np.spacing(np.float32(1.0)):
            fail.append(f"{cid}: fused {key} differs from the recomputed mean by {err:g}")

    labels = decode(out / "labels" / f"{cid}{suffix}", dims)
    extra = set(np.unique(labels).tolist()) - {0, 1, 2, 4}
    if extra:
        fail.append(f"{cid}: label values {sorted(extra)} outside {{0, 1, 2, 4}}")
    pred, truth = _masks(labels), expect.truth

    (report,) = _rows(out / f"{cid}_report.csv")
    fallbacks = {key for key in REGIONS if report[f"{key}_fallback_used"] == "true"}
    hgg = case["preset"] == "hgg-like"
    if hgg and fallbacks:
        fail.append(f"{cid}: hgg-like case fell back on {sorted(fallbacks)}")
    if not hgg and "tc" not in fallbacks:
        fail.append(f"{cid}: diffuse case did not fall back on TC")
    if hgg and dice(pred["wt"], truth["wt"]) < 0.9:
        fail.append(f"{cid}: WT Dice {dice(pred['wt'], truth['wt']):.3f} < 0.9")

    row = next(r for r in _rows(out / "results.csv") if r["case_id"] == cid)
    for key in REGIONS:
        cert = decode(out / "cert" / f"{cid}_unc_{CHALLENGE_NAMES[key]}{suffix}", dims)
        if not np.array_equal(cert, expect.cert[key]):
            fail.append(f"{cid}: {key} certainty map is not rint(100 (1 - 2q))")
        d = dice(pred[key], truth[key])
        if not _close(float(row[f"dice_{key}"]), d, 1e-12):
            fail.append(f"{cid}: dice_{key} {row[f'dice_{key}']} vs recomputed {d!r}")
        if pred[key].any() != truth[key].any():
            # one empty mask: HD95 is undefined and the default config writes no value
            if row[f"hd95_{key}"] != "":
                fail.append(f"{cid}: hd95_{key} is {row[f'hd95_{key}']} with one mask empty")
        else:
            h = hd95(pred[key], truth[key], spacing)
            if not _close(float(row[f"hd95_{key}"]), h, 1e-9):
                fail.append(f"{cid}: hd95_{key} {row[f'hd95_{key}']} vs recomputed {h!r}")
        for kind, auc in curve_aucs(pred[key], truth[key], cert, thresholds).items():
            if not _close(float(row[f"{kind}_auc_{key}"]), auc, 1e-12):
                fail.append(f"{cid}: {kind}_auc_{key} {row[f'{kind}_auc_{key}']} vs recomputed {auc!r}")

    (features,) = _rows(out / "features.csv")
    if int(features["n_tumors"]) < 1 or int(features["n_cores"]) < 1:
        fail.append(f"{cid}: a sphere phantom yielded no tumour or core component")
    return fail


def check_model(cohort_csv: Path, model_json: Path, in_memory: dict[str, float],
                n_trees: int) -> list[str]:
    """The saved model holds every tree, and each prediction of the fitted
    model lies in [0, cap] and is the clipped OLS value or an override day."""
    doc = json.loads(model_json.read_text())
    ols = doc["ols"]
    if len(doc["forest"]["trees"]) != n_trees or ols["feature_set"] != ["age"]:
        return [f"saved model has {len(doc['forest']['trees'])} trees and OLS features {ols['feature_set']}"]
    intercept, slope = ols["coefficients"]
    cap = ols["cap_days"]
    overrides = set(doc["override_days"].values())
    ages = {r["case_id"]: float(r["age"]) for r in _rows(cohort_csv)}
    fail = []
    if in_memory.keys() != ages.keys():
        fail.append(f"predicted {len(in_memory)} of {len(ages)} cohort records")
    for cid, days in in_memory.items():
        linear = min(max(intercept + slope * ages.get(cid, math.nan), 0.0), cap)
        if not 0.0 <= days <= cap:
            fail.append(f"{cid}: prediction {days} outside [0, {cap}]")
        elif days not in overrides and not _close(days, linear, 1e-9):
            fail.append(f"{cid}: prediction {days} is neither OLS {linear} nor an override day")
    return fail


def check_predictions(predictions_csv: Path, in_memory: dict[str, float]) -> list[str]:
    """The reloaded model predicts exactly what the fitted one did."""
    predicted = {r["case_id"]: float(r["predicted_days"]) for r in _rows(predictions_csv)}
    if predicted == in_memory:
        return []
    differ = sorted(cid for cid in in_memory.keys() | predicted.keys()
                    if predicted.get(cid) != in_memory.get(cid))
    return [f"reloaded model differs from the fitted one on {len(differ)} records, e.g. {differ[:3]}"]


def check_cv(cv_csv: Path, folds: int) -> list[str]:
    rows = _rows(cv_csv)
    per_fold = [r for r in rows if r["fold"] != "mean"]
    fused = np.mean([float(r["fused_accuracy"]) for r in per_fold])
    ols = np.mean([float(r["ols_accuracy"]) for r in per_fold])
    fail = []
    if len(per_fold) != folds:
        fail.append(f"CV wrote {len(per_fold)} folds, expected {folds}")
    if fused < ols:
        fail.append(f"fused CV accuracy {fused:.3f} below OLS {ols:.3f}")
    return fail
