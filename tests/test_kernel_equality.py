"""Seeded fuzz: the sort-based uncertainty curve and the bounding-box HD95
must equal their full-volume predecessors in tests/oracles.py exactly (==)."""
import numpy as np
import pytest

from oracles import full_volume_hd95, loop_uncertainty_curve
from uqseg.metrics import hausdorff95
from uqseg.uncertainty import evaluate_uncertainty
from uqseg.volumes import Mask3D, Volume3D

CASES = 400


def random_mask(rng, dims, kind):
    if kind == "noise":
        return rng.random(dims) < rng.choice([0.05, 0.3, 0.7])
    if kind == "blob":
        grid = np.indices(dims).transpose(1, 2, 3, 0)
        centre = rng.random(3) * np.asarray(dims)
        radius = 1.0 + rng.random() * max(dims) / 3.0
        return ((grid - centre) ** 2).sum(axis=-1) <= radius**2
    if kind == "faces":
        mask = rng.random(dims) < 0.3
        for axis in range(3):
            for end in (0, -1):
                face = [slice(None)] * 3
                face[axis] = end
                face[(axis + 1) % 3] = rng.integers(dims[(axis + 1) % 3])
                mask[tuple(face)] = True
        return mask
    return np.zeros(dims, dtype=bool)


def fuzz_case(i):
    """Case ``i``: the index cycles mask kinds, certainty kinds, grids and spacing."""
    rng = np.random.default_rng([7, i])
    dims = tuple(int(d) for d in rng.integers(1, 16, size=3))
    seg_kind, gt_kind = [
        ("noise", "noise"), ("blob", "blob"), ("empty", "blob"),
        ("noise", "empty"), ("empty", "empty"), ("faces", "faces"), ("blob", "faces"),
    ][i % 7]
    seg = random_mask(rng, dims, seg_kind)
    gt = random_mask(rng, dims, gt_kind)
    if (i // 7) % 2:
        cert = rng.integers(0, 101, size=dims).astype(float)
    else:
        cert = rng.random(dims) * 100.0
    grids = [
        (float(rng.integers(0, 101)),),
        tuple(np.sort(rng.choice([0.0, 12.5, 50.0, 50.0, 75.0, 100.0], size=6))),
        tuple(float(t) for t in range(101)),
        tuple(np.sort(rng.random(rng.integers(2, 12)) * 100.0)),
        (0.0, 25.0, 25.0, 50.0, 75.0, 100.0, 100.0),
    ]
    taus = grids[(i // 14) % len(grids)]
    spacing = (1.0, 1.0, 1.0) if i % 3 == 0 else tuple(float(v) for v in 0.4 + rng.random(3) * 2.6)
    return seg, gt, cert, taus, spacing


def test_fuzz_set_covers_the_edge_cases():
    seen = set()
    for i in range(CASES):
        seg, gt, cert, taus, spacing = fuzz_case(i)
        integral = bool(np.all(cert == np.round(cert)))
        flags = {
            "single threshold": len(taus) == 1,
            "duplicate thresholds": len(set(taus)) < len(taus),
            "seg empty": not seg.any() and gt.any(),
            "gt empty": seg.any() and not gt.any(),
            "both empty": not seg.any() and not gt.any(),
            "touches every face": min(seg.shape) > 2 and all(
                np.take(seg, end, axis=axis).any() for axis in range(3) for end in (0, -1)
            ),
            "integer certainty": integral,
            "non-integer certainty": not integral,
            "anisotropic spacing": len(set(spacing)) == 3,
            "box inside the array": seg.any() and not seg[0].any() and not seg[-1].any(),
        }
        seen.update(name for name, hit in flags.items() if hit)
    assert seen == set(flags)


def test_uncertainty_curve_equals_loop_oracle():
    for i in range(CASES):
        seg, gt, cert, taus, spacing = fuzz_case(i)
        curve = evaluate_uncertainty(
            Mask3D(seg, spacing), Mask3D(gt, spacing), Volume3D(cert, spacing), taus
        )
        got = (curve.dice_at, curve.ftp_at, curve.ftn_at,
               curve.dice_auc, curve.ftp_auc, curve.ftn_auc)
        assert got == loop_uncertainty_curve(seg, gt, cert, taus), f"case {i}"


def test_hd95_equals_full_volume_oracle():
    for i in range(CASES):
        seg, gt, _, _, spacing = fuzz_case(i)
        a, b = Mask3D(seg, spacing), Mask3D(gt, spacing)
        if not seg.any() and not gt.any():
            assert hausdorff95(a, b) == 0.0
        elif not seg.any() or not gt.any():
            with pytest.raises(ValueError, match="exactly one mask is empty"):
                hausdorff95(a, b)
        else:
            assert hausdorff95(a, b) == full_volume_hd95(seg, gt, spacing), f"case {i}"
