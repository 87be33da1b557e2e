"""Fusing (p, q) prediction pairs from several models into one probability map.

Averaging raw probabilities ignores each model's own flip-risk estimate: two
maximally confident models that disagree would average to 0.5 with no trace
of the conflict. Fusing each pair first maps every prediction onto the common
"probability the true label is 1" scale, after which plain averaging works.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .volumes import Axis, Volume3D, require_same_grid, require_within

FUSE_SLAB = 1 << 16  # voxels per fusion slab, rounded down to whole planes (at least one)


@dataclass
class PredictionPair:
    """Probability volume p in [0,1] and flip-probability volume q in [0,0.5]."""

    p: Volume3D
    q: Volume3D

    def __post_init__(self):
        require_same_grid(self.p, self.q)
        require_within(self.p, 0.0, 1.0, "p")
        require_within(self.q, 0.0, 0.5, "q")


def fuse_single(p, q):
    """Combine prediction and flip-probability into P(label = 1).

    Returns q where p <= 0.5 and 1 - q where p > 0.5: a prediction of 0 with
    flip-probability q believes the label is 1 with probability q, and a
    prediction of 1 believes it with probability 1 - q. The tie p = 0.5
    resolves to the negative branch (elsewhere "positive" means p > 0.5).
    The result is float64 whatever the input dtypes.
    """
    fused = np.array(q, dtype=np.float64)  # a fresh copy, flipped in place
    np.subtract(1.0, fused, out=fused, where=np.asarray(p) > np.float64(0.5))
    return fused


def ensemble_with_flips(preds: Sequence[PredictionPair], flip_axes: Iterable[Axis] = ()) -> Volume3D:
    """Voxelwise mean of the fused predictions, axis-flipped test-time views included.

    For every pair and every requested axis, the pair is taken to be the
    model's output on the axis-flipped input; mirroring the fused volume back
    aligns it with the original frame before it joins the mean. With no flip
    axes this is the plain mean of the fused pairs.

    The result is the one full-size array. It is summed in slabs of whole planes
    (FUSE_SLAB voxels) across the slowest axis in memory that no view flips, one
    slab if all three are; each slab adds the views from zero in the same order.
    """
    if not preds:
        raise ValueError("cannot ensemble an empty prediction list")
    require_same_grid(*[pair.p for pair in preds])
    flipped = sorted({a.value for a in flip_axes})
    out = np.empty_like(preds[0].p.data, dtype=np.float64)
    free = [a for a in np.argsort(out.strides, kind="stable")[::-1] if a not in flipped]
    axis = int(free[0]) if free else 0
    step = max(1, FUSE_SLAB * out.shape[axis] // out.size) if free else out.shape[0]
    n_views = len(preds) * (1 + len(flipped))
    for start in range(0, out.shape[axis], step):
        slab = (slice(None),) * axis + (slice(start, start + step),)
        acc = out[slab]
        acc.fill(0.0)  # 0.0 + -0.0 is 0.0, as in a sum started from zeros
        for pair in preds:
            fused = fuse_single(pair.p.data[slab], pair.q.data[slab])
            acc += fused
            for a in flipped:
                acc += np.flip(fused, axis=a)
        np.divide(acc, n_views, out=acc)
    return Volume3D(out, preds[0].p.spacing)
