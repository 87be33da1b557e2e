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

from .volumes import Axis, Volume3D, require_same_grid


@dataclass
class PredictionPair:
    """Probability volume p in [0,1] and flip-probability volume q in [0,0.5]."""

    p: Volume3D
    q: Volume3D

    def __post_init__(self):
        require_same_grid(self.p, self.q)
        if self.p.data.min() < 0.0 or self.p.data.max() > 1.0:
            raise ValueError("p values must lie in [0, 1]")
        if self.q.data.min() < 0.0 or self.q.data.max() > 0.5:
            raise ValueError("q values must lie in [0, 0.5]")


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
    """
    if not preds:
        raise ValueError("cannot ensemble an empty prediction list")
    require_same_grid(*[pair.p for pair in preds])
    axes = sorted(set(flip_axes), key=lambda a: a.value)
    acc = np.zeros_like(preds[0].p.data, dtype=np.float64)
    for pair in preds:
        fused = fuse_single(pair.p.data, pair.q.data)
        acc += fused
        for axis in axes:
            acc += np.flip(fused, axis=axis.value)
    n_views = len(preds) * (1 + len(axes))
    return Volume3D(acc / n_views, preds[0].p.spacing)
