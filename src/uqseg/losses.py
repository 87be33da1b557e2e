"""Uncertainty-aware loss family with analytic gradients.

All operations are elementwise and accept scalars or numpy arrays. ``p`` is
the foreground probability, ``q`` the label-flip probability in (0, 0.5), and
``x`` the binary ground truth. Derived quantities:

    w = (1 - x) * q + x * (1 - q)      soft target blending truth with flip risk
    z = [ (p > 0.5) != x ]             indicator of thresholded disagreement

Each scalar loss returns ``(value, d_dp)``; the two composite voxel losses
return ``(value, d_dp, d_dq)``. Gradients treat ``z`` as a constant (it is a
step function of ``p``).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .volumes import Mask3D, Volume3D, require_same_grid

EPS = 1e-7


class KlVariant(enum.Enum):
    """Which form of the flip-target KL divergence to use.

    LITERAL_POSITIVE_TERM is the one-sided form ``w log(w/p)`` and can be
    negative. FULL_BINARY adds the complement term ``(1-w) log((1-w)/(1-p))``
    and is a true (non-negative) binary KL divergence.
    """

    LITERAL_POSITIVE_TERM = "literal"
    FULL_BINARY = "full"


@dataclass
class LossConfig:
    gamma: float = 2.0
    lam: float = 0.1
    kl_variant: KlVariant = KlVariant.LITERAL_POSITIVE_TERM

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {self.lam}")


@dataclass
class LossInputs:
    """One voxel (or an array of voxels) of prediction, flip-probability, truth."""

    p: np.ndarray | float
    q: np.ndarray | float
    x: np.ndarray | float


def clamp_probability(p):
    return np.clip(p, EPS, 1.0 - EPS)


def clamp_flip(q):
    return np.clip(q, EPS, 0.5 - EPS)


def flip_target(q, x):
    """w = (1 - x) * q + x * (1 - q), from the clamped q."""
    qc = clamp_flip(q)
    return (1.0 - x) * qc + x * (1.0 - qc)


def disagreement(p, x):
    """z: 1 where the thresholded prediction (p > 0.5) differs from x."""
    pred = np.asarray(p) > 0.5
    return (pred != (np.asarray(x) > 0.5)).astype(float)


def _focal_parts(p, t, gamma):
    pc = clamp_probability(p)
    log_p = np.log(pc)
    log_1p = np.log1p(-pc)
    one_m = 1.0 - pc
    pos = one_m**gamma * (-log_p)
    neg = pc**gamma * (-log_1p)
    value = t * pos + (1.0 - t) * neg
    dpos = gamma * one_m ** (gamma - 1.0) * log_p - one_m**gamma / pc
    dneg = gamma * pc ** (gamma - 1.0) * (-log_1p) + pc**gamma / one_m
    d_dp = t * dpos + (1.0 - t) * dneg
    d_dt = pos - neg
    return value, d_dp, d_dt


def _bce_parts(pred, target):
    pc = clamp_probability(pred)
    value = -(target * np.log(pc) + (1.0 - target) * np.log1p(-pc))
    d_dpred = -target / pc + (1.0 - target) / (1.0 - pc)
    d_dtarget = np.log1p(-pc) - np.log(pc)
    return value, d_dpred, d_dtarget


def _kl_parts(w, p, variant):
    wc = clamp_probability(w)
    pc = clamp_probability(p)
    value = wc * (np.log(wc) - np.log(pc))
    d_dp = -wc / pc
    d_dw = np.log(wc) - np.log(pc) + 1.0
    if variant is KlVariant.FULL_BINARY:
        value = value + (1.0 - wc) * (np.log1p(-wc) - np.log1p(-pc))
        d_dp = d_dp + (1.0 - wc) / (1.0 - pc)
        d_dw = d_dw - np.log1p(-wc) - 1.0 + np.log1p(-pc)
    return value, d_dp, d_dw


def _focal_kl_parts(w, p, variant):
    wc = clamp_probability(w)
    pc = clamp_probability(p)
    klv, kl_dp, kl_dw = _kl_parts(wc, pc, variant)
    gap = pc - wc
    value = gap * gap * klv
    d_dp = 2.0 * gap * klv + gap * gap * kl_dp
    d_dw = -2.0 * gap * klv + gap * gap * kl_dw
    return value, d_dp, d_dw


def focal(p, t, gamma: float = 2.0):
    """Soft-target focal loss t(1-p)^g(-log p) + (1-t)p^g(-log(1-p))."""
    value, d_dp, _ = _focal_parts(p, t, gamma)
    return value, d_dp


def bce(pred, target):
    """Binary cross-entropy -t log(pred) - (1-t) log(1-pred)."""
    value, d_dpred, _ = _bce_parts(pred, target)
    return value, d_dpred


def kl(w, p, variant: KlVariant = KlVariant.LITERAL_POSITIVE_TERM):
    """KL(w || p); the literal variant is w log(w/p) alone and may be negative."""
    value, d_dp, _ = _kl_parts(w, p, variant)
    return value, d_dp


def focal_kl(w, p, variant: KlVariant = KlVariant.LITERAL_POSITIVE_TERM):
    """(p - w)^2 * KL(w || p): vanishes, with zero gradient, as p approaches w."""
    value, d_dp, _ = _focal_kl_parts(w, p, variant)
    return value, d_dp


def label_flip_loss_2019(inputs: LossInputs, cfg: LossConfig | None = None):
    """Focal(p, w) + BCE(q, z): the earlier label-flip loss."""
    cfg = cfg or LossConfig()
    w = flip_target(inputs.q, inputs.x)
    z = disagreement(inputs.p, inputs.x)
    f_val, f_dp, f_dt = _focal_parts(inputs.p, w, cfg.gamma)
    b_val, b_dq, _ = _bce_parts(inputs.q, z)
    dw_dq = 1.0 - 2.0 * np.asarray(inputs.x, dtype=float)
    value = f_val + b_val
    d_dp = f_dp
    d_dq = f_dt * dw_dq + b_dq
    return value, d_dp, d_dq


def combined_loss_2020(inputs: LossInputs, cfg: LossConfig | None = None):
    """lam*Focal(p, x) + (1-lam)*Focal_KL(w || p) + (1-lam)*BCE(q, z)."""
    cfg = cfg or LossConfig()
    x = np.asarray(inputs.x, dtype=float)
    w = flip_target(inputs.q, x)
    z = disagreement(inputs.p, x)
    f_val, f_dp, _ = _focal_parts(inputs.p, x, cfg.gamma)
    k_val, k_dp, k_dw = _focal_kl_parts(w, inputs.p, cfg.kl_variant)
    b_val, b_dq, _ = _bce_parts(inputs.q, z)
    lam = cfg.lam
    dw_dq = 1.0 - 2.0 * x
    value = lam * f_val + (1.0 - lam) * k_val + (1.0 - lam) * b_val
    d_dp = lam * f_dp + (1.0 - lam) * k_dp
    d_dq = (1.0 - lam) * (k_dw * dw_dq + b_dq)
    return value, d_dp, d_dq


def batch_loss(p: Volume3D, q: Volume3D, gt: Mask3D, cfg: LossConfig | None = None) -> float:
    """Mean combined loss over all voxels of a volume, computed in float64."""
    require_same_grid(p, q, gt)
    inputs = LossInputs(p=p.float64(), q=q.float64(), x=gt.float64())
    value, _, _ = combined_loss_2020(inputs, cfg)
    return float(np.mean(value))
