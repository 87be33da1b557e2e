"""Declarative YAML configuration of the pipeline's commands.

The default configuration reproduces the reference thresholds: detection at
0.5 with 0.05 fallback, confidence gates WT 0.90 / TC 0.75 / ET 0.80, 10-voxel
component filter, 1000-voxel failsafe, survival caps and class bins. The
dataclasses own every default and :func:`_to_doc` owns every key: a document
is parsed by laying it over the defaults' document, so a key the defaults do
not have is rejected. The loss constants are not configured here; they are
the :class:`~uqseg.losses.LossConfig` library defaults. The CLI resolves the
config from --config, then the UQSEG_CONFIG environment variable, then these
defaults.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .phantom import DEFAULT_DIMS
from .refine import RefinementConfig, RegionLabel
from .survival import (DEFAULT_CAP_DAYS, DEFAULT_MAX_DEPTH, DEFAULT_N_TREES, DEFAULT_OLS_FEATURES,
                       DEFAULT_OVERRIDE_DAYS, DEFAULT_OVERRIDE_PROB, FEATURE_NAMES, ClassBins,
                       SurvivalClass, check_forest_size)
from .uncertainty import DEFAULT_THRESHOLDS
from .volumes import Connectivity

ENV_CONFIG_PATH = "UQSEG_CONFIG"


@dataclass
class SurvivalConfig:
    """The keyword arguments of :func:`~uqseg.survival.fit_fusion` but the seed."""

    ols_features: tuple[str, ...] = DEFAULT_OLS_FEATURES
    forest_features: tuple[str, ...] = FEATURE_NAMES
    n_trees: int = DEFAULT_N_TREES
    max_depth: int = DEFAULT_MAX_DEPTH
    cap_days: float = DEFAULT_CAP_DAYS
    override_prob: float = DEFAULT_OVERRIDE_PROB
    override_days: dict[SurvivalClass, float] = field(
        default_factory=lambda: dict(DEFAULT_OVERRIDE_DAYS)
    )
    bins: ClassBins = field(default_factory=ClassBins)


@dataclass
class PhantomConfig:
    preset: str = "hgg-like"
    dims: tuple[int, int, int] = DEFAULT_DIMS


@dataclass
class PipelineConfig:
    refine: RefinementConfig = field(default_factory=RefinementConfig)
    uncertainty_thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    hd95_empty_sentinel: float | None = None
    survival: SurvivalConfig = field(default_factory=SurvivalConfig)
    phantom: PhantomConfig = field(default_factory=PhantomConfig)


def default_config_yaml() -> str:
    return yaml.safe_dump(_to_doc(PipelineConfig()), sort_keys=False)


def _to_doc(cfg: PipelineConfig) -> dict:
    return {
        "refine": {
            "base_threshold": cfg.refine.base_threshold,
            "fallback_threshold": cfg.refine.fallback_threshold,
            "confidence_gate": {
                r.value: cfg.refine.confidence_gate[r] for r in RegionLabel
            },
            "min_component_size": cfg.refine.min_component_size,
            "failsafe_min_voxels": cfg.refine.failsafe_min_voxels,
            "connectivity": cfg.refine.connectivity.name.lower(),
            "enforce_nesting": cfg.refine.enforce_nesting,
        },
        "uncertainty": {"thresholds": list(cfg.uncertainty_thresholds)},
        "metrics": {"hd95_empty_sentinel": cfg.hd95_empty_sentinel},
        "survival": {
            "ols_features": list(cfg.survival.ols_features),
            "forest_features": list(cfg.survival.forest_features),
            "n_trees": cfg.survival.n_trees,
            "max_depth": cfg.survival.max_depth,
            "cap_days": cfg.survival.cap_days,
            "override_prob": cfg.survival.override_prob,
            "override_days": {
                cls.value: cfg.survival.override_days[cls] for cls in SurvivalClass
            },
            "short_max_days": cfg.survival.bins.short_max,
            "long_min_days": cfg.survival.bins.long_min,
        },
        "phantom": {"preset": cfg.phantom.preset, "dims": list(cfg.phantom.dims)},
    }


def _overlay(defaults: dict, doc, section: str) -> dict:
    """``doc`` laid over ``defaults``; a key that ``defaults`` lacks is an error."""
    doc = doc or {}
    if not isinstance(doc, dict):
        raise ValueError(f"{section} config must be a mapping")
    unknown = set(doc) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {section} config key(s): {', '.join(sorted(unknown))}")
    return {**defaults, **doc}


def _enum_keyed(kind, what: str, section: str, defaults: dict, doc) -> dict:
    """The number map ``doc`` laid over ``defaults``, keyed by members of ``kind``."""
    out = {}
    for key, value in {**defaults, **(doc or {})}.items():
        try:
            member = kind(key)
        except ValueError:
            raise ValueError(f"unknown {what} {key!r} in {section}") from None
        out[member] = float(value)
    return out


def parse_config(doc: dict | None) -> PipelineConfig:
    defaults = _to_doc(PipelineConfig())
    doc = _overlay(defaults, doc, "top-level")
    sections = {name: _overlay(defaults[name], doc[name], name) for name in defaults}
    ref, surv, pha = sections["refine"], sections["survival"], sections["phantom"]
    conn = str(ref["connectivity"]).upper()
    if conn not in Connectivity.__members__:
        names = sorted(c.name.lower() for c in Connectivity)
        raise ValueError(f"unknown connectivity {conn.lower()!r}; choose from {names}")
    for key in ("ols_features", "forest_features"):
        for name in surv[key]:
            if name not in FEATURE_NAMES:
                raise ValueError(f"unknown survival feature {name!r} in {key}")
    check_forest_size(surv["n_trees"], surv["max_depth"])
    sentinel = sections["metrics"]["hd95_empty_sentinel"]
    return PipelineConfig(
        refine=RefinementConfig(
            base_threshold=float(ref["base_threshold"]),
            fallback_threshold=float(ref["fallback_threshold"]),
            confidence_gate=_enum_keyed(RegionLabel, "region", "confidence_gate",
                                        defaults["refine"]["confidence_gate"],
                                        ref["confidence_gate"]),
            min_component_size=int(ref["min_component_size"]),
            failsafe_min_voxels=int(ref["failsafe_min_voxels"]),
            connectivity=Connectivity[conn],
            enforce_nesting=bool(ref["enforce_nesting"]),
        ),
        uncertainty_thresholds=tuple(float(t) for t in sections["uncertainty"]["thresholds"]),
        hd95_empty_sentinel=None if sentinel is None else float(sentinel),
        survival=SurvivalConfig(
            ols_features=tuple(surv["ols_features"]),
            forest_features=tuple(surv["forest_features"]),
            n_trees=surv["n_trees"],
            max_depth=surv["max_depth"],
            cap_days=float(surv["cap_days"]),
            override_prob=float(surv["override_prob"]),
            override_days=_enum_keyed(SurvivalClass, "survival class", "override_days",
                                      defaults["survival"]["override_days"],
                                      surv["override_days"]),
            bins=ClassBins(short_max=float(surv["short_max_days"]),
                           long_min=float(surv["long_min_days"])),
        ),
        phantom=PhantomConfig(preset=str(pha["preset"]), dims=tuple(int(d) for d in pha["dims"])),
    )


def load_config(path=None) -> PipelineConfig:
    """Load configuration from ``path``, $UQSEG_CONFIG, or built-in defaults."""
    if path is None:
        path = os.environ.get(ENV_CONFIG_PATH) or None
    if path is None:
        return PipelineConfig()
    text = Path(path).read_text()
    doc = yaml.safe_load(text)
    if doc is not None and not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a mapping")
    return parse_config(doc)
