"""Declarative YAML configuration of the pipeline's commands.

The default configuration reproduces the reference thresholds: detection at
0.5 with 0.05 fallback, confidence gates WT 0.90 / TC 0.75 / ET 0.80, 10-voxel
component filter, 1000-voxel failsafe, survival caps and class bins. A
section's keys are its dataclass's fields in field order (``ClassBins`` as
``short_max_days`` and ``long_min_days``); the class owns every default and
checks its own values. A document is laid over the defaults' document, so a
key they lack or a value of another type is refused before any class sees it.
The loss constants are :class:`~uqseg.losses.LossConfig` library defaults. The
CLI resolves the config from --config, then $UQSEG_CONFIG, then the defaults.
"""
from __future__ import annotations

import enum
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .phantom import PhantomConfig
from .refine import RefinementConfig, RegionLabel
from .survival import ClassBins, SurvivalClass, SurvivalConfig, check_forest_size
from .uncertainty import DEFAULT_THRESHOLDS, check_thresholds

ENV_CONFIG_PATH = "UQSEG_CONFIG"
_MEMBER_NOUNS = {RegionLabel: "region", SurvivalClass: "survival class"}  # for unknown map keys


@dataclass
class PipelineConfig:
    refine: RefinementConfig = field(default_factory=RefinementConfig)
    uncertainty_thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    hd95_empty_sentinel: float | None = None
    survival: SurvivalConfig = field(default_factory=SurvivalConfig)
    phantom: PhantomConfig = field(default_factory=PhantomConfig)

    def __post_init__(self):
        self.uncertainty_thresholds = check_thresholds(self.uncertainty_thresholds)


def default_config_yaml() -> str:
    import yaml
    return yaml.safe_dump(_to_doc(PipelineConfig()), sort_keys=False)


def _to_doc(cfg: PipelineConfig) -> dict:
    return {
        "refine": _section_doc(cfg.refine),
        "uncertainty": {"thresholds": list(cfg.uncertainty_thresholds)},
        "metrics": {"hd95_empty_sentinel": cfg.hd95_empty_sentinel},
        "survival": _section_doc(cfg.survival),
        "phantom": _section_doc(cfg.phantom),
    }


def _section_doc(section) -> dict:
    """One key per field of ``section``, in field order, as YAML writes it."""
    doc = {}
    for f in fields(section):
        value = getattr(section, f.name)
        if isinstance(value, ClassBins):
            doc.update(short_max_days=value.short_max, long_min_days=value.long_min)
        elif isinstance(value, enum.Enum):
            doc[f.name] = value.name.lower()
        elif isinstance(value, dict):  # keyed by enum members
            doc[f.name] = {member.value: v for member, v in value.items()}
        else:
            doc[f.name] = list(value) if isinstance(value, tuple) else value
    return doc


def _section_config(cls, doc: dict):
    """The ``cls`` that :func:`_section_doc` writes as ``doc``, whose values have their defaults' types."""
    defaults, kwargs = cls(), {}
    for f in fields(cls):
        default, value = getattr(defaults, f.name), doc.get(f.name)
        if isinstance(default, ClassBins):
            value = ClassBins(float(doc["short_max_days"]), float(doc["long_min_days"]))
        elif isinstance(default, enum.Enum):
            kind, name = type(default), str(value).upper()
            if name not in kind.__members__:
                names = sorted(m.name.lower() for m in kind)
                raise ValueError(f"unknown {f.name} {name.lower()!r}; choose from {names}")
            value = kind[name]
        elif isinstance(default, dict):
            value = _enum_keyed(f.name, default, value)
        elif isinstance(default, (tuple, float)):
            value = type(default)(value)
        kwargs[f.name] = value
    return cls(**kwargs)


def _overlay(defaults: dict, doc, section: str) -> dict:
    """``doc`` laid over ``defaults``; a key that ``defaults`` lacks is an error."""
    doc = doc or {}
    if not isinstance(doc, dict):
        raise ValueError(f"{section} config must be a mapping")
    unknown = set(doc) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {section} config key(s): {', '.join(sorted(unknown))}")
    return {**defaults, **doc}


def _fits(value, default) -> bool:
    """Whether ``value`` has ``default``'s type.

    An int fits a float; a bool, a non-finite float and an int past float's range fit neither.
    """
    if isinstance(default, dict):  # null keeps the defaults; _enum_keyed reads the entries
        return value is None or isinstance(value, dict)
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    if default is None or isinstance(default, float):
        number = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
        return number or (value is None and default is None)
    return type(value) is type(default)


def _kind(default, plural: bool = False) -> str:
    """What a value of ``default``'s type is called in an error message."""
    if isinstance(default, dict):
        return "a mapping"
    if isinstance(default, list):
        return "a list of " + _kind(default[0], plural=True)
    noun = {bool: "boolean", int: "integer", str: "string"}.get(type(default), "number")
    if plural:
        return noun + "s"
    return ("an " if noun == "integer" else "a ") + noun + (" or null" if default is None else "")


def _enum_keyed(section: str, defaults: dict, doc) -> dict:
    """The number map ``doc``, keyed by member values, laid over the member-keyed ``defaults``."""
    kind, out = type(next(iter(defaults))), dict(defaults)
    for key, value in (doc or {}).items():
        try:
            member = kind(key)
        except ValueError:
            raise ValueError(f"unknown {_MEMBER_NOUNS[kind]} {key!r} in {section}") from None
        if not _fits(value, defaults[member]):
            raise ValueError(f"{key} must be {_kind(defaults[member])}, got {value!r}")
        out[member] = float(value)
    return out


def parse_config(doc: dict | None) -> PipelineConfig:
    defaults = _to_doc(PipelineConfig())
    doc = _overlay(defaults, doc, "top-level")
    sections = {name: _overlay(defaults[name], doc[name], name) for name in defaults}
    surv = sections["survival"]
    check_forest_size(surv["n_trees"], surv["max_depth"])  # first: its messages give the range
    for name, section in sections.items():
        for key, value in section.items():
            if not _fits(value, defaults[name][key]):
                raise ValueError(f"{key} must be {_kind(defaults[name][key])}, got {value!r}")
    sentinel = sections["metrics"]["hd95_empty_sentinel"]
    return PipelineConfig(
        refine=_section_config(RefinementConfig, sections["refine"]),
        uncertainty_thresholds=sections["uncertainty"]["thresholds"],
        hd95_empty_sentinel=None if sentinel is None else float(sentinel),
        survival=_section_config(SurvivalConfig, surv),
        phantom=_section_config(PhantomConfig, sections["phantom"]),
    )


def load_config(path=None) -> PipelineConfig:
    """Load configuration from ``path``, $UQSEG_CONFIG, or built-in defaults."""
    if path is None:
        path = os.environ.get(ENV_CONFIG_PATH) or None
    if path is None:
        return PipelineConfig()
    import yaml
    try:
        doc = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        if doc is not None and not isinstance(doc, dict):
            raise ValueError("config must be a mapping")
    except (ValueError, yaml.YAMLError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return parse_config(doc)
