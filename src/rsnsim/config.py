"""Run-config files: JSON documents validated against per-command schemas.

Unknown keys are rejected by name so typos never silently fall back to
defaults.  Command-line flags override file values.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Optional

from .device import ParamRanges, default_ranges
from .errors import ConfigError
from .harness import HierarchyConfig, SweepConfig
from .solver import DEFAULT_DT, DEFAULT_DURATION, DEFAULT_FREQUENCY

_GENERATE_DEFAULTS = {"interface_dim": 4, "subdivision": 1, "alpha": 1.0,
                      "beta": 1.0, "xi": 4, "edge_count": None, "seed": 0,
                      "input_node": None, "ground_node": None}
GENERATE_KEYS = {"ranges", *_GENERATE_DEFAULTS}
_SIMULATE_DEFAULTS = {"amplitude": 1.0, "frequency": DEFAULT_FREQUENCY,
                      "dt": DEFAULT_DT, "duration": DEFAULT_DURATION,
                      "decay_mode": "state_dependent", "decimation": 1}
SIMULATE_KEYS = set(_SIMULATE_DEFAULTS)
SWEEP_KEYS = {f.name for f in fields(SweepConfig)}
HIERARCHY_KEYS = SWEEP_KEYS | {f.name for f in fields(HierarchyConfig)}


def load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def check_keys(doc: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown config key(s) in {where}: {', '.join(unknown)}")


def parse_ranges(doc: dict) -> ParamRanges:
    raw = doc.get("ranges")
    if raw is None:
        return default_ranges()
    if not isinstance(raw, dict):
        raise ConfigError("'ranges' must be an object of [lo, hi] pairs")
    try:
        return ParamRanges.from_dict(raw)
    except Exception as exc:
        raise ConfigError(f"bad 'ranges': {exc}") from None


def parse_generate(doc: dict) -> dict:
    """``doc`` over the defaults, with ``ranges`` parsed; ``BetaShape`` and
    ``generate_network`` apply the value rules."""
    check_keys(doc, GENERATE_KEYS, "generate config")
    return {**_GENERATE_DEFAULTS, **doc, "ranges": parse_ranges(doc)}


def parse_simulate(doc: dict) -> dict:
    """``doc`` over the defaults; ``sine_waveform`` and ``simulate`` apply
    the value rules."""
    check_keys(doc, SIMULATE_KEYS, "simulate config")
    return {**_SIMULATE_DEFAULTS, **doc}


def parse_sweep(doc: dict) -> SweepConfig:
    """A SweepConfig from a sweep document; SweepConfig applies the value
    rules."""
    check_keys(doc, SWEEP_KEYS, "sweep config")
    kw = {k: v for k, v in doc.items() if k != "ranges"}
    try:
        return SweepConfig(**kw, ranges=parse_ranges(doc))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad sweep config: {exc}") from None


def parse_hierarchy(doc: dict) -> tuple:
    check_keys(doc, HIERARCHY_KEYS, "hierarchy config")
    sweep_doc = {k: v for k, v in doc.items() if k in SWEEP_KEYS}
    cfg = parse_sweep(sweep_doc)
    return cfg, HierarchyConfig(**{k: v for k, v in doc.items()
                                    if k not in SWEEP_KEYS})


def sweep_config_to_dict(cfg: SweepConfig,
                         hier: Optional[HierarchyConfig] = None) -> dict:
    """A sweep's config document, or a hierarchy's given ``hier``."""
    doc = {f.name: getattr(c, f.name) for c in (cfg, hier) if c is not None
           for f in fields(c)}
    doc["ranges"] = doc["ranges"].to_dict()
    return doc
