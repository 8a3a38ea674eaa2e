"""Run configuration: the planner's own parameter classes with shipped defaults.

Config files are JSON with one object per section, and each section is the
class the planner takes, so its keys and defaults are that class's:

    vehicle  dynamics.VehicleModel
    limits   dynamics.Limits
    margins  penalty.SafetyMargins (default M_r = 15, M_d = 4)
    penalty  penalty.PenaltyConfig
    solver   optimize.SolveOptions
    map      MapSection, below

plus a top-level integer seed.  Unknown sections or keys are rejected so
typos cannot silently fall back to defaults, and a bad value fails when the
config loads, with the section's name in the message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .dynamics import Limits, VehicleModel
from .optimize import SolveOptions
from .penalty import PenaltyConfig, SafetyMargins


@dataclass
class MapSection:
    epsilon: float = 1e-5
    bounds_lo: tuple = (0.0, 0.0, 0.0)
    bounds_hi: tuple = (100.0, 100.0, 50.0)
    local_halfwidth: float = 40.0
    budget: int = 2000000

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        bl = np.asarray(self.bounds_lo, dtype=float)
        bh = np.asarray(self.bounds_hi, dtype=float)
        if bl.shape != (3,) or bh.shape != (3,) or np.any(bh <= bl):
            raise ValueError("bounds must be two ordered 3-vectors")
        if not self.local_halfwidth > 0.0:
            raise ValueError("local_halfwidth must be positive, got "
                             f"{self.local_halfwidth}")
        if self.budget < 1:
            raise ValueError(f"budget must be at least 1, got {self.budget}")


@dataclass
class RunConfig:
    vehicle: VehicleModel = field(default_factory=VehicleModel)
    limits: Limits = field(default_factory=Limits)
    margins: SafetyMargins = field(
        default_factory=lambda: SafetyMargins(M_r=15.0, M_d=4.0))
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    solver: SolveOptions = field(default_factory=SolveOptions)
    map: MapSection = field(default_factory=MapSection)
    seed: int = 0

    def __post_init__(self):
        both = "config sections 'vehicle' and 'limits': "
        try:
            self.limits.check_guard(self.vehicle)
        except ValueError as exc:
            raise ValueError(both + str(exc)) from exc
        if self.limits.accel_cap(self.vehicle) <= 0.0:
            raise ValueError(both
                             + "thrust limits leave no acceleration margin")
        if self.seed < 0:
            raise ValueError("config key 'seed' must be a non-negative "
                             f"integer, got {self.seed}")


_SECTIONS = [f.name for f in fields(RunConfig) if f.name != "seed"]


def _build_section(default, data: dict, name: str):
    """Copy of default with the keys of data set, each coerced to the type
    of the default's value; the class's own checks run on the copy."""
    keys = {f.name for f in fields(default) if f.init}
    unknown = set(data) - keys
    if unknown:
        raise ValueError(f"unknown keys in section {name!r}: "
                         f"{sorted(unknown)}")
    try:
        kwargs = {}
        for key, raw in data.items():
            kind = type(getattr(default, key))
            kwargs[key] = (tuple(float(x) for x in raw) if kind is tuple
                           else kind(raw))
        return replace(default, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config section {name!r}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    unknown = set(data) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    base = RunConfig()
    kwargs = {}
    for name in _SECTIONS:
        if name in data:
            section = data[name]
            if not isinstance(section, dict):
                raise ValueError(f"config section {name!r} must be an object")
            kwargs[name] = _build_section(getattr(base, name), section, name)
    if "seed" in data:
        kwargs["seed"] = int(data["seed"])
    return RunConfig(**kwargs)


def load_config(path: str | None = None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return config_from_dict(data)
