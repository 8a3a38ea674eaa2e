"""Run configuration: validated parameter sets with shipped defaults.

The default values are the reference vehicle and planner settings used
throughout the test scenarios.  Config files are JSON with one object per
section; unknown sections or keys are rejected so typos cannot silently
fall back to defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import Limits, VehicleModel
from .penalty import PenaltyConfig, SafetyMargins


@dataclass
class VehicleSection:
    m: float = 1.9
    g: float = 9.81
    d_h: float = 0.475
    d_v: float = 0.475
    c_p: float = 0.01
    eta: float = 1e-8


@dataclass
class LimitsSection:
    v_max: float = 13.0
    omega_max: float = 2.0 * np.pi / 3.0
    theta_max: float = np.pi / 9.0
    f_min: float = 9.5
    f_max: float = 28.5


@dataclass
class MarginsSection:
    M_r: float = 15.0
    M_d: float = 4.0
    w: float = 1.0


@dataclass
class PenaltySection:
    mu: float = 1e-2
    w1: float = 1e5
    w2: float = 1e5
    w3: float = 1e5
    rho: float = 1e-3
    n_q: int = 16
    n_t: int = 8
    n_v: int = 16


@dataclass
class SolverSection:
    gtol: float = 1e-5
    max_iter: int = 500
    memory: int = 10
    mu_rounds: int = 1
    mu_shrink: float = 4.0


@dataclass
class MapSection:
    epsilon: float = 1e-5
    bounds_lo: tuple = (0.0, 0.0, 0.0)
    bounds_hi: tuple = (100.0, 100.0, 50.0)
    local_halfwidth: float = 40.0
    budget: int = 2000000


@dataclass
class RunConfig:
    vehicle: VehicleSection = field(default_factory=VehicleSection)
    limits: LimitsSection = field(default_factory=LimitsSection)
    margins: MarginsSection = field(default_factory=MarginsSection)
    penalty: PenaltySection = field(default_factory=PenaltySection)
    solver: SolverSection = field(default_factory=SolverSection)
    map: MapSection = field(default_factory=MapSection)
    seed: int = 0

    def vehicle_model(self) -> VehicleModel:
        v = self.vehicle
        return VehicleModel(m=v.m, g=v.g, d_h=v.d_h, d_v=v.d_v, C_p=v.c_p,
                            eta=v.eta)

    def limit_set(self) -> Limits:
        ls = self.limits
        lim = Limits(v_max=ls.v_max, omega_max=ls.omega_max,
                     theta_max=ls.theta_max, f_min=ls.f_min, f_max=ls.f_max)
        lim.check_guard(self.vehicle_model())
        return lim

    def safety_margins(self) -> SafetyMargins:
        ms = self.margins
        return SafetyMargins(M_r=ms.M_r, M_d=ms.M_d, w=ms.w)

    def penalty_config(self) -> PenaltyConfig:
        p = self.penalty
        return PenaltyConfig(mu=p.mu, w1=p.w1, w2=p.w2, w3=p.w3, rho=p.rho,
                             n_q=p.n_q, n_t=p.n_t, n_v=p.n_v)

    def solve_options(self):
        from .optimize import SolveOptions
        s = self.solver
        return SolveOptions(gtol=s.gtol, max_iter=s.max_iter, memory=s.memory,
                            mu_rounds=s.mu_rounds, mu_shrink=s.mu_shrink)

    def validate(self) -> "RunConfig":
        v, ls, ms, p = self.vehicle, self.limits, self.margins, self.penalty
        positive = {
            "vehicle.m": v.m, "vehicle.g": v.g,
            "limits.v_max": ls.v_max, "limits.omega_max": ls.omega_max,
            "limits.theta_max": ls.theta_max, "limits.f_min": ls.f_min,
            "limits.f_max": ls.f_max, "margins.M_r": ms.M_r,
            "penalty.mu": p.mu, "map.epsilon": self.map.epsilon,
            "solver.gtol": self.solver.gtol,
        }
        for name, val in positive.items():
            if not val > 0.0:
                raise ValueError(f"{name} must be positive, got {val}")
        if v.d_h < 0.0 or v.d_v < 0.0 or v.c_p < 0.0:
            raise ValueError("drag coefficients must be non-negative")
        if ms.M_d < 0.0:
            raise ValueError("margins.M_d must be non-negative")
        if ms.w <= 0.0:
            raise ValueError("margins.w must be positive")
        if ls.f_max <= ls.f_min:
            raise ValueError("limits.f_max must exceed limits.f_min")
        for wname, wval in (("w1", p.w1), ("w2", p.w2), ("w3", p.w3)):
            if wval < 0.0:
                raise ValueError(f"penalty.{wname} must be non-negative")
        if self.limit_set().accel_cap(self.vehicle_model()) <= 0.0:
            raise ValueError("thrust limits leave no acceleration margin")
        bl = np.asarray(self.map.bounds_lo, dtype=float)
        bh = np.asarray(self.map.bounds_hi, dtype=float)
        if bl.shape != (3,) or bh.shape != (3,) or np.any(bh <= bl):
            raise ValueError("map bounds must be two ordered 3-vectors")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.penalty_config()
        return self


_SECTIONS = {
    "vehicle": VehicleSection,
    "limits": LimitsSection,
    "margins": MarginsSection,
    "penalty": PenaltySection,
    "solver": SolverSection,
    "map": MapSection,
}


def _build_section(cls, data: dict, name: str):
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown keys in section {name!r}: "
                         f"{sorted(unknown)}")
    kwargs = {}
    for f in fields(cls):
        if f.name in data:
            raw = data[f.name]
            if f.name.startswith("bounds_"):
                kwargs[f.name] = tuple(float(x) for x in raw)
            elif isinstance(getattr(cls(), f.name), int) \
                    and not isinstance(getattr(cls(), f.name), bool):
                kwargs[f.name] = int(raw)
            else:
                kwargs[f.name] = float(raw)
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    unknown = set(data) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in data:
            section = data[name]
            if not isinstance(section, dict):
                raise ValueError(f"config section {name!r} must be an object")
            kwargs[name] = _build_section(cls, section, name)
    if "seed" in data:
        kwargs["seed"] = int(data["seed"])
    return RunConfig(**kwargs).validate()


def load_config(path: str | None = None) -> RunConfig:
    if path is None:
        return RunConfig().validate()
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return config_from_dict(data)
