"""Flat `key = value` run configuration.

Dotted keys select nested settings, `#` starts a comment, unknown keys are
hard errors.  Values may carry a `cm` or `deg` suffix and are converted to
SI at parse time.  Every key has a documented default; an empty file is a
valid configuration.  Command-line flags that name a key are overrides of
it: parsed and checked the same way, applied after the file.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError, ValidationError
from .gaits import MAX_N, GaitSpec
from .model import SwimmerParams, cfd_drag_coefficients, derive_drag_coefficients
from .planner import MAX_SIDES, composite_square_gait
from .simulate import IntegratorConfig


@dataclass(frozen=True)
class RunConfig:
    params: SwimmerParams
    integrator: IntegratorConfig
    bracket_h: float
    bracket_inner_h: float
    bracket_outer_h: float
    gaits: dict                 # direction -> GaitSpec
    x_composite: bool           # planner uses the 4-variant composite for x
    line_bearing: float         # rad
    line_distance: float        # m
    circle_radius: float        # m
    circle_sides: int
    out_dir: str
    seed: int


_FLOAT_KEYS = {
    "swimmer.L", "swimmer.b", "swimmer.mu", "swimmer.k_long", "swimmer.k_lat",
    "swimmer.cfd_speed",
    "integrator.h",
    "bracket.h", "bracket.inner_h", "bracket.outer_h",
    "plan.line.bearing", "plan.line.distance",
    "plan.circle.radius",
}
_INT_KEYS = {"integrator.min_substeps", "plan.circle.sides", "run.seed"}
_STR_KEYS = {"swimmer.coefficients", "gait.nesting", "run.out"}
_BOOL_KEYS = {"gait.x.composite"}
for _d in ("x", "y", "theta"):
    for _f in ("alpha", "beta", "gamma", "t"):
        _FLOAT_KEYS.add(f"gait.{_d}.{_f}")
    _INT_KEYS.add(f"gait.{_d}.n")

KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _BOOL_KEYS

_DEFAULTS = {
    "swimmer.L": 0.05, "swimmer.b": 0.005, "swimmer.mu": 0.950,
    "swimmer.coefficients": "slender",
    "integrator.h": 1e-3, "integrator.min_substeps": 16,
    "bracket.h": 1e-5, "bracket.inner_h": 1e-3, "bracket.outer_h": 1e-2,
    "gait.nesting": "derived",
    "gait.x.alpha": 1.0, "gait.x.beta": 0.0, "gait.x.gamma": 0.0,
    "gait.x.t": 0.25, "gait.x.n": 1, "gait.x.composite": True,
    "gait.y.alpha": 0.0, "gait.y.beta": -1.0, "gait.y.gamma": 1.0,
    "gait.y.t": 0.0625, "gait.y.n": 2,
    "gait.theta.alpha": 0.0, "gait.theta.beta": 1.0, "gait.theta.gamma": 1.0,
    "gait.theta.t": 0.0625, "gait.theta.n": 1,
    "plan.line.bearing": math.radians(154.0), "plan.line.distance": 0.12,
    "plan.circle.radius": 0.2, "plan.circle.sides": 10,
    "run.out": "out", "run.seed": 1234,
}

_UNIT_FACTORS = {"cm": 1e-2, "deg": math.pi / 180.0}


def _parse_value(key: str, token: str, lineno: int):
    token = token.strip()
    if key in _STR_KEYS:
        return token
    if key in _BOOL_KEYS:
        low = token.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"key {key!r} expects a boolean, got {token!r}", lineno)
    parts = token.split()
    factor = 1.0
    if len(parts) == 2 and parts[1] in _UNIT_FACTORS:
        factor = _UNIT_FACTORS[parts[1]]
        token = parts[0]
    elif len(parts) != 1:
        raise ConfigError(f"cannot parse value {token!r} for key {key!r}", lineno)
    try:
        value = float(token) * factor
    except ValueError:
        raise ConfigError(f"key {key!r} expects a number, got {token!r}", lineno)
    if key in _INT_KEYS:
        if not math.isfinite(value) or value != int(value):
            raise ConfigError(f"key {key!r} expects an integer, got {token!r}", lineno)
        return int(value)
    return value


def parse_config(text: str, overrides: dict = None) -> RunConfig:
    """The config in `text`, then `overrides` (key -> value text) on top."""
    values = dict(_DEFAULTS)
    explicit = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected `key = value`, got {raw!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        values[key] = _parse_value(key, value, lineno)
        explicit.add(key)
    for key, value in (overrides or {}).items():
        values[key] = _parse_value(key, value, None)
        explicit.add(key)
    return _build(values, explicit)


def _build(v: dict, explicit: set) -> RunConfig:
    base = SwimmerParams(L=v["swimmer.L"], b=v["swimmer.b"], mu=v["swimmer.mu"])
    has_explicit_k = "swimmer.k_long" in explicit or "swimmer.k_lat" in explicit
    provenance = v["swimmer.coefficients"]
    if provenance not in ("slender", "cfd"):
        raise ValidationError(
            f"swimmer.coefficients must be 'slender' or 'cfd', got {provenance!r}")
    if has_explicit_k:
        if "swimmer.coefficients" in explicit:
            raise ValidationError(
                "give either explicit k_long/k_lat or a coefficient provenance, not both")
        if "swimmer.k_long" not in explicit or "swimmer.k_lat" not in explicit:
            raise ValidationError("explicit coefficients need both k_long and k_lat")
        params = base._replace(k_long=v["swimmer.k_long"], k_lat=v["swimmer.k_lat"])
        if not (params.k_lat > params.k_long > 0):
            raise ValidationError("need k_lat > k_long > 0")
    elif provenance == "cfd":
        if "swimmer.cfd_speed" not in explicit:
            raise ValidationError(
                "swimmer.coefficients = cfd requires swimmer.cfd_speed "
                "(the calibration flow speed is not part of the force readings)")
        params = cfd_drag_coefficients(base, v["swimmer.cfd_speed"])
    else:
        params = derive_drag_coefficients(base)

    if not v["integrator.h"] > 0:
        raise ValidationError("integrator.h must be positive")
    if v["integrator.min_substeps"] < 1:
        raise ValidationError("integrator.min_substeps must be >= 1")
    for key in ("bracket.h", "bracket.inner_h", "bracket.outer_h"):
        if not 0 < v[key] < math.inf:
            raise ValidationError(f"{key} must be positive and finite")

    nesting = v["gait.nesting"]
    if nesting not in ("derived", "literal"):
        raise ValidationError("gait.nesting must be 'derived' or 'literal'")
    gaits = {}
    for d in ("x", "y", "theta"):
        if not 1 <= v[f"gait.{d}.n"] <= MAX_N:
            raise ValidationError(f"gait.{d}.n must be from 1 to {MAX_N}")
        if not 0 < v[f"gait.{d}.t"] < math.inf:
            raise ValidationError(f"gait.{d}.t must be positive and finite")
        gaits[d] = GaitSpec(
            alpha=v[f"gait.{d}.alpha"], beta=v[f"gait.{d}.beta"],
            gamma=v[f"gait.{d}.gamma"], t=v[f"gait.{d}.t"],
            n=v[f"gait.{d}.n"], nesting=nesting)

    if not 3 <= v["plan.circle.sides"] <= MAX_SIDES:
        raise ValidationError(f"plan.circle.sides must be from 3 to {MAX_SIDES}")
    if not 0 < v["plan.circle.radius"] < math.inf:
        raise ValidationError("plan.circle.radius must be positive and finite")
    if not math.isfinite(v["plan.line.bearing"]):
        raise ValidationError("plan.line.bearing must be finite")
    if not 0 < v["plan.line.distance"] < math.inf:
        raise ValidationError("plan.line.distance must be positive and finite")

    return RunConfig(
        params=params,
        integrator=IntegratorConfig(h=v["integrator.h"],
                                    min_substeps=v["integrator.min_substeps"]),
        bracket_h=v["bracket.h"],
        bracket_inner_h=v["bracket.inner_h"],
        bracket_outer_h=v["bracket.outer_h"],
        gaits=gaits,
        x_composite=v["gait.x.composite"],
        line_bearing=v["plan.line.bearing"],
        line_distance=v["plan.line.distance"],
        circle_radius=v["plan.circle.radius"],
        circle_sides=v["plan.circle.sides"],
        out_dir=v["run.out"],
        seed=v["run.seed"],
    )


def default_config() -> RunConfig:
    return _build(dict(_DEFAULTS), set())


def basis_specs(cfg: RunConfig) -> dict:
    """The planner's basis gaits: the configured specs, with x replaced by the
    four-variant composite square gait when `gait.x.composite` is set."""
    specs = dict(cfg.gaits)
    if cfg.x_composite:
        x = cfg.gaits["x"]
        if x.beta != 0.0 or x.gamma != 0.0:
            raise ValidationError("gait.x.composite needs gait.x.beta = gait.x.gamma = 0")
        specs["x"] = composite_square_gait(x.t, scale=x.alpha)
    return specs


def config_echo(cfg: RunConfig) -> list:
    """Key = value lines describing the effective configuration."""
    p = cfg.params
    lines = [
        f"swimmer.L = {p.L!r}", f"swimmer.b = {p.b!r}", f"swimmer.mu = {p.mu!r}",
        f"swimmer.k_long = {p.k_long!r}", f"swimmer.k_lat = {p.k_lat!r}",
        f"integrator.h = {cfg.integrator.h!r}",
        f"integrator.min_substeps = {cfg.integrator.min_substeps}",
        f"bracket.h = {cfg.bracket_h!r}", f"bracket.inner_h = {cfg.bracket_inner_h!r}",
        f"bracket.outer_h = {cfg.bracket_outer_h!r}",
        f"gait.nesting = {cfg.gaits['x'].nesting}",
    ]
    for d in ("x", "y", "theta"):
        g = cfg.gaits[d]
        lines.append(f"gait.{d} = alpha={g.alpha!r} beta={g.beta!r} "
                     f"gamma={g.gamma!r} t={g.t!r} n={g.n}")
    lines += [
        f"gait.x.composite = {str(cfg.x_composite).lower()}",
        f"plan.line.bearing = {cfg.line_bearing!r}",
        f"plan.line.distance = {cfg.line_distance!r}",
        f"plan.circle.radius = {cfg.circle_radius!r}",
        f"plan.circle.sides = {cfg.circle_sides}",
        f"run.out = {cfg.out_dir}",
        f"run.seed = {cfg.seed}",
    ]
    return lines
