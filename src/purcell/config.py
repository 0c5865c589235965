"""Flat `key = value` run configuration.

Dotted keys select nested settings, `#` starts a comment, unknown keys and
keys set twice are hard errors.  Values may carry a `cm` or `deg` suffix
and are converted to SI at parse time.  Every key has a documented
default; an empty file is a valid configuration.  Command-line flags that
name a key are overrides of it: parsed and checked the same way, applied
after the file.
"""

import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import lie
from .errors import ValidationError
from .gaits import MAX_N, GaitSpec
from .model import (SwimmerParams, cfd_drag_coefficients, derive_drag_coefficients,
                    validate_params)
from .planner import MAX_SIDES, PLAN_GAITS, composite_square_gait
from .se2 import DIRECTIONS
from .simulate import IntegratorConfig


class Key(NamedTuple):
    """One config key: its default (None: unset), its type and its check."""

    name: str
    default: object
    kind: type                  # float (takes a `cm`/`deg` suffix), int, str or bool
    ok: Callable = None         # a value passes when ok(value) is true, else
    must: str = ""              # ValidationError(f"{name} {must}"), `{!r}` the value


_POSITIVE_FINITE = (lambda v: 0 < v < math.inf, "must be positive and finite")
_SWIMMER = SwimmerParams()
_INTEGRATOR = IntegratorConfig()


def _gait_keys(d, alpha, beta, gamma, t, n):
    return (Key(f"gait.{d}.alpha", alpha, float), Key(f"gait.{d}.beta", beta, float),
            Key(f"gait.{d}.gamma", gamma, float),
            Key(f"gait.{d}.t", t, float, *_POSITIVE_FINITE),
            Key(f"gait.{d}.n", n, int, lambda v: 1 <= v <= MAX_N, f"must be from 1 to {MAX_N}"))


# Every key, in echo order.
KEYS = {key.name: key for key in (
    Key("swimmer.L", _SWIMMER.L, float),
    Key("swimmer.b", _SWIMMER.b, float),
    Key("swimmer.mu", _SWIMMER.mu, float),
    Key("swimmer.coefficients", "slender", str, lambda v: v in ("slender", "cfd"),
        "must be 'slender' or 'cfd', got {!r}"),
    Key("swimmer.cfd_speed", None, float),
    Key("swimmer.k_long", None, float),
    Key("swimmer.k_lat", None, float),
    Key("integrator.h", _INTEGRATOR.h, float, lambda v: v > 0, "must be positive"),
    Key("integrator.min_substeps", _INTEGRATOR.min_substeps, int, lambda v: v >= 1,
        "must be >= 1"),
    Key("gait.nesting", "derived", str, lambda v: v in ("derived", "literal"),
        "must be 'derived' or 'literal'"),
    *_gait_keys("x", 1.0, 0.0, 0.0, 0.25, 1),
    *_gait_keys("y", 0.0, -1.0, 1.0, 0.0625, 2),
    *_gait_keys("theta", 0.0, 1.0, 1.0, 0.0625, 1),
    Key("gait.x.composite", True, bool),
    Key("plan.line.bearing", math.radians(154.0), float, math.isfinite, "must be finite"),
    Key("plan.line.distance", 0.12, float, *_POSITIVE_FINITE),
    Key("plan.circle.radius", 0.2, float, *_POSITIVE_FINITE),
    Key("plan.circle.sides", 10, int, lambda v: 3 <= v <= MAX_SIDES,
        f"must be from 3 to {MAX_SIDES}"),
    Key("run.out", "out", str, bool, "must not be empty"),
)}


def _value(name):
    return property(lambda cfg: cfg.values[name])


@dataclass(frozen=True)
class RunConfig:
    values: dict                # key -> value, as config_echo prints it
    params: SwimmerParams
    integrator: IntegratorConfig
    gaits: dict                 # direction -> GaitSpec

    # Not settable: the benchmark's analyze op reads these two.  They go when
    # closed-form brackets replace the finite-difference ones.
    bracket_inner_h = lie.INNER_STEP
    bracket_outer_h = lie.OUTER_STEP
    x_composite = _value("gait.x.composite")      # planner uses the 4-variant composite for x
    line_bearing = _value("plan.line.bearing")    # rad
    line_distance = _value("plan.line.distance")  # m
    circle_radius = _value("plan.circle.radius")  # m
    circle_sides = _value("plan.circle.sides")
    out_dir = _value("run.out")


_UNIT_FACTORS = {"cm": 1e-2, "deg": math.pi / 180.0}


def _line_error(message: str, lineno: int) -> ValidationError:
    """`message`, prefixed with `line N: ` when it comes from line N of the file."""
    return ValidationError(message if lineno is None else f"line {lineno}: {message}")


def _parse_value(key: str, token: str, lineno: int):
    token = token.strip()
    kind = KEYS[key].kind
    if kind is str:
        if "\0" in token:   # no path or name holds one: os.makedirs would raise ValueError
            raise _line_error(f"key {key!r} must not hold a NUL byte", lineno)
        return os.fsdecode(token.encode("utf-8", "surrogateescape"))   # a file name, any locale
    if kind is bool:
        low = token.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise _line_error(f"key {key!r} expects a boolean, got {token!r}", lineno)
    parts = token.split()
    factor = 1.0
    if len(parts) == 2 and parts[1] in _UNIT_FACTORS:
        factor = _UNIT_FACTORS[parts[1]]
        token = parts[0]
    elif len(parts) != 1:
        raise _line_error(f"cannot parse value {token!r} for key {key!r}", lineno)
    try:
        value = float(token) * factor
    except ValueError:
        raise _line_error(f"key {key!r} expects a number, got {token!r}", lineno)
    if kind is int:
        if not math.isfinite(value) or value != int(value):
            raise _line_error(f"key {key!r} expects an integer, got {token!r}", lineno)
        return int(value)
    return value


def parse_config(text: str, overrides: dict = None) -> RunConfig:
    """The config in `text`, then `overrides` (key -> value text) on top."""
    given, set_on = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _line_error(f"expected `key = value`, got {raw!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise _line_error(f"unknown key {key!r}", lineno)
        if key in set_on:
            raise _line_error(f"key {key!r} is already set on line {set_on[key]}", lineno)
        set_on[key] = lineno
        given[key] = _parse_value(key, value, lineno)
    for key, value in (overrides or {}).items():
        given[key] = _parse_value(key, value, None)
    return _build(given)


def _build(given: dict) -> RunConfig:
    v = {name: given.get(name, key.default) for name, key in KEYS.items()}
    for name, key in KEYS.items():
        if key.ok is not None and not key.ok(v[name]):
            raise ValidationError(f"{name} {key.must.format(v[name])}")

    base = SwimmerParams(L=v["swimmer.L"], b=v["swimmer.b"], mu=v["swimmer.mu"])
    if v["swimmer.cfd_speed"] is not None and v["swimmer.coefficients"] != "cfd":
        raise ValidationError("swimmer.cfd_speed is only read with swimmer.coefficients = cfd")
    if v["swimmer.k_long"] is not None or v["swimmer.k_lat"] is not None:
        if "swimmer.coefficients" in given:
            raise ValidationError(
                "give either explicit k_long/k_lat or a coefficient provenance, not both")
        if v["swimmer.k_long"] is None or v["swimmer.k_lat"] is None:
            raise ValidationError("explicit coefficients need both k_long and k_lat")
        params = base._replace(k_long=v["swimmer.k_long"], k_lat=v["swimmer.k_lat"])
        validate_params(params)
        v["swimmer.coefficients"] = None   # no provenance: the pair is the input
    elif v["swimmer.coefficients"] == "cfd":
        if v["swimmer.cfd_speed"] is None:
            raise ValidationError(
                "swimmer.coefficients = cfd requires swimmer.cfd_speed "
                "(the calibration flow speed is not part of the force readings)")
        params = cfd_drag_coefficients(base, v["swimmer.cfd_speed"])
    else:
        params = derive_drag_coefficients(base)
    v["swimmer.k_long"], v["swimmer.k_lat"] = params.k_long, params.k_lat

    gaits = {d: GaitSpec(alpha=v[f"gait.{d}.alpha"], beta=v[f"gait.{d}.beta"],
                         gamma=v[f"gait.{d}.gamma"], t=v[f"gait.{d}.t"],
                         n=v[f"gait.{d}.n"], nesting=v["gait.nesting"])
             for d in DIRECTIONS}
    integrator = IntegratorConfig(h=v["integrator.h"], min_substeps=v["integrator.min_substeps"])
    return RunConfig(values=v, params=params, integrator=integrator, gaits=gaits)


def default_config() -> RunConfig:
    return _build({})


def plan_specs(cfg: RunConfig) -> dict:
    """The gaits a plan compiles (planner.PLAN_GAITS), x first: the configured
    specs, with x replaced by the four-variant composite square gait when
    `gait.x.composite` is set."""
    specs = {d: cfg.gaits[d] for d in PLAN_GAITS.values()}
    if cfg.x_composite:
        x = specs["x"]
        if x.beta != 0.0 or x.gamma != 0.0 or x.n != 1:
            raise ValidationError("gait.x.composite needs gait.x.beta = gait.x.gamma = 0 "
                                  "and gait.x.n = 1")
        specs["x"] = composite_square_gait(x.t, scale=x.alpha)
    return specs


def _echo_value(value) -> str:
    if value is None:
        return "unset"
    if isinstance(value, bool):
        return str(value).lower()
    return value if isinstance(value, str) else repr(value)


def config_echo(cfg: RunConfig) -> list:
    """One `key = value` line per key of KEYS: the provenance keys as given,
    k_long and k_lat as resolved."""
    return [f"{name} = {_echo_value(cfg.values[name])}" for name in KEYS]
