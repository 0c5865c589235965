import math
import pathlib
import re

import pytest

from purcell import lie
from purcell.config import KEYS, config_echo, default_config, parse_config
from purcell.errors import ConfigError, ValidationError


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    dflt = default_config()
    assert cfg == dflt
    assert cfg.params.L == 0.05
    assert cfg.params.mu == 0.950
    assert cfg.params.k_lat == pytest.approx(2 * cfg.params.k_long)
    assert cfg.integrator.h == 1e-3
    assert cfg.circle_sides == 10


def test_bracket_steps_are_the_lie_constants():
    cfg = default_config()
    assert (cfg.bracket_inner_h, cfg.bracket_outer_h) == (lie.INNER_STEP, lie.OUTER_STEP)
    for key in ("bracket.h", "bracket.inner_h", "bracket.outer_h"):
        with pytest.raises(ConfigError, match=f"^line 1: unknown key '{re.escape(key)}'$"):
            parse_config(f"{key} = 1e-3\n")


def test_single_override_leaves_rest_default():
    cfg = parse_config("gait.x.n = 4\n")
    assert cfg.gaits["x"].n == 4
    assert cfg.gaits["x"].t == default_config().gaits["x"].t
    assert cfg.gaits["y"] == default_config().gaits["y"]


def test_comments_and_blank_lines():
    cfg = parse_config("# header\n\nswimmer.mu = 1.2  # inline\n")
    assert cfg.params.mu == 1.2


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("# one\nswimmer.L = 0.05\nswimmer.radius = 0.01\n")


def test_malformed_line_reports_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("swimmer.L 0.05\n")
    with pytest.raises(ConfigError, match="number"):
        parse_config("swimmer.L = fat\n")


def test_slenderness_violation_rejected():
    with pytest.raises(ValidationError, match="slender"):
        parse_config("swimmer.b = 0.06\nswimmer.L = 0.05\n")


def test_unit_suffixes():
    cfg = parse_config("plan.circle.radius = 20 cm\nplan.line.bearing = 154 deg\n")
    assert cfg.circle_radius == pytest.approx(0.20)
    assert cfg.line_bearing == pytest.approx(math.radians(154.0))


def test_explicit_coefficients():
    cfg = parse_config("swimmer.k_long = 1.0\nswimmer.k_lat = 1.8\n")
    assert cfg.params.k_long == 1.0
    assert cfg.params.k_lat == 1.8
    with pytest.raises(ValidationError):
        parse_config("swimmer.k_long = 1.0\n")  # needs the pair
    with pytest.raises(ValidationError):
        parse_config("swimmer.k_long = 2.0\nswimmer.k_lat = 1.0\n")


def test_cfd_provenance_needs_speed():
    with pytest.raises(ValidationError, match="cfd_speed"):
        parse_config("swimmer.coefficients = cfd\n")
    cfg = parse_config("swimmer.coefficients = cfd\nswimmer.cfd_speed = 0.01\n")
    assert cfg.params.k_lat / cfg.params.k_long == pytest.approx(0.005922 / 0.0001013)


def test_provenance_and_explicit_conflict():
    with pytest.raises(ValidationError, match="not both"):
        parse_config("swimmer.coefficients = slender\n"
                     "swimmer.k_long = 1.0\nswimmer.k_lat = 2.0\n")


def test_nesting_applied_to_all_gaits():
    cfg = parse_config("gait.nesting = literal\n")
    assert all(g.nesting == "literal" for g in cfg.gaits.values())
    with pytest.raises(ValidationError):
        parse_config("gait.nesting = wild\n")


def test_integer_keys_validated():
    with pytest.raises(ConfigError, match="integer"):
        parse_config("plan.circle.sides = 10.5\n")
    with pytest.raises(ValidationError):
        parse_config("plan.circle.sides = 2\n")
    with pytest.raises(ValidationError, match="from 3 to 1000"):
        parse_config("plan.circle.sides = 1001\n")


@pytest.mark.parametrize("radius", ["inf", "nan", "-1", "0"])
def test_circle_radius_must_be_positive_and_finite(radius):
    with pytest.raises(ValidationError, match="positive and finite"):
        parse_config(f"plan.circle.radius = {radius}\n")


def test_bool_key():
    cfg = parse_config("gait.x.composite = false\n")
    assert cfg.x_composite is False
    with pytest.raises(ConfigError, match="boolean"):
        parse_config("gait.x.composite = maybe\n")


def test_overrides_apply_after_the_file_with_the_same_units():
    text = "plan.line.bearing = 1.0\nplan.line.distance = 0.5\n"
    cfg = parse_config(text, {"plan.line.bearing": "30 deg", "run.out": "elsewhere"})
    assert cfg == parse_config("plan.line.bearing = 30 deg\nplan.line.distance = 0.5\n"
                               "run.out = elsewhere\n")
    assert cfg.line_bearing == pytest.approx(math.radians(30.0))


@pytest.mark.parametrize("key, value, message", [
    ("plan.line.distance", "-0.05", "plan.line.distance must be positive and finite"),
    ("plan.line.distance", "abc", "key 'plan.line.distance' expects a number"),
    ("plan.line.bearing", "inf", "plan.line.bearing must be finite"),
    ("plan.line.bearing", "nan", "plan.line.bearing must be finite"),
    ("plan.circle.sides", "3.5", "key 'plan.circle.sides' expects an integer"),
    ("run.seed", "-1", "run.seed must be >= 0"),
    ("run.out", "", "run.out must not be empty"),
    ("run.out", "a\0b", "key 'run.out' must not hold a NUL byte"),
])
def test_overrides_are_checked_like_the_file(key, value, message):
    for args in ((f"{key} = {value}\n",), ("", {key: value})):
        with pytest.raises(ValidationError, match=message):
            parse_config(*args)


def test_config_echo_names_every_key():
    lines = config_echo(parse_config("", {"run.out": "elsewhere"}))
    assert [ln.partition(" = ")[0] for ln in lines] == list(KEYS)
    assert "run.out = elsewhere" in lines
    assert {"swimmer.coefficients = slender", "swimmer.cfd_speed = unset",
            "gait.x.composite = true", "gait.y.n = 2"} <= set(lines)


def test_config_echo_tells_cfd_from_explicit_coefficients():
    cfd = parse_config("swimmer.coefficients = cfd\nswimmer.cfd_speed = 0.01\n")
    explicit = parse_config(f"swimmer.k_long = {cfd.params.k_long!r}\n"
                            f"swimmer.k_lat = {cfd.params.k_lat!r}\n")
    assert explicit.params == cfd.params
    assert config_echo(explicit) != config_echo(cfd)
    assert {"swimmer.coefficients = cfd", "swimmer.cfd_speed = 0.01",
            f"swimmer.k_long = {cfd.params.k_long!r}"} <= set(config_echo(cfd))
    assert {"swimmer.coefficients = unset", "swimmer.cfd_speed = unset",
            f"swimmer.k_lat = {cfd.params.k_lat!r}"} <= set(config_echo(explicit))


@pytest.mark.parametrize("text", [
    "swimmer.cfd_speed = 0.01\n",
    "swimmer.coefficients = slender\nswimmer.cfd_speed = 0.01\n",
    "swimmer.cfd_speed = 0.01\nswimmer.k_long = 1.0\nswimmer.k_lat = 2.0\n",
])
def test_cfd_speed_needs_cfd_provenance(text):
    with pytest.raises(ValidationError, match="swimmer.cfd_speed is only read with "
                                              "swimmer.coefficients = cfd"):
        parse_config(text)


def _expand_braces(name):
    """`gait.{x,y}.t` -> {"gait.x.t", "gait.y.t"}."""
    m = re.search(r"\{([^}]*)\}", name)
    if m is None:
        return {name}
    return set().union(*(_expand_braces(name[:m.start()] + alt + name[m.end():])
                         for alt in m.group(1).split(",")))


def test_readme_table_names_every_key():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    named = set()
    for row in section.splitlines():
        if row.startswith("| `"):
            for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
                named |= _expand_braces(name)
    assert named == set(KEYS)
