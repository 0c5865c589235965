import math
import os
import pathlib
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from xml.etree import ElementTree
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from purcell import report
from purcell.cli import main
from purcell.config import default_config, plan_specs
from purcell.errors import ValidationError
from purcell.gaits import ControlSchedule, ControlSegment, parse_schedule
from purcell.model import Configuration, ShapePoint, default_params
from purcell.planner import STRAIGHT, calibrate, compile_maneuvers, plan_line
from purcell.report import (_COLORS, _HEIGHT, _MARGIN, _WIDTH, CHUNK, CSV_HEADER, SVG_CHUNK,
                            _ticks, check_out_dir, read_trajectory_csv, write_plot_svg,
                            write_trajectory_csv)
from purcell.se2 import GroupPose
from purcell.simulate import COLUMNS, IntegratorConfig, Trajectory, simulate

from conftest import trajectory_from_columns

PARAMS = default_params()
ORIGIN = Configuration(ShapePoint(0.0, 0.0), GroupPose(0.0, 0.0, 0.0))

SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 1e-5, 0.1,
           1234567.0, 2.0 ** 53)


# ------------------------------------------------- per-value reference writers
# The writers as they were before rows were formatted a chunk at a time: one
# format() per value and one to_px() per point.  The chunked writers must
# produce the same bytes.

def _fmt(value: float) -> str:
    return format(float(value), ".15g")


def reference_csv(traj, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for i in range(len(traj)):
            row = [_fmt(traj.t[i]), _fmt(traj.alpha1[i]), _fmt(traj.alpha2[i]),
                   _fmt(traj.x[i]), _fmt(traj.y[i]), _fmt(traj.theta[i]),
                   _fmt(traj.xi_x[i]), _fmt(traj.xi_y[i]), _fmt(traj.xi_theta[i]),
                   str(int(traj.segment[i]))]
            fh.write(",".join(row) + "\n")


def reference_svg(path, series, kind="path", title="", circle=None, xlabel="", ylabel=""):
    xs = np.concatenate([np.asarray(s["x"], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s["y"], dtype=float) for s in series])
    if circle is not None:
        cx, cy, r = circle
        xs = np.append(xs, [cx - r, cx + r])
        ys = np.append(ys, [cy - r, cy + r])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad_x = 0.05 * (x_hi - x_lo)
    pad_y = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    plot_w = _WIDTH - 2 * _MARGIN
    plot_h = _HEIGHT - 2 * _MARGIN
    sx = plot_w / (x_hi - x_lo)
    sy = plot_h / (y_hi - y_lo)
    if kind == "path":
        s = min(sx, sy)
        x_mid, y_mid = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
        x_lo, x_hi = x_mid - 0.5 * plot_w / s, x_mid + 0.5 * plot_w / s
        y_lo, y_hi = y_mid - 0.5 * plot_h / s, y_mid + 0.5 * plot_h / s
        sx = sy = s

    def to_px(x, y):
        return (_MARGIN + (x - x_lo) * sx, _HEIGHT - _MARGIN - (y - y_lo) * sy)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
           f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
           f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>']
    if title:
        out.append(f'<text x="{_WIDTH/2:.1f}" y="24" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="15">{escape(title)}</text>')
    ax_x0, ax_y0 = to_px(x_lo, y_lo)
    ax_x1, ax_y1 = to_px(x_hi, y_hi)
    out.append(f'<line x1="{ax_x0:.1f}" y1="{ax_y0:.1f}" x2="{ax_x1:.1f}" '
               f'y2="{ax_y0:.1f}" stroke="black" stroke-width="1"/>')
    out.append(f'<line x1="{ax_x0:.1f}" y1="{ax_y0:.1f}" x2="{ax_x0:.1f}" '
               f'y2="{ax_y1:.1f}" stroke="black" stroke-width="1"/>')
    for tx in _ticks(x_lo, x_hi):
        px, py = to_px(tx, y_lo)
        out.append(f'<line x1="{px:.1f}" y1="{py:.1f}" x2="{px:.1f}" '
                   f'y2="{py + 5:.1f}" stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{px:.1f}" y="{py + 18:.1f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{tx:.3g}</text>')
    for ty in _ticks(y_lo, y_hi):
        px, py = to_px(x_lo, ty)
        out.append(f'<line x1="{px - 5:.1f}" y1="{py:.1f}" x2="{px:.1f}" '
                   f'y2="{py:.1f}" stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{px - 8:.1f}" y="{py + 4:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{ty:.3g}</text>')
    if xlabel:
        out.append(f'<text x="{_WIDTH/2:.1f}" y="{_HEIGHT - 16}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12">{escape(xlabel)}</text>')
    if ylabel:
        out.append(f'<text x="18" y="{_HEIGHT/2:.1f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 18 {_HEIGHT/2:.1f})">{escape(ylabel)}</text>')
    if circle is not None:
        cx_px, cy_px = to_px(circle[0], circle[1])
        out.append(f'<circle cx="{cx_px:.2f}" cy="{cy_px:.2f}" r="{circle[2] * sx:.2f}" '
                   f'fill="none" stroke="#888888" stroke-width="1.5" '
                   f'stroke-dasharray="6 4"/>')
    for i, s_def in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = [to_px(float(x), float(y)) for x, y in zip(s_def["x"], s_def["y"])]
        if len(pts) == 1:
            out.append(f'<circle cx="{pts[0][0]:.2f}" cy="{pts[0][1]:.2f}" r="4" '
                       f'fill="{color}"/>')
        else:
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')
        label = s_def.get("label", "")
        if label:
            lx = _MARGIN + 10
            ly = _MARGIN + 16 * (i + 1)
            out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                       f'stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
                       f'font-size="11">{escape(label)}</text>')
    out.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def _outcome(write, path):
    """The bytes a writer leaves, or the type of exception it raised."""
    try:
        write(str(path))
    except Exception as exc:   # compared by the callers
        return type(exc)
    return path.read_bytes()


def assert_csv_matches(traj, tmp_path):
    new = _outcome(lambda p: write_trajectory_csv(traj, p), tmp_path / "new.csv")
    ref = _outcome(lambda p: reference_csv(traj, p), tmp_path / "ref.csv")
    assert new == ref


def polyline_pixels(svg: bytes) -> np.ndarray:
    """The (x, y) pixels of every polyline point of `svg`."""
    points = b" ".join(re.findall(rb'<polyline points="([^"]*)"', svg))
    return np.array(points.replace(b",", b" ").split(), dtype=float).reshape(-1, 2)


def in_plot_area(pixels: np.ndarray) -> bool:
    """Whether every pixel lies in the plot area, give or take a pixel (nan
    and inf do not)."""
    x, y = pixels.T
    return bool(np.all((x >= _MARGIN - 1) & (x <= _WIDTH - _MARGIN + 1)
                       & (y >= _MARGIN - 1) & (y <= _HEIGHT - _MARGIN + 1)))


def assert_svg_matches(tmp_path, series, **kw):
    """Same bytes as the reference; where the reference fails (on nan, inf,
    or a span that rounds to 0 or overflows) or puts a point off the plot
    area, the writer refuses the data."""
    new = _outcome(lambda p: write_plot_svg(p, series, **kw), tmp_path / "new.svg")
    ref = _outcome(lambda p: reference_svg(p, series, **kw), tmp_path / "ref.svg")
    if isinstance(ref, type) or not in_plot_area(polyline_pixels(ref)):
        assert new is ValidationError
    else:
        assert new == ref


def columns_trajectory(n, rng, values=None):
    """A trajectory of n rows; float columns drawn from `values` when given."""
    if values is None:
        cols = [rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, size=n) for _ in range(9)]
    else:
        cols = [rng.choice(np.asarray(values, dtype=float), size=n) for _ in range(9)]
    return trajectory_from_columns(*cols, segment=rng.integers(0, 10 ** 6, size=n))


def small_trajectory():
    sched = ControlSchedule((ControlSegment(1, 0.7, 0.25),
                             ControlSegment(2, -0.4, 0.25)))
    return simulate(sched, ORIGIN, PARAMS, IntegratorConfig(h=0.05, min_substeps=4))


class TestCsv:
    def test_header_and_row_count(self, tmp_path):
        traj = small_trajectory()
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(traj) + 1
        assert "\r" not in path.read_bytes().decode()

    def test_round_trip_precision(self, tmp_path):
        traj = small_trajectory()
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(path))
        back = read_trajectory_csv(str(path))
        for col in ("t", "alpha1", "alpha2", "x", "y", "theta",
                    "xi_x", "xi_y", "xi_theta"):
            a, b = getattr(traj, col), getattr(back, col)
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))
        assert np.array_equal(traj.segment, back.segment)

    def test_single_sample(self, tmp_path):
        traj = simulate(ControlSchedule(), ORIGIN, PARAMS)
        path = tmp_path / "one.csv"
        write_trajectory_csv(traj, str(path))
        assert len(path.read_text().splitlines()) == 2

    def test_header_names_the_row_columns(self):
        traj = small_trajectory()
        assert CSV_HEADER == ",".join(COLUMNS)
        for i, name in enumerate(COLUMNS):
            col = getattr(traj, name)
            assert np.shares_memory(col, traj.rows) and np.array_equal(col, traj.rows[:, i])

    @pytest.mark.filterwarnings("ignore:loadtxt")   # numpy warns of the file with no rows
    def test_bad_rows_refused(self, tmp_path):
        path = tmp_path / "bad.csv"
        for body in ("",                                          # no rows
                     "0,1,2\n",                                   # too few values
                     "0,1,2,3,4,5,6,7,8,9\n0,1,2,3,4,5,6,7,8\n",  # ragged
                     "0,1,2,3,4,5,6,7,8,nine\n"):                 # not a number
            path.write_text(CSV_HEADER + "\n" + body)
            with pytest.raises(ValidationError, match="bad.csv"):
                read_trajectory_csv(str(path))

    def test_empty_trajectory_refused(self, tmp_path):
        empty = trajectory_from_columns(*[np.array([])] * 10)
        with pytest.raises(ValidationError):
            write_trajectory_csv(empty, str(tmp_path / "x.csv"))

    def test_deterministic_bytes(self, tmp_path):
        traj = small_trajectory()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(traj, str(p1))
        write_trajectory_csv(traj, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestSvg:
    def test_single_point_marker(self, tmp_path):
        path = tmp_path / "point.svg"
        write_plot_svg(str(path), [{"x": [1.0], "y": [2.0], "label": "p"}])
        text = path.read_text()
        assert text.startswith("<svg")
        assert "<circle" in text
        assert text.rstrip().endswith("</svg>")

    def test_two_series_two_polylines(self, tmp_path):
        path = tmp_path / "two.svg"
        write_plot_svg(str(path), [
            {"x": [0, 1, 2], "y": [0, 1, 0], "label": "a"},
            {"x": [0, 1, 2], "y": [1, 0, 1], "label": "b"},
        ], kind="time-series")
        text = path.read_text()
        assert text.count("<polyline") == 2
        colors = {line.split('stroke="')[1].split('"')[0]
                  for line in text.splitlines() if "<polyline" in line}
        assert len(colors) == 2

    def test_circle_overlay(self, tmp_path):
        path = tmp_path / "circ.svg"
        write_plot_svg(str(path),
                       [{"x": [0.2, 0.0, -0.2], "y": [0.0, 0.2, 0.0], "label": "arc"}],
                       circle=(0.0, 0.0, 0.2))
        text = path.read_text()
        assert 'stroke-dasharray' in text

    def test_rejects_empty_series(self, tmp_path):
        with pytest.raises(ValidationError):
            write_plot_svg(str(tmp_path / "x.svg"), [])
        with pytest.raises(ValidationError):
            write_plot_svg(str(tmp_path / "x.svg"), [{"x": [], "y": []}])
        with pytest.raises(ValidationError):
            write_plot_svg(str(tmp_path / "x.svg"),
                           [{"x": [1], "y": [1]}], kind="pie")
        with pytest.raises(ValidationError, match="as many y values"):
            write_plot_svg(str(tmp_path / "x.svg"), [{"x": [1, 2], "y": [1]}])

    def test_deterministic_bytes(self, tmp_path):
        series = [{"x": [0, 1], "y": [1, 0], "label": "s"}]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_plot_svg(str(p1), series)
        write_plot_svg(str(p2), series)
        assert p1.read_bytes() == p2.read_bytes()

    def test_text_is_utf8_with_fffd_for_file_name_bytes_that_are_not(self, tmp_path):
        # Python surrogate-escapes the bytes of a file name that are not UTF-8,
        # and under an ASCII locale those of one that is ("\udcce\udcb1", an alpha)
        texts, svgs = {}, {}
        for i, name in enumerate(("sim_bad\udcff", "sim_\u03b1", "sim_\udcce\udcb1")):
            path = tmp_path / f"{i}.svg"
            write_plot_svg(str(path), [{"x": [0, 1], "y": [1, 0], "label": name}],
                           title=name, xlabel=name, ylabel=name)
            root = ElementTree.parse(path).getroot()   # raises unless well-formed UTF-8
            texts[name] = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
            svgs[name] = path.read_bytes()
        assert texts["sim_bad\udcff"].count("sim_bad\ufffd") == 4   # title, axes, label
        assert texts["sim_\u03b1"].count("sim_\u03b1") == 4
        assert svgs["sim_\u03b1"] == svgs["sim_\udcce\udcb1"]

    def test_text_spells_each_character_xml_forbids_fffd(self, tmp_path):
        forbidden = [*map(chr, range(0x20)), "\ufffe", "\uffff"]
        for c in ("\t", "\n", "\r"):
            forbidden.remove(c)
        assert report._text("".join(forbidden)) == "\ufffd" * len(forbidden)
        kept = "\t\n\r \x7f\x80\u03b1\ufffd\ufffc\U0001f600~"
        assert report._text(kept) == kept
        path = tmp_path / "c.svg"
        name = "sim_" + "".join(forbidden)
        write_plot_svg(str(path), [{"x": [0, 1], "y": [1, 0], "label": name}], title=name)
        texts = [el.text for el in
                 ElementTree.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert texts.count("sim_" + "\ufffd" * len(forbidden)) == 2   # title, label


# Each side of half a CSV block and of the first, second and fourth CSV block
# boundary, and one past the eighth: for the polyline blocks of SVG_CHUNK
# points, each side of the first and second boundary, and one past the fourth.
LENGTHS = (1, *(m * CHUNK // 2 + d for m in (1, 2, 4, 8) for d in (-1, 0, 1)), 8 * CHUNK + 1)


# Finite values with magnitudes from 5e-324 to 1.7e308 (and 0): drawn freely,
# a few ulps apart, or as -m, 0 and m, where rounding moves a box that small.
FINITE = st.floats(-1.7e308, 1.7e308)


def plot_coords(n):
    ulps = st.tuples(FINITE, st.lists(st.integers(-3, 3), min_size=n, max_size=n)).map(
        lambda b: [b[0] + k * np.spacing(b[0]) for k in b[1]])
    signs = st.tuples(st.floats(5e-324, 1.7e308),
                      st.lists(st.integers(-1, 1), min_size=n, max_size=n)).map(
        lambda b: [k * b[0] for k in b[1]])
    return st.lists(FINITE, min_size=n, max_size=n) | ulps | signs


class TestChunkedWritersMatchReference:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_csv_lengths(self, tmp_path, n):
        assert_csv_matches(columns_trajectory(n, np.random.default_rng(n)), tmp_path)

    def test_lengths_straddle_the_svg_blocks(self):
        assert {m * SVG_CHUNK + d for m in (1, 2) for d in (-1, 0, 1)} <= set(LENGTHS)
        assert 4 * SVG_CHUNK + 1 in LENGTHS
        assert {m * CHUNK + d for m in (1, 2, 4) for d in (-1, 0, 1)} <= set(LENGTHS)
        assert 8 * CHUNK + 1 in LENGTHS

    @pytest.mark.parametrize("n", LENGTHS)
    def test_svg_lengths(self, tmp_path, n):
        traj = columns_trajectory(n, np.random.default_rng(n))
        assert_svg_matches(tmp_path, [{"x": traj.x, "y": traj.y, "label": "path"},
                                      {"x": [0.0, 1.0], "y": [1.0, 0.0], "label": "line"}],
                           title="t", xlabel="x", ylabel="y")
        assert_svg_matches(tmp_path, [{"x": traj.t, "y": traj.alpha1, "label": "a1"},
                                      {"x": traj.t, "y": traj.alpha2}], kind="time-series")

    def test_csv_special_values(self, tmp_path):
        rows = len(SPECIAL) ** 2
        traj = columns_trajectory(rows, np.random.default_rng(7), values=SPECIAL)
        for col in (traj.t, traj.x):   # every pair of special values in one row
            col[:] = np.repeat(SPECIAL, len(SPECIAL))
        traj.y[:] = np.tile(SPECIAL, len(SPECIAL))
        assert_csv_matches(traj, tmp_path)
        negated = trajectory_from_columns(*(-traj.rows[:, :9].T), segment=traj.segment)
        assert_csv_matches(negated, tmp_path)

    def test_svg_special_values(self, tmp_path):
        finite = [v for v in SPECIAL if math.isfinite(v)]
        for kind in ("path", "time-series"):
            assert_svg_matches(tmp_path, [{"x": finite, "y": finite[::-1], "label": "s"},
                                          {"x": [-v for v in finite], "y": finite}],
                               kind=kind)
            assert_svg_matches(tmp_path, [{"x": SPECIAL, "y": SPECIAL[::-1]}], kind=kind)
            for bad in ([0.0, math.nan], [0.0, math.inf], [-math.inf, 0.0],
                        [-1e308, 1e308],   # the span overflows
                        [1e300, 1e300]):   # widening by +-1 is lost: a span of 0
                with pytest.raises(ValidationError):
                    write_plot_svg(str(tmp_path / "bad.svg"),
                                   [{"x": [0.0, 1.0], "y": bad}], kind=kind)
        with pytest.raises(ValidationError):   # span / 5 underflows to 0
            write_plot_svg(str(tmp_path / "bad.svg"), [{"x": [0.0, 1.0], "y": [0.0, 5e-324]}],
                           kind="time-series")

    def test_svg_int_lists(self, tmp_path):
        assert_svg_matches(tmp_path, [{"x": [0, 1, 2, 3], "y": [3, 1, 4, 1], "label": "a"},
                                      {"x": [2, 5], "y": [-7, 9], "label": "b"}],
                           kind="time-series")
        assert_svg_matches(tmp_path, [{"x": [0, 1, 2], "y": [1, 0, 1], "label": "s"}])

    def test_svg_single_point_and_circle(self, tmp_path):
        assert_svg_matches(tmp_path, [{"x": [1.0], "y": [2.0], "label": "p"}])
        assert_svg_matches(tmp_path, [{"x": [0.2, 0.0, -0.2], "y": [0.0, 0.2, 0.0],
                                       "label": "arc"}, {"x": [0], "y": [0]}],
                           circle=(0.0, 0.0, 0.2))

    @settings(max_examples=40)
    @given(st.integers(1, 3 * CHUNK // 2).flatmap(
        lambda n: st.lists(arrays(np.float64, n), min_size=9, max_size=9)))
    def test_csv_property(self, columns):
        n = len(columns[0])
        traj = trajectory_from_columns(*columns, segment=np.arange(n) * 7919)
        with tempfile.TemporaryDirectory() as tmp:
            assert_csv_matches(traj, pathlib.Path(tmp))

    @given(st.integers(1, 300).flatmap(lambda n: st.lists(
        arrays(np.float64, n, elements=st.floats(-1e300, 1e300)), min_size=2, max_size=2)),
        st.sampled_from(("path", "time-series")))
    def test_svg_property(self, xy, kind):
        with tempfile.TemporaryDirectory() as tmp:
            assert_svg_matches(pathlib.Path(tmp), [{"x": xy[0], "y": xy[1], "label": "s"}],
                               kind=kind)

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(plot_coords(n), plot_coords(n))),
           st.sampled_from(("path", "time-series")),
           st.none() | st.tuples(FINITE, FINITE, FINITE))
    def test_plot_box_property(self, xy, kind, circle):
        """Finite values of any magnitude: the writer refuses them, or writes
        the reference's bytes with every polyline point in the plot area."""
        with tempfile.TemporaryDirectory() as tmp:
            assert_svg_matches(pathlib.Path(tmp), [{"x": xy[0], "y": xy[1], "label": "s"}],
                               kind=kind, circle=circle)

    def test_plan_line_end_to_end(self, tmp_path):
        cfg = IntegratorConfig(h=2e-3, min_substeps=8)
        calib = calibrate(PARAMS, plan_specs(default_config()), cfg)
        bearing = math.radians(2.0)   # a small turn, then the reversed x gait
        target = (0.02 * math.cos(bearing), 0.02 * math.sin(bearing))
        compiled = compile_maneuvers(plan_line(GroupPose(0.0, 0.0, 0.0), target), calib)
        assert [s.cycles < 0 for s in compiled.spans] == [False, True]
        traj = simulate(compiled.schedule, ORIGIN, PARAMS, cfg)
        traj = traj.decimate(max(1, len(traj) // 20000))   # as plan-line writes it
        assert len(traj) > SVG_CHUNK
        assert_csv_matches(traj, tmp_path)
        assert_svg_matches(tmp_path, [{"x": traj.x, "y": traj.y, "label": "base link path"},
                                      {"x": [0.0, target[0]], "y": [0.0, target[1]],
                                       "label": "planned line"}],
                           kind="path", title="plan_line: base-link path",
                           xlabel="x (m)", ylabel="y (m)")
        assert_svg_matches(tmp_path, [{"x": traj.t, "y": traj.alpha1, "label": "alpha1"},
                                      {"x": traj.t, "y": traj.alpha2, "label": "alpha2"}],
                           kind="time-series", title="plan_line: joint angles",
                           xlabel="t (s)", ylabel="angle (rad)")


@pytest.fixture(scope="module")
def seeded_plan():
    """A plan-line run from a seeded start pose and bearing, decimated to at
    most 2,500 rows; it has values in exponent notation of its own."""
    rng = np.random.default_rng(11)
    cfg = IntegratorConfig(h=2e-3, min_substeps=8)
    calib = calibrate(PARAMS, plan_specs(default_config()), cfg)
    start = GroupPose(*rng.uniform(-0.05, 0.05, size=2), rng.uniform(-math.pi, math.pi))
    bearing = rng.uniform(-math.pi, math.pi)
    target = (start.x + 0.02 * math.cos(bearing), start.y + 0.02 * math.sin(bearing))
    compiled = compile_maneuvers(plan_line(start, target), calib)
    traj = simulate(compiled.schedule, Configuration(ShapePoint(0.0, 0.0), start), PARAMS, cfg)
    return traj.decimate(-(-len(traj) // 2500))


# Block sizes of the CSV writer: None is the trajectory's own length.
BLOCKS = (1, 2, 511, 1023, 1024, 1025, None)
# Values in exponent notation, nan, +-inf and -0.0, and values next to them.
EDGE_VALUES = (1.5e-7, -2.5e-300, math.nan, math.inf, -math.inf, -0.0, 1e16, 5e-324,
               -9.99999999999999e-5, 0.1, 999999999999999.5)


@pytest.mark.parametrize("block", BLOCKS)
def test_csv_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, seeded_plan, block):
    monkeypatch.setattr(report, "CHUNK", block or len(seeded_plan))
    assert_csv_matches(seeded_plan, tmp_path)
    assert b"e-" in (tmp_path / "new.csv").read_bytes()


@pytest.mark.parametrize("block", BLOCKS)
def test_special_values_on_the_first_and_last_row_of_each_block(tmp_path, monkeypatch,
                                                                seeded_plan, block):
    block = block or len(seeded_plan)
    rows = seeded_plan.rows.copy()
    n = len(rows)
    edges = sorted({*range(0, n, block), *range(block - 1, n, block), n - 1})
    for j, r in enumerate(edges):
        rows[r, :9] = np.roll(EDGE_VALUES, j)[:9]
        rows[r, 9] = (-0.0, -3.0, 0.0, 999999999999999.0)[j % 4]
    monkeypatch.setattr(report, "CHUNK", block)
    assert_csv_matches(Trajectory(rows), tmp_path)


# ------------------------------------------------------- the decimal kernel
# The writers format a block of values with numpy (report._csv_lines and
# report._points); these tests hold that against `%`, value by value.

def csv_fields(values, segments):
    """(field, '%.15g' % value) for every value and (field, '%d' % segment)
    for every segment, as the CSV writer's kernel lays them out."""
    values = np.resize(np.asarray(values, dtype=float), (len(segments), 9))
    rows = np.column_stack((values, np.asarray(segments, dtype=float)))
    lines = b"".join(report._csv_lines(rows)).decode().split("\n")
    assert lines.pop() == ""
    assert len(lines) == len(rows)
    pairs = []
    for line, row in zip(lines, rows.tolist()):
        fields = line.split(",")
        assert len(fields) == 10
        pairs += [(f, "%.15g" % v) for f, v in zip(fields, row[:9])]
        pairs.append((fields[9], "%d" % row[9]))
    return pairs


def point_fields(values):
    """(field, b'%.2f' % value) for every value, as the SVG writer's kernel
    lays out (x, y) points as bytes, in its blocks of SVG_CHUNK."""
    v = np.resize(np.asarray(values, dtype=float), (-(-len(values) // 2), 2))
    pairs = []
    for lo in range(0, len(v), SVG_CHUNK):
        block = v[lo:lo + SVG_CHUNK]
        points = report._points(block).split(b" ")
        assert len(points) == len(block)
        for point, xy in zip(points, block.tolist()):
            pairs += [(f, b"%.2f" % c) for f, c in zip(point.split(b","), xy)]
    return pairs


def assert_fields(pairs):
    bad = [(got, want) for got, want in pairs if got != want]
    assert not bad, f"{len(bad)} of {len(pairs)} differ, e.g. {bad[:5]}"


def bit_patterns(rng, n, top):
    """n float64 values: half of uniformly random bits (every exponent, nan
    payloads, subnormals), half of random sign and mantissa bits with binary
    exponents from -30 to `top`."""
    bits = rng.integers(0, 2 ** 64, size=n, dtype=np.uint64)
    exponent = rng.integers(1023 - 30, 1023 + top + 1, size=n - n // 2).astype(np.uint64)
    bits[n // 2:] = (bits[n // 2:] & np.uint64(0x800FFFFFFFFFFFFF)) | (exponent << np.uint64(52))
    return bits.view(np.float64)


EXTREMES = (5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,   # subnormal edges
            1.7976931348623157e308)
POWERS_OF_TEN = [x for k in range(-6, 17) for p in (float(f"1e{k}"),)
                 for x in (np.nextafter(p, 0.0), p, np.nextafter(p, math.inf))]
# Just below a power of ten: 15 nines stay in place, a 5 after 14 rounds up.
NINES = [float(f"{m}e{k}") for k in range(-6, 16)
         for m in ("9.99999999999999", "9.9999999999999949", "9.999999999999995")]
# Exact binary values halfway between two 15-digit decimals: ties go to even.
DYADIC_TIES = {1.000030517578125: "1.00003051757812", 1.000091552734375: "1.00009155273438"}


class TestDecimalKernel:
    def test_g15_bit_patterns(self):
        rng = np.random.default_rng(15)
        values = bit_patterns(rng, 400_000, top=60)
        values = np.concatenate((values, [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0],
                                 EXTREMES, np.negative(EXTREMES),
                                 rng.integers(1, 2 ** 52, size=1000).view(np.float64)))
        assert np.isnan(values).any() and (values == 0).any()
        assert ((np.abs(values) > 0) & (np.abs(values) < 2.2250738585072014e-308)).sum() > 1000
        segments = rng.integers(-10 ** 15 + 1, 10 ** 15, size=-(-len(values) // 9))
        assert_fields(csv_fields(values, segments))

    def test_g15_ties_and_edges(self):
        for value, text in DYADIC_TIES.items():
            assert "%.15g" % value == text
        edges = [*DYADIC_TIES, 2.675, 0.125, *POWERS_OF_TEN, *NINES,
                 9.999999999999995e-5, 999999999999999.5, 1e15]
        values = edges + [-v for v in edges]
        rng = np.random.default_rng(16)   # dyadic values, many of them ties
        dyadic = rng.integers(0, 2 ** 40, size=20_000) / 2.0 ** rng.integers(0, 30, size=20_000)
        segments = [-1.0, -0.0, 999999999999999.0, -999999999999999.0, 0.0, 1.0]
        assert_fields(csv_fields(values + dyadic.tolist(), segments * 4000))

    def test_lower_bounds_are_the_least_doubles_of_each_exponent(self):
        for k, lower in enumerate(report._G_LOWER[:19]):
            power = Fraction(10) ** (14 - k)
            assert Fraction(float(np.nextafter(lower, 0.0))) < power <= Fraction(float(lower))

    def test_segments_the_kernel_cannot_spell(self, tmp_path):
        # write_trajectory_csv refuses them before it opens the file
        path = tmp_path / "odd.csv"
        for odd in (2.5, -0.5, 1e15, -1e15, 2.0 ** 60, math.nan, math.inf):
            traj = trajectory_from_columns(*[np.full(3, 0.1)] * 9,
                                           segment=np.array([3.0, odd, -0.0]))
            with pytest.raises(ValidationError, match="segments must be integers below 1e15"):
                write_trajectory_csv(traj, str(path))
            assert not path.exists()

    def test_f2_bit_patterns(self):
        # the domain of _points: write_plot_svg refuses data it would map elsewhere
        rng = np.random.default_rng(17)
        values = np.abs(bit_patterns(rng, 400_000, top=9))
        values = values[values < 1000.0]
        values = np.concatenate((values, [0.0, 5e-324, 999.995, np.nextafter(1000.0, 0.0),
                                          0.001, 0.005, 2.675, 64.0, 576.0]))
        assert len(values) > 200_000
        assert_fields(point_fields(values))
        rng = np.random.default_rng(18)   # dyadic values, many of them ties
        bits = rng.integers(0, 30, size=20_000)
        dyadic = rng.integers(0, 1000 * 2 ** bits) / 2.0 ** bits
        assert_fields(point_fields(dyadic))

    def test_table_words_spell_their_strings(self):
        def text(word):
            return np.asarray(word).tobytes().replace(b"\0", b"").decode()

        words = report._WORDS.reshape(10, 1000)
        for g in range(1000):
            s = f"{g:03d}"
            p1, p2 = f"{s[0]}.{s[1:]}", f"{s[:2]}.{s[2]}"
            spelled = {report._FULL: s, report._TRIM: s.rstrip("0"), report._LEAD: s.lstrip("0"),
                       report._P1: p1, report._P1_TRIM: p1.rstrip("0").rstrip("."),
                       report._P2: p2, report._P2_TRIM: p2.rstrip("0").rstrip("."),
                       report._P3: s + ".", report._SPACE_LEAD: " " + s.lstrip("0"),
                       report._COMMA_LEAD: "," + s.lstrip("0")}
            assert len(spelled) == 10
            for form, want in spelled.items():
                assert text(words[form, g]) == want
        for c, sep in enumerate(("", ",", ",")):   # first column, one after it, segment
            for k in range(20):   # k = 19: 0
                for negative in (0, 1):
                    sign = "-" * negative if c < 2 or k < 19 else ""   # '%d' % -0.0 is '0'
                    prefix = "0." + "0" * (k - 15) if 14 < k < 19 else ""
                    assert text(report._G_HEAD[40 * c + 2 * k + negative]) == sep + sign + prefix
        assert text(report._LF) == "\n"


@pytest.mark.parametrize("line, samples", [("1 0.5 1e-9", 17), ("1 0.5 0", 1)])
def test_simulate_artifacts_match_reference(tmp_path, capsys, line, samples):
    """`simulate` writes the bytes of the per-value writers; a 1e-9 s segment
    leaves rows with values in exponent notation, a 0 s one a single sample."""
    sched = tmp_path / "edge.txt"
    sched.write_text(line + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--schedule", str(sched), "--out", str(out), "--quiet"]) == 0
    cfg = default_config()
    traj = simulate(parse_schedule(line + "\n"), STRAIGHT, cfg.params, cfg.integrator)
    assert len(traj) == samples
    ref = tmp_path / "ref"
    ref.mkdir()
    reference_csv(traj, str(ref / "sim_edge.csv"))
    reference_svg(str(ref / "sim_edge_path.svg"),
                  [{"x": traj.x, "y": traj.y, "label": "base link path"}], kind="path",
                  title="sim_edge: base-link path", xlabel="x (m)", ylabel="y (m)")
    reference_svg(str(ref / "sim_edge_shape.svg"),
                  [{"x": traj.t, "y": traj.alpha1, "label": "alpha1"},
                   {"x": traj.t, "y": traj.alpha2, "label": "alpha2"}], kind="time-series",
                  title="sim_edge: joint angles", xlabel="t (s)", ylabel="angle (rad)")
    for name in ("sim_edge.csv", "sim_edge_path.svg", "sim_edge_shape.svg"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    csv = (out / "sim_edge.csv").read_text()
    if samples > 1:
        assert "e-" in csv   # rows hold exponent-notation values
    else:
        assert "<circle" in (out / "sim_edge_shape.svg").read_text()


def test_ticks_end_on_a_span_of_one_ulp():
    """Ticks of a span below half an ulp per step once looped forever; the
    check runs in a child capped at 1 GB so that a regression fails fast."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "from purcell.report import _ticks; print(len(_ticks(1.0, 1.0 + 2.0 ** -52)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
                          preexec_fn=cap_memory, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


def _peak_write_bytes(write):
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWriteMemory:
    """A write holds one chunk of formatted rows, whatever the trajectory's length."""

    def test_csv_peak_independent_of_length(self, tmp_path):
        rng = np.random.default_rng(3)
        short, long_ = (columns_trajectory(n, rng) for n in (2 * CHUNK, 8 * CHUNK))
        path = str(tmp_path / "t.csv")
        peaks = [_peak_write_bytes(lambda: write_trajectory_csv(t, path)) for t in (short, long_)]
        assert peaks[1] < 1.25 * peaks[0]

    # 1.1 times the tracemalloc peaks of the writers as they were before the
    # decimal kernel (`%` on chunks of 2,048 rows), on these inputs of 4,096 rows
    CSV_CEILING = int(1.1 * 1_223_511)
    SVG_CEILING = int(1.1 * 259_711)

    def test_csv_peak_ceiling(self, tmp_path):
        traj = columns_trajectory(4096, np.random.default_rng(3))
        path = str(tmp_path / "t.csv")
        assert _peak_write_bytes(lambda: write_trajectory_csv(traj, path)) < self.CSV_CEILING

    def test_svg_peak_ceiling(self, tmp_path):
        rng = np.random.default_rng(4)
        series = [{"x": rng.normal(size=4096), "y": rng.normal(size=4096), "label": "s"}]
        path = str(tmp_path / "t.svg")
        assert _peak_write_bytes(lambda: write_plot_svg(path, series)) < self.SVG_CEILING

    def test_svg_peak_independent_of_length(self, tmp_path):
        rng = np.random.default_rng(4)
        path = str(tmp_path / "t.svg")
        peaks = []
        for n in (2 * SVG_CHUNK, 8 * SVG_CHUNK):
            series = [{"x": rng.normal(size=n), "y": rng.normal(size=n), "label": "s"}]
            peaks.append(_peak_write_bytes(lambda: write_plot_svg(path, series)))
        assert peaks[1] < 1.25 * peaks[0]


def test_out_dir_check_refuses_files_and_creates_nothing(tmp_path):
    (tmp_path / "a_file").write_text("")
    for usable in ("new/deeper", "", "."):
        check_out_dir(str(tmp_path / usable))
    for refused in ("a_file", "a_file/sub", "a_file/sub/deeper"):
        with pytest.raises(ValidationError, match="is not a directory"):
            check_out_dir(str(tmp_path / refused))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file"]


def test_out_dir_check_refuses_a_directory_where_a_file_goes(tmp_path):
    (tmp_path / "out" / "taken.csv").mkdir(parents=True)
    out = str(tmp_path / "out")
    check_out_dir(out, ["free.csv"])
    check_out_dir(str(tmp_path / "new"), ["taken.csv"])
    with pytest.raises(ValidationError, match="taken.csv: it is a directory"):
        check_out_dir(out, ["free.csv", "taken.csv"])
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["out", "taken.csv"]
