import math
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from purcell.config import basis_specs, default_config
from purcell.errors import ValidationError
from purcell.gaits import ControlSchedule, ControlSegment
from purcell.model import Configuration, ShapePoint, default_params
from purcell.planner import calibrate, compile_maneuvers, plan_line
from purcell.report import (_COLORS, _HEIGHT, _MARGIN, _WIDTH, CHUNK, CSV_HEADER, _ticks,
                            check_out_dir, read_trajectory_csv, write_plot_svg,
                            write_trajectory_csv)
from purcell.se2 import GroupPose
from purcell.simulate import COLUMNS, IntegratorConfig, simulate

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


def assert_svg_matches(tmp_path, series, **kw):
    """Same bytes as the reference; where the reference fails (on nan, inf,
    or a span that rounds to 0 or overflows) the writer refuses the data."""
    new = _outcome(lambda p: write_plot_svg(p, series, **kw), tmp_path / "new.svg")
    ref = _outcome(lambda p: reference_svg(p, series, **kw), tmp_path / "ref.svg")
    assert new is ValidationError if isinstance(ref, type) else new == ref


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


# Each side of the first chunk boundary, and of the second and fourth.
LENGTHS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1,
           4 * CHUNK + 1)


class TestChunkedWritersMatchReference:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_csv_lengths(self, tmp_path, n):
        assert_csv_matches(columns_trajectory(n, np.random.default_rng(n)), tmp_path)

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

    def test_plan_line_end_to_end(self, tmp_path):
        cfg = IntegratorConfig(h=2e-3, min_substeps=8)
        calib = calibrate(PARAMS, basis_specs(default_config()), cfg)
        bearing = math.radians(2.0)   # a small turn, then the reversed x gait
        target = (0.02 * math.cos(bearing), 0.02 * math.sin(bearing))
        compiled = compile_maneuvers(plan_line(GroupPose(0.0, 0.0, 0.0), target), calib)
        assert [s.cycles < 0 for s in compiled.spans] == [False, True]
        traj = simulate(compiled.schedule, ORIGIN, PARAMS, cfg)
        traj = traj.decimate(max(1, len(traj) // 20000))   # as plan-line writes it
        assert len(traj) > CHUNK
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

    def test_svg_peak_independent_of_length(self, tmp_path):
        rng = np.random.default_rng(4)
        path = str(tmp_path / "t.svg")
        peaks = []
        for n in (2 * CHUNK, 8 * CHUNK):
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
