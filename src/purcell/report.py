"""Trajectory CSV and self-contained SVG plot output.

Both writers are deterministic: identical inputs give byte-identical files.
"""

import math
import os

import numpy as np

from .errors import ValidationError
from .simulate import COLUMNS, Trajectory

CSV_HEADER = ",".join(COLUMNS)

# Rows formatted and written at once: about 1.1 MB of temporaries, whatever
# the length of the trajectory.
CHUNK = 2048

_CSV_ROW = ",".join(["%.15g"] * 9 + ["%d"]) + "\n"


def _format_rows(template: str, rows: np.ndarray, sep: str = "") -> str:
    """`template` filled from each row of the 2-D array `rows`, rows joined
    by `sep`.

    `%` uses the same float formatting as `format`, so a row reads exactly
    as if each value were formatted on its own.
    """
    return sep.join([template] * len(rows)) % tuple(rows.ravel().tolist())


def write_trajectory_csv(traj: Trajectory, path: str) -> str:
    """One row per sample, 15 significant digits, LF line endings."""
    if len(traj) == 0:
        raise ValidationError("refusing to write an empty trajectory")
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for lo in range(0, len(traj), CHUNK):
                fh.write(_format_rows(_CSV_ROW, traj.rows[lo:lo + CHUNK]))
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}")
    return path


def read_trajectory_csv(path: str) -> Trajectory:
    try:
        with open(path, "r") as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ValidationError(f"{path}: unexpected CSV header {header!r}")
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    except ValidationError:
        raise
    except ValueError as exc:   # a ragged or non-numeric row
        raise ValidationError(f"{path}: {exc}")
    if rows.shape[1] != len(COLUMNS):   # also a file with no rows
        raise ValidationError(f"{path}: expected rows of {len(COLUMNS)} values")
    return Trajectory(rows)


_COLORS = ("#1f6fb2", "#c44e52", "#2a9d5c", "#8a63b8", "#c48a18")

_WIDTH, _HEIGHT, _MARGIN = 640, 480, 64


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    if not 0.0 < span / count < math.inf:   # nan or inf bounds, or a span that underflows
        raise ValidationError(f"cannot place axis ticks on [{lo!r}, {hi!r}]")
    step = 10.0 ** math.floor(math.log10(span / count))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= count:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else v)
        if v + step == v:   # a span of a few ulps: v would never move again
            break
        v += step
    return ticks


def _text(s: str) -> str:
    """`s` as SVG text content: &, < and > escaped (xml.sax.saxutils.escape,
    without the import of urllib that comes with it)."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_plot_svg(path: str, series: list, kind: str = "path",
                   title: str = "", circle: tuple = None,
                   xlabel: str = "", ylabel: str = "") -> str:
    """Render one or more polylines as a standalone SVG.

    `series` is a list of dicts with keys x, y (sequences) and label.  The
    title, axis labels and series labels are text: &, < and > are escaped.
    kind "path" keeps the aspect ratio square; "time-series" scales the axes
    independently.  `circle` draws an overlay (cx, cy, r) in data units.
    """
    if not series or any(len(s["x"]) == 0 for s in series):
        raise ValidationError("cannot plot empty series")
    if any(len(s["x"]) != len(s["y"]) for s in series):
        raise ValidationError("each series needs as many y values as x values")
    if kind not in ("path", "time-series"):
        raise ValidationError(f"unknown plot kind {kind!r}")

    points = [(np.asarray(s["x"], dtype=float), np.asarray(s["y"], dtype=float))
              for s in series]
    # extremes of every series (and the circle), not of one concatenated copy
    xs = [v for x, _ in points for v in (x.min(), x.max())]
    ys = [v for _, y in points for v in (y.min(), y.max())]
    if circle is not None:
        cx, cy, r = circle
        xs += [cx - r, cx + r]
        ys += [cy - r, cy + r]
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad_x = 0.05 * (x_hi - x_lo)
    pad_y = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    if not (0.0 < x_hi - x_lo < math.inf and 0.0 < y_hi - y_lo < math.inf):
        raise ValidationError("cannot plot nan or infinite values, or values whose "
                              "span rounds to 0 or overflows")

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
                   f'font-family="sans-serif" font-size="15">{_text(title)}</text>')

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
                   f'font-family="sans-serif" font-size="12">{_text(xlabel)}</text>')
    if ylabel:
        out.append(f'<text x="18" y="{_HEIGHT/2:.1f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 18 {_HEIGHT/2:.1f})">{_text(ylabel)}</text>')

    if circle is not None:
        cx_px, cy_px = to_px(circle[0], circle[1])
        out.append(f'<circle cx="{cx_px:.2f}" cy="{cy_px:.2f}" r="{circle[2] * sx:.2f}" '
                   f'fill="none" stroke="#888888" stroke-width="1.5" '
                   f'stroke-dasharray="6 4"/>')

    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(out) + "\n")
            for i, (s_def, (x, y)) in enumerate(zip(series, points)):
                color = _COLORS[i % len(_COLORS)]
                if len(x) == 1:
                    px, py = to_px(float(x[0]), float(y[0]))
                    fh.write(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" '
                             f'fill="{color}"/>\n')
                else:
                    fh.write('<polyline points="')
                    for lo in range(0, len(x), CHUNK):
                        # numpy rounds each operation of to_px as Python floats do,
                        # but warns where they were silent (overflow to inf, nan)
                        with np.errstate(all="ignore"):
                            px, py = to_px(x[lo:lo + CHUNK], y[lo:lo + CHUNK])
                        if lo:
                            fh.write(" ")
                        fh.write(_format_rows("%.2f,%.2f", np.column_stack((px, py)), " "))
                    fh.write(f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
                label = s_def.get("label", "")
                if label:
                    lx = _MARGIN + 10
                    ly = _MARGIN + 16 * (i + 1)
                    fh.write(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                             f'stroke="{color}" stroke-width="2"/>\n'
                             f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
                             f'font-size="11">{_text(label)}</text>\n')
            fh.write("</svg>\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}")
    return path


def ensure_out_dir(out_dir: str) -> str:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {out_dir}: {exc}")
    return out_dir


def check_out_dir(out_dir: str, names=()) -> None:
    """Refuse an output directory that is an existing non-directory or lies
    below one, or that holds a directory where one of the files `names` goes,
    creating nothing: commands call this before they calibrate or integrate,
    and ensure_out_dir when they write."""
    path = os.path.abspath(out_dir)
    while not os.path.exists(path) and os.path.dirname(path) != path:
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ValidationError(f"cannot create output directory {out_dir}: "
                              f"{path} is not a directory")
    for name in names:
        target = os.path.join(out_dir, name)
        if os.path.isdir(target):
            raise ValidationError(f"cannot write {target}: it is a directory")
