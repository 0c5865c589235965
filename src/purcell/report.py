"""Trajectory CSV and self-contained SVG plot output.

Both writers are deterministic: identical inputs give byte-identical files.
The bytes are those of `%` applied to each value on its own ('%.15g' and
'%d' in the CSV, '%.2f' for polyline points), but a block of 512 CSV rows or
2,048 polyline points is laid out at once by the numpy decimal kernel below.
Each writer refuses at entry what the kernel cannot spell; CSV values in
exponent notation, nan and inf go through `%` one at a time.
"""

import math
import os

import numpy as np

from .errors import ValidationError
from .simulate import COLUMNS, Trajectory

CSV_HEADER = ",".join(COLUMNS)

# CSV rows, and polyline points of two words a coordinate, formatted and written
# at once: at most about 0.5 MB of temporaries, whatever the trajectory's length.
CHUNK = 512
SVG_CHUNK = 4 * CHUNK


# ------------------------------------------------------------ decimal kernel
# The writers lay out a block of values at once with numpy, byte for byte as
# `%` formats them one at a time.  A value's digits are the integer nearest
# its exact binary value times 10**k, ties to even.  Each value gets a
# record of uint32 words of up to four characters, padded with NULs: its
# separator and sign, the "0.000" of a value below 1, and one word per group
# of three digits, looked up in _WORDS in the form its place in the number
# needs.  One bytes.translate per block deletes the NULs.

def _words(texts) -> np.ndarray:
    """One uint32 word per text of at most four characters, NUL-padded."""
    return np.frombuffer(b"".join(t.encode().ljust(4, b"\0") for t in texts), np.uint32)


# Forms of a group of three digits: as is, with trailing or leading zeros
# dropped, and with a point after its first, second or third digit; the
# _TRIM forms drop trailing zeros after the point, and the point when no
# digit follows it; _SPACE_LEAD and _COMMA_LEAD are _LEAD after a separator.
_FULL, _TRIM, _LEAD, _P1, _P1_TRIM, _P2, _P2_TRIM, _P3, _SPACE_LEAD, _COMMA_LEAD = range(10)


def _digit_words() -> np.ndarray:
    """Word `1000 * form + g` spells the group g (0..999) in that form."""
    g = np.arange(1000)
    d = (np.stack((g // 100, g // 10 % 10, g % 10), axis=1) + ord("0")).astype(np.uint8)
    dot = ord(".")
    t = np.zeros((10, 1000, 4), np.uint8)
    t[[_FULL, _TRIM, _LEAD, _P3], :, :3] = d
    t[_P3, :, 3] = dot
    t[[_P1, _P1_TRIM], :, 0] = d[:, 0]
    t[[_P1, _P1_TRIM], :, 1] = dot
    t[[_P1, _P1_TRIM], :, 2:] = d[:, 1:]
    t[[_P2, _P2_TRIM], :, :2] = d[:, :2]
    t[[_P2, _P2_TRIM], :, 2] = dot
    t[[_P2, _P2_TRIM], :, 3] = d[:, 2]
    z1, z2, z3 = g % 10 == 0, g % 100 == 0, g == 0
    t[_TRIM, z1, 2] = 0
    t[_TRIM, z2, 1] = 0
    t[_TRIM, z3, 0] = 0
    t[_P1_TRIM, z1, 3] = 0
    t[_P1_TRIM, z2, 1:3] = 0
    t[_P2_TRIM, z1, 2:] = 0
    t[_LEAD, g < 100, 0] = 0
    t[_LEAD, g < 10, 1] = 0
    t[_LEAD, z3, 2] = 0
    t[[_SPACE_LEAD, _COMMA_LEAD], :, 0] = np.frombuffer(b" ,", np.uint8)[:, None]
    t[[_SPACE_LEAD, _COMMA_LEAD], :, 1:] = t[_LEAD, :, :3]
    return t.view(np.uint32).reshape(-1)


_WORDS = _digit_words()
_POW10 = np.array([float(10 ** k) for k in range(23)])

# '%.15g' of a value with 15 digits d and decimal exponent 14 - k, fixed
# notation for k = 0..18: 15 - k digits before the point, or "0." and k - 15
# zeros before d for k > 14.  _G_SELECT[i, 2 * k + z] is 1000 * the form of
# group i (digits 3i..3i+2 of d), where z is 1 when every digit after the
# group is 0; _G_SIGN[19 * negative + k] leads the record (its first byte
# left for the separator) and _G_ZEROS[k] follows it.
_G_FORMS = np.array([[_FULL, _TRIM], [_P1, _P1_TRIM], [_P2, _P2_TRIM], [_P3, _FULL],
                     [_FULL, _FULL]])
_G_SELECT = 1000 * _G_FORMS[np.clip(15 - np.arange(19)[None, :] - 3 * np.arange(5)[:, None],
                                    0, 4)].reshape(5, 38)
_G_SIGN = _words([f"\0{s}{'0.' if k > 14 else ''}" for s in ("", "-") for k in range(19)])
_G_ZEROS = _words(["0" * max(k - 15, 0) for k in range(19)])
_CSV_SEPS = _words("\0" + "," * 9)
_LF = _words("\n")[0]


def _records(shape: tuple):
    """A bytearray and a uint32 array of `shape` over it, for records that
    translate then reads in place."""
    raw = bytearray(4 * math.prod(shape))
    return raw, np.frombuffer(raw, np.uint32).reshape(shape)


def _product_error(a: np.ndarray, b, p: np.ndarray) -> np.ndarray:
    """e with a * b == p + e exactly, where p is the rounded product a * b
    (Dekker's TwoProduct, 1971, for products that neither overflow nor
    underflow)."""
    def split(x):
        c = x * 134217729.0   # 2**27 + 1
        hi = c - (c - x)
        return hi, x - hi
    ah, al = split(a)
    bh, bl = split(b)
    return al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _nearest(a: np.ndarray, scale) -> np.ndarray:
    """The integers nearest the exact products a * scale, ties to even, as
    float64, for a >= 0, scale (an array like a, or a number) an exact power
    of ten and products below 2**52.

    The rounded product p is a multiple of its ulp and within half an ulp
    of the exact one, so p's fraction decides, except at exactly 0.5, where
    the sign of the rounding error does.
    """
    frac = a * scale
    n = np.floor(frac)
    frac -= n
    tie = np.flatnonzero(frac == 0.5)
    n += frac > 0.5
    if tie.size:
        down = n.take(tie)
        p = down + 0.5   # the rounded product
        err = _product_error(a.take(tie), np.broadcast_to(scale, a.shape).take(tie), p)
        np.put(n, tie, down + ((err > 0) | ((err == 0) & (down % 2 == 1))))
    return n


def _g15_digits(v: np.ndarray):
    """(d, k, rest) of '%.15g' of each value of v: its 15 digits d as an
    int64 and k, its decimal exponent being 14 - k; rest holds the flat
    indices of the values left to `%`: those written in exponent notation,
    nan and inf."""
    a = np.abs(v)
    zero = a == 0.0
    fixed = (a >= 1e-5) & (a < 1e15)
    a = np.where(fixed, a, 1.0)
    k = np.maximum(14.0 - np.floor(np.log10(a)), 0.0).astype(np.intp)
    n = _nearest(a, _POW10.take(k))
    fixed &= (n >= 1e14) & (n <= 1e15)   # else log10 put the exponent one off
    carry = n == 1e15   # rounded up to the next power of ten
    n[carry] = 1e14
    k -= carry
    n[zero] = 0.0
    k[zero] = 14
    return n.astype(np.int64), k, np.flatnonzero((fixed | zero) <= (k.view(np.uintp) > 18))


def _csv_lines(rows: np.ndarray):
    """The CSV lines of `rows`, each ending in LF; segments are integers below 1e15."""
    raw, buf = _records((len(rows), 71))   # a record of 7 words per value, then LF
    recs = buf[:, :70].reshape(len(rows), 10, 7)
    buf[:, 70] = _LF
    q, k, rest = _g15_digits(rows)
    neg = np.signbit(rows).view(np.uint8)
    neg[:, 9] = rows[:, 9] < 0   # '%d' % -0.0 is '0'; else '%d' spells it as '%.15g' does
    recs[..., 0] = _G_SIGN.take(k + 19 * neg, mode="clip") + _CSV_SEPS
    recs[..., 1] = _G_ZEROS.take(k, mode="clip")
    k += k
    z = True
    for i in range(4, -1, -1):
        top = q // 1000 if i else 0
        g = q - 1000 * top
        form = _G_SELECT[i].take(k + z, mode="clip")
        recs[..., 2 + i] = _WORDS.take(form + g, mode="clip")
        z = z & (g == 0)
        q = top
    if rest.size:
        r, c = np.divmod(rest, 10)
        recs.view("S28")[r, c, 0] = [(b"," if j else b"") + b"%.15g" % x
                                     for j, x in zip(c.tolist(), rows[r, c].tolist())]
    return raw.translate(None, b"\0")


_F2_SEP = np.tile(np.int32([1000 * _SPACE_LEAD, 1000 * _COMMA_LEAD]), SVG_CHUNK)   # " x,y"
_F2_SEP[0] = 1000 * _LEAD   # nothing before a block's first point


def _points(v: np.ndarray) -> str:
    """'%.2f,%.2f' of each (x, y) row of v, rows joined by a space; 0 <= v < 1000."""
    top, g = np.divmod(_nearest(v, 100.0).astype(np.int32), 1000)
    raw, recs = _records(v.shape + (2,))
    recs[..., 0] = _WORDS.take(top + _F2_SEP[:top.size].reshape(top.shape))
    recs[..., 1] = _WORDS.take(g + 1000 * _P1)
    return raw.translate(None, b"\0").decode()


def write_trajectory_csv(traj: Trajectory, path: str) -> str:
    """One row per sample, 15 significant digits, LF line endings."""
    if len(traj) == 0:
        raise ValidationError("refusing to write an empty trajectory")
    seg = traj.segment
    if not np.all((np.abs(seg) < 1e15) & (seg == np.floor(seg))):   # also nan
        raise ValidationError(f"cannot write {path}: segments must be integers below 1e15")
    try:
        with open(path, "wb") as fh:
            fh.write(CSV_HEADER.encode() + b"\n")
            for lo in range(0, len(traj), CHUNK):
                fh.write(_csv_lines(traj.rows[lo:lo + CHUNK]))
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
    span = hi - lo
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


def plot_svg(series: list, kind: str = "path", title: str = "", circle: tuple = None,
             xlabel: str = "", ylabel: str = ""):
    """Check one or more polylines for a standalone SVG, and return
    write(path), which renders them there.

    `series` is a list of dicts with keys x, y (sequences) and label.  The
    title, axis labels and series labels are text: &, < and > are escaped.
    kind "path" keeps the aspect ratio square; "time-series" scales the axes
    independently.  `circle` draws an overlay (cx, cy, r) in data units.
    Every refusal but a failed write comes before write, so a caller can
    check all its plots before it writes any file.
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

    # Refuse a box of no or infinite size in pixels (a scale or recentred bound
    # that overflows), or one that rounding a span of a few ulps moved off the
    # data.  to_px is monotone, so every point then lands in the plot area, the
    # domain of _points, and _ticks gets a span it can divide.
    ax_x0, ax_y0 = to_px(x_lo, y_lo)
    ax_x1, ax_y1 = to_px(x_hi, y_hi)
    ends = [to_px(float(x), float(y)) for x, y in zip(xs, ys)]
    if not (ax_x0 < ax_x1 < math.inf and -math.inf < ax_y1 < ax_y0 and all(
            _MARGIN - 1 <= px <= _WIDTH - _MARGIN + 1
            and _MARGIN - 1 <= py <= _HEIGHT - _MARGIN + 1 for px, py in ends)):
        raise ValidationError("cannot plot values whose span is too small or too large to scale")

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
           f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
           f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>']
    if title:
        out.append(f'<text x="{_WIDTH/2:.1f}" y="24" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="15">{_text(title)}</text>')

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

    def write(path: str) -> str:
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
                        for lo in range(0, len(x), SVG_CHUNK):
                            px, py = to_px(x[lo:lo + SVG_CHUNK], y[lo:lo + SVG_CHUNK])
                            if lo:
                                fh.write(" ")
                            fh.write(_points(np.column_stack((px, py))))
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
    return write


def write_plot_svg(path: str, series: list, kind: str = "path", title: str = "",
                   circle: tuple = None, xlabel: str = "", ylabel: str = "") -> str:
    """plot_svg's check and rendering of `series` at `path` in one call."""
    return plot_svg(series, kind, title, circle, xlabel, ylabel)(path)


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
