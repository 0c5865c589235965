"""Trajectory CSV and self-contained SVG plot output.

write_file writes every artifact, the CLI's schedules too: UTF-8 bytes with LF
line endings in any locale, identical for identical inputs.  The bytes of a
number are those of `%` applied to it on its own ('%.15g' and '%d' in the CSV,
'%.2f' for polyline points), but a block of 1,024 CSV rows or 2,048 polyline
points is laid out at once by the numpy decimal kernel below; a CSV write
fills one record buffer again for each block.  Each writer refuses at entry
what the kernel cannot spell; CSV values in exponent notation, nan and inf go
through `%` one at a time.
"""

import itertools
import math
import os

import numpy as np

from .errors import ValidationError
from .simulate import COLUMNS, Trajectory

CSV_HEADER = ",".join(COLUMNS)

# CSV rows, and polyline points of two words a coordinate, formatted and written
# at once: a larger block costs fewer numpy calls a row, until its working set
# outgrows the cache.
CHUNK = 1024
SVG_CHUNK = 2048


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

# '%.15g' of a value with 15 digits d and decimal exponent 14 - k, fixed
# notation for k = 0..18: 15 - k digits before the point, or "0." and k - 15
# zeros before d for k > 14.  The kernel's k stops at 19, which log10 gives
# to 0 and to the values below 1e-4: a 0 is spelled "0" (d = 0 spelled with
# k = 14), a value that rounds up to 1e-4 moves to k = 18, and the others
# go to `%`.  _G_SELECT[i, 2 * k + z] is 1000 * the form of group i (digits
# 3i..3i+2 of d), where z is 1 when every digit after the group is 0.
_SPELLED_K = [*range(19), 14]
_POW10 = np.array([float(10 ** k) for k in range(20)])
# _G_LOWER[k]: the least float64 of decimal exponent 14 - k, 0 for k = 19
# (1e-1 to 1e-4 round up, so each is the float64 nearest its power of ten)
_G_LOWER = np.array([float(f"1e{14 - k}") for k in range(19)] + [0.0])
_G_FORMS = np.array([[_FULL, _TRIM], [_P1, _P1_TRIM], [_P2, _P2_TRIM], [_P3, _FULL],
                     [_FULL, _FULL]])
_G_SELECT = 1000 * _G_FORMS[np.clip(15 - np.array(_SPELLED_K) - 3 * np.arange(5)[:, None],
                                    0, 4)].reshape(5, 40)
# The first two words of a record, as one uint64: the separator, the sign and
# the "0." of a value below 1, then its zeros after the point.  Entry
# 2 * k + negative + 40 * c is for column class c: the first column, one
# after it, and the segment, whose -0.0 is spelled "0" as '%d' spells it.
_G_HEAD = _words([w for c, sep in enumerate(("", ",", ","))
                  for k, spelled in enumerate(_SPELLED_K)
                  for s in ("", "" if c == 2 and k == 19 else "-")
                  for w in (sep + s + ("0." if spelled > 14 else ""), "0" * max(spelled - 15, 0))]
                 ).view(np.uint64)
_G_COLUMN = np.array([0] + [40] * 8 + [80])
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


def _nearest(a: np.ndarray, k, out=None) -> np.ndarray:
    """The integers nearest the exact products a * 10**k, ties to even, as
    float64, for a >= 0, k (an array like a, or a number) in 0..19 and
    products below 2**50; `out`, a float64 array like a, is overwritten.

    The rounded product p is within half an ulp (at most 1/8) of the exact
    one, so rint(p) is the answer, except where p is an integer and a half:
    there the sign of the rounding error moves it a quarter up or down, and
    rint of that decides.
    """
    p = np.multiply(a, _POW10.take(k, out=out, mode="clip"), out=out)
    n = np.rint(p)
    p -= n
    np.abs(p, out=p)
    tie = np.flatnonzero(p == 0.5)
    if tie.size:
        at = a.take(tie)
        st = _POW10.take(k.take(tie) if np.ndim(k) else k)
        pt = at * st
        np.put(n, tie, np.rint(pt + 0.25 * np.sign(_product_error(at, st, pt))))
    return n


def _g15_digits(v: np.ndarray):
    """(q, k, rest) of '%.15g' of each value of v: its 15 digits as an int64
    and k, its decimal exponent being 14 - k (k = 19: 0, d = 0); rest holds
    the flat indices of the values left to `%`: those written in exponent
    notation, nan and inf."""
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):   # log10(0); inf - inf
        e = np.log10(a)
        np.floor(e, out=e)
        np.subtract(14.0, e, out=e)
        np.fmax(e, 0.0, out=e)   # also nan
        np.fmin(e, 19.0, out=e)
        k = e.astype(np.intp)
        k += a < _G_LOWER.take(k)   # where log10 rounded up to an integer
        n = _nearest(a, k, out=e)
    np.fmin(n, 2e15, out=n)   # nan, inf and huge values: out of range, but an int64
    q = e.view(np.int64)
    np.copyto(q, n, casting="unsafe")
    n = np.subtract(q, 10 ** 14, out=n.view(np.int64)).view(np.uint64)
    rest = np.flatnonzero((n >= 9 * 10 ** 14) | (k == 19))   # d not of 15 digits, or below 1e-4
    if rest.size:
        kr = k.take(rest)
        carry = (q.take(rest) == 10 ** 15) & (kr > 0)   # rounded up to the next power of ten
        np.put(q, rest[carry], 10 ** 14)
        np.put(k, rest[carry], kr[carry] - 1)
        rest = rest[~carry & (a.take(rest) != 0.0)]
    return q, k, rest


def _csv_words(v: np.ndarray, recs: np.ndarray, heads: np.ndarray, column: np.ndarray):
    """Write the words of each value of v to its record in recs, its first two
    as one uint64 of heads, and return the flat indices of the values left
    to `%`; column is _G_COLUMN in the shape of v.  Its temporaries are
    freed on return, before the block's `%` values and translate run."""
    q, sel, rest = _g15_digits(v)
    sel += sel
    g = np.right_shift(v.view(np.int64), 63)   # -1 where the sign bit is set
    np.subtract(column, g, out=g)
    g += sel
    heads[...] = _G_HEAD.take(g, mode="clip")
    # sel = 2k + z: z is 1 until the first group that is not 0 (sel -= min(z, g))
    sel += 1
    form = np.empty_like(sel)
    for i in range(4, -1, -1):
        if i:
            np.floor_divide(q, 1000, out=g)
            np.multiply(g, 1000, out=form)
            q, g = g, np.subtract(q, form, out=q)
        else:
            g = q
        np.take(_G_SELECT[i], sel, out=form, mode="clip")
        form += g
        recs[..., 2 + i] = _WORDS.take(form, mode="clip")
        if i:
            np.bitwise_and(sel, 1, out=form)
            np.minimum(form, g, out=form)
            sel -= form
    return rest


def _csv_lines(rows: np.ndarray):
    """Yield the CSV lines of `rows`, each ending in LF, CHUNK rows at a
    time; segments are integers below 1e15."""
    size = min(CHUNK, len(rows))
    raw, buf = _records((size, 71))   # a record of 7 words per value, then LF
    buf[:, 70] = _LF   # every other word is rewritten for each block
    heads = np.ndarray((size, 10), np.uint64, raw, strides=(284, 28))
    column = np.tile(_G_COLUMN, (size, 1))
    for lo in range(0, len(rows), size):
        v = rows[lo:lo + size]
        m = len(v)
        recs = buf[:m, :70].reshape(m, 10, 7)
        rest = _csv_words(v, recs, heads[:m], column[:m])
        if rest.size:
            r, c = np.divmod(rest, 10)
            recs.view("S28")[r, c, 0] = [(b"," if j else b"") + b"%.15g" % x
                                         for j, x in zip(c.tolist(), v[r, c].tolist())]
        yield (raw if m == size else raw[:284 * m]).translate(None, b"\0")


_F2_SEP = np.tile(np.int32([1000 * _SPACE_LEAD, 1000 * _COMMA_LEAD]), SVG_CHUNK)   # " x,y"
_F2_SEP[0] = 1000 * _LEAD   # nothing before a block's first point


def _points(v: np.ndarray) -> bytearray:
    """'%.2f,%.2f' of each (x, y) row of v, rows joined by a space; 0 <= v < 1000."""
    top, g = np.divmod(_nearest(v, 2).astype(np.int32), 1000)
    raw, recs = _records(v.shape + (2,))
    recs[..., 0] = _WORDS.take(top + _F2_SEP[:top.size].reshape(top.shape))
    recs[..., 1] = _WORDS.take(g + 1000 * _P1)
    return raw.translate(None, b"\0")


def write_file(path: str, chunks) -> str:
    """Write the byte strings `chunks` to `path`, the one place an artifact is
    opened: a failed write is a ValidationError."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}")
    return path


def write_trajectory_csv(traj: Trajectory, path: str) -> str:
    """One row per sample, 15 significant digits, LF line endings."""
    if len(traj) == 0:
        raise ValidationError("refusing to write an empty trajectory")
    seg = traj.segment
    if not np.all((np.abs(seg) < 1e15) & (seg == np.floor(seg))):   # also nan
        raise ValidationError(f"cannot write {path}: segments must be integers below 1e15")
    return write_file(path, itertools.chain([CSV_HEADER.encode() + b"\n"], _csv_lines(traj.rows)))


def read_trajectory_csv(path: str) -> Trajectory:
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ValueError(f"unexpected CSV header {header!r}")
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    except ValueError as exc:   # the header, bytes that are not UTF-8, a ragged or non-numeric row
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


# the characters XML 1.0 forbids: the C0 controls but tab, LF and CR, and U+FFFE, U+FFFF
_NOT_XML = dict.fromkeys([*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF], "\ufffd")


def _text(s: str) -> str:
    """`s` as SVG text content: &, < and > escaped (xml.sax.saxutils.escape without
    its urllib import), and each surrogate-escaped file-name byte, not UTF-8, and
    each character XML forbids, U+FFFD."""
    s = s.encode("utf-8", "surrogateescape").decode("utf-8", "replace").translate(_NOT_XML)
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def plot_svg(series: list, kind: str = "path", title: str = "", circle: tuple = None,
             xlabel: str = "", ylabel: str = ""):
    """Check one or more polylines for a standalone SVG, and return
    write(path), which renders them there.

    `series` is a list of dicts with keys x, y (sequences) and label.  The
    title, axis labels and series labels are text: &, < and > are escaped,
    and characters XML forbids become U+FFFD.
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

    def chunks():
        yield ("\n".join(out) + "\n").encode()
        for i, (s_def, (x, y)) in enumerate(zip(series, points)):
            color = _COLORS[i % len(_COLORS)]
            if len(x) == 1:
                px, py = to_px(float(x[0]), float(y[0]))
                yield f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{color}"/>\n'.encode()
            else:
                for lo in range(0, len(x), SVG_CHUNK):
                    yield b" " if lo else b'<polyline points="'
                    yield _points(np.column_stack(to_px(x[lo:lo + SVG_CHUNK], y[lo:lo + SVG_CHUNK])))
                yield f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'.encode()
            label = s_def.get("label", "")
            if label:
                lx = _MARGIN + 10
                ly = _MARGIN + 16 * (i + 1)
                yield (f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                       f'stroke="{color}" stroke-width="2"/>\n'
                       f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
                       f'font-size="11">{_text(label)}</text>\n').encode()
        yield b"</svg>\n"
    return lambda path: write_file(path, chunks())


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
