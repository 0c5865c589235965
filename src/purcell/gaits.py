"""Piecewise-constant control schedules that realize bracket directions.

A schedule is an ordered list of segments (channel, amplitude, duration);
the first list element runs first.  The basic building block is the square
gait [+X, +Y, -X, -Y] whose net motion per pass is legs^2 * [X, Y] plus a
third-order remainder.  `synthesize` expands a weighted combination

    alpha*[g1,g2] + beta*[g1,[g1,g2]] + gamma*[g2,[g1,g2]]

into such primitives for a horizon t and approximation index n.

Both expansion layouts build the same blocks: a conjugation block per
nonzero beta or gamma and one alpha square with legs sqrt(t/n).  "literal"
runs each block n times in turn and then the alpha square once, with middle
flows of sqrt(t)/n, inner square legs of t^(1/4)/n, and the closing square
written as the sign-mirror of the opening one.  "derived" runs n rounds of
all three terms, with middles sqrt(t/n), inner legs t^(1/4)/n^(3/4), and
the closing square the exact inverse of the opening one, which keeps every
block a true group commutator and bounds the first-bracket drift.  The two
coincide at n = 1 except for the orientation of that closing square;
"derived" is the default.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ValidationError

MAX_N = 100   # approximation index bound: about 16 n^2 segments per schedule


class ControlSegment(NamedTuple):
    channel: int       # 1 or 2
    amplitude: float   # joint rate (rad/s)
    duration: float    # seconds


@dataclass(frozen=True)
class GaitSpec:
    alpha: float
    beta: float
    gamma: float
    t: float = 1.0
    n: int = 1
    nesting: str = "derived"


@dataclass(frozen=True)
class ControlSchedule:
    segments: tuple = ()
    # a dict in which simulate keeps the body-frame rows it integrates and
    # from which it copies them; it changes no output, so equality and
    # hashing ignore it
    rows: dict = field(default=None, compare=False, repr=False)

    def __len__(self):
        return len(self.segments)

    @property
    def total_duration(self) -> float:
        return sum(seg.duration for seg in self.segments)

    def channel_integral(self, channel: int) -> float:
        """Signed time-integral of one channel's rate (zero for closed loops)."""
        return sum(s.amplitude * s.duration for s in self.segments if s.channel == channel)


def _segment(channel: int, amplitude: float, duration: float) -> ControlSegment:
    if not 0 <= duration < math.inf:
        raise ValidationError(f"segment duration must be nonnegative and finite, got {duration}")
    if not math.isfinite(amplitude):
        raise ValidationError(f"segment amplitude must be finite, got {amplitude}")
    return ControlSegment(channel, amplitude, duration)


def _square(ch_a: int, sign_a: float, ch_b: int, sign_b: float,
            legs: float, scale_a: float = 1.0) -> list:
    """Square gait [+X, +Y, -X, -Y] with X possibly amplitude-scaled."""
    return [
        _segment(ch_a, sign_a * scale_a, legs),
        _segment(ch_b, sign_b, legs),
        _segment(ch_a, -sign_a * scale_a, legs),
        _segment(ch_b, -sign_b, legs),
    ]


_PLUS_SQUARE = (1, 1.0, 2, 1.0)        # runs g1, g2, -g1, -g2: approximates +[g1,g2]
_MIRROR_SQUARE = (1, -1.0, 2, -1.0)    # sign-mirror of the above (cyclic variant)
_INVERSE_SQUARE = (2, 1.0, 1, 1.0)     # exact inverse of the plus square


def commutator_schedule(tau: float, scale_a: float = 1.0, variant: int = 0) -> ControlSchedule:
    """One square gait g1, g2, -g1, -g2 approximating tau * [g1, g2].

    Each leg lasts sqrt(tau); `scale_a` multiplies the g1 rates; `variant`
    cyclically rotates the four legs (the four equivalent gait phasings).
    """
    if not tau > 0:
        raise ValidationError("tau must be positive")
    if variant not in (0, 1, 2, 3):
        raise ValidationError("variant must be 0..3")
    segs = _square(*_PLUS_SQUARE, math.sqrt(tau), scale_a)
    return ControlSchedule(tuple(segs[variant:] + segs[:variant]))


def _conjugation_block(mid_channel: int, coeff: float, mid_duration: float,
                       inner_legs: float, n: int, closing: tuple) -> list:
    """Middle flow, n inner squares, inverse middle, n closing squares."""
    segs = [_segment(mid_channel, coeff, mid_duration)]
    for _ in range(n):
        segs += _square(*_PLUS_SQUARE, legs=inner_legs)
    segs.append(_segment(mid_channel, -coeff, mid_duration))
    for _ in range(n):
        segs += _square(*closing, legs=inner_legs)
    return segs


def synthesize(spec: GaitSpec) -> ControlSchedule:
    """Expand a GaitSpec into a flat schedule of primitive segments.

    Zero-coefficient blocks are elided (their flows are identities).
    """
    if not isinstance(spec.n, int) or not 1 <= spec.n <= MAX_N:
        raise ValidationError(f"n must be an integer from 1 to {MAX_N}, got {spec.n}")
    if not spec.t > 0:
        raise ValidationError(f"t must be positive, got {spec.t}")
    if spec.nesting not in ("derived", "literal"):
        raise ValidationError(f"nesting must be 'derived' or 'literal', got {spec.nesting!r}")
    for name in ("alpha", "beta", "gamma"):
        if not math.isfinite(getattr(spec, name)):
            raise ValidationError(f"{name} must be finite")

    # composition notation reads rightmost first, so the gamma term runs
    # before beta, and the alpha square last
    t, n = spec.t, spec.n
    legs = math.sqrt(t / n)
    if spec.nesting == "literal":
        mid, inner, closing = math.sqrt(t) / n, t ** 0.25 / n, _MIRROR_SQUARE
    else:
        mid, inner, closing = legs, math.sqrt(legs / n), _INVERSE_SQUARE
    blocks = [_conjugation_block(channel, coeff, mid, inner, n, closing)
              for channel, coeff in ((2, spec.gamma), (1, spec.beta)) if coeff != 0.0]
    square = _square(*_PLUS_SQUARE, legs, scale_a=spec.alpha) if spec.alpha != 0.0 else []
    if spec.nesting == "literal":   # each block n times in turn, then one alpha square
        segs = [seg for block in blocks for _ in range(n) for seg in block] + square
    else:                           # n rounds of every block and the alpha square
        segs = (sum(blocks, []) + square) * n
    return ControlSchedule(tuple(segs))


def reverse_schedule(schedule: ControlSchedule) -> ControlSchedule:
    """Time reversal: reversed order with negated amplitudes (exact inverse flow)."""
    segs = tuple(ControlSegment(s.channel, -s.amplitude, s.duration)
                 for s in reversed(schedule.segments))
    return ControlSchedule(segs)


def shape_excursion(schedule: ControlSchedule) -> float:
    """Largest |alpha_i| reached from (0, 0); shapes are piecewise linear in time."""
    a = [0.0, 0.0]
    worst = 0.0
    for seg in schedule.segments:
        a[seg.channel - 1] += seg.amplitude * seg.duration
        worst = max(worst, abs(a[0]), abs(a[1]))
    return worst


def format_schedule(schedule: ControlSchedule, comment: str = "") -> str:
    """Plain-text form: one `channel amplitude duration` line per segment."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    for seg in schedule.segments:
        lines.append(f"{seg.channel} {seg.amplitude!r} {seg.duration!r}")
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> ControlSchedule:
    segs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValidationError(
                f"schedule line {lineno}: expected `channel amplitude duration`, got {raw!r}")
        try:
            channel = int(parts[0])
            amplitude = float(parts[1])
            duration = float(parts[2])
        except ValueError:
            raise ValidationError(f"schedule line {lineno}: malformed number in {raw!r}")
        if channel not in (1, 2):
            raise ValidationError(f"schedule line {lineno}: channel must be 1 or 2")
        try:
            seg = _segment(channel, amplitude, duration)
        except ValidationError as exc:
            raise ValidationError(f"schedule line {lineno}: {exc}")
        if amplitude != 0.0:   # a line of no motion is checked, then dropped
            segs.append(seg)
    return ControlSchedule(tuple(segs))
