"""Integration of control schedules into swimmer trajectories.

Joint angles evolve exactly linearly within a segment (their rates are the
controls); the pose is advanced by classical RK4 on (x, y, theta) using the
world rate of the body velocity at each stage.  A sample is recorded at every
substep boundary, as one row of a `Trajectory`: time, shape, pose, body
velocity and segment index, in the order of `COLUMNS` and of the CSV.

The dynamics are left-invariant on SE(2) (Kelly & Murray 1995): a segment's
motion depends only on its start shape, rates and duration, and its start
pose only moves that motion.  So each distinct segment is integrated once,
in its own body frame from the identity pose, and every occurrence of it
copies those body-frame rows; one numpy pass then composes each row with the
pose its segment starts from.  A plan, whole cycles of a few gait blocks,
costs its distinct segments plus that copy and composition: criterion 08's
10-gon makes 10,428 connection evaluations.  The time, shape, body-velocity
and segment columns are those of the step-by-step loop bit for bit; x, y and
theta differ from it by rounding, within 1e-9 (tests/test_simulate.py keeps
that loop as the reference).

Rows that outlive a call live in a plain dict that a caller hands on with
its schedules (`ControlSchedule.rows`): the planner's calibration creates
one and every plan compiled from it carries it.  `simulate` alone reads and
writes it, and files what it integrates under the call's swimmer parameters
and integrator config, so rows of another swimmer or config are kept apart
and never read in their place.  Pass 1 looks each segment up there, and
integrates a missing one and keeps a copy of its body-frame rows, start
velocity and end state.  So the calibration's runs fill it with the basis
gaits, the first run of a plan that goes backwards adds a gait's reversal,
and a schedule run from another start shape adds its own distinct segments.
A copied row is the row that integrating would write, bit for bit, so no
output depends on what is kept.
"""

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from .gaits import ControlSchedule
from .model import Configuration, SwimmerParams, validate_params
from .model import body_velocity_components
from .se2 import TWO_PI, GroupPose, compose, inverse, torus_distance, wrap_angle

_PI = math.pi
# Integration steps per schedule, checked before anything is allocated: about
# 2 GB of trajectory at 80 bytes a sample.  The default plan-circle takes 11.5 M.
MAX_STEPS = 25_000_000
# Rows moved to the world frame per numpy pass: about 0.5 MB of temporaries.
_CHUNK = 4096


class IntegratorConfig(NamedTuple):
    h: float = 1e-3           # max substep (s)
    min_substeps: int = 16    # per segment


class NetDisplacement(NamedTuple):
    delta: GroupPose       # final pose in the initial body frame
    shape_closure: float   # torus distance between first and last shape


# The values of a trajectory row, in CSV order.
COLUMNS = ("t", "alpha1", "alpha2", "x", "y", "theta", "xi_x", "xi_y", "xi_theta", "segment")


@dataclass
class Trajectory:
    """Row k of `rows` is sample k, its values in `COLUMNS` order.  Each
    column name reads a view of its column, so a write through it writes the
    rows.  The segment index (-1 when no segment ran) is an exact float."""
    rows: np.ndarray   # (samples, 10)

    t, alpha1, alpha2, x, y, theta, xi_x, xi_y, xi_theta, segment = (
        property(lambda self, i=i: self.rows[:, i]) for i in range(len(COLUMNS)))

    def __len__(self):
        return len(self.rows)

    @property
    def initial_pose(self) -> GroupPose:
        return GroupPose(float(self.x[0]), float(self.y[0]), float(self.theta[0]))

    @property
    def final_pose(self) -> GroupPose:
        return GroupPose(float(self.x[-1]), float(self.y[-1]), float(self.theta[-1]))

    def decimate(self, stride: int) -> "Trajectory":
        """Every stride-th sample, always keeping the last one.

        When the last sample falls on the stride (always at stride 1) the
        rows are a view of this trajectory's: a write to one writes both.
        """
        if stride < 1:
            raise ValidationError("stride must be >= 1")
        last = len(self.rows) - 1
        if last % stride == 0:
            return Trajectory(self.rows[::stride])
        return Trajectory(self.rows[np.append(np.arange(0, last, stride), last)])


def simulate(schedule: ControlSchedule, q0: Configuration, params: SwimmerParams,
             cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """The swimmer's trajectory under `schedule` from q0."""
    return simulate_velocity_model(schedule, q0, params, cfg)


def simulate_velocity_model(schedule: ControlSchedule, q0: Configuration,
                            params: SwimmerParams,
                            cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate a schedule under the swimmer's connection.

    Pass 1 writes each segment's rows in its own body frame from the
    identity pose: it integrates a segment the first time it runs, and
    copies the rows of a segment seen before.  With `schedule.rows`, "seen
    before" means kept there under these parameters and this config, and
    each segment integrated gets a copy kept there; otherwise it means
    earlier in this call.  Pass 2 then moves every row, in place and in
    order, by its segment's start pose and start time.
    """
    validate_params(params)
    if not (cfg.h > 0 and cfg.min_substeps >= 1):
        raise ValidationError("integrator needs h > 0 and min_substeps >= 1")

    segments = [(i, s) for i, s in enumerate(schedule.segments) if s.duration > 0.0]
    counts, taken = [], 0
    for _, s in segments:
        steps = s.duration / cfg.h
        if not max(steps, cfg.min_substeps) <= MAX_STEPS - taken:   # also refuses inf and nan
            raise ValidationError(f"schedule needs more than {MAX_STEPS} integration steps")
        counts.append(max(math.ceil(steps), cfg.min_substeps))
        taken += counts[-1]
    total = taken + 1

    rows = np.empty((total, len(COLUMNS)))
    columns = tuple(rows.T)   # views: the RK4 loop writes one scalar at a time

    a1, a2 = q0.shape
    x, y, th = q0.pose
    rows[0] = (0.0, wrap_angle(a1), wrap_angle(a2), x, y, wrap_angle(th), 0.0, 0.0, 0.0,
               segments[0][0] if segments else -1)
    now = 0.0
    row = 1

    # Pass 1.  Keys are exact bits: a -0.0 start keeps its sign through a zero
    # rate, so it may not share rows with 0.0.  An int shape keys as its float,
    # whose rows it integrates to bit for bit.  The step count follows from
    # the duration and the config, so the key leaves it out.
    kept = schedule.rows   # (params, cfg) -> key -> (body-frame rows, start velocity, end state)
    known = {} if kept is None else kept.setdefault((params, cfg), {})
    firsts, ids, starts = [], [], []   # per segment
    try:   # math.cos and math.sin refuse an infinite angle
        for (seg_idx, seg), n_steps in zip(segments, counts):
            u1 = seg.amplitude if seg.channel == 1 else 0.0
            u2 = seg.amplitude if seg.channel == 2 else 0.0
            key = struct.pack("<5d", a1, a2, u1, u2, seg.duration)
            entry = known.get(key)
            if entry is None:
                xi0, end = _integrate_segment(params, a1, a2, u1, u2, seg.duration,
                                              n_steps, columns, row)
                body = rows[row:row + n_steps, :9]
                # kept rows outlive this call, so they are a copy: pass 2 moves these rows
                entry = known[key] = (body if kept is None else body.copy(), xi0, end)
            else:
                rows[row:row + n_steps, :9] = entry[0]
            _, xi0, (a1, a2, bx, by, bth, tau1) = entry
            if row == 1:
                rows[0, 6:9] = xi0
            firsts.append(row)
            ids.append(seg_idx)
            c, s = math.cos(th), math.sin(th)
            starts.append((x, y, th, now, c, s))
            x, y = x + (c * bx - s * by), y + (s * bx + c * by)
            th += bth
            now += tau1
            row += n_steps
    except ValueError:
        raise NumericalError("integration left the finite range") from None

    # Pass 2: every row moves by its segment's start pose and start time.
    if segments:
        firsts, ids = np.array(firsts), np.array(ids)
        starts = np.array(starts).T   # start x, y, theta, time, cos and sin per segment
        for lo in range(1, total, _CHUNK):
            hi = min(lo + _CHUNK, total)
            j = np.searchsorted(firsts, np.arange(lo, hi), side="right") - 1   # row -> segment
            px, py, pth, pt, c, s = starts[:, j]
            bt, _, _, bx, by, bth, _, _, _, bseg = rows[lo:hi].T
            with np.errstate(invalid="ignore", over="ignore"):   # non-finite: raised below
                # both before either is stored: bx and by are views of these rows
                bx[:], by[:] = px + (c * bx - s * by), py + (s * bx + c * by)
                bth[:] = _wrap_angles(pth + bth)
            bt[:] = pt + bt
            bseg[:] = ids[j]
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(th)):
            raise NumericalError("integration produced a non-finite pose")
    return Trajectory(rows)


def _integrate_segment(params, a1, a2, u1, u2, duration, n_steps, columns, r):
    """RK4 over one segment in its body frame from the identity pose, into
    rows r to r + n_steps - 1 of `columns`.  Returns the start velocity and
    the end state: shape, body-frame pose and time."""
    t, alpha1, alpha2, x_col, y_col, th_col, xi_x, xi_y, xi_th, _ = columns
    a1_0, a2_0 = a1, a2
    xi0 = xi = body_velocity_components(a1, a2, u1, u2, params)
    bx = by = bth = 0.0
    tau0 = 0.0
    for k in range(n_steps):
        tau1 = duration * ((k + 1) / n_steps)
        hs = tau1 - tau0
        tm = tau0 + 0.5 * hs
        xim = body_velocity_components(a1_0 + u1 * tm, a2_0 + u2 * tm, u1, u2, params)
        a1 = a1_0 + u1 * tau1
        a2 = a2_0 + u2 * tau1
        xie = body_velocity_components(a1, a2, u1, u2, params)

        c, s = math.cos(bth), math.sin(bth)
        k1x = c * xi[0] - s * xi[1]
        k1y = s * xi[0] + c * xi[1]
        th2 = bth + 0.5 * hs * xi[2]
        c, s = math.cos(th2), math.sin(th2)
        k2x = c * xim[0] - s * xim[1]
        k2y = s * xim[0] + c * xim[1]
        th3 = bth + 0.5 * hs * xim[2]
        c, s = math.cos(th3), math.sin(th3)
        k3x = c * xim[0] - s * xim[1]
        k3y = s * xim[0] + c * xim[1]
        th4 = bth + hs * xim[2]
        c, s = math.cos(th4), math.sin(th4)
        k4x = c * xie[0] - s * xie[1]
        k4y = s * xie[0] + c * xie[1]

        bx += hs / 6.0 * (k1x + 2.0 * (k2x + k3x) + k4x)
        by += hs / 6.0 * (k1y + 2.0 * (k2y + k3y) + k4y)
        bth += hs / 6.0 * (xi[2] + 4.0 * xim[2] + xie[2])

        xi = xie
        # wrap_angle's in-range test inline: a call only for angles outside (-pi, pi]
        t[r] = tau1
        alpha1[r] = a1 if -_PI < a1 <= _PI else wrap_angle(a1)
        alpha2[r] = a2 if -_PI < a2 <= _PI else wrap_angle(a2)
        x_col[r] = bx
        y_col[r] = by
        th_col[r] = bth
        xi_x[r], xi_y[r], xi_th[r] = xi
        r += 1
        tau0 = tau1
    return xi0, (a1, a2, bx, by, bth, tau1)


def _wrap_angles(a: np.ndarray) -> np.ndarray:
    """wrap_angle of each element."""
    inside = (-_PI < a) & (a <= _PI)
    if inside.all():
        return a
    r = np.fmod(a + _PI, TWO_PI)
    return np.where(inside, a, np.where(r <= 0.0, r + TWO_PI, r) - _PI)


def net_displacement(traj: Trajectory) -> NetDisplacement:
    if len(traj) == 0:
        raise ValidationError("empty trajectory")
    delta = compose(inverse(traj.initial_pose), traj.final_pose)
    closure = torus_distance(
        (float(traj.alpha1[0]), float(traj.alpha2[0])),
        (float(traj.alpha1[-1]), float(traj.alpha2[-1])))
    return NetDisplacement(delta, closure)
