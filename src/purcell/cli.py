"""Command-line surface: every workflow is runnable headlessly from here.

Exit codes: 0 success, 1 validation/usage error, 2 numerical failure.
"""

import argparse
import math
import os
import pathlib
import sys

from .config import KEYS, RunConfig, basis_specs, config_echo, parse_config, plan_specs
from .errors import NumericalError, ValidationError
from .gaits import (ControlSchedule, format_schedule, parse_schedule, shape_excursion,
                    synthesize)
from .lie import solve_bracket_coefficients
from .model import Configuration, ShapePoint
from .planner import (STRAIGHT, calibrate, compile_maneuvers, fit_circle, plan_line,
                      plan_polygon, tracking_report)
from .report import check_out_dir, ensure_out_dir, write_plot_svg, write_trajectory_csv
from .se2 import GroupPose
from .selftest import (LADDER, commutator_probe, leakage_ratios, rank_sweep,
                       run_acceptance, variant_slopes)
from .simulate import net_displacement, simulate


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _load_config(args) -> RunConfig:
    """The --config file (or the defaults), then the flags that set config keys."""
    try:
        text = "" if args.config is None else pathlib.Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {args.config}: {exc}")
    return parse_config(text, {k: v for k, v in vars(args).items() if k in KEYS})


class RunReport:
    """Command, config echo, key scalar results, and artifact paths.

    Deterministic for a fixed config and seed; also handles the printing so
    every command reports through one channel.
    """

    def __init__(self, command, cfg, quiet):
        self.command = command
        self.config_lines = config_echo(cfg)
        self.quiet = quiet
        self.scalars = {}
        self.files = []
        if not quiet:
            print(f"command: {command}")
            for line in self.config_lines:
                print(f"config: {line}")

    def scalar(self, key, value):
        self.scalars[key] = value
        print(f"{key} = {value}")

    def info(self, message):
        if not self.quiet:
            print(message)

    def artifact(self, path):
        self.files.append(path)
        print(f"wrote {path}")


def cmd_analyze(args, cfg: RunConfig, rep: RunReport) -> int:
    sweep = rank_sweep(cfg.params, args.grid, args.poses, cfg.seed)
    rep.scalar("grid", f"{args.grid}x{args.grid} shapes x {args.poses} poses")
    rep.scalar("min_rank", sweep.min_rank)
    rep.scalar("min_sigma_ratio", f"{sweep.min_ratio:.3e}")
    a1, a2 = sweep.weakest_shape
    rep.scalar("weakest_shape", f"({a1:.3f}, {a2:.3f})")
    if sweep.min_rank != 5:
        raise NumericalError("rank deficiency found on the shape grid")
    return 0


def cmd_coefficients(args, cfg: RunConfig, rep: RunReport) -> int:
    print(f"{'direction':>9s} {'alpha':>14s} {'beta':>14s} {'gamma':>14s}")
    for d in ("x", "y", "theta"):
        c = solve_bracket_coefficients(d, STRAIGHT, cfg.params)
        print(f"{d:>9s} {c.alpha:14.6g} {c.beta:14.6g} {c.gamma:14.6g}")
        rep.scalars[f"{d}.alpha"] = c.alpha
        rep.scalars[f"{d}.beta"] = c.beta
        rep.scalars[f"{d}.gamma"] = c.gamma
    return 0


def cmd_synthesize(args, cfg: RunConfig, rep: RunReport) -> int:
    name = f"gait_{args.direction}.txt"
    check_out_dir(cfg.out_dir, [name])
    spec = cfg.gaits[args.direction]
    gait = basis_specs(cfg)["x"] if args.direction == "x" else spec
    if isinstance(gait, ControlSchedule):   # gait.x.composite
        schedule = gait
        comment = (f"x gait: composite of the four square-gait variants, "
                   f"alpha={spec.alpha} t={spec.t}")
    else:
        schedule = synthesize(spec)
        comment = (f"{args.direction} gait: alpha={spec.alpha} beta={spec.beta} "
                   f"gamma={spec.gamma} t={spec.t} n={spec.n} nesting={spec.nesting}")
    rep.scalar("segments", len(schedule))
    rep.scalar("duration_s", f"{schedule.total_duration:.6g}")
    rep.scalar("max_joint_excursion_rad", f"{shape_excursion(schedule):.6g}")
    _write_schedule(schedule, cfg.out_dir, name, comment, rep)
    return 0


def _write_schedule(schedule, out_dir, name, comment, rep):
    path = os.path.join(ensure_out_dir(out_dir), name)
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(format_schedule(schedule, comment=comment))
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}")
    rep.artifact(path)


def _run_files(stem):
    """The CSV and the two SVGs _write_run_outputs writes for `stem`."""
    return [f"{stem}.csv", f"{stem}_path.svg", f"{stem}_shape.svg"]


def _write_run_outputs(traj, out_dir, stem, rep, max_rows, circle=None, overlay=None):
    """CSV and two SVGs of every (len(traj) // max_rows)-th sample of `traj`."""
    traj = traj.decimate(max(1, len(traj) // max_rows))
    out = ensure_out_dir(out_dir)
    csv_path, svg_path, ts_path = (os.path.join(out, name) for name in _run_files(stem))
    write_trajectory_csv(traj, csv_path)
    rep.artifact(csv_path)
    series = [{"x": traj.x, "y": traj.y, "label": "base link path"}]
    if overlay is not None:
        series.append(overlay)
    write_plot_svg(svg_path, series, kind="path", title=f"{stem}: base-link path",
                   xlabel="x (m)", ylabel="y (m)", circle=circle)
    rep.artifact(svg_path)
    write_plot_svg(ts_path,
                   [{"x": traj.t, "y": traj.alpha1, "label": "alpha1"},
                    {"x": traj.t, "y": traj.alpha2, "label": "alpha2"}],
                   kind="time-series", title=f"{stem}: joint angles",
                   xlabel="t (s)", ylabel="angle (rad)")
    rep.artifact(ts_path)


def cmd_simulate(args, cfg: RunConfig, rep: RunReport) -> int:
    stem = "sim_" + os.path.splitext(os.path.basename(args.schedule))[0]
    check_out_dir(cfg.out_dir, _run_files(stem))
    try:
        with open(args.schedule) as fh:
            schedule = parse_schedule(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read schedule {args.schedule}: {exc}")
    if len(schedule) == 0:
        raise ValidationError(f"schedule {args.schedule} contains no segments")
    traj = simulate(schedule, STRAIGHT, cfg.params, cfg.integrator)
    nd = net_displacement(traj)
    rep.scalar("samples", len(traj))
    rep.scalar("net_dx_m", f"{nd.delta.x:.9g}")
    rep.scalar("net_dy_m", f"{nd.delta.y:.9g}")
    rep.scalar("net_dtheta_rad", f"{nd.delta.theta:.9g}")
    rep.scalar("shape_closure", f"{nd.shape_closure:.3e}")
    _write_run_outputs(traj, cfg.out_dir, stem, rep, 20000)
    return 0


def cmd_probe(args, cfg: RunConfig, rep: RunReport) -> int:
    if args.kind == "commutator":
        errors, slope, monotone = commutator_probe(cfg.params, cfg.integrator)
        for eps, err in zip(LADDER, errors):
            print(f"eps = {eps:<8g} error = {err:.6e}")
        rep.scalar("slope", f"{slope:.3f}")
        rep.scalar("monotone", monotone)
    elif args.kind == "variants":
        slopes = variant_slopes(cfg.params, cfg.integrator)
        for (i, j), slope in slopes:
            print(f"variants {i}/{j}: difference slope {slope:.3f}")
        rep.scalar("min_slope", f"{min(s for _, s in slopes):.3f}")
    else:  # leakage
        for nesting in ("derived", "literal"):
            ratios = leakage_ratios(cfg.params, cfg.integrator, nesting)
            print(f"nesting {nesting}: leakage ratios over n=1,2,4: "
                  + ", ".join(f"{r:.4f}" for r in ratios))
            rep.scalars[f"leakage_{nesting}"] = ratios
            rep.scalar(f"monotone_{nesting}", ratios[0] > ratios[1] > ratios[2])
    return 0


def _calibration(cfg: RunConfig, rep: RunReport):
    """Calibrate the gaits a plan compiles."""
    calib = calibrate(cfg.params, plan_specs(cfg), cfg.integrator)
    for d, entry in calib.entries.items():
        rep.info(f"calibration {d}: per-cycle delta = "
                 f"({entry.delta[0]:.6g}, {entry.delta[1]:.6g}, {entry.delta[2]:.6g}), "
                 f"duration {entry.duration:.3g}s, dominance {entry.dominance:.1f}")
    return calib


def cmd_plan_line(args, cfg: RunConfig, rep: RunReport) -> int:
    check_out_dir(cfg.out_dir, _run_files("plan_line") + ["plan_line_schedule.txt"])
    bearing, distance = cfg.line_bearing, cfg.line_distance
    target = (distance * math.cos(bearing), distance * math.sin(bearing))
    maneuvers = plan_line(GroupPose(0.0, 0.0, 0.0), target)  # rejects bad targets early
    calib = _calibration(cfg, rep)
    compiled = compile_maneuvers(maneuvers, calib)   # before any result: it may refuse
    rep.scalar("rotate_deg", f"{math.degrees(maneuvers[0].magnitude):.6g}")
    rep.scalar("translate_m", f"{maneuvers[1].magnitude:.6g}")
    for span in compiled.spans:
        rep.scalar(f"{span.maneuver.kind}_cycles", span.cycles)
        rep.scalar(f"{span.maneuver.kind}_residual", f"{span.residual:.4g}")
    for w in compiled.warnings:
        rep.info(f"warning: {w}")
    traj = simulate(compiled.schedule, STRAIGHT, cfg.params, cfg.integrator)
    final = traj.final_pose
    err = math.hypot(final.x - target[0], final.y - target[1])
    rep.scalar("final_pose", f"({final.x:.6g}, {final.y:.6g}, {final.theta:.6g})")
    rep.scalar("target_error_m", f"{err:.6g}")
    overlay = {"x": [0.0, target[0]], "y": [0.0, target[1]], "label": "planned line"}
    _write_run_outputs(traj, cfg.out_dir, "plan_line", rep, 20000, overlay=overlay)
    _write_schedule(compiled.schedule, cfg.out_dir, "plan_line_schedule.txt",
                    "compiled line plan", rep)
    return 0


def cmd_plan_circle(args, cfg: RunConfig, rep: RunReport) -> int:
    check_out_dir(cfg.out_dir, _run_files("plan_circle") + ["plan_circle_schedule.txt"])
    plan = plan_polygon((0.0, 0.0), cfg.circle_radius, cfg.circle_sides)  # before calibrating
    calib = _calibration(cfg, rep)
    compiled = compile_maneuvers(plan.maneuvers, calib)   # before any result: it may refuse
    rep.scalar("side_length_m", f"{plan.side_length:.6g}")
    rep.scalar("turn_deg", f"{math.degrees(plan.turn):.6g}")
    rep.scalar("segments", len(compiled.schedule))
    rep.scalar("schedule_duration_s", f"{compiled.schedule.total_duration:.6g}")
    for w in compiled.warnings:
        rep.info(f"warning: {w}")
    q0 = Configuration(ShapePoint(0.0, 0.0), plan.start_pose)
    traj = simulate(compiled.schedule, q0, cfg.params, cfg.integrator)
    track = tracking_report(plan.path, traj, compiled)
    circle = fit_circle(track.achieved)
    rep.scalar("mean_waypoint_error_m", f"{track.mean_error:.6g}")
    rep.scalar("max_waypoint_error_m", f"{track.max_error:.6g}")
    rep.scalar("closure_error_m", f"{track.closure_error:.6g}")
    rep.scalar("fit_radius_m", f"{circle[2]:.6g}")
    rep.scalar("fit_center", f"({circle[0]:.6g}, {circle[1]:.6g})")
    px = [p[0] for p in plan.path.points]
    py = [p[1] for p in plan.path.points]
    overlay = {"x": px, "y": py, "label": "planned polygon"}
    _write_run_outputs(traj, cfg.out_dir, "plan_circle", rep, 50000,
                       circle=circle, overlay=overlay)
    _write_schedule(compiled.schedule, cfg.out_dir, "plan_circle_schedule.txt",
                    "compiled polygon plan", rep)
    return 0


def cmd_selftest(args, cfg: RunConfig, rep: RunReport) -> int:
    results = run_acceptance(args.only or None)
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"{tag} {r.name}: {r.detail}")
        if not r.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} acceptance checks passed")
    return 0 if failed == 0 else 2


def _key_flag(parser, flag, key, help):
    """A flag that sets config key `key`: same units and checks, applied after --config."""
    parser.add_argument(flag, dest=key, default=argparse.SUPPRESS, help=f"{help}; sets {key}")


def build_parser() -> _Parser:
    parser = _Parser(prog="purcell",
                     description="3-link low-Reynolds swimmer: simulation, "
                                 "gait synthesis, and open-loop planning")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    _key_flag(common, "--out", "run.out", "output directory")
    common.add_argument("--quiet", action="store_true",
                        help="suppress config echo and informational lines")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("analyze", parents=[common],
                       help="controllability rank over a shape grid")
    p.add_argument("--grid", type=int, default=12)
    p.add_argument("--poses", type=int, default=3)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("coefficients", parents=[common], help="bracket coefficients per group direction")
    p.set_defaults(func=cmd_coefficients)

    p = sub.add_parser("synthesize", parents=[common], help="expand a gait spec into a schedule file")
    p.add_argument("--direction", choices=("x", "y", "theta"), required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", parents=[common], help="integrate a schedule file")
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("probe", parents=[common], help="convergence ladders")
    p.add_argument("--kind", choices=("commutator", "variants", "leakage"),
                   default="commutator")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("plan-line", parents=[common], help="rotate+translate to a line target")
    _key_flag(p, "--bearing", "plan.line.bearing", "target bearing in rad, or e.g. '30 deg'")
    _key_flag(p, "--distance", "plan.line.distance", "line length in m, or e.g. '3 cm'")
    p.set_defaults(func=cmd_plan_line)

    p = sub.add_parser("plan-circle", parents=[common], help="track a circle as a polygon")
    _key_flag(p, "--radius", "plan.circle.radius", "circle radius in m, or e.g. '20 cm'")
    _key_flag(p, "--sides", "plan.circle.sides", "number of polygon sides")
    p.set_defaults(func=cmd_plan_circle)

    p = sub.add_parser("selftest", parents=[common], help="run the acceptance suite")
    p.add_argument("--only", nargs="*",
                   help="run only the checks whose printed names contain one of these")
    p.set_defaults(func=cmd_selftest)

    return parser


def dispatch(argv=None):
    """Parse and run one command; returns (exit code, RunReport or None)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0), None
    rep = None
    try:
        cfg = _load_config(args)
        rep = RunReport(args.command, cfg, args.quiet)
        return args.func(args, cfg, rep), rep
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, rep
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2, rep


def main(argv=None) -> int:
    code, _ = dispatch(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
