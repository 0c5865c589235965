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
from .report import check_out_dir, ensure_out_dir, plot_svg, write_file, write_trajectory_csv
from .se2 import DIRECTIONS, GroupPose
from .selftest import (LADDER, commutator_probe, leakage_ratios, rank_sweep,
                       run_acceptance, variant_slopes)
from .simulate import net_displacement, simulate


class _Once(argparse.Action):
    """Store an option's value; a second occurrence is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given twice")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.register("action", None, _Once)   # every option that takes a value

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _read(path, what) -> str:
    """The text of an input file, read as UTF-8 whatever the locale."""
    try:
        return pathlib.Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}")


def _say(line: str) -> None:
    """Print `line`, with its non-ASCII bytes as \\xNN where stdout cannot encode it."""
    try:
        print(line)
    except UnicodeEncodeError:
        print(line.encode("utf-8", "surrogateescape").decode("ascii", "backslashreplace"))


class RunReport:
    """Command, config echo, key scalar results, and artifact paths.

    Deterministic for a fixed config; also handles the printing so every
    command reports through one channel.
    """

    def __init__(self, command, cfg, quiet):
        self.command = command
        self.config_lines = config_echo(cfg)
        self.quiet = quiet
        self.scalars = {}
        self.files = []
        if not quiet:
            _say(f"command: {command}")
            for line in self.config_lines:
                _say(f"config: {line}")

    def scalar(self, key, value):
        self.scalars[key] = value
        _say(f"{key} = {value}")

    def info(self, message):
        if not self.quiet:
            _say(message)

    def artifact(self, path):
        self.files.append(path)
        _say(f"wrote {path}")


def cmd_analyze(args, cfg: RunConfig, rep: RunReport) -> int:
    sweep = rank_sweep(cfg.params, args.grid)
    rep.scalar("grid", f"{args.grid}x{args.grid} shapes")
    rep.scalar("min_rank", sweep.min_rank)
    rep.scalar("min_sigma_ratio", f"{sweep.min_ratio:.3e}")
    a1, a2 = sweep.weakest_shape
    rep.scalar("weakest_shape", f"({a1:.3f}, {a2:.3f})")
    if sweep.min_rank != 5:
        raise NumericalError("rank deficiency found on the shape grid")
    return 0


def cmd_coefficients(args, cfg: RunConfig, rep: RunReport) -> int:
    # all three solved first, so a failure prints no partial table
    solved = {d: solve_bracket_coefficients(d, STRAIGHT, cfg.params)
              for d in DIRECTIONS}
    print(f"{'direction':>9s} {'alpha':>14s} {'beta':>14s} {'gamma':>14s}")
    for d, c in solved.items():
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
    rep.artifact(write_file(os.path.join(ensure_out_dir(out_dir), name),
                            [format_schedule(schedule, comment=comment).encode()]))


def _run_files(stem):
    """The CSV and the two SVGs _run_outputs writes for `stem`."""
    return [f"{stem}.csv", f"{stem}_path.svg", f"{stem}_shape.svg"]


def _run_outputs(traj, stem, max_rows, circle=None, overlay=None):
    """Check the two plots of every (len(traj) // max_rows)-th sample of
    `traj`, and return write(out_dir, rep), which writes them and the CSV:
    commands call this before their first result line."""
    traj = traj.decimate(max(1, len(traj) // max_rows))
    series = [{"x": traj.x, "y": traj.y, "label": "base link path"}]
    if overlay is not None:
        series.append(overlay)
    plots = [plot_svg(series, kind="path", title=f"{stem}: base-link path",
                      xlabel="x (m)", ylabel="y (m)", circle=circle),
             plot_svg([{"x": traj.t, "y": traj.alpha1, "label": "alpha1"},
                       {"x": traj.t, "y": traj.alpha2, "label": "alpha2"}],
                      kind="time-series", title=f"{stem}: joint angles",
                      xlabel="t (s)", ylabel="angle (rad)")]

    def write(out_dir, rep):
        out = ensure_out_dir(out_dir)
        csv_path, *svg_paths = (os.path.join(out, name) for name in _run_files(stem))
        rep.artifact(write_trajectory_csv(traj, csv_path))
        for plot, path in zip(plots, svg_paths):
            rep.artifact(plot(path))
    return write


def cmd_simulate(args, cfg: RunConfig, rep: RunReport) -> int:
    stem = "sim_" + os.path.splitext(os.path.basename(args.schedule))[0]
    check_out_dir(cfg.out_dir, _run_files(stem))
    schedule = parse_schedule(_read(args.schedule, "schedule"))
    if len(schedule) == 0:
        raise ValidationError(f"schedule {args.schedule} contains no segments")
    traj = simulate(schedule, STRAIGHT, cfg.params, cfg.integrator)
    nd = net_displacement(traj)
    write_outputs = _run_outputs(traj, stem, 20000)   # before any result line: a plot may refuse
    rep.scalar("samples", len(traj))
    rep.scalar("net_dx_m", f"{nd.delta.x:.9g}")
    rep.scalar("net_dy_m", f"{nd.delta.y:.9g}")
    rep.scalar("net_dtheta_rad", f"{nd.delta.theta:.9g}")
    rep.scalar("shape_closure", f"{nd.shape_closure:.3e}")
    write_outputs(cfg.out_dir, rep)
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
                 f"duration {entry.schedule.total_duration:.3g}s, dominance {entry.dominance:.1f}")
    return calib


def cmd_plan_line(args, cfg: RunConfig, rep: RunReport) -> int:
    check_out_dir(cfg.out_dir, _run_files("plan_line") + ["plan_line_schedule.txt"])
    bearing, distance = cfg.line_bearing, cfg.line_distance
    target = (distance * math.cos(bearing), distance * math.sin(bearing))
    maneuvers = plan_line(GroupPose(0.0, 0.0, 0.0), target)  # rejects bad targets early
    calib = _calibration(cfg, rep)
    # compiled, run and plotted before any result line: each may refuse
    compiled = compile_maneuvers(maneuvers, calib)
    traj = simulate(compiled.schedule, STRAIGHT, cfg.params, cfg.integrator)
    overlay = {"x": [0.0, target[0]], "y": [0.0, target[1]], "label": "planned line"}
    write_outputs = _run_outputs(traj, "plan_line", 20000, overlay=overlay)
    rep.scalar("rotate_deg", f"{math.degrees(maneuvers[0].magnitude):.6g}")
    rep.scalar("translate_m", f"{maneuvers[1].magnitude:.6g}")
    for span in compiled.spans:
        rep.scalar(f"{span.maneuver.kind}_cycles", span.cycles)
        rep.scalar(f"{span.maneuver.kind}_residual", f"{span.residual:.4g}")
    for w in compiled.warnings:
        rep.info(f"warning: {w}")
    final = traj.final_pose
    err = math.hypot(final.x - target[0], final.y - target[1])
    rep.scalar("final_pose", f"({final.x:.6g}, {final.y:.6g}, {final.theta:.6g})")
    rep.scalar("target_error_m", f"{err:.6g}")
    write_outputs(cfg.out_dir, rep)
    _write_schedule(compiled.schedule, cfg.out_dir, "plan_line_schedule.txt",
                    "compiled line plan", rep)
    return 0


def cmd_plan_circle(args, cfg: RunConfig, rep: RunReport) -> int:
    check_out_dir(cfg.out_dir, _run_files("plan_circle") + ["plan_circle_schedule.txt"])
    plan = plan_polygon(cfg.circle_radius, cfg.circle_sides)  # before calibrating
    calib = _calibration(cfg, rep)
    # compiled, run, fitted and plotted before any result line: each may refuse
    compiled = compile_maneuvers(plan.maneuvers, calib)
    q0 = Configuration(ShapePoint(0.0, 0.0), plan.start_pose)
    traj = simulate(compiled.schedule, q0, cfg.params, cfg.integrator)
    track = tracking_report(plan.path, traj, compiled)
    circle = fit_circle(track.achieved)
    overlay = {"x": [p[0] for p in plan.path.points], "y": [p[1] for p in plan.path.points],
               "label": "planned polygon"}
    write_outputs = _run_outputs(traj, "plan_circle", 50000, circle=circle, overlay=overlay)
    rep.scalar("side_length_m", f"{plan.side_length:.6g}")
    rep.scalar("turn_deg", f"{math.degrees(plan.turn):.6g}")
    rep.scalar("segments", len(compiled.schedule))
    rep.scalar("schedule_duration_s", f"{compiled.schedule.total_duration:.6g}")
    for w in compiled.warnings:
        rep.info(f"warning: {w}")
    rep.scalar("mean_waypoint_error_m", f"{track.mean_error:.6g}")
    rep.scalar("max_waypoint_error_m", f"{track.max_error:.6g}")
    rep.scalar("closure_error_m", f"{track.closure_error:.6g}")
    rep.scalar("fit_radius_m", f"{circle[2]:.6g}")
    rep.scalar("fit_center", f"({circle[0]:.6g}, {circle[1]:.6g})")
    write_outputs(cfg.out_dir, rep)
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
    common = _Parser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    _key_flag(common, "--out", "run.out", "output directory")
    common.add_argument("--quiet", action="store_true",
                        help="suppress config echo and informational lines")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("analyze", parents=[common],
                       help="controllability rank over a shape grid")
    p.add_argument("--grid", type=int, default=12)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("coefficients", parents=[common], help="bracket coefficients per group direction")
    p.set_defaults(func=cmd_coefficients)

    p = sub.add_parser("synthesize", parents=[common], help="expand a gait spec into a schedule file")
    p.add_argument("--direction", choices=DIRECTIONS, required=True)
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


def main(argv=None) -> int:
    """Parse and run one command; returns its exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # the --config file (or the defaults), then the flags that set config keys
        text = "" if args.config is None else _read(args.config, "config")
        cfg = parse_config(text, {k: v for k, v in vars(args).items() if k in KEYS})
        code = args.func(args, cfg, RunReport(args.command, cfg, args.quiet))
        sys.stdout.flush()   # so a reader that closed early is seen here, not at exit
        return code
    except BrokenPipeError:
        # stdout now points at devnull, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed before the command finished", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
