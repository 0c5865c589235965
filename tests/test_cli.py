import contextlib
import io
import os
import subprocess
import sys
import tempfile
import warnings
from xml.etree import ElementTree

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from purcell import selftest
from purcell.cli import main
from purcell.config import KEYS, basis_specs, default_config
from purcell.gaits import format_schedule, parse_schedule, synthesize
from purcell.model import default_params
from purcell.selftest import MAX_GRID, rank_sweep

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(argv):
    return main(argv)


def run_process(argv, cwd, text=True, **env):
    """The CLI in a fresh interpreter: (exit code, stdout, stderr), with the
    environment variables `env` added; text=False keeps the output as bytes."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "purcell.cli", *argv], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=text)
    return proc.returncode, proc.stdout, proc.stderr


def test_unknown_subcommand_exits_one(capsys):
    assert run(["definitely-not-a-command"]) == 1


def test_unknown_flag_exits_one():
    assert run(["coefficients", "--wat"]) == 1


def test_coefficients_prints_table(capsys):
    assert run(["coefficients", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "direction" in out
    assert "theta" in out


def test_analyze_small_grid(capsys):
    assert run(["analyze", "--grid", "3", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "min_rank = 5" in out
    # the command prints the shared sweep that criterion 01 runs
    sweep = rank_sweep(default_params(), 3)
    a1, a2 = sweep.weakest_shape
    assert out.splitlines() == [
        "grid = 3x3 shapes",
        f"min_rank = {sweep.min_rank}",
        f"min_sigma_ratio = {sweep.min_ratio:.3e}",
        f"weakest_shape = ({a1:.3f}, {a2:.3f})",
    ]


def test_analyze_of_a_two_micron_swimmer_reads_rank_five(tmp_path, capsys):
    # the rank reads the basis with its x and y rows divided by L; in
    # physical units this swimmer read min_rank = 4 and exited 2
    (tmp_path / "micro.cfg").write_text("swimmer.L = 1e-6\nswimmer.b = 1e-7\n")
    assert run(["analyze", "--config", str(tmp_path / "micro.cfg"), "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "min_rank = 5" in out
    assert "min_sigma_ratio = 3.471e-04" in out   # as at the default 5 cm


def test_coefficients_of_a_tiny_swimmer(tmp_path, capsys):
    # the span check divides the x and y rows by L too
    (tmp_path / "tiny.cfg").write_text("swimmer.L = 1e-11\nswimmer.b = 1e-12\n")
    assert run(["coefficients", "--config", str(tmp_path / "tiny.cfg"), "--quiet"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["x", "-8.1e+11", "0", "0"]


@pytest.mark.parametrize("flag, message", [
    ("--grid", f"grid must be from 1 to {MAX_GRID}"),
])
def test_analyze_sizes_are_bounded(capsys, flag, message):
    # refused before the sweep allocates anything
    assert run(["analyze", flag, "1000000000000", "--quiet"]) == 1
    assert message in capsys.readouterr().err


def test_synthesize_writes_schedule(tmp_path, capsys):
    out = str(tmp_path / "artifacts")
    assert run(["synthesize", "--direction", "theta", "--out", out, "--quiet"]) == 0
    sched_path = os.path.join(out, "gait_theta.txt")
    assert os.path.exists(sched_path)
    schedule = parse_schedule(open(sched_path).read())
    assert len(schedule) > 0
    assert abs(schedule.channel_integral(1)) < 1e-12
    assert abs(schedule.channel_integral(2)) < 1e-12


def test_synthesize_x_writes_the_planner_gait(tmp_path, capsys):
    def written(name, *extra):
        out = tmp_path / name
        assert run(["synthesize", "--direction", "x", "--out", str(out), "--quiet", *extra]) == 0
        return (out / "gait_x.txt").read_text()

    # gait.x.composite is on by default: the 16-segment, 8 s composite the planner runs
    composite = basis_specs(default_config())["x"]
    assert (len(composite), composite.total_duration) == (16, 8.0)
    text = written("composite")
    assert text.startswith("# x gait: composite of the four square-gait variants")
    assert parse_schedule(text).segments == composite.segments

    config = tmp_path / "plain.cfg"
    config.write_text("gait.x.composite = false\n")
    spec = default_config().gaits["x"]
    assert written("plain", "--config", str(config)) == format_schedule(
        synthesize(spec), comment="x gait: alpha=1.0 beta=0.0 gamma=0.0 t=0.25 n=1 nesting=derived")


def test_simulate_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "artifacts")
    sched = tmp_path / "square.txt"
    sched.write_text("# square gait\n1 1 0.3\n2 1 0.3\n1 -1 0.3\n2 -1 0.3\n")
    config = tmp_path / "fast.cfg"
    config.write_text("integrator.h = 0.005\n")
    assert run(["simulate", "--schedule", str(sched), "--out", out,
                "--config", str(config), "--quiet"]) == 0
    captured = capsys.readouterr().out
    assert "net_dx_m" in captured
    assert os.path.exists(os.path.join(out, "sim_square.csv"))
    assert os.path.exists(os.path.join(out, "sim_square_path.svg"))
    assert os.path.exists(os.path.join(out, "sim_square_shape.svg"))


def test_simulate_svgs_escape_the_schedule_name(tmp_path, capsys):
    sched = tmp_path / "a&b<c.txt"
    sched.write_text("1 1 0.3\n2 1 0.3\n")
    out = tmp_path / "o"
    assert run(["simulate", "--schedule", str(sched), "--out", str(out), "--quiet"]) == 0
    for name, title in (("sim_a&b<c_path.svg", "sim_a&b<c: base-link path"),
                        ("sim_a&b<c_shape.svg", "sim_a&b<c: joint angles")):
        root = ElementTree.parse(out / name).getroot()   # raises unless well-formed
        assert title in [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]


# Locales for a fresh interpreter: Python's own choices (UTF-8 mode, locale
# coercion) off, and no stream encoding forced.
UTF8_LOCALE = {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONIOENCODING": ""}
ASCII_LOCALE = dict(UTF8_LOCALE, LC_ALL="C")
SQUARE = b"1 1 0.3\n2 1 0.3\n1 -1 0.3\n2 -1 0.3\n"
ALPHA = "\u03b1".encode()


def run_in(locale, argv, cwd):
    """run_process with bytes arguments and output, under `locale`: the exit
    code and stdout, after checking that stderr holds no traceback."""
    code, out, err = run_process(argv, cwd, text=False, **locale)
    assert b"Traceback" not in err
    return code, out


def svg_titles(path: bytes) -> list:
    """The text of every <text> element of the SVG at `path`, which must parse."""
    with open(path, "rb") as fh:
        root = ElementTree.parse(fh).getroot()
    return [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]


def test_simulate_of_a_file_name_that_is_not_utf8(tmp_path):
    # its SVG titles spell the byte U+FFFD; the result lines show it as it is
    base = os.fsencode(tmp_path)
    with open(os.path.join(base, b"bad\xff.txt"), "wb") as fh:
        fh.write(SQUARE)
    code, out = run_in(UTF8_LOCALE, [b"simulate", b"--schedule", b"bad\xff.txt", b"--out", b"o",
                                     b"--quiet"], tmp_path)
    assert code == 0
    stem = b"sim_bad\xff"
    names = [stem + b".csv", stem + b"_path.svg", stem + b"_shape.svg"]
    assert sorted(os.listdir(os.path.join(base, b"o"))) == sorted(names)
    assert out.endswith(b"".join(b"wrote o/" + name + b"\n" for name in names))
    for name, title in ((names[1], "sim_bad\ufffd: base-link path"),
                        (names[2], "sim_bad\ufffd: joint angles")):
        assert title in svg_titles(os.path.join(base, b"o", name))


def test_simulate_of_a_file_name_with_a_control_character(tmp_path):
    # XML 1.0 forbids U+0001, so the SVG titles spell it U+FFFD, and both files parse
    base = os.fsencode(tmp_path)
    with open(os.path.join(base, b"a\x01.txt"), "wb") as fh:
        fh.write(SQUARE)
    code, _ = run_in(UTF8_LOCALE, [b"simulate", b"--schedule", b"a\x01.txt", b"--out", b"o",
                                   b"--quiet"], tmp_path)
    assert code == 0
    for kind, title in ((b"path", "base-link path"), (b"shape", "joint angles")):
        assert f"sim_a\ufffd: {title}" in svg_titles(os.path.join(base, b"o", b"sim_a\x01_" + kind
                                                                  + b".svg"))


def test_simulate_of_a_utf8_file_name_writes_the_same_files_in_any_locale(tmp_path):
    base = os.fsencode(tmp_path)
    with open(os.path.join(base, ALPHA + b".txt"), "wb") as fh:
        fh.write(SQUARE)
    written = []
    for out, locale in ((b"u", UTF8_LOCALE), (b"a", ASCII_LOCALE)):
        code, stdout = run_in(locale, [b"simulate", b"--schedule", ALPHA + b".txt", b"--out", out,
                                       b"--quiet"], tmp_path)
        assert code == 0
        assert stdout.endswith(b"wrote " + out + b"/sim_" + ALPHA + b"_shape.svg\n")
        folder = tmp_path / os.fsdecode(out)
        written.append({p.name: p.read_bytes() for p in folder.iterdir()})
        for kind, title in ((b"path", "base-link path"), (b"shape", "joint angles")):
            assert f"sim_\u03b1: {title}" in svg_titles(
                os.path.join(os.fsencode(folder), b"sim_" + ALPHA + b"_" + kind + b".svg"))
    assert len(written[0]) == 3
    assert written[0] == written[1]


@pytest.mark.parametrize("kind", ["schedule", "config"])
def test_input_files_are_read_as_utf8_in_any_locale(tmp_path, kind):
    # a comment that is not ASCII, and for the config an output directory
    if kind == "schedule":
        text = b"# " + ALPHA + b"\n" + SQUARE
        argv = [b"simulate", b"--schedule", b"in.txt", b"--out", b"o"]
        written = [b"o/sim_in.csv", b"o/sim_in_path.svg", b"o/sim_in_shape.svg"]
    else:
        text = b"# " + ALPHA + b"\nrun.out = r" + ALPHA + b"\n"
        argv = [b"synthesize", b"--direction", b"theta", b"--config", b"in.txt"]
        written = [b"r" + ALPHA + b"/gait_theta.txt"]
    base = os.fsencode(tmp_path)
    with open(os.path.join(base, b"in.txt"), "wb") as fh:
        fh.write(text)
    outputs = []
    for locale in (UTF8_LOCALE, ASCII_LOCALE):
        code, out = run_in(locale, argv, tmp_path)
        assert code == 0
        assert all(os.path.isfile(os.path.join(base, path)) for path in written)
        outputs.append(out)
    assert outputs[0] == outputs[1]
    with open(os.path.join(base, b"in.txt"), "wb") as fh:   # not UTF-8: one line, exit 1
        fh.write(text.replace(ALPHA, b"\xff"))
    for locale in (UTF8_LOCALE, ASCII_LOCALE):
        code, _, err = run_process(argv, tmp_path, text=False, **locale)
        assert code == 1
        assert err.startswith(f"error: cannot read {kind} in.txt: ".encode())
        assert err.count(b"\n") == 1


def test_wrote_line_of_an_out_dir_that_is_not_utf8(tmp_path):
    # a UTF-8 locale whose stdout refuses surrogate escapes (en_US.UTF-8, say)
    strict = dict(UTF8_LOCALE, PYTHONIOENCODING="utf-8:strict")
    code, out = run_in(strict, [b"synthesize", b"--direction", b"x", b"--out", b"q\xff"], tmp_path)
    assert code == 0
    assert b"config: run.out = q\\xff\n" in out
    assert out.endswith(b"wrote q\\xff/gait_x.txt\n")
    assert os.path.isfile(os.path.join(os.fsencode(tmp_path), b"q\xff", b"gait_x.txt"))


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_reader_that_closes_stdout_early_gets_one_line_and_no_traceback(tmp_path, unbuffered):
    # `purcell coefficients | head -1`, with the reader gone before the first
    # line: the command exits 1 with one line on stderr, and the flush at
    # exit raises nothing more.  Buffered, the pipe breaks at main's flush;
    # unbuffered, at the first print.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "purcell.cli", "coefficients"], cwd=tmp_path,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err
    assert err == b"error: standard output was closed before the command finished\n"


@pytest.mark.parametrize("rate", ["3e-323", "1e-307"])
def test_simulate_of_a_tiny_rate_exits_one(tmp_path, rate):
    # joint angles spanning so little that the shape plot's scale overflows:
    # refused, like every other input, before any result line or file
    (tmp_path / "tiny.txt").write_text(f"1 {rate} 1.0\n")
    out = tmp_path / "o"
    code, stdout, err = run_process(["simulate", "--schedule", "tiny.txt", "--out", str(out),
                                     "--quiet"], tmp_path)
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert stdout == ""
    assert not out.exists()


def test_simulate_empty_schedule_exits_one(tmp_path, capsys):
    sched = tmp_path / "empty.txt"
    sched.write_text("# nothing here\n")
    assert run(["simulate", "--schedule", str(sched), "--quiet",
                "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_schedule_file_exits_one(tmp_path, capsys):
    assert run(["simulate", "--schedule", str(tmp_path / "nope.txt"),
                "--quiet"]) == 1


def test_bad_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("swimmer.unknown = 1\n")
    assert run(["coefficients", "--config", str(cfg), "--quiet"]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_csv_determinism(tmp_path):
    sched = tmp_path / "s.txt"
    sched.write_text("1 1 0.2\n2 1 0.2\n1 -1 0.2\n2 -1 0.2\n")
    config = tmp_path / "fast.cfg"
    config.write_text("integrator.h = 0.01\n")
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert run(["simulate", "--schedule", str(sched), "--out", out,
                    "--config", str(config), "--quiet"]) == 0
        outs.append(open(os.path.join(out, "sim_s.csv"), "rb").read())
    assert outs[0] == outs[1]


def test_probe_commutator(tmp_path, capsys):
    config = tmp_path / "fast.cfg"
    config.write_text("integrator.h = 0.002\n")
    assert run(["probe", "--kind", "commutator", "--config", str(config),
                "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "slope" in out


def test_probe_variants(capsys):
    assert run(["probe", "--kind", "variants", "--quiet"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines[:6]] == [
        "variants 0/1", "variants 0/2", "variants 0/3",
        "variants 1/2", "variants 1/3", "variants 2/3"]
    assert lines[6].startswith("min_slope = ") and float(lines[6].split()[-1]) >= 2.7


def test_probe_leakage(capsys):
    assert run(["probe", "--kind", "leakage", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "nesting derived: leakage ratios over n=1,2,4: " in out
    assert "nesting literal: leakage ratios over n=1,2,4: " in out
    assert "monotone_derived = True" in out and "monotone_literal = True" in out


def test_plan_line_pipeline(tmp_path, capsys):
    out = str(tmp_path / "artifacts")
    config = tmp_path / "fast.cfg"
    config.write_text("integrator.h = 0.005\nplan.line.distance = 3 cm\n")
    assert run(["plan-line", "--config", str(config), "--out", out,
                "--quiet"]) == 0
    captured = capsys.readouterr().out
    assert "rotate_deg" in captured
    assert "-26" in captured
    assert os.path.exists(os.path.join(out, "plan_line_schedule.txt"))
    assert os.path.exists(os.path.join(out, "plan_line.csv"))


def test_plan_circle_pipeline(tmp_path, capsys):
    out = str(tmp_path / "artifacts")
    config = tmp_path / "coarse.cfg"
    config.write_text("integrator.h = 0.02\n"
                      "plan.circle.radius = 5 cm\n"
                      "plan.circle.sides = 3\n")
    assert run(["plan-circle", "--config", str(config), "--out", out,
                "--quiet"]) == 0
    captured = capsys.readouterr().out
    assert "fit_radius_m" in captured
    assert "closure_error_m" in captured
    svg = open(os.path.join(out, "plan_circle_path.svg")).read()
    assert "stroke-dasharray" in svg  # best-fit circle overlay
    assert os.path.exists(os.path.join(out, "plan_circle_schedule.txt"))


@pytest.mark.parametrize("argv", [
    ["analyze", "--grid", "0"],
    ["analyze", "--grid", "1", "--config", "inf_L.cfg"],   # see coefficients below
    ["plan-line", "--distance", "nan"],
    ["plan-line", "--distance", "inf"],
    ["plan-circle", "--radius", "inf"],
    ["plan-circle", "--radius", "1e300"],
    ["plan-circle", "--sides", "1000000000000"],
    ["plan-circle", "--config", "inf_radius.cfg"],
    # the finite-difference steps are not config keys
    ["coefficients", "--config", "inner_h.cfg"],
    ["coefficients", "--config", "outer_h.cfg"],
    ["probe", "--config", "h.cfg"],
    ["coefficients", "--config", "tiny_cfd_speed.cfg"],
    ["synthesize", "--direction", "x", "--config", "inf_x_t.cfg"],
    ["plan-line", "--config", "inf_x_t.cfg"],
    ["plan-line", "--config", "composite_x_beta.cfg"],
    ["simulate", "--schedule", "inf_duration.txt"],
    # each of these would need more than MAX_STEPS integration steps
    ["simulate", "--schedule", "huge_duration.txt"],
    ["plan-line", "--config", "huge_x_t.cfg"],
    ["simulate", "--schedule", "short.txt", "--config", "huge_substeps.cfg"],
    ["simulate", "--schedule", "short.txt", "--config", "tiny_h.cfg"],
    # flags that set config keys are checked as the keys are
    ["plan-line", "--distance", "-0.05"],
    ["plan-line", "--distance", "abc"],
    ["plan-line", "--bearing", "inf"],
    ["plan-line", "--config", "inf_bearing.cfg"],
    ["plan-circle", "--sides", "3.5"],
    ["selftest", "--only", "nope"],   # refused before any check runs
    # the sweep draws no random poses, so no key seeds it
    ["analyze", "--grid", "1", "--config", "seed.cfg"],
    # a flow speed that no provenance reads
    ["coefficients", "--config", "cfd_speed_alone.cfg"],
    ["coefficients", "--config", "slender_cfd_speed.cfg"],
    # past the cycle cap, which compile_maneuvers applies after calibrating
    ["plan-line", "--distance", "1e6"],
    # files that do not decode as UTF-8 cannot be read
    ["coefficients", "--config", "not_utf8.cfg"],
    ["simulate", "--schedule", "not_utf8.txt"],
    # over MAX_STEPS: refused before any result line is printed
    ["plan-line", "--distance", "20"],
    ["plan-circle", "--sides", "3", "--radius", "5"],
    # an infinite length with explicit drag coefficients: refused, not an SVD traceback
    ["coefficients", "--config", "inf_L.cfg"],
    # a key set twice in one file
    ["coefficients", "--config", "twice.cfg"],
    # the composite x gait has no repeat count to honour
    ["synthesize", "--direction", "x", "--config", "composite_x_n.cfg"],
    # a theta gait of no terms produces no net motion
    ["plan-line", "--config", "still_theta.cfg"],
    # a line of no motion still needs a nonnegative, finite duration
    ["simulate", "--schedule", "still_nan_duration.txt"],
])
def test_bad_sizes_and_targets_exit_one(tmp_path, argv):
    files = {
        "inf_radius.cfg": "plan.circle.radius = inf\n",
        "inf_bearing.cfg": "plan.line.bearing = inf\n",
        "inner_h.cfg": "bracket.inner_h = 1e-3\n",
        "outer_h.cfg": "bracket.outer_h = 1e-3\n",
        "h.cfg": "bracket.h = 1e-5\n",
        "tiny_cfd_speed.cfg": "swimmer.coefficients = cfd\nswimmer.cfd_speed = 5e-324\n",
        "inf_x_t.cfg": "gait.x.t = inf\n",
        # the composite x gait has no beta or gamma term to honour
        "composite_x_beta.cfg": "gait.x.beta = 0.5\n",
        "composite_x_n.cfg": "gait.x.n = 3\n",
        "inf_duration.txt": "1 0.5 inf\n",
        "huge_duration.txt": "1 0.5 1e300\n",
        "huge_x_t.cfg": "gait.x.t = 1e300\n",
        "short.txt": "1 0.5 0.1\n",
        "huge_substeps.cfg": "integrator.min_substeps = 1e300\n",
        "tiny_h.cfg": "integrator.h = 5e-324\n",
        "seed.cfg": "run.seed = 1\n",
        "inf_L.cfg": "swimmer.L = inf\nswimmer.k_long = 1\nswimmer.k_lat = 2\n",
        "cfd_speed_alone.cfg": "swimmer.cfd_speed = 0.01\n",
        "slender_cfd_speed.cfg": "swimmer.coefficients = slender\nswimmer.cfd_speed = 0.01\n",
        "twice.cfg": "integrator.h = 0.001\nintegrator.h = 0.002\n",
        "still_theta.cfg": "gait.theta.beta = 0\ngait.theta.gamma = 0\n",
        "still_nan_duration.txt": "1 0.5 1\n1 0 nan\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for name in ("not_utf8.cfg", "not_utf8.txt"):
        (tmp_path / name).write_bytes(b"# \xff\xfe\n")
    code, out, err = run_process(argv + ["--quiet", "--out", str(tmp_path / "o")], tmp_path)
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""   # a refused run prints no result


@pytest.mark.parametrize("argv", [
    ["synthesize", "--direction", "theta", "--out", "a", "--out", "b"],   # a key flag
    ["synthesize", "--direction", "x", "--direction", "theta"],   # a choice
    ["analyze", "--grid", "1", "--grid", "2"],                    # a typed value
    ["coefficients", "--config", "a.cfg", "--config", "b.cfg"],   # a path
    ["selftest", "--only", "nope", "--only", "none"],             # a list
])
def test_option_given_twice_exits_one(tmp_path, argv):
    code, out, err = run_process(argv, tmp_path)
    assert code == 1 and out == ""
    assert err.startswith("usage: purcell ")
    assert err.endswith(f"\nerror: argument {argv[-2]}: given twice\n")
    assert list(tmp_path.iterdir()) == []


def test_analyze_takes_no_rank_tolerance(capsys):
    assert run(["analyze", "--tol", "1e-8", "--grid", "1", "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --tol 1e-8" in captured.err


def test_analyze_sweeps_shapes_only(tmp_path, capsys):
    # the bracket basis depends on shape alone: no pose count and no seed
    assert run(["analyze", "--poses", "3", "--grid", "1", "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --poses 3" in captured.err
    config = tmp_path / "seed.cfg"
    config.write_text("run.seed = 1234\n")
    assert run(["analyze", "--grid", "1", "--config", str(config), "--quiet"]) == 1
    assert capsys.readouterr() == ("", "error: line 1: unknown key 'run.seed'\n")


def test_coefficients_failure_prints_no_table(tmp_path):
    # x already fails here, after the table's header used to be printed.  (A
    # 1e300 m swimmer failed the span check in physical units; it now solves.)
    (tmp_path / "ill.cfg").write_text("swimmer.k_long = 1e-14\nswimmer.k_lat = 1\n")
    code, out, err = run_process(["coefficients", "--config", "ill.cfg", "--quiet"], tmp_path)
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("out", ["a_file", "a_file/sub", "taken"])
@pytest.mark.parametrize("argv", [
    ["synthesize", "--direction", "theta"],
    ["plan-line", "--config", "fast_line.cfg"],
    ["simulate", "--schedule", "short.txt"],
])
def test_out_that_cannot_be_written_exits_one(tmp_path, argv, out):
    (tmp_path / "a_file").write_text("")
    for artifact in ("gait_theta.txt", "plan_line.csv", "sim_short.csv"):
        (tmp_path / "taken" / artifact).mkdir(parents=True)   # a directory in the way
    (tmp_path / "fast_line.cfg").write_text("integrator.h = 0.02\nplan.line.distance = 3 cm\n")
    (tmp_path / "short.txt").write_text("1 0.5 0.1\n")
    code, out_text, err = run_process(argv + ["--out", out], tmp_path)
    assert code == 1
    assert err.startswith("error: cannot ") and err.count("\n") == 1
    # refused before any work: stdout is the config echo alone
    assert "calibration" not in out_text
    assert all(ln.startswith(("command: ", "config: ")) for ln in out_text.splitlines())


# test_bad_sizes_and_targets_exit_one passes an --out of its own, which would
# override an empty run.out
@pytest.mark.parametrize("argv", [["--out", ""], ["--config", "empty_out.cfg"]])
def test_empty_out_exits_one_before_any_work(tmp_path, argv):
    (tmp_path / "empty_out.cfg").write_text("run.out =\n")
    code, out_text, err = run_process(["synthesize", "--direction", "x", *argv], tmp_path)
    assert (code, err) == (1, "error: run.out must not be empty\n")
    assert all(ln.startswith(("command: ", "config: ")) for ln in out_text.splitlines())
    assert list(tmp_path.iterdir()) == [tmp_path / "empty_out.cfg"]


def test_config_echo_shows_the_line_target(tmp_path, capsys):
    # an --out that is a file stops each run right after the echo
    (tmp_path / "a_file").write_text("")
    echoes = []
    for flags in ([], ["--bearing", "30 deg", "--distance", "0.02"]):
        assert run(["plan-line", "--out", str(tmp_path / "a_file"), *flags]) == 1
        echoes.append([ln for ln in capsys.readouterr().out.splitlines()
                       if ln.startswith("config: ")])
    assert echoes[0] != echoes[1]
    assert "config: plan.line.bearing = 0.5235987755982988" in echoes[1]
    assert "config: plan.line.distance = 0.02" in echoes[1]


def test_line_flags_write_what_the_config_keys_write(tmp_path, capsys):
    (tmp_path / "fast.cfg").write_text("integrator.h = 0.02\n")
    (tmp_path / "keys.cfg").write_text("integrator.h = 0.02\n"
                                       "plan.line.bearing = 30 deg\nplan.line.distance = 0.02\n")
    runs = {"keys": ["--config", str(tmp_path / "keys.cfg")],
            "flags": ["--config", str(tmp_path / "fast.cfg"),
                      "--bearing", "30 deg", "--distance", "0.02"],
            "units": ["--config", str(tmp_path / "fast.cfg"),
                      "--bearing", "30 deg", "--distance", "2 cm"]}
    written = {}
    for name, argv in runs.items():
        assert run(["plan-line", "--quiet", "--out", str(tmp_path / name), *argv]) == 0
        written[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert len(written["keys"]) == 4
    assert written["flags"] == written["keys"] and written["units"] == written["keys"]


def test_plan_line_calibrates_only_x_and_theta(tmp_path, capsys):
    # the y gait is no maneuver's gait, so a y gait that fails the dominance
    # gate does not stop a plan
    config = tmp_path / "weak_y.cfg"
    config.write_text("gait.y.t = 1\nintegrator.h = 0.005\nplan.line.distance = 3 cm\n")
    assert run(["plan-line", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines if ln.startswith("calibration ")] == [
        "calibration x", "calibration theta"]


def test_selftest_only_matches_printed_names(capsys):
    assert run(["selftest", "--only", "leakage_decay_in_n", "--quiet"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("PASS leakage_decay_in_n: ratios ")
    assert lines[1:] == ["1/1 acceptance checks passed"]


def test_checks_have_distinct_names():
    assert len({check.name for check in selftest.ALL_CHECKS}) == len(selftest.ALL_CHECKS) == 11


def test_check_past_its_budget_fails(monkeypatch):
    monkeypatch.setattr(selftest, "ALL_CHECKS", [])
    check = selftest._check("demo", limit=0)(lambda: (True, "measured"))
    assert selftest.ALL_CHECKS == [check]
    result = check()
    assert (result.name, result.passed) == ("demo", False)
    assert result.detail.startswith("measured, ") and result.detail.endswith("s (limit 0s)")


def test_overflowing_rates_exit_two(tmp_path):
    # an overflowing body velocity is a numerical failure, not math.cos's traceback
    (tmp_path / "s.txt").write_text("1 1e308 1\n")
    code, _, err = run_process(["simulate", "--schedule", "s.txt", "--quiet"], tmp_path)
    assert code == 2
    assert err == "numerical failure: integration left the finite range\n"
    assert not (tmp_path / "out").exists()


def test_ill_conditioned_drag_exits_two(tmp_path):
    sched = tmp_path / "s.txt"
    sched.write_text("1 0.5 0.1\n")
    config = tmp_path / "ill.cfg"
    config.write_text("swimmer.k_long = 1e-14\nswimmer.k_lat = 1\n")
    code, _, err = run_process(["simulate", "--schedule", str(sched), "--config", str(config),
                                "--out", str(tmp_path / "o"), "--quiet"], tmp_path)
    assert code == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "ill-conditioned" in err


# Each command below that writes files gets an --out, which overrides a drawn
# run.out, so no draw names a directory outside the test's own.
FUZZ_KEYS = list(KEYS)
FUZZ_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e300", "1e-300", "5e-324", ""]
# explicit drag coefficients and an infinite length: an SVD that did not converge
INF_L = {"swimmer.L": "inf", "swimmer.k_long": "1", "swimmer.k_lat": "2"}


def _fuzz_config(tmp, values, cfd):
    lines = [f"{k} = {v}" for k, v in values.items()]
    if cfd:
        lines.append("swimmer.coefficients = cfd")
    config = os.path.join(tmp, "fuzz.cfg")
    with open(config, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return config


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv + ["--quiet"])


@example(INF_L, False)
@given(st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES),
                       min_size=1, max_size=4),
       st.booleans())
def test_config_fuzz_exits_cleanly(values, cfd):
    # coefficients and synthesize integrate nothing, so no drawn config starts a long run
    with tempfile.TemporaryDirectory() as tmp:
        config = _fuzz_config(tmp, values, cfd)
        out = os.path.join(tmp, "o")
        for argv in (["coefficients"], ["synthesize", "--direction", "x", "--out", out]):
            assert _exit_code(argv + ["--config", config]) in (0, 1, 2)
        schedule = os.path.join(out, "gait_x.txt")
        if os.path.exists(schedule):
            text = open(schedule).read().split("\n", 1)[1]   # past the comment line
            assert "inf" not in text and "nan" not in text


@example(INF_L, False)
@given(st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES),
                       min_size=1, max_size=4),
       st.booleans())
def test_analyze_config_fuzz_exits_cleanly(values, cfd):
    # a 1x1 grid is one basis
    with tempfile.TemporaryDirectory() as tmp:
        config = _fuzz_config(tmp, values, cfd)
        argv = ["analyze", "--grid", "1", "--config", config]
        assert _exit_code(argv) in (0, 1, 2)


@example({"integrator.h": "5e-324"}, False)
@given(st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES),
                       min_size=1, max_size=4),
       st.booleans())
def test_simulate_config_fuzz_exits_cleanly(values, cfd):
    # MAX_STEPS refuses every drawn integrator that would not finish this
    # 0.2 s schedule in a few hundred steps
    with tempfile.TemporaryDirectory() as tmp:
        config = _fuzz_config(tmp, values, cfd)
        schedule = os.path.join(tmp, "two.txt")
        with open(schedule, "w") as fh:
            fh.write("1 0.5 0.1\n2 -0.5 0.1\n")
        argv = ["simulate", "--schedule", schedule, "--out", os.path.join(tmp, "o"),
                "--config", config]
        assert _exit_code(argv) in (0, 1, 2)


SCHEDULE_VALUES = ["5e-324", "3e-323", "1e-307", "1e-300", "0.5", "1e300", "inf", "nan"]


@example([(1, "3e-323", "0.5")])   # a shape plot whose scale overflows
@given(st.lists(st.tuples(st.sampled_from((1, 2)), st.sampled_from(SCHEDULE_VALUES),
                          st.sampled_from(SCHEDULE_VALUES)), min_size=1, max_size=3))
def test_schedule_fuzz_exits_cleanly(lines):
    with tempfile.TemporaryDirectory() as tmp:
        schedule = os.path.join(tmp, "fuzz.txt")
        with open(schedule, "w") as fh:
            fh.write("".join(f"{c} {amplitude} {duration}\n" for c, amplitude, duration in lines))
        argv = ["simulate", "--schedule", schedule, "--out", os.path.join(tmp, "o")]
        assert _exit_code(argv) in (0, 1, 2)


# A small plan of each kind, so a draw that keeps these values still runs in
# well under a second; every drawn value overrides its key here.
PLAN_FUZZ_BASE = {"integrator.h": "0.02", "plan.line.distance": "3 cm",
                  "plan.circle.radius": "3 cm", "plan.circle.sides": "3"}


@example({"swimmer.L": "1e300"}, False)     # a path too long to fit a circle to
@example({"gait.x.alpha": "1e300"}, False)   # rates that reach the integrator
@given(st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES),
                       min_size=1, max_size=4),
       st.booleans())
def test_plan_config_fuzz_exits_cleanly(values, cfd):
    # a warning would print a second stderr line, so it fails the test too
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        config = _fuzz_config(tmp, {**PLAN_FUZZ_BASE, **values}, cfd)
        for command in ("plan-line", "plan-circle"):
            argv = [command, "--out", os.path.join(tmp, "o"), "--config", config]
            assert _exit_code(argv) in (0, 1, 2)
