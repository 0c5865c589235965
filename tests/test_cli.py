import os
import subprocess
import sys

import pytest

from purcell.cli import main
from purcell.gaits import parse_schedule

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(argv):
    return main(argv)


def run_process(argv, cwd):
    """The CLI in a fresh interpreter: (exit code, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "purcell.cli", *argv], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stderr


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
    assert run(["analyze", "--grid", "3", "--poses", "1", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "min_rank = 5" in out


def test_synthesize_writes_schedule(tmp_path, capsys):
    out = str(tmp_path / "artifacts")
    assert run(["synthesize", "--direction", "theta", "--out", out, "--quiet"]) == 0
    sched_path = os.path.join(out, "gait_theta.txt")
    assert os.path.exists(sched_path)
    schedule = parse_schedule(open(sched_path).read())
    assert len(schedule) > 0
    assert abs(schedule.channel_integral(1)) < 1e-12
    assert abs(schedule.channel_integral(2)) < 1e-12


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
    ["analyze", "--poses", "0"],
    ["plan-line", "--distance", "nan"],
    ["plan-line", "--distance", "inf"],
    ["plan-circle", "--radius", "inf"],
    ["plan-circle", "--radius", "1e300"],
    ["plan-circle", "--sides", "1000000000000"],
    ["plan-circle", "--config", "inf_radius.cfg"],
])
def test_bad_sizes_and_targets_exit_one(tmp_path, argv):
    (tmp_path / "inf_radius.cfg").write_text("plan.circle.radius = inf\n")
    code, err = run_process(argv + ["--quiet", "--out", str(tmp_path / "o")], tmp_path)
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_ill_conditioned_drag_exits_two(tmp_path):
    sched = tmp_path / "s.txt"
    sched.write_text("1 0.5 0.1\n")
    config = tmp_path / "ill.cfg"
    config.write_text("swimmer.k_long = 1e-14\nswimmer.k_lat = 1\n")
    code, err = run_process(["simulate", "--schedule", str(sched), "--config", str(config),
                             "--out", str(tmp_path / "o"), "--quiet"], tmp_path)
    assert code == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "ill-conditioned" in err
