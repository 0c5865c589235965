"""Seeded contract fuzz of the command line, run in process.

Each case is one command (`synthesize`, `coefficients`, `simulate` of a
0- to 4-line schedule, `plan-line`, `plan-circle`, `analyze --grid 1` to
`3`, or `probe` of any kind) under a config of 0 to 4 `key = value` lines
drawn from EDGES, run with `--quiet` in a fresh directory.  A `plan-circle`
config that sets no `integrator.h` ends with `integrator.h = 0.01`: in
process, the default 10-gon then takes 0.3-0.4 s and 131 MB in place of
1.9-2.3 s and 920 MB, and the default step stays covered by the tests and
tests/same_outputs.py.  Every case runs twice, each time in its own
directory, and must keep the command line's contract:

- the exit code is 0, 1 or 2, and no exception leaves `cli.main`;
- on exit 1 or 2, stderr holds exactly one line;
- on exit 1, stdout holds no result line and no file was written;
- the two runs give the same exit code, stdout, stderr and files, byte
  for byte.

An `analyze` case whose input is accepted (exit 0 or 2) runs a third time
with its effective `swimmer.L` and `swimmer.b` times 2**k, k drawn from the
seed: the rank test is unit-free, so that run must give the same exit code
and the same `min_rank`, `min_sigma_ratio` and `weakest_shape` lines.  A k
that takes either length out of the normal range of a double is skipped.

A case still running after ALARM seconds is stopped and counted as slow,
not checked: an edge value can ask for millions of integration steps.  The
summary gives, per command, the cases run and those stopped as slow.

    python3 tests/fuzz_cli.py                      # seed 1, 120 s
    python3 tests/fuzz_cli.py --seed 7 --seconds 30

Exit code 0 when every case kept the contract, 1 otherwise.  Pytest does
not collect this file.
"""

import argparse
import contextlib
import io
import os
import random
import signal
import sys
import tempfile
import time
import traceback
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from purcell import cli  # noqa: E402
from purcell.config import parse_config  # noqa: E402

# (key, value) pairs a config draws from: defaults, limits, and values each
# key must refuse
EDGES = (
    ("swimmer.L", "0.05"), ("swimmer.L", "1e-6"), ("swimmer.L", "1e15"), ("swimmer.L", "0"),
    ("swimmer.L", "-1"), ("swimmer.L", "nan"), ("swimmer.L", "5 cm"),
    ("swimmer.b", "0.005"), ("swimmer.b", "0.05"), ("swimmer.b", "1e-300"),
    ("swimmer.mu", "0"), ("swimmer.mu", "1e300"),
    ("swimmer.coefficients", "cfd"), ("swimmer.coefficients", "magic"),
    ("swimmer.cfd_speed", "0.01"), ("swimmer.cfd_speed", "0"), ("swimmer.cfd_speed", "1e-320"),
    ("swimmer.k_long", "1"), ("swimmer.k_long", "1e-14"), ("swimmer.k_lat", "2"),
    ("swimmer.k_lat", "inf"),
    ("integrator.h", "0.01"), ("integrator.h", "0"), ("integrator.h", "inf"),
    ("integrator.min_substeps", "1"), ("integrator.min_substeps", "0"),
    ("integrator.min_substeps", "1.5"),
    ("gait.nesting", "literal"), ("gait.nesting", "other"),
    ("gait.x.alpha", "0"), ("gait.x.alpha", "nan"), ("gait.y.beta", "1e300"),
    ("gait.theta.gamma", "-2"), ("gait.x.t", "1e-300"), ("gait.y.t", "0"), ("gait.theta.t", "4"),
    ("gait.y.n", "3"), ("gait.x.n", "0"), ("gait.theta.n", "101"),
    ("gait.x.composite", "false"), ("gait.x.composite", "maybe"),
    ("plan.line.bearing", "30 deg"), ("plan.line.bearing", "-0"), ("plan.line.bearing", "nan"),
    ("plan.line.distance", "3 cm"), ("plan.line.distance", "1e-9"), ("plan.line.distance", "0"),
    ("plan.line.distance", "inf"),
    ("plan.circle.radius", "3 cm"), ("plan.circle.radius", "1e-9"), ("plan.circle.radius", "0"),
    ("plan.circle.radius", "inf"), ("plan.circle.radius", "1e300"),
    ("plan.circle.sides", "3"), ("plan.circle.sides", "2"), ("plan.circle.sides", "1001"),
    ("plan.circle.sides", "4.5"),
    ("no.such.key", "1"),
)
# lines a schedule draws from: `channel amplitude duration`, and lines it must refuse
SCHEDULE_LINES = (
    "1 0.5 0.02", "2 -1 0.01", "1 0 0.1", "2 1e-9 1e-9", "# a comment", "",
    "1 1e300 0.01", "1 3e-323 1.0", "2 1 0", "1 1 -1", "1 nan 0.1", "3 1 1", "1 1",
    "2 0.3 1e300",
)
COMMANDS = ("synthesize", "coefficients", "simulate", "plan-line", "plan-circle", "analyze",
            "probe")
LENGTH_EXPONENTS = (-20, -3, 1, 5, 20)
LENGTH_KEYS = ("swimmer.L", "swimmer.b")
UNIT_FREE = ("min_rank = ", "min_sigma_ratio = ", "weakest_shape = ")   # lines of analyze
ALARM = 10   # seconds one run may take


class _Slow(BaseException):
    """Raised by the alarm; a BaseException, so no handler of the program catches it."""


def _alarm(signum, frame):
    raise _Slow()


def draw_case(rng: random.Random):
    """(argv, config text, schedule text or None) of one case."""
    command = rng.choice(COMMANDS)
    argv, schedule = [command], None
    if command == "synthesize":
        argv += ["--direction", rng.choice(("x", "y", "theta"))]
    elif command == "analyze":
        argv += ["--grid", str(rng.randint(1, 3))]
    elif command == "probe":
        argv += ["--kind", rng.choice(("commutator", "variants", "leakage"))]
    elif command == "simulate":
        argv += ["--schedule", "schedule.txt"]
        schedule = "".join(f"{rng.choice(SCHEDULE_LINES)}\n" for _ in range(rng.randint(0, 4)))
    lines = [rng.choice(EDGES) for _ in range(rng.randint(0, 4))]
    if command == "plan-circle" and all(k != "integrator.h" for k, _ in lines):
        lines.append(("integrator.h", "0.01"))   # not drawn, so the seed's cases stay the same
    config = "".join(f"{k} = {v}\n" for k, v in lines)
    return argv, config, schedule


def run_case(argv, config, schedule):
    """(exit code, stdout, stderr, {file name: bytes}) of one run in a fresh
    directory; None when the run outlived ALARM."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with open("run.cfg", "w", encoding="utf-8") as fh:
                fh.write(config)
            if schedule is not None:
                with open("schedule.txt", "w", encoding="utf-8") as fh:
                    fh.write(schedule)
            out, err = io.StringIO(), io.StringIO()
            signal.alarm(ALARM)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                        warnings.catch_warnings():
                    warnings.simplefilter("always")   # shown whatever ran before in this process
                    code = cli.main([*argv, "--config", "run.cfg", "--out", "out", "--quiet"])
            except _Slow:
                return None
            except Exception:
                code = "raised"
                err.write(traceback.format_exc())
            finally:
                signal.alarm(0)
            files = {}
            for dirpath, _, names in os.walk(work):
                for name in names:
                    path = os.path.join(dirpath, name)
                    rel = os.path.relpath(path, work)
                    if rel not in ("run.cfg", "schedule.txt"):
                        with open(path, "rb") as fh:
                            files[rel] = fh.read()
            return code, out.getvalue(), err.getvalue(), files
        finally:
            os.chdir(here)


def length_scaled(config, k):
    """The config with its effective swimmer.L and swimmer.b times 2**k, or
    None when either leaves the normal range of a double."""
    values = parse_config(config).values
    lengths = [2.0 ** k * values[key] for key in LENGTH_KEYS]
    if not all(sys.float_info.min <= v <= sys.float_info.max for v in lengths):
        return None
    kept = [line for line in config.splitlines(keepends=True)
            if line.partition("=")[0].strip() not in LENGTH_KEYS]
    return "".join(kept) + "".join(f"{key} = {v!r}\n" for key, v in zip(LENGTH_KEYS, lengths))


def unit_free(result):
    """The exit code and the unit-free result lines of an analyze run."""
    return result[0], [line for line in result[1].splitlines() if line.startswith(UNIT_FREE)]


def contract_faults(result):
    """What the run broke of the contract, one phrase each."""
    code, out, err, files = result
    faults = []
    if code not in (0, 1, 2):
        faults.append(f"exit {code}")
    if "Traceback" in err:
        faults.append("a traceback on stderr")
    if code in (1, 2) and err.count("\n") != 1:
        faults.append(f"{err.count(chr(10))} stderr lines on exit {code}")
    if code == 1 and out:
        faults.append("result lines on exit 1")
    if code == 1 and files:
        faults.append(f"files on exit 1: {sorted(files)}")
    return faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=120.0,
                        help="start no case after this many seconds")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)
    rng = random.Random(args.seed)
    exponents = random.Random(f"lengths {args.seed}")   # leaves the cases rng draws alone
    start = time.monotonic()
    counts, slow, failed, rescaled, out_of_range = {}, 0, 0, 0, 0
    per_command = {command: [0, 0] for command in COMMANDS}   # cases run, stopped slow
    while time.monotonic() - start < args.seconds:
        case = draw_case(rng)
        first = run_case(*case)
        second = run_case(*case) if first is not None else None
        tally = per_command[case[0][0]]
        if first is None or second is None:
            slow += 1
            tally[1] += 1
            continue
        tally[0] += 1
        faults = contract_faults(first)
        if second != first:
            faults.append("a second run gave other bytes")
        if case[0][0] == "analyze" and first[0] != 1:
            k = exponents.choice(LENGTH_EXPONENTS)
            config = length_scaled(case[1], k)
            scaled = None if config is None else run_case(case[0], config, None)
            if config is None:
                out_of_range += 1
            elif scaled is None:
                slow += 1
            else:
                rescaled += 1
                if unit_free(scaled) != unit_free(first):
                    faults.append(f"L and b times 2**{k} gave {unit_free(scaled)}, "
                                  f"not {unit_free(first)}")
        counts[first[0]] = counts.get(first[0], 0) + 1
        if faults:
            failed += 1
            argv, config, schedule = case
            print(f"FAULT {' '.join(argv)}: {'; '.join(faults)}")
            print(f"    config: {config!r}  schedule: {schedule!r}")
            print("    stderr: " + first[2].replace("\n", "\n    "))
    runs = sum(counts.values())
    tally = ", ".join(f"{n} exited {code}" for code, n in sorted(counts.items(), key=str))
    print(f"seed {args.seed}: {runs} cases run twice in {time.monotonic() - start:.0f} s "
          f"({tally}); {rescaled} analyze cases rerun at 2**k lengths ({out_of_range} k out "
          f"of range); {slow} stopped after {ALARM} s; {failed} broke the contract or the "
          f"relation")
    print("cases run (stopped after the alarm) per command: "
          + ", ".join(f"{command} {run} ({stopped})"
                      for command, (run, stopped) in per_command.items()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
