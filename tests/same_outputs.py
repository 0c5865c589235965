"""Byte comparison of the CLI's outputs with those of another copy of the package.

    python3 tests/same_outputs.py PARENT_SRC
    python3 tests/same_outputs.py --rev REV

PARENT_SRC is the `src` directory of another copy of the repository, such
as a `git archive` of the parent commit; `--rev REV` makes that copy itself,
from the `src` of the git revision REV (HEAD^ for the parent commit), in a
temporary directory.  Each command in COMMANDS runs
twice, once with this repository's `src` and once with PARENT_SRC as the
package, each in its own temporary directory and with its own
out-directory.  The exit codes, stdout and every file written are compared
byte for byte.  Two things are masked first: the temporary directory's
path, and the seconds that `selftest` prints for each check.  Every
differing stdout line is printed, and for every differing file its sizes,
its count of differing bytes and the first of them.

Exit code 0 when every output is identical, 1 otherwise.  Pytest does not
collect this file.
"""

import difflib
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONFIGS = {"cfd.cfg": "swimmer.coefficients = cfd\nswimmer.cfd_speed = 0.01\n",
           "micron.cfg": "swimmer.L = 1e-6\nswimmer.b = 1e-7\n"}   # a swimmer 2 um long
# (name, arguments): a command's out-directory is its name
COMMANDS = (
    ("plan-line", ["plan-line"]),
    ("plan-circle", ["plan-circle"]),
    ("coefficients", ["coefficients"]),
    ("coefficients-cfd", ["coefficients", "--config", "cfd.cfg"]),
    ("synthesize-x", ["synthesize", "--direction", "x"]),
    ("synthesize-y", ["synthesize", "--direction", "y"]),
    ("synthesize-theta", ["synthesize", "--direction", "theta"]),
    # the theta gait that the same copy wrote just before
    ("simulate-theta", ["simulate", "--schedule", os.path.join("synthesize-theta", "gait_theta.txt")]),
    ("analyze", ["analyze"]),
    ("analyze-micron", ["analyze", "--config", "micron.cfg"]),
    ("selftest", ["selftest", "--only", "coefficient", "polygon"]),
    ("selftest-rank", ["selftest", "--only", "controllability_rank"]),
)
_SECONDS = re.compile(rb"\b\d+(?:\.\d+)?s \(limit")
SHOWN = 10   # differing bytes shown per file


def run_all(src, work):
    """{name: (exit code, masked stdout, {file name: bytes})} for every command."""
    for file_name, text in CONFIGS.items():
        with open(os.path.join(work, file_name), "w", encoding="utf-8") as fh:
            fh.write(text)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    results = {}
    for name, argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "purcell.cli", *argv, "--out", name],
                              cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        out = _SECONDS.sub(b"<s>s (limit", proc.stdout.replace(os.fsencode(work), b"<work>"))
        files = {}
        out_dir = os.path.join(work, name)
        for file_name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
            with open(os.path.join(out_dir, file_name), "rb") as fh:
                files[file_name] = fh.read()
        results[name] = (proc.returncode, out, files)
        print(f"  {src}: {name} exited {proc.returncode}, {len(files)} files", flush=True)
    return results


def byte_report(ours: bytes, theirs: bytes) -> str:
    n = min(len(ours), len(theirs))
    differ = [i for i in range(n) if ours[i] != theirs[i]] if ours[:n] != theirs[:n] else []
    shown = ", ".join(f"@{i}: {ours[i]:#04x} != {theirs[i]:#04x}" for i in differ[:SHOWN])
    return (f"{len(ours)} and {len(theirs)} bytes, {len(differ)} of the first {n} differ"
            + (f" ({shown}{', ...' if len(differ) > SHOWN else ''})" if differ else ""))


def compare(ours, theirs) -> int:
    """Print every difference; returns how many outputs differ."""
    differing = 0
    for name, _ in COMMANDS:
        (code, out, files), (code2, out2, files2) = ours[name], theirs[name]
        if code != code2:
            differing += 1
            print(f"{name}: exit code {code} here, {code2} in PARENT_SRC")
        if out != out2:
            differing += 1
            print(f"{name}: stdout differs")
            for line in difflib.unified_diff(out2.decode("utf-8", "replace").splitlines(),
                                             out.decode("utf-8", "replace").splitlines(),
                                             "PARENT_SRC", "here", lineterm=""):
                print("    " + line)
        for file_name in sorted(files.keys() | files2.keys()):
            if file_name not in files or file_name not in files2:
                differing += 1
                where = "here" if file_name in files else "in PARENT_SRC"
                print(f"{name}/{file_name}: written only {where}")
            elif files[file_name] != files2[file_name]:
                differing += 1
                print(f"{name}/{file_name}: {byte_report(files[file_name], files2[file_name])}")
    return differing


def archive_src(rev, dest) -> str:
    """The `src` directory of git revision `rev`, unpacked under `dest`."""
    git = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                           stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", dest], stdin=git.stdout)
    git.stdout.close()
    if git.wait() or tar.returncode:
        raise SystemExit(f"cannot archive the src directory of revision {rev!r}")
    return os.path.join(dest, "src")


def main(argv) -> int:
    usage = [line.strip() for line in __doc__.strip().splitlines()[2:4]]
    rev = argv[1] if len(argv) == 2 and argv[0] == "--rev" else None
    if rev is None and (len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "purcell"))):
        print("\n".join(usage))
        print("PARENT_SRC must be a directory that holds the purcell package")
        return 1
    with tempfile.TemporaryDirectory() as here, tempfile.TemporaryDirectory() as there, \
            tempfile.TemporaryDirectory() as archive:
        parent = archive_src(rev, archive) if rev else os.path.abspath(argv[0])
        ours = run_all(os.path.join(ROOT, "src"), here)
        theirs = run_all(parent, there)
        differing = compare(ours, theirs)
    total = sum(1 + 1 + len(files) for _, _, files in ours.values())
    print(f"{differing} of {total} outputs differ (exit codes, stdouts and files of "
          f"{len(COMMANDS)} commands)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
