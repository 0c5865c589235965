"""Mutation smoke: one-line mutants of the package, each with the tests that must kill it.

Each mutant changes one line of a file of src/purcell in a temporary copy of
the repository's src/, tests/ and pyproject.toml, then runs there the
selection of its own test file named for it.  The mutant is killed when that
selection fails.  Before any mutant runs, every selection must pass on the
unchanged copy.  Mutants that cannot change what the program does are listed
in EQUIVALENT, each with its reason; they are not run.

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py carry lf     # those whose name holds a word given

Exit code 0 when every mutant run is killed, 1 when one survives or the
unchanged copy fails a selection.  Pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    source: str   # a file of src/purcell
    line: str     # the whole line as it stands, without its indentation
    mutated: str
    tests: str    # a file of tests/
    select: str   # a pytest -k expression over it


REPORT, TEST_REPORT = "report.py", "test_report.py"
KERNEL = "TestDecimalKernel"
LENGTHS = "test_csv_lengths or block"

MUTANTS = (
    # the decimal kernel of the CSV and polyline writers
    Mutant("ties-half-up", REPORT,
           "np.put(n, tie, np.rint(pt + 0.25 * np.sign(_product_error(at, st, pt))))",
           "np.put(n, tie, pt + 0.5)", TEST_REPORT, KERNEL),
    Mutant("tie-error-sign", REPORT,
           "np.put(n, tie, np.rint(pt + 0.25 * np.sign(_product_error(at, st, pt))))",
           "np.put(n, tie, np.rint(pt - 0.25 * np.sign(_product_error(at, st, pt))))",
           TEST_REPORT, KERNEL),
    Mutant("log10-one-high", REPORT,
           "k += a < _G_LOWER.take(k)   # where log10 rounded up to an integer", "pass",
           TEST_REPORT, KERNEL),
    Mutant("carry-dropped", REPORT, "np.put(q, rest[carry], 10 ** 14)", "pass", TEST_REPORT, KERNEL),
    Mutant("below-1e-4-fixed", REPORT,
           "rest = np.flatnonzero((n >= 9 * 10 ** 14) | (k == 19))   # d not of 15 digits, or below 1e-4",
           "rest = np.flatnonzero(n >= 9 * 10 ** 14)", TEST_REPORT, KERNEL),
    Mutant("zero-to-percent", REPORT, "rest = rest[~carry & (a.take(rest) != 0.0)]",
           "rest = rest[~carry]", TEST_REPORT, "special or block"),
    Mutant("trim-for-full", REPORT,
           "_G_FORMS = np.array([[_FULL, _TRIM], [_P1, _P1_TRIM], [_P2, _P2_TRIM], [_P3, _FULL],",
           "_G_FORMS = np.array([[_TRIM, _TRIM], [_P1, _P1_TRIM], [_P2, _P2_TRIM], [_P3, _FULL],",
           TEST_REPORT, KERNEL),
    Mutant("integer-trimmed", REPORT, "[_FULL, _FULL]])", "[_FULL, _TRIM]])", TEST_REPORT, KERNEL),
    Mutant("minus-zero-segment", REPORT, 'for s in ("", "" if c == 2 and k == 19 else "-")',
           'for s in ("", "-")', TEST_REPORT, "ties_and_edges or first_and_last"),
    Mutant("lf-word", REPORT, '_LF = _words("\\n")[0]', '_LF = _words("\\r\\n")[0]', TEST_REPORT,
           LENGTHS),
    Mutant("short-last-block", REPORT,
           'yield (raw if m == size else raw[:284 * m]).translate(None, b"\\0")',
           'yield raw.translate(None, b"\\0")', TEST_REPORT, LENGTHS),
    Mutant("point-first-space", REPORT,
           "_F2_SEP[0] = 1000 * _LEAD   # nothing before a block's first point",
           "_F2_SEP[0] = 1000 * _SPACE_LEAD", TEST_REPORT, "f2_bit_patterns or svg_lengths"),
    Mutant("point-trimmed", REPORT, "recs[..., 1] = _WORDS.take(g + 1000 * _P1)",
           "recs[..., 1] = _WORDS.take(g + 1000 * _P1_TRIM)", TEST_REPORT, "f2_bit_patterns"),
    # the one write path, and input read as UTF-8, in any locale
    Mutant("text-mode-write", REPORT, 'with open(path, "wb") as fh:', 'with open(path, "w") as fh:',
           TEST_REPORT, "TestSvg or TestCsv"),
    Mutant("surrogates-kept", REPORT,
           's = s.encode("utf-8", "surrogateescape").decode("utf-8", "replace")', "pass",
           TEST_REPORT, "fffd"),
    Mutant("surrogates-as-question-marks", REPORT,
           's = s.encode("utf-8", "surrogateescape").decode("utf-8", "replace")',
           's = s.encode("utf-8", "replace").decode("utf-8")', TEST_REPORT, "fffd"),
    Mutant("stdout-strict", "cli.py",
           'print(line.encode("utf-8", "surrogateescape").decode("ascii", "backslashreplace"))',
           "print(line)", "test_cli.py", "wrote_line"),
    Mutant("read-in-the-locale", "cli.py", 'return pathlib.Path(path).read_text("utf-8")',
           "return pathlib.Path(path).read_text()", "test_cli.py", "read_as_utf8"),
    Mutant("out-dir-not-a-file-name", "config.py",
           'return os.fsdecode(token.encode("utf-8", "surrogateescape"))   # a file name, any locale',
           "return token", "test_cli.py", "read_as_utf8 and config"),
    # three that once survived the whole tier-1 suite, each with the test that kills it
    Mutant("cycles-floored", "planner.py", "cycles = round(count)", "cycles = math.floor(count)",
           "test_planner.py", "test_residuals_are_at_most_half_a_cycle"),
    Mutant("wrap-minus-pi", "simulate.py",
           "return np.where(inside, a, np.where(r <= 0.0, r + TWO_PI, r) - _PI)",
           "return np.where(inside, a, np.where(r < 0.0, r + TWO_PI, r) - _PI)",
           "test_simulate.py", "test_wrap_angles_is_wrap_angle_bit_for_bit"),
    Mutant("dominance-one", "planner.py", "MIN_DOMINANCE = 2.0", "MIN_DOMINANCE = 1.0",
           "test_planner.py", "test_dominance_threshold_is_two"),
)

# (the file, the line, its mutation, why the program's behaviour cannot change)
EQUIVALENT = (
    (REPORT, "n = np.rint(p)", "n = np.floor(p + 0.5)",
     "p + 0.5 is exact below 2**50, and every p half-way between integers goes through the "
     "tie path, which rounds it again"),
    (REPORT, "np.fmin(n, 2e15, out=n)   # nan, inf and huge values: out of range, but an int64",
     "np.fmin(n, 3e15, out=n)",
     "any bound from 1e15 up to 2**63 keeps the int64 cast defined and the value out of range"),
    (REPORT, "carry = (q.take(rest) == 10 ** 15) & (kr > 0)   # rounded up to the next power of ten",
     "carry = (q.take(rest) == 10 ** 15) & (kr > 99)",
     "a value that rounds up to the next power of ten is then written by `%`, which spells it "
     "the same"),
)


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _mutate(tree: str, source: str, line: str, mutated: str) -> None:
    path = os.path.join(tree, "src", "purcell", source)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    hits = [i for i, text in enumerate(lines) if text.strip() == line]
    if len(hits) != 1:
        raise SystemExit(f"{source}: {len(hits)} lines read {line!r}, not one")
    text = lines[hits[0]]
    lines[hits[0]] = text[:len(text) - len(text.lstrip())] + mutated
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _passes(tree: str, tests: str, select: str) -> bool:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           os.path.join("tests", tests), "-k", select],
                          cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    return proc.returncode == 0


def main(words) -> int:
    chosen = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    for source, line, mutated, _ in EQUIVALENT:   # each still names a line that exists once
        with tempfile.TemporaryDirectory() as tree:
            _copy_tree(tree)
            _mutate(tree, source, line, mutated)
    with tempfile.TemporaryDirectory() as tree:
        _copy_tree(tree)
        for tests, select in sorted({(m.tests, m.select) for m in chosen}):
            if not _passes(tree, tests, select):
                print(f"the unchanged copy fails {tests} -k {select!r}")
                return 1
    survivors = []
    for m in chosen:
        start = time.monotonic()
        with tempfile.TemporaryDirectory() as tree:
            _copy_tree(tree)
            _mutate(tree, m.source, m.line, m.mutated)
            killed = not _passes(tree, m.tests, m.select)
        print(f"{'killed  ' if killed else 'SURVIVED'} {m.name:28s} {m.tests} -k {m.select!r} "
              f"({time.monotonic() - start:.1f} s)", flush=True)
        if not killed:
            survivors.append(m.name)
    for source, line, mutated, reason in EQUIVALENT:
        print(f"not run  {source}: {mutated!r}: {reason}")
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
