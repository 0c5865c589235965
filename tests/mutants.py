"""Mutation smoke for the decimal kernel of `purcell.report`.

Each mutant changes one line of src/purcell/report.py in a temporary copy of
the repository's src/, tests/ and pyproject.toml, then runs the selection of
tests/test_report.py named for it there.  The mutant is killed when that
selection fails.  Before any mutant runs, every selection must pass on the
unchanged copy.  Mutants that cannot change what the writers write are
listed in EQUIVALENT, each with its reason; they are not run.

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
TARGET = os.path.join("src", "purcell", "report.py")


class Mutant(NamedTuple):
    name: str
    line: str   # the whole line as it stands, without its indentation
    mutated: str
    select: str   # a pytest -k expression over tests/test_report.py


KERNEL = "TestDecimalKernel"
LENGTHS = "test_csv_lengths or block"

MUTANTS = (
    Mutant("ties-half-up", "np.put(n, tie, np.rint(pt + 0.25 * np.sign(_product_error(at, st, pt))))",
           "np.put(n, tie, pt + 0.5)", KERNEL),
    Mutant("tie-error-sign", "np.put(n, tie, np.rint(pt + 0.25 * np.sign(_product_error(at, st, pt))))",
           "np.put(n, tie, np.rint(pt - 0.25 * np.sign(_product_error(at, st, pt))))", KERNEL),
    Mutant("log10-one-high", "k += a < _G_LOWER.take(k)   # where log10 rounded up to an integer",
           "pass", KERNEL),
    Mutant("carry-dropped", "np.put(q, rest[carry], 10 ** 14)", "pass", KERNEL),
    Mutant("below-1e-4-fixed",
           "rest = np.flatnonzero((n >= 9 * 10 ** 14) | (k == 19))   # d not of 15 digits, or below 1e-4",
           "rest = np.flatnonzero(n >= 9 * 10 ** 14)", KERNEL),
    Mutant("zero-to-percent", "rest = rest[~carry & (a.take(rest) != 0.0)]",
           "rest = rest[~carry]", "special or block"),
    Mutant("trim-for-full", "_G_FORMS = np.array([[_FULL, _TRIM], [_P1, _P1_TRIM], [_P2, _P2_TRIM], [_P3, _FULL],",
           "_G_FORMS = np.array([[_TRIM, _TRIM], [_P1, _P1_TRIM], [_P2, _P2_TRIM], [_P3, _FULL],",
           KERNEL),
    Mutant("integer-trimmed", "[_FULL, _FULL]])", "[_FULL, _TRIM]])", KERNEL),
    Mutant("minus-zero-segment", 'for s in ("", "" if c == 2 and k == 19 else "-")',
           'for s in ("", "-")', "ties_and_edges or first_and_last"),
    Mutant("lf-word", '_LF = _words("\\n")[0]', '_LF = _words("\\r\\n")[0]', LENGTHS),
    Mutant("short-last-block", 'yield (raw if m == size else raw[:284 * m]).translate(None, b"\\0")',
           'yield raw.translate(None, b"\\0")', LENGTHS),
    Mutant("point-first-space", "_F2_SEP[0] = 1000 * _LEAD   # nothing before a block's first point",
           "_F2_SEP[0] = 1000 * _SPACE_LEAD", "f2_bit_patterns or svg_lengths"),
    Mutant("point-trimmed", "recs[..., 1] = _WORDS.take(g + 1000 * _P1)",
           "recs[..., 1] = _WORDS.take(g + 1000 * _P1_TRIM)", "f2_bit_patterns"),
)

# (the line, its mutation, why the written bytes cannot change)
EQUIVALENT = (
    ("n = np.rint(p)", "n = np.floor(p + 0.5)",
     "p + 0.5 is exact below 2**50, and every p half-way between integers goes through the "
     "tie path, which rounds it again"),
    ("np.fmin(n, 2e15, out=n)   # nan, inf and huge values: out of range, but an int64",
     "np.fmin(n, 3e15, out=n)",
     "any bound from 1e15 up to 2**63 keeps the int64 cast defined and the value out of range"),
    ("carry = (q.take(rest) == 10 ** 15) & (kr > 0)   # rounded up to the next power of ten",
     "carry = (q.take(rest) == 10 ** 15) & (kr > 99)",
     "a value that rounds up to the next power of ten is then written by `%`, which spells it "
     "the same"),
)


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _mutate(path: str, line: str, mutated: str) -> None:
    with open(path) as fh:
        lines = fh.read().split("\n")
    hits = [i for i, text in enumerate(lines) if text.strip() == line]
    if len(hits) != 1:
        raise SystemExit(f"{TARGET}: {len(hits)} lines read {line!r}, not one")
    text = lines[hits[0]]
    lines[hits[0]] = text[:len(text) - len(text.lstrip())] + mutated
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def _passes(tree: str, select: str) -> bool:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           os.path.join("tests", "test_report.py"), "-k", select],
                          cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    return proc.returncode == 0


def main(words) -> int:
    chosen = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    for line, mutated, _ in EQUIVALENT:   # each still names a line that exists once
        with tempfile.TemporaryDirectory() as tree:
            _copy_tree(tree)
            _mutate(os.path.join(tree, TARGET), line, mutated)
    with tempfile.TemporaryDirectory() as tree:
        _copy_tree(tree)
        for select in sorted({m.select for m in chosen}):
            if not _passes(tree, select):
                print(f"the unchanged copy fails -k {select!r}")
                return 1
    survivors = []
    for m in chosen:
        start = time.monotonic()
        with tempfile.TemporaryDirectory() as tree:
            _copy_tree(tree)
            _mutate(os.path.join(tree, TARGET), m.line, m.mutated)
            killed = not _passes(tree, m.select)
        print(f"{'killed  ' if killed else 'SURVIVED'} {m.name:20s} -k {m.select!r} "
              f"({time.monotonic() - start:.1f} s)", flush=True)
        if not killed:
            survivors.append(m.name)
    for line, mutated, reason in EQUIVALENT:
        print(f"not run  {mutated!r}: {reason}")
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
