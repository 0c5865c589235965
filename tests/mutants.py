"""Mutation smoke: one-line mutants of the package, each with the tests that must kill it.

Each mutant changes one line of a file of src/purcell in a temporary copy of
the repository's src/, tests/, perfbench/ (without its out/), pyproject.toml
and README.md, then runs there the selection of its own test file named for
it.  The mutant is killed when that selection fails.  Before any mutant runs,
every line named must exist once in src/purcell, and every selection must
pass on the unchanged copy.  Mutants that cannot change what the program
does are listed in EQUIVALENT, each with its reason; they are not run.

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
LIE, TEST_LIE = "lie.py", "test_lie.py"
SE2, TEST_SE2 = "se2.py", "test_se2.py"
GAITS, TEST_GAITS = "gaits.py", "test_gaits.py"
TEST_INVARIANCE = "test_invariance.py"
_TEXT_LINE = ('s = s.encode("utf-8", "surrogateescape").decode("utf-8", "replace")'
              '.translate(_NOT_XML)')
_NOT_XML_LINE = ('_NOT_XML = dict.fromkeys([*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), '
                 '0xFFFE, 0xFFFF], "\\ufffd")')
_DIFFERENCE_LINE = ("return np.ascontiguousarray(np.moveaxis((v[0::2] - v[1::2]) / (2.0 * h), "
                    "0, -1))")
_PROBE_LINE = "reference = bracket_basis(STRAIGHT, params, h_inner=DEFAULT_STEP)[2:, 2]"
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
    Mutant("surrogates-kept", REPORT, _TEXT_LINE, "s = s.translate(_NOT_XML)", TEST_REPORT,
           "fffd"),
    Mutant("surrogates-as-question-marks", REPORT, _TEXT_LINE,
           's = s.encode("utf-8", "replace").decode("utf-8").translate(_NOT_XML)', TEST_REPORT,
           "fffd"),
    Mutant("stdout-strict", "cli.py",
           'print(line.encode("utf-8", "surrogateescape").decode("ascii", "backslashreplace"))',
           "print(line)", "test_cli.py", "wrote_line"),
    Mutant("broken-pipe-flushed-again", "cli.py",
           "os.dup2(devnull, sys.stdout.fileno())", "pass", "test_cli.py",
           "closes_stdout_early"),
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
    Mutant("xml-controls-kept", REPORT, _NOT_XML_LINE, "_NOT_XML = {}", TEST_REPORT,
           "xml_forbids"),
    # the connection kernel and the drag coefficients
    Mutant("cond-limit-loose", "model.py", "COND_LIMIT = 1e12", "COND_LIMIT = 1e30",
           "test_model.py", "TestConditioningGuard"),
    Mutant("lateral-drag-thrice", "model.py",
           "return params._replace(k_long=k_long, k_lat=2.0 * k_long)",
           "return params._replace(k_long=k_long, k_lat=3.0 * k_long)", "test_model.py",
           "test_ratio_is_two"),
    Mutant("thick-link-kept", "model.py", "if params.b >= params.L:", "if params.b > params.L:",
           "test_model.py", "test_rejects_thick_links"),
    # the Lie layer and its block memo
    Mutant("memo-key-without-outer-step", LIE,
           'key = struct.pack("<12d", *p.shape, *p.pose, *params, h_inner, h_outer)',
           'key = struct.pack("<11d", *p.shape, *p.pose, *params, h_inner)', TEST_LIE,
           "any_other_key"),
    Mutant("memo-never-kept", LIE, "_last_block = (key, B)", "pass", TEST_LIE, "one_basis"),
    Mutant("memo-unset-drag-to-struct", LIE,
           "validate_params(params)   # so an unset k is refused here, not by struct", "pass",
           TEST_LIE, "unset_drag"),
    Mutant("span-check-dropped", LIE,
           "if sigma[0] == 0 or sigma[-1] < 1e-10 * sigma[0]:", "if sigma[0] == 0:", TEST_LIE,
           "degenerate or refused"),
    Mutant("commutator-term-negated", LIE,
           "out[2:] += se2_commutator(x_val[2:].tolist(), y_val[2:].tolist())",
           "out[2:] -= se2_commutator(x_val[2:].tolist(), y_val[2:].tolist())", TEST_LIE,
           "algebra_commutator"),
    Mutant("one-sided-step", LIE, _DIFFERENCE_LINE,
           "return np.ascontiguousarray(np.moveaxis((v[0::2] - v[1::2]) / h, 0, -1))", TEST_LIE,
           "linear_field_exact"),
    Mutant("fortran-order-jacobian", LIE, _DIFFERENCE_LINE,
           "return np.moveaxis((v[0::2] - v[1::2]) / (2.0 * h), 0, -1)", TEST_LIE,
           "generic_pose_dependent"),
    # g1 and g2 evaluated as one field: one solve, one Jacobian for both
    Mutant("second-column-first-rates", "model.py", "for u1, u2 in ((1.0, 0.0), (0.0, 1.0)):",
           "for u1, u2 in ((1.0, 0.0), (1.0, 0.0)):", "test_model.py", "PairedConnection"),
    Mutant("paired-jacobian-rows-swapped", LIE,
           "(g1, g2), (j1, j2) = g(q), jacobian(g, q, h_inner)",
           "(g1, g2), (j2, j1) = g(q), jacobian(g, q, h_inner)", TEST_LIE,
           "basis_is_the_generic_composition"),
    Mutant("outer-commutator-swapped", LIE,
           "out[2:] += se2_commutator(gi[2:].tolist(), z_p[2:].tolist())",
           "out[2:] += se2_commutator(z_p[2:].tolist(), gi[2:].tolist())", TEST_LIE,
           "basis_is_the_generic_composition"),
    # the commutator probe reads [g1,g2] from the basis
    Mutant("probe-reads-fourth-column", "selftest.py", _PROBE_LINE,
           "reference = bracket_basis(STRAIGHT, params, h_inner=DEFAULT_STEP)[2:, 3]",
           "test_simulate.py", "reads_the_reference_bracket"),
    Mutant("probe-at-the-inner-step", "selftest.py", _PROBE_LINE,
           "reference = bracket_basis(STRAIGHT, params)[2:, 2]", "test_simulate.py",
           "reads_the_reference_bracket"),
    Mutant("paired-jacobian-transposed", LIE, _DIFFERENCE_LINE,
           "return np.ascontiguousarray(np.moveaxis((v[0::2] - v[1::2]) / (2.0 * h), 0, 1))",
           TEST_LIE, "paired_jacobian_is_the_two"),
    Mutant("shape-wrap-dropped", LIE,
           "Configuration(ShapePoint(wrap_angle(a1 + h), a2), pose),",
           "Configuration(ShapePoint(a1 + h, a2), pose),", TEST_LIE, "wraps_within"),
    Mutant("rank-in-physical-units", LIE,
           "return np.array([[1.0], [1.0], [params.L], [params.L], [1.0]])",
           "return np.ones((5, 1))", TEST_LIE, "power_of_two_length"),
    Mutant("rank-against-least", LIE, "rank = int(np.sum(sigma > tol * sigma[0]))",
           "rank = int(np.sum(sigma > tol * sigma[-1]))", TEST_LIE, "drop_rank"),
    # what the README and the benchmark read of the package
    Mutant("config-key-renamed", "config.py", 'Key("swimmer.cfd_speed", None, float),',
           'Key("swimmer.flow_speed", None, float),', "test_config.py", "readme_table"),
    Mutant("basis-made-private", LIE, "def bracket_basis(p: Configuration, params: SwimmerParams,",
           "def _bracket_basis(p: Configuration, params: SwimmerParams,",
           "test_benchmark_ops.py", "keys_on"),
    # the rows simulate keeps, and the calibration's quantum per direction
    Mutant("kept-under-params-alone", "simulate.py",
           "known = {} if kept is None else kept.setdefault((params, cfg), {})",
           "known = {} if kept is None else kept.setdefault(params, {})", "test_simulate.py",
           "never_share_kept_rows"),
    Mutant("kept-rows-not-copied", "simulate.py",
           "entry = known[key] = (body if kept is None else body.copy(), xi0, end)",
           "entry = known[key] = (body, xi0, end)", "test_simulate.py", "warm_and_cold"),
    Mutant("per-cycle-reads-x", "planner.py", "return self.delta[DIRECTIONS.index(self.direction)]",
           "return self.delta[0]", "test_planner.py", "per_cycle"),
    # metamorphic relations: changes that no tolerance-based test sees
    Mutant("start-x-wrapped", "simulate.py",
           "rows[0] = (0.0, wrap_angle(a1), wrap_angle(a2), x, y, wrap_angle(th), 0.0, 0.0, 0.0,",
           "rows[0] = (0.0, wrap_angle(a1), wrap_angle(a2), wrap_angle(x), y, wrap_angle(th), "
           "0.0, 0.0, 0.0,", TEST_INVARIANCE, "power_of_two_length"),
    Mutant("drag-ratio-regularised", "model.py", "d = params.k_long / params.k_lat - 1.0",
           "d = params.k_long / (params.k_lat + 1e-14) - 1.0", TEST_INVARIANCE,
           "power_of_two_drag"),
    Mutant("sine-of-the-reduced-angle", "model.py", "c1, s1 = math.cos(a1), math.sin(a1)",
           "c1, s1 = math.cos(a1), math.sin(a1 % (2.0 * math.pi))", TEST_INVARIANCE, "mirrored"),
    Mutant("dominance-at-default-length", "planner.py", "char_length = 6.0 * params.L",
           "char_length = 0.3", TEST_INVARIANCE, "twice_the_size"),
    # the SE(2) group
    Mutant("wrap-to-minus-pi", SE2, "if r <= 0.0:", "if r < 0.0:", TEST_SE2, "wrap_angle"),
    Mutant("compose-sign", SE2, "a.x + c * b.x - s * b.y,", "a.x + c * b.x + s * b.y,", TEST_SE2,
           "compose"),
    Mutant("inverse-keeps-angle", SE2, "wrap_angle(-g.theta),", "wrap_angle(g.theta),", TEST_SE2,
           "inverse"),
    Mutant("commutator-sign", SE2, "return (-aw * by + bw * ay, aw * bx - bw * ax, 0.0)",
           "return (aw * by - bw * ay, aw * bx - bw * ax, 0.0)", TEST_LIE, "algebra_commutator"),
    Mutant("torus-second-unwrapped", SE2, "d2 = wrap_angle(a[1] - b[1])", "d2 = a[1] - b[1]",
           TEST_SE2, "torus_distance_wraps"),
    # gait schedules
    Mutant("reverse-not-negated", GAITS,
           "segs = tuple(ControlSegment(s.channel, -s.amplitude, s.duration)",
           "segs = tuple(ControlSegment(s.channel, s.amplitude, s.duration)", TEST_GAITS,
           "reverse"),
    Mutant("inverse-square-swapped", GAITS,
           "_INVERSE_SQUARE = (2, 1.0, 1, 1.0)     # exact inverse of the plus square",
           "_INVERSE_SQUARE = (1, 1.0, 2, 1.0)", TEST_GAITS, "closing_squares"),
    Mutant("variant-not-rotated", GAITS,
           "return ControlSchedule(tuple(segs[variant:] + segs[:variant]))",
           "return ControlSchedule(tuple(segs[:variant] + segs[variant:]))", TEST_GAITS,
           "variant_rotation"),
    Mutant("literal-inner-legs", GAITS,
           "mid, inner, closing = math.sqrt(t) / n, t ** 0.25 / n, _MIRROR_SQUARE",
           "mid, inner, closing = math.sqrt(t) / n, t ** 0.25 / n ** 0.75, _MIRROR_SQUARE",
           TEST_GAITS, "nesting_durations"),
    Mutant("literal-blocks-interleaved", GAITS,
           "segs = [seg for block in blocks for _ in range(n) for seg in block] + square",
           "segs = [seg for _ in range(n) for block in blocks for seg in block] + square",
           TEST_GAITS, "block_order"),
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
    (LIE, 'key = struct.pack("<12d", *p.shape, *p.pose, *params, h_inner, h_outer)',
     'key = struct.pack("<9d", *p.shape, *params, h_inner, h_outer)',
     "the basis has the same bits at every pose (test_basis_is_the_same_bits_at_every_pose), "
     "so a block kept at one pose is the block of any other"),
)


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(os.path.join(ROOT, name), dest)


def _find(tree: str, source: str, line: str):
    """The path of `source` in `tree`, its lines, and the index of the one that reads `line`."""
    path = os.path.join(tree, "src", "purcell", source)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    hits = [i for i, text in enumerate(lines) if text.strip() == line]
    if len(hits) != 1:
        raise SystemExit(f"{source}: {len(hits)} lines read {line!r}, not one")
    return path, lines, hits[0]


def _mutate(tree: str, source: str, line: str, mutated: str) -> None:
    path, lines, i = _find(tree, source, line)
    text = lines[i]
    lines[i] = text[:len(text) - len(text.lstrip())] + mutated
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
    # every line named, equivalent ones too, exists once before any mutant runs
    for source, line in [(m.source, m.line) for m in chosen] + [e[:2] for e in EQUIVALENT]:
        _find(ROOT, source, line)
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
