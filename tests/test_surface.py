"""The package's public surface: every public name has a reader outside the tests.

A function that only tests call is a second route to keep correct, not part
of the program.  The tests check behaviour through the names the program
itself uses, so a name with no reader in `src/` or `perfbench/` goes.
"""

import ast
import pathlib
import types

import purcell

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "purcell").glob("*.py") if p.name != "__init__.py")
HARNESS = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))

# The documented reader of the trajectory CSV format (README, "File formats"):
# users read the files back with it, the program only writes them.
EXEMPT = {"report.read_trajectory_csv"}


def _definitions(tree):
    """(name, decorated) for each public top-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
            # a decorated function is read by its decorator (selftest's
            # @_check registers each criterion)
            decorated = isinstance(node, ast.FunctionDef) and bool(node.decorator_list)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            decorated = False
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, decorated


def _reads(tree):
    """Every name the tree loads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_public_name_has_a_reader():
    trees = {p: ast.parse(p.read_text(), str(p)) for p in MODULES + HARNESS}
    read = {name for tree in trees.values() for name in _reads(tree)}
    unread = [f"{p.stem}.{name}" for p in MODULES for name, decorated in _definitions(trees[p])
              if not decorated and name not in read and f"{p.stem}.{name}" not in EXEMPT]
    assert not unread, f"public names that only tests read: {', '.join(unread)}"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from purcell import *", namespace)
    del namespace["__builtins__"]
    assert len(set(purcell.__all__)) == len(purcell.__all__)
    assert set(namespace) == set(purcell.__all__)
    for name in purcell.__all__:
        assert namespace[name] is getattr(purcell, name)
    public = {name for name, value in vars(purcell).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(purcell.__all__)


def test_main_catches_every_error_class():
    # each error class reaches its exit code through an `except` clause of
    # cli.main that names it, not only as a subclass of a class named there
    errors = ast.parse((ROOT / "src" / "purcell" / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    cli = ast.parse((ROOT / "src" / "purcell" / "cli.py").read_text())
    main = next(node for node in cli.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = {name for handler in ast.walk(main) if isinstance(handler, ast.ExceptHandler)
              and handler.type is not None for name in _reads(handler.type)}
    assert defined and not defined - caught, f"not caught by name: {defined - caught}"
