"""Every top-level name of the product modules has a user outside the tests.

A name counts as used when a live part of `src/qgs` or `bench/` reads it:
a load of the name or of an attribute with its name, or a string equal
to it (the benchmark's tracer names its targets in strings).  Uses inside
the name's own definition, and inside definitions that are themselves
unused, do not count, so a chain of helpers that only tests reach is
caught as a whole.  Code that only tests call belongs in `tests/`, and
neither the package nor the benchmark may import it from there.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qgs"
PRODUCT = ("cli", "scan", "fock_stats", "source_model", "mc_oracle", "errors")
TEST_ONLY = ("oracles", "specfun")

# test-only today, each kept until the ROADMAP item named here decides it
WAITING_NAMES = {
    "classical_g2_closed": "ROADMAP item 6",
}


def defined_names(stmt):
    """Names a top-level statement defines; imports define none here."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def reads(node):
    """Names read under node: loads, attribute names and identifier strings."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def unused_product_names():
    """Product names whose every read lies in their own or another unused definition."""
    defined = set()
    readers = {}  # name -> the sets of names whose definitions read it; empty = live code
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            owners = defined_names(stmt) if path.stem in PRODUCT else set()
            defined |= owners
            for name in reads(stmt):
                readers.setdefault(name, []).append(frozenset(owners))
    for path in (ROOT / "bench").glob("*.py"):
        for name in reads(ast.parse(path.read_text())):
            readers.setdefault(name, []).append(frozenset())
    dead = set()
    while True:
        newly = {
            name
            for name in defined - dead
            if all(owners and owners <= dead | {name} for owners in readers.get(name, []))
        }
        if not newly:
            return dead
        dead |= newly


def test_product_names_have_users():
    unused = unused_product_names()
    assert unused - set(WAITING_NAMES) == set(), "move test-only code to tests/"
    assert set(WAITING_NAMES) - unused == set(), "in use now: drop from WAITING_NAMES"


def imported_modules(tree):
    """Every module name an import statement under tree names, dotted parts split."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield from alias.name.split(".")
        elif isinstance(node, ast.ImportFrom):
            yield from (node.module or "").split(".")
            yield from (alias.name for alias in node.names)


def test_package_is_exactly_the_product():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == set(PRODUCT) | {"__init__"}


def test_product_imports_no_test_code():
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]
    offenders = {
        (path.relative_to(ROOT).as_posix(), name)
        for path in paths
        for name in imported_modules(ast.parse(path.read_text()))
        if name in TEST_ONLY
    }
    assert offenders == set()
