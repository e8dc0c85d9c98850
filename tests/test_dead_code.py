"""Every function and class the package defines is named somewhere
outside its own definition: in the package, in the benchmark's scripts
or in the acceptance suite.  The benchmark's tracer looks names up by
string, so there a string constant that spells a (dotted) name counts.
Code that only the other tests use is deleted or moved into the tests."""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "subdiff").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def named(node: ast.AST, strings: bool) -> list[str]:
    """The identifiers node names: a variable, an attribute, an imported
    name and, when strings count, a string constant spelling a dotted name."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return node.name.split(".")
    if strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split(".") if re.fullmatch(r"[A-Za-z_][\w.]*", node.value) else []
    return []


def scan(path: Path, strings: bool, uses: dict) -> list[ast.AST]:
    """Adds to uses[name] the set of definitions enclosing each naming of
    name in the file; returns the file's definitions."""
    defs = []

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        for name in named(node, strings):
            uses[name].append(enclosing)
        if isinstance(node, DEFINITIONS):
            defs.append(node)
            enclosing = enclosing | {node}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return defs


def test_every_package_definition_is_named_outside_itself():
    uses = defaultdict(list)
    defs = [(path.name, node) for path in PACKAGE for node in scan(path, False, uses)]
    for path in BENCH:
        scan(path, True, uses)
    scan(ROOT / "tests" / "test_acceptance.py", False, uses)
    unused = [f"{file}:{node.lineno} {node.name}" for file, node in defs
              if not re.fullmatch(r"__\w+__", node.name)  # called by the language
              and not any(node not in enclosing for enclosing in uses[node.name])]
    assert not unused, "defined but named only in its own body or in tests: " + ", ".join(unused)
