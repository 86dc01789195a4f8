"""Every public function and method of the library has a caller in the library.

A helper that only the tests call belongs in ``tests/oracles.py``, and one
that nothing calls belongs nowhere.  The scan parses ``src/decalage`` and
counts a definition as used when its name appears as a name, an attribute
or an import alias in some module other than ``__init__.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "decalage"

# read from outside the library: sheaf_to_json pairs with sheaf_from_json, and
# the benchmark's tracer probes read the other two
EXEMPT = {"serialize.sheaf_to_json", "SNFResult.vinv", "FreeComplex.total_rank"}


def public_definitions(path: Path):
    """("module.function" or "Class.method", bare name) for each public definition."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{path.stem}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name


def referenced_names(path: Path) -> set:
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_public_function_has_a_caller_in_the_library():
    modules = sorted(SRC.glob("*.py"))
    used = set()
    for path in modules:
        if path.name != "__init__.py":
            used |= referenced_names(path)
    unused = sorted(
        qualified
        for path in modules
        for qualified, name in public_definitions(path)
        if not name.startswith("_") and name not in used
    )
    assert unused == sorted(EXEMPT)
