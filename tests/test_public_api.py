"""Every public function and method of the library has a caller in the library.

A helper that only the tests call belongs in ``tests/oracles.py``, and one
that nothing calls belongs nowhere.  The scan parses ``src/decalage`` and
counts a definition as used when some module other than ``__init__.py``
refers to it: a function by name, attribute or import alias, a method only
by attribute (``x.method``), so a local variable of the same name does not
count.  The scan matches by bare name, so an attribute of the same name on
another object (``ctx.intersect`` for ``Subspace.intersect``, say) still
hides an unused method; such methods are found by reading the callers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "decalage"

# read from outside the library: sheaf_to_json pairs with sheaf_from_json, and
# the benchmark's tracer probes read the other three
EXEMPT = {"serialize.sheaf_to_json", "SNFResult.v", "SNFResult.vinv", "FreeComplex.total_rank"}


def public_definitions(path: Path):
    """("module.function" or "Class.method", bare name, is a method) per public definition."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{path.stem}.{node.name}", node.name, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name, True


def referenced_names(path: Path) -> tuple:
    """(names and import aliases, attribute names) that the module refers to."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names, attributes


def test_every_public_function_has_a_caller_in_the_library():
    modules = sorted(SRC.glob("*.py"))
    names, attributes = set(), set()
    for path in modules:
        if path.name != "__init__.py":
            found, attrs = referenced_names(path)
            names |= found
            attributes |= attrs
    unused = sorted(
        qualified
        for path in modules
        for qualified, name, is_method in public_definitions(path)
        if not name.startswith("_")
        and name not in (attributes if is_method else names | attributes)
    )
    assert unused == sorted(EXEMPT)
