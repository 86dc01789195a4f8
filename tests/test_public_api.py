"""Every public function and method of the library has a caller in the library.

A helper that only the tests call belongs in ``tests/oracles.py``, and one
that nothing calls belongs nowhere.  The scan parses ``src/decalage`` and
counts a definition as used when some module other than ``__init__.py``
refers to it: a function by name, attribute or import alias, a method only
by attribute (``x.method``), so a local variable of the same name does not
count, and a property only by an attribute that is read, not called
(``res.u``, not ``K.d(i)``), so a method of the same name does not count.
The scan matches by bare name, so an attribute of the same name on another
object (``ctx.intersect`` for ``Subspace.intersect``, say) still hides an
unused method; such methods are found by reading the callers.

The same holds for data: every field a library class assigns is read by
attribute somewhere in the library, and every module of the library and its
tests uses each name it imports, and no module of the library imports a
``_``-prefixed name from another: the one elimination over k, ``_extend``,
stays inside ``kmatrix``.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "decalage"

# read from outside the library: sheaf_to_json pairs with sheaf_from_json, the
# benchmark's tracer probes read SNFResult.d, SNFResult.v, SNFResult.vinv and
# FreeComplex.total_rank, perfbench/selftest.py shifts an image flag, and
# solve_exact is the exported one-shot solve that the benchmark traces
EXEMPT = {"serialize.sheaf_to_json", "SNFResult.d", "SNFResult.v", "SNFResult.vinv",
          "FreeComplex.total_rank", "Flag.shifted", "rmatrix.solve_exact"}


def public_definitions(path: Path):
    """("module.function" or "Class.method", bare name, kind) per public definition.

    The kind is "function", "method" or "property".
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{path.stem}.{node.name}", node.name, "function"
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    is_property = any(isinstance(d, ast.Name) and d.id == "property"
                                      for d in item.decorator_list)
                    yield (f"{node.name}.{item.name}", item.name,
                           "property" if is_property else "method")


def referenced_names(path: Path) -> tuple:
    """(names and import aliases, attribute names, attribute names read but not called)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    names, attributes, read = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
            if id(node) not in callees:
                read.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names, attributes, read


def test_every_public_function_has_a_caller_in_the_library():
    modules = sorted(SRC.glob("*.py"))
    names, attributes, read = set(), set(), set()
    for path in modules:
        if path.name != "__init__.py":
            found, attrs, reads = referenced_names(path)
            names |= found
            attributes |= attrs
            read |= reads
    used = {"function": names | attributes, "method": attributes, "property": read}
    unused = sorted(
        qualified
        for path in modules
        for qualified, name, kind in public_definitions(path)
        if not name.startswith("_") and name not in used[kind]
    )
    assert unused == sorted(EXEMPT)


def assigned_fields(path: Path):
    """("Class.field", field) per field a non-exception class of the module assigns.

    A field is a ``self.x = ...`` target in any method or an annotated name
    in a dataclass body.  Exception classes are skipped: their fields are
    witness payloads for the callers that catch them.
    """
    module = importlib.import_module(f"decalage.{path.stem}")
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.ClassDef) or issubclass(getattr(module, node.name),
                                                            BaseException):
            continue
        fields = set()
        if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields |= {item.target.id for item in node.body
                       if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store) \
                    and isinstance(sub.value, ast.Name) and sub.value.id == "self":
                fields.add(sub.attr)
        for name in fields:
            yield f"{node.name}.{name}", name


def test_every_field_is_read_in_the_library():
    modules = [path for path in sorted(SRC.glob("*.py")) if not path.name.startswith("__")]
    read = {node.attr
            for path in modules
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted(qualified for path in modules
                    for qualified, name in assigned_fields(path) if name not in read)
    assert unread == []


# perfbench/selftest.py checks that theorem re-exports this function from bockstein
UNUSED_IMPORT_EXEMPT = {"theorem.k_cohomology_quotient"}


def unused_imports(path: Path):
    """"module.name" per name the module imports and never refers to."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    yield f"{path.stem}.{bound}"


def test_every_import_is_used():
    # the package's __init__ imports its public names to re-export them
    paths = [path for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
             if path.name != "__init__.py"]
    unused = sorted(name for path in paths for name in unused_imports(path))
    assert unused == sorted(UNUSED_IMPORT_EXEMPT)


def test_no_module_imports_a_private_name_of_another():
    imported = sorted(f"{path.stem}: {node.module}.{alias.name}"
                      for path in sorted(SRC.glob("*.py"))
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                      for alias in node.names if alias.name.startswith("_"))
    assert imported == []
