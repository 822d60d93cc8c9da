"""Import structure of the package.

The stripe engine holds both placement rules, so it imports nothing from
the layout modules ``design1`` and ``design2``; they only re-export the
engine under the layouts' names. An import inside a function or class
body is how an import cycle hides, so none is allowed anywhere in the
package.
"""

import ast
from pathlib import Path

from piggyback import design1, design2, stripe

PACKAGE = Path(stripe.__file__).resolve().parent
LAYOUTS = {"design1", "design2"}
ENGINE = ("stripe", "analysis", "shards", "cli")


def _tree(name):
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _imported(node) -> set[str]:
    """Every dotted part an import statement names, modules and members."""
    names = [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        names.append(node.module)
    return {part for name in names for part in name.split(".")}


def test_no_import_inside_a_function_or_class():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for scope in ast.walk(_tree(path.stem)):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for stmt in scope.body
                    for node in ast.walk(stmt)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not found, f"imports inside a function or class body: {sorted(set(found))}"


def test_engine_modules_do_not_import_the_layouts():
    found = [
        f"{name}.py:{node.lineno}"
        for name in ENGINE
        for node in _tree(name).body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and _imported(node) & LAYOUTS
    ]
    assert not found, f"engine modules importing a layout module: {found}"


def test_layouts_re_export_the_engine():
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = {name: [node.name for node in _tree(name).body if isinstance(node, defs)]
               for name in LAYOUTS}
    assert defined == {"design1": [], "design2": ["recover_failures"]}
    exported = {
        design1: ("build_map", "encode_stripe", "repair_node", "decode_from_k",
                  "piggyback_index"),
        design2: ("encode_stripe", "repair_node", "decode_from_k", "piggyback_target",
                  "piggyback_sources", "wrap", "FailurePattern"),
    }
    for module, names in exported.items():
        for name in names:
            assert getattr(module, name) is getattr(stripe, name), f"{module.__name__}.{name}"
