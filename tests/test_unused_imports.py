"""No linter ships with the project, so this guard parses every module of
the package and fails on a module-level import that the module never uses."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src",
                   "rbmlmc")

# perfbench/tracer.py patches normal_quantile by name in these modules, so
# the bindings stay until the tracer stops patching them (ROADMAP item 1).
ALLOWED = {("mlmc.py", "normal_quantile"), ("euler.py", "normal_quantile")}


def _used_names(tree):
    """Names read anywhere in the module, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        ann = getattr(node, "annotation", None) or getattr(node, "returns",
                                                           None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def _unused_imports(filename):
    with open(os.path.join(SRC, filename)) as fh:
        tree = ast.parse(fh.read())
    used = _used_names(tree)
    return [name for stmt in tree.body
            if isinstance(stmt, ast.Import | ast.ImportFrom)
            for name in (a.asname or a.name.split(".")[0]
                         for a in stmt.names)
            if name not in used and (filename, name) not in ALLOWED]


# __init__.py imports only to re-export the package's public names
@pytest.mark.parametrize("filename", sorted(
    f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py"))
def test_no_unused_module_imports(filename):
    assert _unused_imports(filename) == []
