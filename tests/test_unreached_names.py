"""src/ holds what a command reaches, so this guard parses every module of
the package and fails on a function, class, method or property that no code
in src/ names. Tests do not count: a name only tests reach goes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rbmlmc"

ALLOWED = {
    # perfbench/tracer.py wraps it by name (ROADMAP item 1b)
    ("bitsource.py", "draw_dyadic_values"),
    # criterion 2's negative control reads a joint law through it
    ("bakhvalov.py", "joint_is_uniform"),
}


def _unreached(sources):
    """(file, name) for each definition in sources, a map of module file
    names to code, that no code there names. Dunders are called by Python.
    __init__.py only re-exports: it is not checked, and an import is not a
    use."""
    trees = {f: ast.parse(code) for f, code in sources.items()}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Name | ast.Attribute)}
    return sorted(
        (f, node.name) for f, tree in trees.items() if f != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef | ast.ClassDef)
        and node.name not in named
        and not node.name[:2] == node.name[-2:] == "__")


def test_every_definition_is_named_in_src():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    # equality: an allowed name that src/ comes to name leaves the list
    assert _unreached(sources) == sorted(ALLOWED)


def test_guard_sees_functions_classes_methods_and_properties():
    module = ("class Used:\n"
              "    def __init__(self): pass\n"
              "    @property\n"
              "    def prop(self): pass\n"
              "    def method(self): return helper()\n"
              "def helper(): return Used().method()\n"
              "class Lone: pass\n")
    init = "from .m import Lone\ndef g(): pass\n"
    assert _unreached({"m.py": module, "__init__.py": init}) == [
        ("m.py", "Lone"), ("m.py", "prop")]
