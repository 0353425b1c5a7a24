"""bitsource.py owns every random stream of the package and lists their
ids in one table, so this guard parses every other module and fails where
its code names numpy.random. String annotations are not code."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src",
                   "rbmlmc")


def _names_numpy_random(node):
    if isinstance(node, ast.Attribute):
        return (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.random") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.random") or (
            module == "numpy" and any(a.name == "random" for a in node.names))
    return False


def _numpy_random_lines(filename):
    with open(os.path.join(SRC, filename)) as fh:
        tree = ast.parse(fh.read())
    return [node.lineno for node in ast.walk(tree)
            if _names_numpy_random(node)]


@pytest.mark.parametrize("filename", sorted(
    f for f in os.listdir(SRC) if f.endswith(".py") and f != "bitsource.py"))
def test_only_bitsource_names_numpy_random(filename):
    assert _numpy_random_lines(filename) == []


def test_guard_sees_every_spelling():
    assert _numpy_random_lines("bitsource.py")  # the owner's own streams
    for code in ("np.random.default_rng(0)", "import numpy.random",
                 "from numpy import random", "from numpy.random import x"):
        assert any(map(_names_numpy_random, ast.walk(ast.parse(code)))), code
    annotated = 'def f(rng: "np.random.Generator"): pass'
    assert not any(map(_names_numpy_random, ast.walk(ast.parse(annotated))))
