"""A variant's rules live in its row of mlmc.VARIANTS, and a pairwise
family's in bakhvalov.FAMILIES. This guard parses mlmc.py and bakhvalov.py
and fails on a comparison against a string that names a row of their
table, so a new rule cannot branch on a name instead of reading the row."""

import ast
import os

from rbmlmc import bakhvalov, mlmc

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src",
                   "rbmlmc")
# the table's names and their CLI spellings
NAMES = set(mlmc.VARIANTS) | {v.replace("_", "-") for v in mlmc.VARIANTS}


def _name_comparisons(source, names=NAMES):
    """Line numbers of comparisons with a table name as an operand, also
    inside a tuple, list or set of names."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                for c in ast.walk(operand):
                    if isinstance(c, ast.Constant) and c.value in names:
                        lines.add(node.lineno)
    return sorted(lines)


def _source(module):
    with open(os.path.join(SRC, module)) as fh:
        return fh.read()


def test_guard_sees_name_dispatch():
    src = ('if params.variant == "bbit": pass\n'
           'x = "bit" != v\n'
           'y = v in ("classical", "bit")\n'
           'z = VARIANTS["bbit"].block(N)\n')
    assert _name_comparisons(src) == [1, 2, 3]


def test_mlmc_branches_on_no_variant_name():
    assert _name_comparisons(_source("mlmc.py")) == []


def test_bakhvalov_branches_on_no_family_name():
    assert _name_comparisons(_source("bakhvalov.py"),
                             set(bakhvalov.FAMILIES)) == []
