"""A variant's rules live in its row of mlmc.VARIANTS. This guard parses
mlmc.py and fails on a comparison against a string that names a variant,
so a new rule cannot branch on a name instead of reading the row."""

import ast
import os

from rbmlmc import mlmc

MLMC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src",
                    "rbmlmc", "mlmc.py")
# the table's names and their CLI spellings
NAMES = set(mlmc.VARIANTS) | {v.replace("_", "-") for v in mlmc.VARIANTS}


def _name_comparisons(source):
    """Line numbers of comparisons with a variant name as an operand, also
    inside a tuple, list or set of names."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                for c in ast.walk(operand):
                    if isinstance(c, ast.Constant) and c.value in NAMES:
                        lines.add(node.lineno)
    return sorted(lines)


def test_guard_sees_name_dispatch():
    src = ('if params.variant == "bbit": pass\n'
           'x = "bit" != v\n'
           'y = v in ("classical", "bit")\n'
           'z = VARIANTS["bbit"].block(N)\n')
    assert _name_comparisons(src) == [1, 2, 3]


def test_mlmc_branches_on_no_variant_name():
    with open(MLMC) as fh:
        assert _name_comparisons(fh.read()) == []
