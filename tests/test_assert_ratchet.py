"""No module of ``cohw`` gains ``assert`` statements: ``python -O`` drops
them, so a check that decides an answer or rejects bad input must raise
explicitly.  Each ceiling is the module's current count; lower it as the
remaining asserts are converted."""

import ast
import pathlib

import cohw

CEILINGS = {"cli": 4, "hodge": 5, "phin": 14}


def test_assert_counts_stay_at_or_below_their_ceilings():
    counts = {}
    for path in sorted(pathlib.Path(cohw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        counts[path.stem] = sum(isinstance(node, ast.Assert)
                                for node in ast.walk(tree))
    assert "nilpotent" in counts and "cosimpl" in counts
    over = {name: (n, CEILINGS.get(name, 0)) for name, n in counts.items()
            if n > CEILINGS.get(name, 0)}
    assert not over, over
