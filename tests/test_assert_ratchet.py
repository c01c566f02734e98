"""No module of ``cohw`` gains ``assert`` statements or ``raise
AssertionError``: ``python -O`` drops the first, and the second reads as
"internal bug" where bad input is meant.  A check that decides an answer
or rejects bad input raises an error of its own kind.  Every module's
ceiling is zero: ``src/cohw`` holds neither form."""

import ast
import pathlib

import cohw

CEILINGS = {}


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _count(tree):
    return sum(isinstance(node, ast.Assert)
               or isinstance(node, ast.Raise) and node.exc is not None
               and _raises_assertion_error(node)
               for node in ast.walk(tree))


def test_the_count_sees_both_forms():
    tree = ast.parse("assert x\nraise AssertionError('m')\n"
                     "raise AssertionError\nraise ValueError('m')\nraise\n")
    assert _count(tree) == 3


def test_assert_counts_stay_at_or_below_their_ceilings():
    counts = {}
    for path in sorted(pathlib.Path(cohw.__file__).parent.glob("*.py")):
        counts[path.stem] = _count(ast.parse(path.read_text(),
                                             filename=str(path)))
    assert "nilpotent" in counts and "cosimpl" in counts
    over = {name: (n, CEILINGS.get(name, 0)) for name, n in counts.items()
            if n > CEILINGS.get(name, 0)}
    assert not over, over
