"""A carrier of ``cohw`` states its block shape when it is built.  A
product's ``factors``, ``offsets``, ``_at``, ``_flat`` and ``leaves`` are
set by its own constructor, and a carrier that is one block has
``factors = ()``, so no code needs to ask whether an attribute is there.
The scan of ``src/cohw`` fails on each way around that:

- a ``hasattr(...)`` call (a probe for an attribute);
- a ``getattr(...)`` call with a default (a probe with a fallback);
- an assignment to one of the shape attributes of an object other than
  ``self`` (a shape written onto a finished object).

There are no exemptions."""

import ast
import pathlib

import cohw

SHAPE = {"factors", "offsets", "_at", "_flat", "leaves"}


def _targets(node):
    """The expressions that an assignment statement binds."""
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    else:
        return
    while stack:
        t = stack.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            stack += t.elts
        elif isinstance(t, ast.Starred):
            stack.append(t.value)
        else:
            yield t


def _findings(tree, path):
    """'path:line: what' for each probe or shape write in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "hasattr":
                found.append((node.lineno, "hasattr"))
            if node.func.id == "getattr" and len(node.args) > 2:
                found.append((node.lineno, "getattr with a default"))
        for t in _targets(node):
            if isinstance(t, ast.Attribute) and t.attr in SHAPE and not (
                    isinstance(t.value, ast.Name) and t.value.id == "self"):
                found.append((t.lineno, "%s written from outside"
                               % t.attr))
    return ["%s:%d: %s" % (path, line, what) for line, what in sorted(found)]


def test_the_scan_sees_every_probe_and_write():
    src = ast.parse(
        "class A:\n"
        "    factors = ()\n"
        "    def __init__(self, parts):\n"
        "        self.factors, self._at = list(parts), []\n"
        "        self.offsets = [0]\n"
        "        self.offsets += [1]\n"
        "def f(G, H):\n"
        "    if hasattr(G, 'factors'):\n"
        "        G.factors, (G.offsets, *G._at) = [], ([0], [])\n"
        "    G.leaves: list = []\n"
        "    H.inner._flat = getattr(G, '_flat', False)\n"
        "    G.offsets += [getattr(G, 'dim')]\n"
        "    G.offsets.append(0)\n"
        "    return G.semi\n")
    assert _findings(src, "a.py") == [
        "a.py:8: hasattr", "a.py:9: _at written from outside",
        "a.py:9: factors written from outside",
        "a.py:9: offsets written from outside",
        "a.py:10: leaves written from outside",
        "a.py:11: _flat written from outside",
        "a.py:11: getattr with a default",
        "a.py:12: offsets written from outside"]


def test_no_carrier_shape_is_probed_or_patched_in_cohw():
    root = pathlib.Path(cohw.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        found += _findings(ast.parse(path.read_text(), filename=str(path)),
                           path.name)
    assert found == []
