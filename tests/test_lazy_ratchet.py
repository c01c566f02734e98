"""An object of ``cohw`` keeps a value it computes from itself on first
use in one way: ``functools.cached_property``.  The scan of ``src/cohw``
fails on each hand-rolled cache protocol:

- a ``__getattr__`` (a fallback that fills a missing attribute);
- an ``except AttributeError`` (a ``try`` that stores what it missed);
- an underscore attribute set to ``None`` in ``__init__`` or in a class
  body and read back with ``is None`` or ``is not None`` (a sentinel);
- an attribute named ``_cache`` or ending in ``_cache`` (a string-keyed
  cache dict).

Module-level ``functools.cache`` memos are not objects' values and pass.
There are no exemptions."""

import ast
import pathlib

import cohw


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def _sentinels(cls):
    """Underscore attribute names that the class sets to None in its
    body or through ``self`` in ``__init__``."""
    names = set()
    for item in cls.body:
        if isinstance(item, ast.Assign) and _is_none(item.value):
            names.update(t.id for t in item.targets
                         if isinstance(t, ast.Name))
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            for node in ast.walk(item):
                if isinstance(node, ast.Assign) and _is_none(node.value):
                    names.update(t.attr for t in node.targets
                                 if isinstance(t, ast.Attribute))
    return {name for name in names if name.startswith("_")}


def _findings(tree, path):
    """'path:line: what' for each hand-rolled cache protocol in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
            found.append((node.lineno, "__getattr__"))
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            if any(getattr(t, "id", None) == "AttributeError"
                   for t in caught):
                found.append((node.lineno, "except AttributeError"))
        if isinstance(node, ast.Attribute) and node.attr.endswith("_cache"):
            found.append((node.lineno, "attribute %s" % node.attr))
        if isinstance(node, ast.ClassDef):
            sentinels = _sentinels(node)
            for cmp in ast.walk(node):
                if isinstance(cmp, ast.Compare) and isinstance(
                        cmp.left, ast.Attribute) and \
                        cmp.left.attr in sentinels and \
                        isinstance(cmp.ops[0], (ast.Is, ast.IsNot)) and \
                        _is_none(cmp.comparators[0]):
                    found.append((cmp.lineno,
                                  "%s is None sentinel" % cmp.left.attr))
    return ["%s:%d: %s" % (path, line, what) for line, what in sorted(found)]


def test_the_scan_sees_every_protocol():
    src = ast.parse(
        "class A:\n"
        "    _m = None\n"
        "    def __init__(self):\n"
        "        self._x = None\n"
        "        self.y = None\n"
        "        self._cache = {}\n"
        "    def x(self):\n"
        "        if self._x is None:\n"
        "            self._x = 1\n"
        "        return self._x, self.y is None, self._m is not None\n"
        "    def __getattr__(self, name):\n"
        "        raise AttributeError(name)\n"
        "def f(h):\n"
        "    try:\n"
        "        return h._t\n"
        "    except (KeyError, AttributeError):\n"
        "        pass\n")
    assert _findings(src, "a.py") == [
        "a.py:6: attribute _cache", "a.py:8: _x is None sentinel",
        "a.py:10: _m is None sentinel", "a.py:11: __getattr__",
        "a.py:16: except AttributeError"]


def test_no_hand_rolled_cache_in_cohw():
    root = pathlib.Path(cohw.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        found += _findings(ast.parse(path.read_text(), filename=str(path)),
                           path.name)
    assert found == []
