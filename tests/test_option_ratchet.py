"""Every option of ``cohw`` has a caller that sets it.  For each ``def``
in ``src/cohw`` whose name is defined there once, each parameter with a
default must be passed, somewhere in ``src/cohw`` or ``tests/``, a value
whose source text differs from that default.  A parameter that is never
set that way is a constant, and the value in use belongs in the code.

A call is matched by the name it calls (a class call reaches the
class's ``__init__``), and sets a parameter by position or by keyword.
A call that spreads ``*args`` or ``**kwargs`` counts as setting every
parameter.  ``EXEMPT`` maps ``"name.parameter"`` to the reason an unset
option stays; it is empty."""

import ast
import collections
import pathlib

import cohw

EXEMPT = {}

TESTS = pathlib.Path(__file__).resolve().parent


def _trees(directory):
    return [ast.parse(path.read_text(), filename=str(path))
            for path in sorted(pathlib.Path(directory).glob("*.py"))]


def _defs(trees):
    """{name: [params]} with one list per def of that name: each
    defaulted parameter as (name, default, position), the position a call
    passes it at (``self`` of a method or of a class call not counted),
    or None for a keyword-only one."""
    found = collections.defaultdict(list)
    for tree in trees:
        owner = {item: node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 for item in node.body if isinstance(item, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in node.decorator_list)
            skip = int(node in owner and not static)
            first = len(positional) - len(args.defaults)
            params = [(a.arg, d, first + i - skip)
                      for i, (a, d) in enumerate(zip(positional[first:],
                                                     args.defaults))]
            params += [(a.arg, d, None)
                       for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            name = node.name
            if name == "__init__" and node in owner:
                name = owner[node]
            found[name].append(params)
    return found


def _called_name(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _unset(defs, trees):
    """"name.parameter" for each defaulted parameter of a once-defined
    def that no call passes a value differing from its default."""
    unset = {(name, arg): (position, ast.unparse(default))
             for name, entries in defs.items() if len(entries) == 1
             for arg, default, position in entries[0]}
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = _called_name(call)
            spread = (any(isinstance(a, ast.Starred) for a in call.args)
                      or any(k.arg is None for k in call.keywords))
            for key in [k for k in unset if k[0] == name]:
                position, default = unset[key]
                passed = [k.value for k in call.keywords if k.arg == key[1]]
                if position is not None and position < len(call.args):
                    passed.append(call.args[position])
                if spread or any(ast.unparse(v) != default for v in passed):
                    del unset[key]
    return sorted("%s.%s" % key for key in unset)


def test_the_rule_sees_positions_keywords_and_spreads():
    src = ast.parse(
        "def f(a, b=1, *, c=None):\n    pass\n"
        "class K:\n    def __init__(self, x=0, y=2):\n        pass\n"
        "    def m(self, z=3):\n        pass\n"
        "def g(q=4):\n    pass\n")
    calls = ast.parse("f(0, 1, c=None)\nf(0, 2)\nK(0, y=5)\nk.m(3)\n"
                      "g(*rest)\n")
    assert _unset(_defs([src]), [src, calls]) == ["K.x", "f.c", "m.z"]


def test_every_defaulted_parameter_is_set_by_some_caller():
    src = _trees(pathlib.Path(cohw.__file__).parent)
    unset = _unset(_defs(src), src + _trees(TESTS))
    assert all(reason for reason in EXEMPT.values())
    assert [name for name in unset if name not in EXEMPT] == []
