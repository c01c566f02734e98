"""The benchmark's per-layer span metrics name code that exists.

``BENCHMARK.json`` lists per-layer metrics such as
``exactla.rref.calls``; the benchmark's tracer records them by wrapping
the public function or method of that name, and its worker refuses a
metric whose function is gone.  This test reads both files, changing
neither, so that deleting or renaming such a function fails here too.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _method_spans():
    """worker.METHOD_SPANS, read from the source without running it."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "METHOD_SPANS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("worker.py defines no METHOD_SPANS")


def _wrappable(tracer):
    """'<module>.<function>' and '<module>.<Class>.<method>' for every
    public function and method (``__init__`` included) defined in a
    ``cohw`` module that the tracer does not skip."""
    names = set()
    for short in tracer.MODULES:
        mod = importlib.import_module("cohw." + short)
        for attr, val in vars(mod).items():
            if attr.startswith("_") or \
                    getattr(val, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(val):
                names.add("%s.%s" % (short, attr))
            elif inspect.isclass(val) and \
                    "%s.%s" % (short, attr) not in tracer.SKIP_CLASSES:
                for meth, raw in vars(val).items():
                    if meth.startswith("_") and meth != "__init__":
                        continue
                    if isinstance(raw, (staticmethod, classmethod)):
                        raw = raw.__func__
                    if inspect.isfunction(raw):
                        names.add("%s.%s.%s" % (short, attr, meth))
    return names - tracer.SKIP


def test_every_span_metric_names_a_public_function_of_cohw():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = _load_tracer()
    spans = _method_spans()
    wrappable = _wrappable(tracer)
    checked = []
    for metric in benchmark["per_layer"]:
        head, last = metric["name"].rsplit(".", 1)
        if last not in ("calls", "self_s") or head in tracer.MODULES:
            continue
        span = spans.get(head, head)
        assert span in wrappable, "%s reads the span %s, which is not a " \
            "public function or method of cohw" % (metric["name"], span)
        checked.append(span)
    # the method spans, rref and bch among them, are all checked
    assert set(spans.values()) <= set(checked)
    assert {"exactla.rref", "exactla.span_echelon",
            "exactla.in_span"} <= set(checked)
