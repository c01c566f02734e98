"""Span tracer for the cohw benchmark.

The tracer measures the ``cohw`` layers from outside: it rebinds the
public functions and methods of the ``cohw.*`` modules to wrappers that
record one span per call.  A span is the tuple

    (name, start, end, parent, job, overhead)

where ``parent`` is the index of the enclosing span (-1 at the top),
``job`` the id of the benchmark job that was running, and ``overhead``
the tracer's own bookkeeping time spent inside the span around its
children's calls: from entering a child's wrapper to the child's start
clock, and from the child's end clock to leaving the wrapper.  Spans stay
in memory until the run ends.

Self time of a span is its duration minus the durations of its direct
children and minus ``overhead``.  Per-element operations (group
multiplication, hom application, brackets, vector arithmetic) are not
wrapped: a wrapper would cost more than their bodies, so their time is
charged to the nearest wrapped caller.
"""

import builtins
import functools
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("cli", "exactla", "nilpotent", "hopf", "cosimpl", "gcohom",
           "phin", "hodge")

# Classes whose instances are scalars, points or exceptions: never wrapped.
SKIP_CLASSES = {"exactla.Gaussian", "phin.EpsilonPoint", "cli.ParseError",
                "cli.DescriptionFile", "hodge.MHSTorsorClass"}

# Per-element functions and methods, as "<module>.<qualname>".
SKIP = {
    "exactla.scalar_conj", "exactla.format_scalar", "exactla.parse_scalar",
    "exactla.vec_add", "exactla.vec_sub", "exactla.vec_scale",
    "exactla.vec_neg", "exactla.vec_is_zero", "exactla.zero_vec",
    "exactla.realify_vector", "exactla.unrealify_vector",
    "exactla.conj_vector", "exactla.identity_matrix", "exactla.zero_matrix",
    "nilpotent.NilpotentLieAlgebra.bracket",
    "nilpotent.NilpotentLieAlgebra.bracket_basis",
    "nilpotent.NilpotentLieAlgebra.zero",
    "nilpotent.NilpotentLieAlgebra.basis_vector",
    "nilpotent.NilpotentLieAlgebra.basis",
    "nilpotent.NilpotentLieAlgebra.inverse",
    "nilpotent.NilpotentLieAlgebra.is_abelian",
    "nilpotent.LieMorphism.apply", "nilpotent.frac_to_sympy",
    "cosimpl.SemiCosimplicialGroup.d", "cosimpl.CosimplicialGroup.s",
    "cosimpl.twisted_conj", "cosimpl.is_linear_carrier", "cosimpl.epis",
    "cosimpl.epi_mono_factor", "cosimpl.compose_monotone",
    "cosimpl.delta_map", "cosimpl.sigma_map", "cosimpl.identity_hom",
    "cosimpl.hom_equal", "cosimpl.inner_automorphism",
    "gcohom.GroupAction.act", "gcohom.GroupAction.is_finite",
    "hodge.gvec", "hodge.qvec",
    "phin.PhiNGroup.dim", "phin.PhiNGroup.is_abelian",
}
for _group in ("TableGroup", "ProductGroup", "VectorGroup",
               "UnipotentCarrier"):
    SKIP.update("cosimpl.%s.%s" % (_group, m) for m in
                ("identity", "mul", "inv", "size", "elements", "generators",
                 "is_abelian"))
for _hom in ("FiniteHom", "LinearHom", "StructuredHom", "GenericComposite"):
    SKIP.update("cosimpl.%s.%s" % (_hom, m)
                for m in ("__init__", "apply", "compose"))
SKIP.update("hopf.TruncatedEnvelope.%s" % m for m in (
    "wdeg", "unit_monomial", "zero", "one", "gen", "from_lie", "add", "scale",
    "sub", "eq", "counit", "normal_order", "mul", "power", "tensor_mul",
    "tensor_add", "tensor_scale", "to_vector", "from_vector"))


def _probe_mat_mul(tracer, args):
    A, B = args[0], args[1]
    if not A or not B:
        return
    col_nnz = [0] * len(B)
    for row in A:
        for k, x in enumerate(row):
            if x:
                col_nnz[k] += 1
    nonzero = sum(c * sum(1 for y in brow if y)
                  for c, brow in zip(col_nnz, B))
    tracer.counters["exactla.mat_mul.scalar_muls"] += \
        len(A) * len(B) * len(B[0])
    tracer.counters["exactla.mat_mul.nonzero_muls"] += nonzero


def _probe_rref(tracer, args):
    rows = args[0]
    if isinstance(rows, list):
        cells = len(rows) * (len(rows[0]) if rows else 0)
        tracer.rref_cells[cells] += 1


PROBES = {"exactla.mat_mul": _probe_mat_mul, "exactla.rref": _probe_rref}


def self_times(spans):
    """Self time of every span: its duration minus its direct children's
    durations and minus the tracer overhead recorded inside it."""
    out = [end - start - over for _, start, end, _, _, over in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class Tracer:
    """Collects spans of the wrapped ``cohw`` functions while installed."""

    def __init__(self):
        self.spans = []
        self.job = -1
        self.counters = defaultdict(int)
        self.rref_cells = defaultdict(int)
        self.sympy_jobs = set()
        self.wrapped = set()
        self._stack = []
        self._over = []
        self._patches = []
        self._import = None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, over = self.spans, self._stack, self._over
        probe = PROBES.get(name)
        self.wrapped.add(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = clock()
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            over.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.job, over[idx])
                if probe is not None:
                    probe(tracer, args)
                if parent >= 0:
                    over[parent] += start - entry + clock() - end
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Rebind public functions and methods in every ``cohw.*`` module
        and hook ``import`` statements to see which jobs reach sympy."""
        mods = {name: sys.modules["cohw." + name] for name in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    name = "%s.%s" % (short, attr)
                    if name not in SKIP:
                        wrappers[val] = self._wrap(name, val)
                elif inspect.isclass(val) and \
                        "%s.%s" % (short, attr) not in SKIP_CLASSES:
                    self._wrap_class(short, val)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        original_import = builtins.__import__

        def hooked_import(name, *args, **kwargs):
            if name == "sympy" or name.startswith("sympy."):
                self.sympy_jobs.add(self.job)
            return original_import(name, *args, **kwargs)
        self._import = original_import
        builtins.__import__ = hooked_import

    def _wrap_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = "%s.%s.%s" % (short, cls.__name__, attr)
            if name in SKIP:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(name,
                                                            raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        if self._import is not None:
            builtins.__import__ = self._import
            self._import = None

    # -- results ----------------------------------------------------------

    def summary(self):
        """Per span name: [calls, self seconds]; plus the probe counters,
        the rref size histogram, the number of jobs that ran an
        ``import sympy`` statement and the names of all wrapped
        functions."""
        per_name = defaultdict(lambda: [0, 0.0])
        for span, self_s in zip(self.spans, self_times(self.spans)):
            entry = per_name[span[0]]
            entry[0] += 1
            entry[1] += self_s
        return {"spans": dict(per_name), "counters": dict(self.counters),
                "rref_cells": {str(k): v for k, v in self.rref_cells.items()},
                "sympy_jobs": len(self.sympy_jobs),
                "wrapped": sorted(self.wrapped)}

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tjob\toverhead\n")
            for span in self.spans:
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\t%.9f\n" % span)
