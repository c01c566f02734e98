"""Workloads of the cohw benchmark: job streams, correctness checks and
the job runner.

A job is either one call of a ``cohw.cli`` suite function with a single
instance and its own ``random.Random("<seed>:<suite>:<k>")``, or one
``cohw`` command on a description file, run in this process through
``cohw.cli.main`` or, on ``corpus``, in a fresh interpreter the way the
``cohw`` console script starts.  A workload is a round of jobs repeated
with fresh per-job seeds; the round, its order and its weights are fixed
here, and only ``--seed`` changes the generated instances.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = "src/cohw/corpus/"
GOLDEN = os.path.join(HERE, "golden.json")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# A seed no tuning run used; gains are re-checked on it.
HELD_OUT_SEED = 20260417

# What the untraced ``cohw`` console script does, started as a child.
CONSOLE = "import sys; from cohw.cli import main; sys.exit(main())"

CORPUS_COMMANDS = [
    ("validate", CORPUS + "heisenberg.alg"),
    ("validate", CORPUS + "heisenberg_isocrystal.alg"),
    ("validate", CORPUS + "heisenberg_mhs.alg"),
    ("validate", CORPUS + "s3_double_coset.alg"),
    ("pi", "--degree", "0", CORPUS + "s3_double_coset.alg"),
    ("pi", "--degree", "1", CORPUS + "s3_double_coset.alg"),
    ("phin-classify", CORPUS + "heisenberg_isocrystal.alg"),
    ("phin-les", CORPUS + "heisenberg_isocrystal.alg"),
    ("hodge-classify", "--element", "0,0,1+2i", CORPUS + "heisenberg_mhs.alg"),
    ("hodge-les", CORPUS + "heisenberg_mhs.alg"),
]
PHIN_CLASSIFY, PHIN_LES, HODGE_LES = (CORPUS_COMMANDS[i] for i in (6, 7, 9))
PI0, PI1 = CORPUS_COMMANDS[4], CORPUS_COMMANDS[5]
MHS_FILE = CORPUS + "heisenberg_mhs.alg"

# Each round is a fixed list of job kinds: a suite name (drawn on the
# SHAPES schedule where it has one), a corpus argv tuple, or
# HODGE_CLASSIFY for hodge-classify with an element drawn from the seed.
HODGE_CLASSIFY = "hodge-classify"
ROUNDS = {
    "linear": ["dold-kan", "eilenberg-zilber", "hopf"] * 3 + [
        "dold-kan", "eilenberg-zilber"],
    "unipotent": [PHIN_LES, "bch", "bch", HODGE_LES, "bch", "bch",
                  "twisted-conjugation", "bch", "bch", HODGE_CLASSIFY, "bch",
                  "bch", HODGE_LES, "bch", "bch", PHIN_CLASSIFY, "bch", "bch",
                  HODGE_LES, "bch", "bch", "twisted-conjugation", "bch",
                  "bch", HODGE_CLASSIFY, "bch", "bch", HODGE_LES],
    "finite": ["double-coset", "les", "twist", "double-coset", "les", PI0,
               "double-coset", "les", "twist", "double-coset", "les", PI1],
    "corpus": list(CORPUS_COMMANDS),
}
# Rounds in one pass: the unit a timed run repeats with new instances,
# and the job list a traced run runs three times.  A pass takes 5 to 9 s
# on the baseline machine.
PASS_ROUNDS = {"linear": 1, "unipotent": 1, "finite": 40, "corpus": 1}


# Stratified suites: the first draws a suite makes from its per-job rng
# (its "shape") decide most of a job's cost.  Per-job seeds are taken in
# increasing k and each goes to the next slot of the schedule whose shape
# it draws, so every seed gets the same shapes and only their contents
# vary.  The draw functions repeat the first draws of the cohw.cli suites.
def _dold_kan_dims(rng):
    return tuple(rng.randint(1, 3) for _ in range(4))


def _ez_dims(rng):
    return (tuple(rng.randint(1, 2) for _ in range(3)),
            tuple(rng.randint(1, 2) for _ in range(3)))


def _pool_index(rng):
    return rng.randrange(9)  # rng.choice over the nine algebras of _bch_pool


CYCLIC_ORDERS = [4, 6, 8, 9, 12, 16, 18, 24, 36, 48]


def _group(rng):
    # _random_double_coset: a cyclic group from the list, S3, S4 or a
    # small cyclic group; the shape is (family, group order)
    kind = rng.randrange(4)
    if kind == 0:
        return kind, rng.choice(CYCLIC_ORDERS)
    if kind == 3:
        return kind, rng.randint(2, 10)
    return kind, (6, 24)[kind - 1]


# each family ten times per cycle, every order of the cyclic list once
GROUPS = [shape for i, order in enumerate(CYCLIC_ORDERS)
          for shape in ((0, order), (1, 6), (2, 24), (3, 2 + i % 9))]


SHAPES = {
    # The 81 (64) equally likely dims of a free draw, sorted by measured
    # cost, cut into four bands of a quarter of the draws each; a band is
    # represented by its middle shape, the draw at the 12.5, 37.5, 62.5
    # and 87.5% points of the cost distribution (shape_costs.py).
    "dold-kan": (_dold_kan_dims, [(1, 2, 1, 2), (1, 3, 1, 3), (1, 2, 2, 3),
                                  (2, 3, 3, 1)]),
    "eilenberg-zilber": (_ez_dims, [((1, 1, 2), (1, 1, 1)),
                                    ((2, 2, 1), (1, 1, 2)),
                                    ((1, 2, 1), (2, 2, 1)),
                                    ((2, 2, 1), (2, 2, 1))]),
    "bch": (_pool_index, list(range(9))),
    "double-coset": (_group, GROUPS),
    "twist": (_group, GROUPS),
}


class ShapedSeeds:
    """Per-job seeds "<seed>:<suite>:<k>" for one stratified suite."""

    def __init__(self, seed, suite):
        self.seed = seed
        self.suite = suite
        self.draw, self.schedule = SHAPES[suite]
        self.next_k = 0
        self.pending = {}
        self.slot = 0

    def take(self):
        want = self.schedule[self.slot % len(self.schedule)]
        self.slot += 1
        queue = self.pending.setdefault(want, [])
        while not queue:
            k = self.next_k
            self.next_k += 1
            rng = random.Random("%s:%s:%d" % (self.seed, self.suite, k))
            self.pending.setdefault(self.draw(rng), []).append(k)
        return "%s:%s:%d" % (self.seed, self.suite, queue.pop(0))


def _gauss_text(rng):
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    im = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return "%s%s%s*i" % (re, "+" if im >= 0 else "-", abs(im))


def hodge_invariant(element):
    """The class of u = (a, b, c) in U(R) \\ U(C) / F^0 U(C) for the
    Heisenberg MHS of the corpus, computed independently of cohw: with
    t = -Im b - i Im a, the right factor exp(t (e0 + i e1)) makes the
    plane coordinates real, and the class is Im(c + t (i a - b) / 2)."""
    (ar, ai), (br, bi), (cr, ci) = element
    tr, ti = -bi, -ai
    # t * (i a - b) with i a - b = (-ai - br) + (ar - bi) i
    xr, xi = -ai - br, ar - bi
    return ci + (tr * xi + ti * xr) / 2


def _parse_gauss(text):
    body = text[:-2]
    k = max(body.rfind("+"), body.rfind("-"))
    return Fraction(body[:k]), Fraction(body[k:])


class Job:
    """One unit of work: a suite call or a command line."""

    __slots__ = ("kind", "tag", "argv")

    def __init__(self, kind, tag=None, argv=None):
        self.kind = kind
        self.tag = tag
        self.argv = argv

    def __repr__(self):
        return "Job(%s, %s)" % (self.kind, self.tag or " ".join(self.argv))


class Workload:
    """Job stream of one workload for one seed."""

    def __init__(self, name, seed):
        if name not in ROUNDS:
            raise ValueError("unknown workload %r" % name)
        self.name = name
        self.seed = seed
        self.fresh = name == "corpus"

    def _jobs(self, seed):
        counters = {}
        shaped = {suite: ShapedSeeds(seed, suite) for suite in SHAPES}
        while True:
            for kind in ROUNDS[self.name]:
                if isinstance(kind, tuple):
                    yield Job("cmd:" + kind[0], argv=list(kind))
                    continue
                k = counters.get(kind, 0)
                counters[kind] = k + 1
                if kind == HODGE_CLASSIFY:
                    rng = random.Random("%s:%s:%d" % (seed, kind, k))
                    element = ",".join(_gauss_text(rng) for _ in range(3))
                    yield Job("cmd:" + kind, argv=[
                        kind, "--element=" + element, MHS_FILE])
                elif kind in shaped:
                    yield Job(kind, tag=shaped[kind].take())
                else:
                    yield Job(kind, tag="%s:%s:%d" % (seed, kind, k))

    def rounds(self, count):
        """The first ``count`` rounds of the job stream, as one list."""
        stream = self._jobs(self.seed)
        return [next(stream) for _ in range(count * len(ROUNDS[self.name]))]

    def passes(self):
        """The job stream cut into successive passes of PASS_ROUNDS
        rounds: every pass has the same mix and new instances."""
        stream = self._jobs(self.seed)
        size = PASS_ROUNDS[self.name] * len(ROUNDS[self.name])
        while True:
            yield [next(stream) for _ in range(size)]

    def warmups(self):
        """One job of each kind, from a seed no run uses, so that set-up
        does the same work whatever the seed."""
        if self.fresh:
            return []
        first = self._jobs("warmup")
        jobs = {}
        for _ in ROUNDS[self.name]:
            job = next(first)
            jobs.setdefault(job.kind, job)
        return list(jobs.values())


def child_env(root):
    """Environment of every process the benchmark starts: ``cohw`` from
    ``<root>/src``, and bytecode caching on (as for an installed ``cohw``),
    so that only the first launch in a checkout compiles the sources."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def load_golden(path=GOLDEN):
    with open(path) as fh:
        return json.load(fh)


def load_benchmark():
    """BENCHMARK.json: the metric names and units the benchmark reports."""
    with open(BENCHMARK) as fh:
        return json.load(fh)


def command_key(argv):
    return " ".join(argv)


class Runner:
    """Runs jobs and checks their outputs.

    ``run(job, fresh)`` returns ``(output, ok, child)``: the job's output
    as text, whether it is correct, and for a traced fresh-process job the
    trace summary the child reported (else None).  With
    ``traced_children`` set, fresh-process jobs run under traced_child.py.
    """

    def __init__(self, root, golden):
        self.root = root
        self.golden = golden
        self.traced_children = False
        self.env = child_env(root)
        from cohw import cli
        self.cli = cli
        self.suites = {name: fn.__name__ for name, fn, *_ in cli.SUITES}

    def run(self, job, fresh=False):
        if job.argv is None:
            return self._suite(job)
        if fresh:
            return self._child(job)
        return self._in_process(job)

    def _suite(self, job):
        fn = getattr(self.cli, self.suites[job.kind])
        result = fn(random.Random(job.tag), 1)
        ok = result["instances"] == 1 and not result["failures"]
        return json.dumps(result, sort_keys=True), ok, None

    def _in_process(self, job):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(job.argv)
        out = buf.getvalue()
        return "%sexit=%d\n" % (out, code), self.check(job.argv, out,
                                                       code), None

    def _child(self, job):
        if self.traced_children:
            cmd = [sys.executable, os.path.join(HERE, "traced_child.py")]
        else:
            cmd = [sys.executable, "-c", CONSOLE]
        proc = subprocess.run(cmd + job.argv, cwd=self.root, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=150)
        child = None
        if self.traced_children:
            for line in proc.stderr.splitlines():
                if line.startswith("PERFBENCH-TRACE "):
                    child = json.loads(line[len("PERFBENCH-TRACE "):])
        out = proc.stdout
        ok = self.check(job.argv, out, proc.returncode)
        return "%sexit=%d\n" % (out, proc.returncode), ok, child

    def check(self, argv, out, code):
        """Corpus commands must match their golden stdout and exit code
        byte for byte; seeded hodge-classify runs must report the class
        that ``hodge_invariant`` computes."""
        gold = self.golden.get(command_key(argv))
        if gold is not None:
            return out == gold["stdout"] and code == gold["exit"]
        if argv[0] != HODGE_CLASSIFY or code != 0:
            return False
        element = [_parse_gauss(t)
                   for t in argv[1].split("=", 1)[1].split(",")]
        x = hodge_invariant(element)
        lines = out.splitlines()
        header = self.golden[command_key(CORPUS_COMMANDS[8])]["stdout"]
        return (len(lines) == 5
                and lines[:2] == header.splitlines()[:2]
                and lines[2].startswith("element: ")
                and lines[3] == "normal form: 0, 0, %s"
                % ("%s*i" % x if x else "0")
                and lines[4] == "reduced coordinates: %s"
                % (x if x else "none (base class)"))
