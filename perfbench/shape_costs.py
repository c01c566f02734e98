"""Measure what each shape of a stratified suite costs, and pick the
shapes that stand for its free draws.

    python3 perfbench/shape_costs.py dold-kan [--reps 2] [--strata 4]

Run from the repository root.  For every shape the suite can draw (the
81 dims of dold-kan, the 64 of eilenberg-zilber), this times a
one-instance suite call on ``--reps`` per-job seeds that draw it.  Every
shape is equally likely in a free draw, so sorting the shapes by mean cost
gives the cost distribution of free draws.  It is cut into ``--strata``
bands, each an equal share of the draws; the shape at the middle of a band
stands for it in ``workloads.SHAPES``.
"""

import argparse
import os
import random
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from cohw import cli  # noqa: E402

import workloads  # noqa: E402

SUITES = {"dold-kan": (cli.suite_dold_kan, 3 ** 4),
          "eilenberg-zilber": (cli.suite_eilenberg_zilber, 2 ** 6)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("suite", choices=sorted(SUITES))
    parser.add_argument("--reps", type=int, default=2)
    parser.add_argument("--strata", type=int, default=4)
    args = parser.parse_args()
    fn, count = SUITES[args.suite]
    draw = workloads.SHAPES[args.suite][0]
    tags, k = {}, 0
    while len(tags) < count or min(map(len, tags.values())) < args.reps:
        tag = "shape:%s:%d" % (args.suite, k)
        k += 1
        seeds = tags.setdefault(draw(random.Random(tag)), [])
        if len(seeds) < args.reps:
            seeds.append(tag)
    fn(random.Random("warmup"), 1)
    costs = []
    for shape, seeds in sorted(tags.items()):
        times = []
        for tag in seeds:
            start = time.perf_counter()
            fn(random.Random(tag), 1)
            times.append(time.perf_counter() - start)
        costs.append((statistics.mean(times), shape))
    costs.sort()
    print("%d shapes, mean cost %.3f s" % (count, statistics.mean(
        c for c, _ in costs)))
    for i in range(args.strata):
        band = costs[i * count // args.strata:(i + 1) * count // args.strata]
        cost, shape = costs[int((i + 0.5) * count / args.strata)]
        print("draws %3.0f-%3.0f%%: cost %.3f-%.3f s, middle shape %s "
              "(%.3f s)" % (100 * i / args.strata,
                            100 * (i + 1) / args.strata, band[0][0],
                            band[-1][0], shape, cost))


if __name__ == "__main__":
    main()
