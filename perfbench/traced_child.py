"""Run one ``cohw`` command with the tracer installed, as a fresh
process.  Stdout and the exit code are the command's own; the last line
on stderr is ``PERFBENCH-TRACE <json>`` with the trace summary, the
time ``import cohw.cli`` took, and whether the process imported sympy.

    python3 perfbench/traced_child.py pi --degree 1 FILE
"""

import json
import sys
import time

start = time.perf_counter()
import cohw.cli  # noqa: E402
import_s = time.perf_counter() - start

from tracer import Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    tracer.job = 0
    try:
        code = cohw.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    summary = tracer.summary()
    summary["import_s"] = import_s
    summary["sympy_jobs"] = int("sympy" in sys.modules)
    print("PERFBENCH-TRACE " + json.dumps(summary), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
