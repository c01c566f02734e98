"""Record the stdout and exit code of every corpus command into
golden.json.  Run from the repository root:

    python3 perfbench/capture_golden.py

The benchmark compares each corpus job against this file byte for byte,
so only re-run it when a report is meant to change.
"""

import json
import os
import subprocess
import sys

from workloads import CONSOLE, CORPUS_COMMANDS, GOLDEN, child_env, \
    command_key


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = child_env(root)
    golden = {}
    for argv in CORPUS_COMMANDS:
        proc = subprocess.run([sys.executable, "-c", CONSOLE, *argv],
                              cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=150)
        golden[command_key(argv)] = {"stdout": proc.stdout,
                                     "exit": proc.returncode}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
