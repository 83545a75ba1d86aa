#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload proxy-unauth --seed 1 --seconds 20 --trace 0

The build goes through dune into _build/. The benchmark prints a report
and, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when
every output and every check passed. See perfbench/README.md.
"""

import ctypes
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Turn address-space randomisation off for the benchmark process.

    With it on, the same inputs ran up to 55% apart from one process to
    the next; with it off, 20% apart on the same noisy host.
    """
    try:
        libc = ctypes.CDLL(None)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the repository root: dune-project or lib/ is missing",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    return subprocess.run([EXE] + sys.argv[1:], preexec_fn=fixed_layout).returncode


if __name__ == "__main__":
    sys.exit(main())
