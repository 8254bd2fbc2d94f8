#!/usr/bin/env python3
"""Benchmark of `kexd serve`: build the benchmark from this checkout, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The OCaml program
(perfbench/kbench.ml) is built with dune against the checkout's own
libraries, then drives the server in a child process; its last stdout line
is the result object.  Trace spans land in perfbench/_out/.
"""

import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)
EXE = os.path.join("_build", "default", HERE, "kbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run.py: {cmd[0]} exceeded {timeout}s", file=sys.stderr)
        return 124
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main():
    # SIGTERM unwinds like an exception, so every child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The benchmark measures the server built from this checkout's sources;
    # without them there is nothing to build.
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("run.py: no dune-project here; run from the repository root", file=sys.stderr)
        return 2
    code = run(
        ["dune", "build", "--root", ROOT, "./" + EXE],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    if code != 0:
        print(f"run.py: build failed ({code})", file=sys.stderr)
        return code or 1
    out = os.path.join(HERE, "_out")
    os.makedirs(out, exist_ok=True)
    sys.stdout.flush()
    return run([EXE] + sys.argv[1:] + ["--out", out], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
