#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark program (see perfbench/README.md).
The benchmark program is the dune project in perfbench/. It is built in a workspace
under .bench_build/ that links the checkout's lib/ beside perfbench/src/,
so the repository's own `dune build` never compiles it. The build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
# A run's work is fixed per measured second (see README.md); set-up and
# the final checks come on top.
SETUP_ALLOWANCE_S = 60
RUN_S_PER_SECOND = 4
# a run must end within 180 s, whatever --seconds asks for
RUN_TIMEOUT_CAP_S = 170
WORKSPACE = os.path.join(".bench_build", "perfbench-ws")
# workspace entry -> what it links to, relative to the checkout root
LINKS = {"dune-project": "perfbench/dune-project", "src": "perfbench/src", "lib": "lib"}


def build():
    """Assemble the workspace and build the benchmark; returns its path or None."""
    os.makedirs(WORKSPACE, exist_ok=True)
    for name, target in LINKS.items():
        link = os.path.join(WORKSPACE, name)
        rel = os.path.relpath(target, WORKSPACE)
        if os.path.islink(link) and os.readlink(link) == rel:
            continue
        if os.path.lexists(link):
            os.remove(link)
        os.symlink(rel, link)
    # the shared dune cache would write outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./src/bench.exe"], cwd=WORKSPACE, env=env,
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return None
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build failed (exit %d)\n" % proc.returncode)
        return None
    return os.path.join(WORKSPACE, "_build", "default", "src", "bench.exe")


def seconds_arg(argv):
    for i, a in enumerate(argv[:-1]):
        if a == "--seconds":
            try:
                return max(1, int(argv[i + 1]))
            except ValueError:
                pass
    return 10


def main(argv):
    if not all(os.path.exists(t) for t in LINKS.values()):
        sys.stderr.write(
            "perfbench: %s not found; run from the root of a full source checkout\n"
            % ", ".join(LINKS.values()))
        return 2
    exe = build()
    if exe is None:
        return 2
    timeout = min(RUN_TIMEOUT_CAP_S, SETUP_ALLOWANCE_S + RUN_S_PER_SECOND * seconds_arg(argv))
    # The OCaml runtime writes its event ring (used by traced runs for GC
    # pauses) into this directory; it is removed with everything in it.
    events = os.path.join("perfbench", ".tmp-events-%d" % os.getpid())
    os.makedirs(events, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=os.path.abspath(events))
    proc = subprocess.Popen([exe] + argv, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % timeout)
        return 1
    finally:
        # also reached when this script is interrupted or terminated
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(events, ignore_errors=True)
        # the run's own scratch directory, left behind only if it was killed
        shutil.rmtree(os.path.join("perfbench", ".tmp-%d" % proc.pid),
                      ignore_errors=True)


if __name__ == "__main__":
    # SIGTERM unwinds like an interrupt, so the run is stopped and its
    # scratch removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main(sys.argv[1:]))
