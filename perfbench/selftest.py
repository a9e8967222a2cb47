#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload, a tiny-size run, untraced and traced, must print
exactly the end-to-end (untraced) or per-layer (traced) metrics of
BENCHMARK.json, in its order and with its units, and no failed
operation. A further tiny run
per workload falsifies one oracle answer (--corrupt-oracle) and must
report exactly one failed operation and correct = false.
"""

import json
import subprocess
import sys

BENCH = ["python3", "perfbench/run.py"]


def run(workload, *extra):
    args = BENCH + ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--size", "tiny"] + list(extra)
    out = subprocess.run(args, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(args), out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    declared = json.load(open("BENCHMARK.json"))
    doc = json.load(open("perfbench/metrics.json"))
    workloads = [w["name"] for w in declared["workloads"]]
    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    e2e = {m["name"] for m in declared["end_to_end"]}
    expect(set(doc["operations"]) == set(workloads), "metrics.json describes every workload's operations")
    expect(all(set(ops) <= e2e for ops in doc["operations"].values()),
           "metrics.json operations are end-to-end metrics")
    layer_map = doc["layer_map"]
    expect([m["metric"] for m in layer_map] == [m["name"] for m in declared["per_layer"]],
           "the layer map lists every per-layer metric, in order")
    expect(all(w in workloads and n in e2e
               for m in layer_map for w, n in (x.split(":") for x in m["moves"])),
           "the layer map moves only workload:end-to-end pairs")

    for workload in workloads:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            units = {m["name"]: m["unit"] for m in declared[kind]}
            res = run(workload, "--trace", trace)
            got = res["metrics"]
            expect(set(got) == set(units),
                   "%s trace %s prints its %s metrics (missing %s, extra %s)"
                   % (workload, trace, kind, sorted(set(units) - set(got)),
                      sorted(set(got) - set(units))))
            expect(all(got[n]["unit"] == units.get(n) for n in got),
                   "%s trace %s units match BENCHMARK.json" % (workload, trace))
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   "%s trace %s: %d attempted, %d failed"
                   % (workload, trace, res["attempted"], res["failed"]))
        res = run(workload, "--trace", "0", "--corrupt-oracle")
        expect(res["failed"] == 1 and not res["correct"],
               "%s with one falsified oracle answer counts it: %d failed"
               % (workload, res["failed"]))

    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
