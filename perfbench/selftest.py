#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-scale run of every workload.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, and topk_distributed (runnable by
name, kept out of BENCHMARK.json), it checks three things:
  * every named metric is printed as a `metric` line with a unit, and the
    result JSON carries every end_to_end (--trace 0) or per_layer
    (--trace 1) metric of BENCHMARK.json with the declared unit;
  * failed_frac is 0, and the result JSON reports 0 failed frames;
  * an answer deliberately corrupted inside the oracle comparison
    (--corrupt-oracle) is caught: the run exits non-zero and says so.
Exits 0 when every check passes, 1 otherwise.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCALE = "0.1"
SECONDS = "2"

# Printed only where they apply (not in the result JSON, whose metric set is
# the same for every workload).
WRITE_ONLY = ["update_rps", "update_p50_ms", "update_p99_ms"]
TRACE_PRINTED = ["runtime.publish_us", "storage.checkpoint_ms_mean",
                 "storage.recover_s", "storage.data_dir_bytes_per_user_byte",
                 "runtime.coord_rpcs_per_query"]
# Workloads the benchmark binary runs that BENCHMARK.json does not list.
UNLISTED = ["topk_distributed"]
METRIC_LINE = re.compile(r"^metric (\S+)\s+(-?[0-9.]+(?:e[-+]?\d+)?)\s+(\S+)")


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", trace, "--scale", SCALE]
    if corrupt:
        cmd.append("--corrupt-oracle")
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for name in [wl["name"] for wl in spec["workloads"]] + UNLISTED:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run(name, trace)
            expect(proc.returncode == 0,
                   "%s trace=%s exits 0 (got %d)" % (name, trace,
                                                     proc.returncode))
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            printed = {}
            for line in lines:
                m = METRIC_LINE.match(line)
                if m:
                    printed[m.group(1)] = (float(m.group(2)), m.group(3))
            names = [m["name"] for m in spec[key]]
            if trace == "0":
                names += ["failed_frac"]
                if name == "write_mixed":
                    names += WRITE_ONLY
            else:
                names += TRACE_PRINTED
            missing = [n for n in names if n not in printed]
            expect(not missing, "%s trace=%s prints every metric with a unit"
                   "%s" % (name, trace, (": missing " + ", ".join(missing))
                           if missing else ""))
            bad = [m["name"] for m in spec[key]
                   if result["metrics"].get(m["name"], {}).get("unit")
                   != m["unit"]]
            expect(not bad, "%s trace=%s result JSON has every %s metric "
                   "with its unit%s" % (name, trace, key,
                                        (": " + ", ".join(bad)) if bad else ""))
            expect(result["correct"] is True and result["failed"] == 0 and
                   result["attempted"] >= 1,
                   "%s trace=%s correct, %d attempted, %d failed" %
                   (name, trace, result["attempted"], result["failed"]))
            if trace == "0":
                expect(printed.get("failed_frac", (1.0,))[0] == 0.0,
                       "%s failed_frac is 0" % name)
        proc = run(name, "0", corrupt=True)
        caught = proc.returncode not in (0, None) and \
            "ORACLE MISMATCH" in proc.stderr
        expect(caught, "%s corrupted answer is caught (exit %d)" %
               (name, proc.returncode))

    print("%d check(s) failed" % len(failures) if failures else
          "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
