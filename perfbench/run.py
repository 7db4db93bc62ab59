#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload health-churn --seed 23 --seconds 30 --trace 0

Builds perfbench/perfbench.exe with dune (shared cache off, so nothing
is written outside the checkout), runs it, and prints its report.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The simulated counts of every operation
are compared with perfbench/baseline.json when the seed is one recorded
there, and the verdict is printed above the JSON line.

    python3 perfbench/run.py --record-baseline

rewrites baseline.json from one pass of every workload at the default
and the held-out seed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
BASELINE = os.path.join(HERE, "baseline.json")
WORKLOADS = ["health-churn", "tree-layout", "observed-lint"]
DEFAULT_SEED = 23
HELDOUT_SEED = 101
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            dune + ["build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not finish: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def run(workload, seed, seconds, trace):
    """Run the benchmark; return (report lines, result, counts by workload).

    The result's last element is the benchmark's own JSON line, verbatim."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        out = os.path.join(HERE, "_out")
        os.makedirs(out, exist_ok=True)
        cmd += ["--spans",
                os.path.join(out, "spans-%s-seed%d.json" % (workload, seed))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run did not finish: %s" % e)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has the wrong keys")
    counts = {}
    for line in lines[:-1]:
        if line.startswith("counts "):
            c = json.loads(line[len("counts "):])
            counts[c["workload"]] = c["ops"]
    return lines, result, counts


def compare(counts, seed):
    """Lines saying whether each workload reproduced its baseline counts."""
    try:
        with open(BASELINE) as f:
            base = json.load(f)["counts"]
    except (OSError, ValueError, KeyError):
        return ["baseline: none recorded"]
    out = []
    for workload, ops in sorted(counts.items()):
        ref = base.get(workload, {}).get(str(seed))
        if ref is None:
            out.append("baseline %s seed %d: not recorded" % (workload, seed))
        elif ref == ops:
            out.append("baseline %s seed %d: reproduced bit for bit"
                       % (workload, seed))
        else:
            diff = sorted(
                "%s.%s" % (op, k)
                for op in set(ref) | set(ops)
                for k in set(ref.get(op, {})) | set(ops.get(op, {}))
                if ref.get(op, {}).get(k) != ops.get(op, {}).get(k))
            out.append("baseline %s seed %d: DIFFERS in %s"
                       % (workload, seed, ", ".join(diff)))
    return out


def record_baseline():
    counts = {}
    for seed in (DEFAULT_SEED, HELDOUT_SEED):
        for w in WORKLOADS:
            _, result, c = run(w, seed, 0, 0)
            if not result["correct"]:
                fail("%s seed %d is not correct; baseline not written"
                     % (w, seed))
            counts.setdefault(w, {})[str(seed)] = c[w]
    doc = {
        "about": "Exact simulated counts per operation of one pass, by "
                 "workload and seed.  A change that only speeds up the "
                 "simulator must reproduce them bit for bit.",
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "counts": counts,
    }
    with open(BASELINE, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-baseline", action="store_true")
    args = ap.parse_args()
    if not args.record_baseline and args.workload is None:
        ap.error("--workload is required")
    build()
    if args.record_baseline:
        record_baseline()
        return
    lines, result, counts = run(args.workload, args.seed, args.seconds,
                                args.trace)
    for line in lines[:-1] + compare(counts, args.seed):
        print(line)
    print(lines[-1])


if __name__ == "__main__":
    main()
