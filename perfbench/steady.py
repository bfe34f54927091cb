#!/usr/bin/env python3
"""Steadiness check: two separate sets of runs of every workload.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds s]

Run from the root of a checkout. Each set runs every workload --runs times
through perfbench/run.py, each run with its own seed (the two sets use
different seeds). For every end-to-end metric it prints, per set, the
median, the quartiles and the spread (quartile distance over the median),
then the gap between the two sets' medians as a share of the first, and
checks both against the metric's bound in BENCHMARK.json: a spread (except
setup_s's) beyond the bound, a median that worsens by more than the bound,
or a failed-job share that differs between the sets fails the check. The
raw results go to perfbench/out/steady.json. Exit code 0 when every check
holds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                          workload, "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", "0"], stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    if res.returncode != 0:
        raise RuntimeError("%s seed %d: exit code %d" % (workload, seed, res.returncode))
    return json.loads(res.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    results = {}  # (set, workload) -> list of results
    for s in (0, 1):
        for w in workloads:
            for r in range(args.runs):
                seed = 1000 * s + r + 1
                res = run_once(w, seed, args.seconds)
                results.setdefault((s, w), []).append(res)
                print("set %d %-15s seed %5d  %s" % (s + 1, w, seed, " ".join(
                    "%s=%.5g" % (k, v["value"]) for k, v in res["metrics"].items())),
                    flush=True)

    ok = True
    print()
    print("%-15s %-20s %12s %12s %12s %7s | %12s %7s | %7s %6s" % (
        "workload", "metric", "median1", "q1", "q3", "spread1", "median2", "spread2",
        "gap", "bound"))
    for w in workloads:
        a, b = results[(0, w)], results[(1, w)]
        shares = [sum(x["failed"] for x in rs) / sum(x["attempted"] for x in rs)
                  for rs in (a, b)]
        correct = all(x["correct"] for x in a + b)
        if shares[0] != shares[1] or not correct:
            ok = False
        for name, m in metrics.items():
            s1 = summary([x["metrics"][name]["value"] for x in a])
            s2 = summary([x["metrics"][name]["value"] for x in b])
            # Positive gap = the second set is worse.
            sign = 1 if m["better"] == "lower" else -1
            gap = sign * (s2[0] - s1[0]) / s1[0] if s1[0] else 0.0
            bad = gap > m["bound"] or (name != "setup_s" and max(s1[3], s2[3]) > m["bound"])
            ok = ok and not bad
            print("%-15s %-20s %12.5g %12.5g %12.5g %7.3f | %12.5g %7.3f | %+7.3f %6.2f%s" % (
                w, name, s1[0], s1[1], s1[2], s1[3], s2[0], s2[3], gap, m["bound"],
                "  FAIL" if bad else ""))
        print("%-15s failed share %.6f / %.6f, all correct: %s" % (w, shares[0], shares[1],
                                                                   correct))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steady.json"), "w") as f:
        json.dump({"%d/%s" % k: v for k, v in results.items()}, f, indent=1)
    print("\nsteadiness: %s" % ("OK" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
