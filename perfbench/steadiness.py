#!/usr/bin/env python3
"""Measures how steady the benchmark's figures are, to set and check bounds.

    python3 perfbench/steadiness.py [--runs 10] [--seconds N] [--first-seed 1]

Takes two sets of runs, one after the other. Each set runs every workload
`--runs` times in alternating order (the workload order rotates each
round, so slow and fast machine phases fall on every workload alike), each
run with a fresh seed. For each metric and workload it prints each set's
median, quartiles and spread (quartile distance over the median, as
statistics.quantiles(values, n=4) gives them), then the gap between the two
sets' medians as a share of the first. Against BENCHMARK.json it flags an
end-to-end spread above a third of the metric's bound, a gap in the worse
direction above the bound, and failed-operation shares that differ between
the sets. It exits non-zero when it flags anything.
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
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed: %s" % " ".join(cmd))
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]

    # sets[s][workload] -> list of results
    sets = [{w: [] for w in workloads} for _ in range(2)]
    seed = args.first_seed
    for s, results in enumerate(sets):
        for i in range(args.runs):
            order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
            for w in order:
                r = run_once(w, seed, args.seconds)
                seed += 1
                results[w].append(r)
                sys.stderr.write("set %d run %d %s: correct=%s failed=%d/%d\n" % (
                    s + 1, i + 1, w, r["correct"], r["failed"], r["attempted"]))

    problems = []
    for w in workloads:
        print("== %s" % w)
        shares = [sum(r["failed"] for r in st[w]) / sum(r["attempted"] for r in st[w])
                  for st in sets]
        if any(not r["correct"] for st in sets for r in st[w]):
            problems.append("%s: a run reported correct=false" % w)
        if shares[0] != shares[1]:
            problems.append("%s: failed share differs between sets (%r)" % (w, shares))
        for m in bench["end_to_end"]:
            name = m["name"]
            first, second = (summarize([r["metrics"][name]["value"] for r in st[w]])
                             for st in sets)
            gap = (second["median"] - first["median"]) / first["median"]
            print("  %-18s %s  gap %+.3f" % (name, "  ".join(
                "med %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f" % (
                    st["median"], st["q1"], st["q3"], st["spread"])
                for st in (first, second)), gap))
            for k, st in enumerate((first, second)):
                if st["spread"] > m["bound"] / 3:
                    problems.append("%s %s: set %d spread %.3f > bound/3 %.3f" % (
                        w, name, k + 1, st["spread"], m["bound"] / 3))
            worse = gap if m["better"] == "lower" else -gap
            if worse > m["bound"]:
                problems.append("%s %s: second median worse by %.3f > bound %.3f" % (
                    w, name, worse, m["bound"]))
    print("problems: %s" % ("none" if not problems else ""))
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
