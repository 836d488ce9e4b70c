#!/usr/bin/env python3
"""Steadiness, reference counts and determinism for uniprot_bench.

    python3 uniprot_bench/tools.py steady [--workload W] [--repeats 10]
        [--first-seed 1] [--seconds S] [--trace 0|1]
    python3 uniprot_bench/tools.py counts --workload W --seed N
    python3 uniprot_bench/tools.py determinism [--workload W] [--seed N]

steady   runs each workload once per seed and prints every metric's median,
         quartiles and quartile spread as a share of the median, against
         the metric's bound in BENCHMARK.json (the bounds are set from it).
counts   prints the seeded counters of one round for any seed: the
         reference counts are regenerated, never read from a stored copy.
determinism  runs one round twice in separate processes and requires the
         seeded counters and the three quality metrics to match exactly.
"""

import argparse
import json
import os
import statistics
import sys

import run

QUALITY = ("expert_tasks_per_annotation", "true_links_found")


def load_bounds():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return bounds, spec["run_seconds"]


def one(workload, seed, seconds, trace, rounds=0):
    """One run: (counters, result) parsed from the last two stdout lines."""
    code, lines = run.run(workload, seed, seconds, trace, rounds)
    if code != 0 or len(lines) < 2 or not lines[-2].startswith("counters: "):
        sys.exit(f"{workload} seed {seed}: run failed (exit {code})")
    return json.loads(lines[-2][len("counters: "):]), json.loads(lines[-1])


def steady(args):
    bounds, run_seconds = load_bounds()
    seconds = args.seconds or run_seconds
    worst = 0.0
    for workload in args.workload or run.WORKLOADS:
        values, shares = {}, set()
        for seed in range(args.first_seed, args.first_seed + args.repeats):
            _, result = one(workload, seed, seconds, args.trace)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: output check failed")
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: attempted "
                  f"{result['attempted']}, failed {result['failed']}",
                  file=sys.stderr)
        print(f"{workload}: {args.repeats} runs, failed share "
              f"{sorted(shares)}")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = " OVER" if spread > bound / 3 else ""
            print(f"  {name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.2%} {'' if bound is None else bound:>6}{flag}")
    print(f"largest spread as a share of its bound: {worst:.2f}")


def counts(args):
    c, _ = one(args.workload[0], args.seed, 0, 0, rounds=1)
    print(json.dumps(c, sort_keys=True))


def determinism(args):
    ok = True
    for workload in args.workload or run.WORKLOADS:
        runs = [one(workload, args.seed, 0, 0, rounds=1) for _ in range(2)]
        (c1, r1), (c2, r2) = runs
        same = c1 == c2 and all(
            r1["metrics"][q]["value"] == r2["metrics"][q]["value"]
            for q in QUALITY)
        print(f"{workload} seed {args.seed}: "
              f"{'identical' if same else 'DIFFERENT'}")
        if not same:
            for k in sorted(set(c1) | set(c2)):
                if c1.get(k) != c2.get(k):
                    print(f"  {k}: {c1.get(k)} vs {c2.get(k)}")
            ok = False
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("steady")
    p.add_argument("--workload", action="append", choices=run.WORKLOADS)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("counts")
    p.add_argument("--workload", action="append", choices=run.WORKLOADS,
                   required=True)
    p.add_argument("--seed", type=int, default=1)
    p = sub.add_parser("determinism")
    p.add_argument("--workload", action="append", choices=run.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not run.build():
        return 1
    return {"steady": steady, "counts": counts,
            "determinism": determinism}[args.cmd](args) or 0


if __name__ == "__main__":
    sys.exit(main())
