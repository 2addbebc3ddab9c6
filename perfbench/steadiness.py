#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each with another seed,
and records each end-to-end metric's median, quartiles and spread
(interquartile distance over the median, as statistics.quantiles(n=4)
gives them) next to the bound BENCHMARK.json fixes for it.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/RESULTS.json

Run it from the repository root on an otherwise idle host.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out", default="perfbench/RESULTS.json")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out = {"runSeconds": bench["run_seconds"], "runs": args.runs, "workloads": {}}
    for w in workloads:
        values, facts = {}, None
        failed = attempted = 0
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += res["failed"]
            attempted += res["attempted"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            full = json.load(open(os.path.join(build, f"result-{w}-seed{seed}-trace0.json")))
            if facts is None:
                facts = {"host": full["host"], "setup": full["setup"]}
            facts.setdefault("tails", []).append(full["tails"])
            print(f"{w} seed {seed}: correct={res['correct']}", file=sys.stderr)
        metrics = {}
        for name, v in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(v, n=4)
            metrics[name] = {
                "median": statistics.median(v), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(v),
                "bound": bounds.get(name), "values": v,
            }
        out["workloads"][w] = {"seeds": [args.first_seed, args.first_seed + args.runs - 1],
                               "attempted": attempted, "failed": failed,
                               "facts": facts, "metrics": metrics}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    for w, r in out["workloads"].items():
        for name, m in r["metrics"].items():
            flag = "" if m["bound"] is None or m["spread"] <= m["bound"] / 3 else "  <-- above bound/3"
            print(f"{w:10s} {name:24s} median={m['median']:<12.5g} spread={m['spread']:.3f}{flag}")


if __name__ == "__main__":
    main()
