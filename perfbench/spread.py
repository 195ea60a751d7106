#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload, runs the command from BENCHMARK.json once per seed
and prints, per metric, the median and the distance between the first
and third quartile as a share of the median (the spread the bounds in
BENCHMARK.json are checked against). Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads lb_point,rw_http] [--trace 0]
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--save", help="directory to keep each run's full stdout in")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for w in args.workloads.split(","):
        values = {}
        for s in args.seeds:
            cmd = spec["command"] + ["--workload", w, "--seed", str(s),
                                     "--seconds", str(args.seconds), "--trace", args.trace]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stderr[-2000:])
                sys.exit(f"{w} seed {s}: exit {out.returncode}")
            if args.save:
                with open(f"{args.save}/{w}-seed{s}.txt", "w") as f:
                    f.write(out.stdout)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {s}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else (" OK" if spread < bound / 3 else
                                             (" WITHIN" if spread <= bound else " OVER"))
            print(f"{w} {name}: median={med:.6g} spread={spread:.4f} bound={bound}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
