#!/usr/bin/env python3
"""Collect and compare result sets of the repository benchmark.

A result set is a directory holding one `<workload>.jsonl` file per
workload; each line is one run: its seed, its digest line and the JSON
object the benchmark printed last.

    python3 perfbench/ledger.py run --out DIR [--workloads a,b] [--seeds 1,2,3]
                                    [--trace 0|1] [--seconds S]
    python3 perfbench/ledger.py compare BASE CHANGE

`run` executes the command from BENCHMARK.json once per workload and
seed (from the repository root), stores every run, and prints each
end-to-end metric's median, quartiles and spread: the distance between
the first and third quartile as a share of the median.

`compare` prints, per workload and end-to-end metric, both sides'
median and quartiles and the pairs won by each side (runs are paired
by seed), and a verdict. A metric whose spread on either side exceeds
its bound is "unresolved" unless every run of one side beats every run
of the other. It also checks that runs of the same seed have identical
digests on both sides.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def run_one(spec, workload, seed, seconds, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    digest = next((l for l in lines if l.startswith("digest ")), "")
    return {"seed": seed, "trace": trace, "digest": digest, "result": json.loads(lines[-1])}


def cmd_run(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = args.seconds or spec["run_seconds"]
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    os.makedirs(args.out, exist_ok=True)
    for w in workloads:
        runs = []
        path = os.path.join(args.out, f"{w}.jsonl")
        with open(path, "a") as f:
            for seed in seeds:
                r = run_one(spec, w, seed, seconds, args.trace)
                got = list(r["result"]["metrics"])
                if got != wanted:
                    raise SystemExit(f"{w}: metric names {got} differ from BENCHMARK.json")
                if not r["result"]["correct"]:
                    raise SystemExit(f"{w} seed {seed}: run reported incorrect output")
                f.write(json.dumps(r) + "\n")
                f.flush()
                runs.append(r)
                print(f"{w} seed {seed}: {r['digest']}", flush=True)
        if not args.trace:
            report_spread(spec, w, runs)


def report_spread(spec, workload, runs):
    print(f"\n{workload}: {len(runs)} runs")
    for m in spec["end_to_end"]:
        vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = quartiles(vals)
        s = spread(vals)
        flag = "ok" if s <= m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
        print(f"  {m['name']:>20} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {s:.3f} (bound {m['bound']}) {flag}")


def load_set(path):
    out = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".jsonl"):
            with open(os.path.join(path, name)) as f:
                runs = [json.loads(l) for l in f if l.strip()]
            out[name[:-6]] = [r for r in runs if r["trace"] == 0]
    return out


def cmd_compare(args):
    spec = load_spec()
    base, change = load_set(args.base), load_set(args.change)
    status = 0
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in base or w not in change:
            print(f"{w}: missing from one side, skipped")
            continue
        a_runs, b_runs = base[w], change[w]
        a_by_seed = {r["seed"]: r for r in a_runs}
        pairs = [(a_by_seed[r["seed"]], r) for r in b_runs if r["seed"] in a_by_seed]
        mismatched = [b["seed"] for a, b in pairs if a["digest"] != b["digest"]]
        print(f"\n{w}: base {len(a_runs)} runs, change {len(b_runs)} runs, {len(pairs)} seed pairs")
        if mismatched:
            status = 1
            print(f"  DIGEST MISMATCH on seeds {mismatched}: the change altered simulated outputs")
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            av = [r["result"]["metrics"][name]["value"] for r in a_runs]
            bv = [r["result"]["metrics"][name]["value"] for r in b_runs]
            aq, bq = quartiles(av), quartiles(bv)

            def better(x, y):
                return x < y if lower else x > y

            b_wins = sum(better(b["result"]["metrics"][name]["value"], a["result"]["metrics"][name]["value"])
                         for a, b in pairs)
            a_wins = sum(better(a["result"]["metrics"][name]["value"], b["result"]["metrics"][name]["value"])
                         for a, b in pairs)
            worse = (bq[1] - aq[1]) / aq[1] * (1 if lower else -1) if aq[1] else 0.0
            if spread(av) > m["bound"] or spread(bv) > m["bound"]:
                if all(better(b, a) for a in av for b in bv):
                    verdict = "better (every run)"
                elif all(better(a, b) for a in av for b in bv):
                    verdict = "worse (every run)"
                else:
                    verdict = "unresolved (spread exceeds bound)"
            elif worse > m["bound"]:
                verdict = f"REGRESSION ({worse:+.1%} worse, bound {m['bound']:.0%})"
                status = 1
            elif pairs and b_wins >= 0.9 * len(pairs) and abs(bq[1] - aq[1]) > aq[2] - aq[0]:
                verdict = "gain"
            else:
                verdict = "no change within bound"
            print(f"  {name:>20} [{m['unit']}, {m['better']} is better]")
            print(f"      base   median {aq[1]:.6g}  q1 {aq[0]:.6g}  q3 {aq[2]:.6g}")
            print(f"      change median {bq[1]:.6g}  q1 {bq[0]:.6g}  q3 {bq[2]:.6g}")
            print(f"      pairs won: base {a_wins}, change {b_wins}, ties {len(pairs) - a_wins - b_wins}"
                  f"  -> {verdict}")
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run the benchmark and store a result set")
    r.add_argument("--out", required=True)
    r.add_argument("--workloads", default="")
    r.add_argument("--seeds", default="2525")
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", type=int, choices=[0, 1], default=0)
    c = sub.add_parser("compare", help="compare two result sets")
    c.add_argument("base")
    c.add_argument("change")
    args = p.parse_args()
    if args.cmd == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
