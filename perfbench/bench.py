#!/usr/bin/env python3
"""Run the benchmark over several seeds, and compare two sets of runs.

Run from the repository root:

  # ten seeds of one workload, end-to-end metrics, into a JSONL file
  python3 perfbench/bench.py runs --workload serve-light --seeds 1-10 --out base.jsonl

  # the traced run (per-layer metrics), with extra benchmark flags
  python3 perfbench/bench.py runs --workload serve-light --seeds 1-5 --trace 1 \\
      --out slow.jsonl -- --shard-delay-ms 6

  # run-to-run spread of each metric: (Q3 - Q1) / median
  python3 perfbench/bench.py spread base.jsonl

  # parent vs change: flags every metric whose median got worse by more
  # than its bound (end-to-end) or LAYER_THRESHOLD (per-layer); fails on
  # a regressed end-to-end metric and on any incorrect change run
  python3 perfbench/bench.py compare base.jsonl change.jsonl

`runs` exits non-zero after recording a run that reports correct=false.

Only the standard library is used.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Change of a per-layer median that `compare` flags (they carry no bound).
LAYER_THRESHOLD = 0.10


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def directions(s):
    """metric name -> (better, bound or None)"""
    out = {}
    for m in s["end_to_end"]:
        out[m["name"]] = (m["better"], m["bound"])
    for m in s["per_layer"]:
        out[m["name"]] = (m["better"], None)
    return out


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def cmd_runs(a):
    s = spec()
    with open(a.out, "a") as out:
        for seed in parse_seeds(a.seeds):
            argv = s["command"] + [
                "--workload", a.workload, "--seed", str(seed),
                "--seconds", str(s["run_seconds"]), "--trace", str(a.trace),
            ] + a.extra
            p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.stderr.write(p.stderr)
                sys.exit(f"run failed: workload {a.workload} seed {seed} (exit {p.returncode})")
            result = json.loads(lines[-1])
            rec = {"workload": a.workload, "seed": seed, "trace": a.trace,
                   "extra": a.extra, "report": lines[:-1], "result": result}
            out.write(json.dumps(rec) + "\n")
            out.flush()
            brief = ", ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())
                              if a.trace == 0)
            print(f"{a.workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {brief}", flush=True)
            if not result["correct"]:
                sys.exit(f"incorrect answers: workload {a.workload} seed {seed} "
                         f"({result['failed']} of {result['attempted']} failed)")


def load(path):
    groups = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def values(recs, name):
    return [r["result"]["metrics"][name]["value"] for r in recs if name in r["result"]["metrics"]]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def cmd_spread(a):
    dirs = directions(spec())
    for (workload, trace), recs in sorted(load(a.file).items()):
        bad = sum(not r["result"]["correct"] for r in recs)
        print(f"== {workload} trace={trace}: {len(recs)} runs, {bad} not correct")
        names = sorted({n for r in recs for n in r["result"]["metrics"]})
        for name in names:
            v = values(recs, name)
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = dirs.get(name, (None, None))[1]
            flag = ""
            if bound is not None:
                flag = "OK" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:36s} median {med:14.6g}  spread {spread:7.2%}  "
                  f"{'bound ' + format(bound, '.0%') if bound is not None else ''} {flag}")


def cmd_compare(a):
    dirs = directions(spec())
    base, new = load(a.base), load(a.new)
    regressed = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"== {workload} trace={trace}: {len(base[key])} base runs, {len(new[key])} new runs")
        failed_base = sum(r["result"]["failed"] for r in base[key])
        failed_new = sum(r["result"]["failed"] for r in new[key])
        incorrect = sum(not r["result"]["correct"] for r in new[key])
        print(f"  failed answers {failed_base} -> {failed_new}, incorrect new runs {incorrect}")
        if incorrect or failed_new > failed_base:
            print("  INCORRECT: the change gives wrong or failed answers")
            regressed = True
        names = sorted({n for r in new[key] for n in r["result"]["metrics"]})
        for name in names:
            vb, vn = values(base[key], name), values(new[key], name)
            if not vb or not vn:
                continue
            mb, mn = statistics.median(vb), statistics.median(vn)
            better, bound = dirs.get(name, ("lower", None))
            threshold = bound if bound is not None else LAYER_THRESHOLD
            if mb == 0:
                change = 0.0 if mn == 0 else float("inf")
            else:
                change = (mn - mb) / abs(mb)
            worse = change if better == "lower" else -change
            verdict = ""
            if worse > threshold:
                verdict = "REGRESSED"
                regressed |= bound is not None
            elif worse < -threshold:
                verdict = "improved"
            print(f"  {name:36s} {mb:14.6g} -> {mn:14.6g}  {change:+8.2%}  "
                  f"(limit {threshold:.0%}) {verdict}")
    sys.exit(1 if regressed else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("runs")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    r.add_argument("extra", nargs="*")
    s = sub.add_parser("spread")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    a = p.parse_args()
    {"runs": cmd_runs, "spread": cmd_spread, "compare": cmd_compare}[a.cmd](a)


if __name__ == "__main__":
    main()
