"""Run the benchmark over several seeds and summarise it as a baseline file.

From the repository root:

    python3 bench/collect.py --seeds 1-10 --seconds 30 --out bench/BASELINE.json

For each workload it makes one untraced run per seed, one after another, and
one traced run with the first seed.  For every end-to-end metric it records
the values, their median and quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median; it also records every failed op with its cause,
the per-layer metrics of the traced run, and the environment of the runs.
An existing --out file is updated in place, workload by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from spec import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".bench_out", f"run-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    return result, record


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="range such as 1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    doc = {"workloads": {}}
    if os.path.exists(args.out):  # add to or replace workloads of an earlier collection
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.update(seconds=args.seconds, seeds=args.seeds)
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, record = _run(workload, seed, args.seconds, 0)
            runs.append((seed, result, record))
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        traced, traced_record = _run(workload, args.seeds[0], args.seconds, 1)
        doc["environment"] = runs[0][2]["environment"]
        doc["workloads"][workload] = {
            "why": WORKLOADS[workload],
            "tail_percentile": runs[0][2]["tail_percentile"],
            "attempted": [r["attempted"] for _, r, _ in runs],
            "ops_run": [rec["ops_run"] for _, _, rec in runs],
            "failed": [r["failed"] for _, r, _ in runs],
            "correct": [r["correct"] for _, r, _ in runs],
            "fail_ratio": summarise([r["failed"] / r["attempted"] for _, r, _ in runs]),
            "failed_ops": [dict(seed=seed, **f) for seed, _, rec in runs for f in rec["failures"]],
            "end_to_end": {
                name: summarise([r["metrics"][name]["value"] for _, r, _ in runs]) for name, *_ in END_TO_END
            },
            "per_layer_traced_run": {
                "seed": args.seeds[0],
                "correct": traced["correct"],
                "metrics": {name: traced["metrics"][name]["value"] for name, *_ in PER_LAYER},
                "failed_ops": traced_record["failures"],
            },
        }
    doc["layer_predictions"] = {name: prediction for name, _, _, prediction in PER_LAYER}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
