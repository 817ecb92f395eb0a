#!/usr/bin/env python3
"""Run one workload once per seed, each in a fresh process, and report every
metric's run-to-run spread: (Q3 - Q1) / median over the runs, quartiles as
``statistics.quantiles(values, n=4)`` gives them. Compare each spread with
the metric's ``bound`` in BENCHMARK.json.

    python3 perfbench/spread.py --workload serve --seeds 1-10 [--trace 0]

Run it from the repository root. Per-run results are appended, one JSON
line each, to .pbout/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    os.makedirs(os.path.join(root, ".pbout"), exist_ok=True)
    log = os.path.join(root, ".pbout", f"spread-{args.workload}.jsonl")

    values: dict[str, list[float]] = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        t = time.perf_counter()
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
        wall = time.perf_counter() - t
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
        res = json.loads(last) if last.startswith("{") else {}
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, "wall_s": wall, "rc": p.returncode, **res}) + "\n")
        ok = p.returncode == 0 and res.get("correct") and res.get("failed") == 0
        vals = {k: v["value"] for k, v in res.get("metrics", {}).items()}
        for k, v in vals.items():
            values.setdefault(k, []).append(v)
        print(f"seed {seed:>3} wall {wall:6.1f}s {'ok  ' if ok else 'FAIL'} "
              + " ".join(f"{k}={v:.4g}" for k, v in vals.items()), flush=True)
        if not ok:
            sys.stderr.write(p.stderr[-3000:])

    print(f"\n{'metric':<42} {'median':>12} {'spread':>8} {'bound':>7}")
    for k, vs in values.items():
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        print(f"{k:<42} {med:12.5g} {(q3 - q1) / med:8.3f} {bounds.get(k) or '-':>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
