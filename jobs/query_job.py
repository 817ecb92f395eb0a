#!/usr/bin/env python
"""`ray job submit` entry: batch BM25 top-k query workload.

    ray job submit --working-dir . -- python jobs/query_job.py \
        --index /data/index --queries /data/queries.parquet --out /data/results
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--index", required=True)
    ap.add_argument("--queries", required=True, help="parquet: query_id, query, k")
    ap.add_argument("--out", required=True, help="output parquet directory")
    ap.add_argument("--mode", default="bmw", choices=["bmw", "exhaustive"])
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        kw = {}
        if os.environ.get("RAY_GRAFT_CPUS"):
            kw["num_cpus"] = int(os.environ["RAY_GRAFT_CPUS"])
        ray.init(address=os.environ.get("RAY_ADDRESS", "auto"),
                 include_dashboard=False, **kw)

    import ray.data as rd

    from org_rdkit_lucene_ray.pipelines.query import run_queries

    queries = rd.read_parquet(args.queries)
    res = run_queries(args.index, queries, mode=args.mode)
    res.write_parquet(args.out)
    print(f"wrote results to {args.out}")
    ray.shutdown()


if __name__ == "__main__":
    main()
