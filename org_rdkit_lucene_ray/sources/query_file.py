"""Query-file reader + CSV results sink (the benchmark harness I/O layer).

Reference analogs:
- S3 SMILES query-file reader (``LuceneBenchmark.java:271-288``): line
  reader with a [start, end] row-range filter, tab->space normalization,
  take the first whitespace token per line.
- S6 CSV results writer (``LuceneBenchmark.writeResultFileHeader/Row``,
  ``LuceneBenchmark.java:435-500``): header-once append CSV of per-query
  results.
- K4 random task order (``LuceneBenchmark.java:390-401``): seeded
  ``random_shuffle`` over the query table.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd


def read_query_file(
    path: str,
    *,
    first_row: int = 0,
    last_row: int | None = None,
    default_k: int = 10,
    shuffle_seed: int | None = None,
) -> rd.Dataset:
    """Text file -> queries Dataset ``(query_id:int32, query:string, k:int32)``.

    One query per line; tabs normalized to spaces; blank lines dropped;
    rows outside [first_row, last_row] filtered (K5). With ``shuffle_seed``
    the rows are randomly re-ordered, seeded (K4 —
    reproducible unlike the reference's bare ``Math.random()``).
    """
    # query files are tiny (the reference's LineNumberReader path,
    # LuceneBenchmark.java:271-288): read on the driver so line numbers —
    # the row-range filter's coordinate system — are stable, then hand the
    # table to Ray Data for the distributed part.
    with open(path) as fh:
        lines = fh.read().splitlines()
    tbl = pa.table({"query": pa.array(lines, pa.string())})
    q = pc.utf8_trim_whitespace(
        pc.replace_substring(tbl["query"].combine_chunks(), "\t", " "))
    tbl = pa.table({"query": q})
    keep = pc.not_equal(q, "")
    tbl = tbl.filter(keep)
    n = tbl.num_rows
    tbl = tbl.add_column(0, "query_id", pa.array(range(n), pa.int32()))
    tbl = tbl.append_column("k", pa.array([default_k] * n, pa.int32()))
    lo, hi = first_row, (last_row if last_row is not None else n - 1)
    tbl = tbl.filter(pc.and_(
        pc.greater_equal(tbl["query_id"], lo),
        pc.less_equal(tbl["query_id"], hi)))
    out = rd.from_arrow(tbl)
    if shuffle_seed is not None:
        out = out.random_shuffle(seed=shuffle_seed)
    return out


RESULTS_CSV_COLUMNS = ["query_id", "rank", "doc_id", "url", "score"]


def write_results_csv(results: rd.Dataset, out_dir: str) -> None:
    """Results Dataset -> CSV directory (header once per shard file).

    The reference synchronizes one shared CSV across threads
    (``LuceneBenchmark.java:435-500``); a distributed sink writes one shard
    per block instead — same rows, no lock."""
    results.write_csv(out_dir)


# ------------------------------------------------------------- S4 ini config
BENCHMARK_DEFAULTS = {
    "first_row": "0",
    "last_row": "-1",              # -1 = to end (reference uses lastRow)
    "searches_per_type": "1",
    "thread_count": "1",
    "search_types": "FP,SS,MOL",
    "k": "10",
}


def read_benchmark_config(path: str, *, time_stamp: str = "time") -> dict:
    """Java-Properties-style benchmark config reader — the S4 analog of
    ``LuceneBenchmark.readConfigFile`` (``LuceneBenchmark.java:716-745``):
    ``key=value`` lines, ``#``/``!`` comments, defaults layering
    (:data:`BENCHMARK_DEFAULTS`), and ``%key%`` placeholder substitution in
    ``result_csv`` (the reference substitutes querySmilesFile/indexDir/
    threadCount/searchesPerType/searchTypes/firstRow/lastRow plus the
    ``%time%`` run stamp — injected here via ``time_stamp`` so outputs stay
    deterministic under test)."""
    props = dict(BENCHMARK_DEFAULTS)
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line[0] in "#!":
                continue
            if "=" in line:
                k, _, v = line.partition("=")
                props[k.strip()] = v.strip()
    rc = props.get("result_csv", "")
    for k, v in sorted(props.items()):
        rc = rc.replace(f"%{k}%", v)
    rc = rc.replace("%time%", time_stamp)
    if rc:
        props["result_csv"] = rc
    return props


def run_benchmark_config(config_path: str, *, time_stamp: str = "time") -> dict:
    """End-to-end ``-benchmark`` analog: ini config -> query-file reader
    (row range, seeded shuffle) -> search tasks -> CSV results sink
    (``LuceneBenchmark.java:630-714`` condensed to one Dataset pipeline).
    The ini's ``thread_count`` caps the concurrent query tasks (the
    reference's fixed thread pool). Returns the parsed config + result row
    count."""
    from org_rdkit_lucene_ray.pipelines.query import run_queries

    cfg = read_benchmark_config(config_path, time_stamp=time_stamp)
    missing = [k for k in ("query_file", "index_dir", "result_csv")
               if not cfg.get(k)]
    if missing:
        raise ValueError(
            f"benchmark config {config_path} is missing required key(s) "
            f"{missing}; it must define query_file, index_dir and "
            "result_csv (LuceneBenchmark ini contract)")
    last = int(cfg["last_row"])
    queries = read_query_file(
        cfg["query_file"],
        first_row=int(cfg["first_row"]),
        last_row=None if last < 0 else last,
        default_k=int(cfg["k"]),
        shuffle_seed=int(cfg["shuffle_seed"]) if "shuffle_seed" in cfg else None,
    )
    res = run_queries(cfg["index_dir"], queries,
                      concurrency=int(cfg["thread_count"]))
    write_results_csv(res, cfg["result_csv"])
    n = sum(1 for f in __import__("os").listdir(cfg["result_csv"])
            if f.endswith(".csv"))
    return {"config": cfg, "result_files": n}
