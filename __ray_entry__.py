"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash).

Implementations live in ``org_rdkit_lucene_ray/pipelines/gate.py``; this
module stays a thin adapter. Nothing here (or below it) calls
``ray.init()`` / ``ray.shutdown()`` — the driver owns the session.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: build the inverted index
    over the ``documents`` table (tokenize -> bucket-clustered postings ->
    storage-partitioned (segment, bucket) encode, zero Ray all-to-all ops ->
    delta/varint segments), then answer the reference BM25 query set with
    block-max search tasks. Returns the top-k result table."""
    from org_rdkit_lucene_ray.pipelines.gate import q_bm25_topk

    return q_bm25_topk("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2 plus the
    training-data-pipeline stages (dedup / ANN / text analysis / windows /
    multimodal plumbing)."""
    from org_rdkit_lucene_ray.pipelines.gate import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL per query. Omitted only for the approximate /
    stateful ops (minhash_pairs, simhash_pairs, ivf_topk,
    embedding_dup_pairs_ivf), whose quality is separately gated by the
    SQL-checked verdict entries (ivf_recall, emb_ivf_recall,
    distinct_terms_hll) and exact siblings."""
    from org_rdkit_lucene_ray.pipelines.gate import ORACLE_SQL

    return dict(ORACLE_SQL)
