"""Independent answers that the engine's outputs are checked against.

Everything here is plain Python over the generated inputs and runs
outside the timed window. It re-derives doc ids and last-write-wins
dedup itself rather than calling the engine's planner, and scores with
``oracle.OracleIndex``, the engine's executable specification.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from org_rdkit_lucene_ray.config import AnalyzerConfig
from org_rdkit_lucene_ray.functions.analyze import analyze_text
from org_rdkit_lucene_ray.oracle import OracleIndex


def parquet_paths(root: str) -> list[str]:
    return sorted(os.path.join(root, f) for f in os.listdir(root)
                  if f.endswith(".parquet"))


def survivors(paths: list[str], doc_id_base: int = 0) -> tuple[dict[int, tuple[str, str]], int]:
    """``{doc_id: (url, text)}`` after last-write-wins on url, plus the row
    count. Doc ids: fragments in path order, each starting at the running
    sum of the earlier fragments' row counts; the newest ``(warc_ts,
    doc_id)`` of a url wins."""
    best: dict[str, tuple[int, int, str]] = {}
    doc_id = doc_id_base
    for p in sorted(paths):
        t = pq.read_table(p, columns=["url", "warc_ts", "text"])
        for url, ts, text in zip(t["url"].to_pylist(),
                                 t["warc_ts"].cast(pa.int64()).to_pylist(),
                                 t["text"].to_pylist()):
            cur = best.get(url)
            if cur is None or (ts, doc_id) > (cur[0], cur[1]):
                best[url] = (ts, doc_id, text)
            doc_id += 1
    return ({d: (u, text) for u, (_, d, text) in best.items()},
            doc_id - doc_id_base)


def postings_recount(corpus: dict[int, tuple[str, str]]) -> dict:
    """Docs, postings (distinct terms per doc) and distinct terms."""
    cfg = AnalyzerConfig()
    vocab: set[str] = set()
    n_postings = 0
    for _, text in corpus.values():
        terms = set(analyze_text(text, cfg))
        n_postings += len(terms)
        vocab |= terms
    return {"n_docs": len(corpus), "n_postings": n_postings,
            "n_terms": len(vocab)}


def oracle_of(corpus: dict[int, tuple[str, str]]) -> OracleIndex:
    oi = OracleIndex()
    for d in sorted(corpus):
        oi.add(d, corpus[d][1])
    return oi


def same_topk(got: list, want: list) -> bool:
    """Rank identity and float32 score identity."""
    return ([d for d, _ in got] == [d for d, _ in want]
            and all(np.float32(a) == np.float32(b)
                    for (_, a), (_, b) in zip(got, want)))


def matching_docs(corpus: dict[int, tuple[str, str]], query: str) -> set[int]:
    """Docs holding any term of ``query`` (an OR query)."""
    cfg = AnalyzerConfig()
    terms = set(analyze_text(query, cfg))
    return {d for d, (_, text) in corpus.items()
            if terms & set(analyze_text(text, cfg))}


def segment_ceiling(n_rows: int, doc_id_base: int, docs_per_segment: int) -> int:
    """First segment-aligned doc id above a generation's id range."""
    last = doc_id_base + n_rows - 1
    return (last // docs_per_segment + 1) * docs_per_segment


# ------------------------------------------------------------------ curate
def exact_groups(ids: list[int], texts: list[str]) -> set[tuple[int, int]]:
    """``(min doc_id, copies)`` per distinct text."""
    groups: dict[str, list[int]] = {}
    for d, t in zip(ids, texts):
        g = groups.setdefault(t, [d, 0])
        g[0] = min(g[0], d)
        g[1] += 1
    return {(g[0], g[1]) for g in groups.values()}


def top_pairs(texts: list[str], k: int) -> list[tuple[str, int]]:
    """The ``k`` most frequent adjacent token pairs, (count desc, pair asc)."""
    cfg = AnalyzerConfig()
    c: Counter = Counter()
    for t in texts:
        toks = analyze_text(t, cfg)
        c.update(f"{a} {b}" for a, b in zip(toks, toks[1:]))
    return sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def shingle_jaccard(a: str, b: str, shingle: int = 3) -> float:
    """Exact Jaccard of the two texts' word ``shingle``-gram sets."""
    cfg = AnalyzerConfig()

    def grams(t: str) -> set:
        toks = analyze_text(t, cfg)
        if len(toks) < shingle:
            return {tuple(toks)}
        return {tuple(toks[i:i + shingle]) for i in range(len(toks) - shingle + 1)}

    ga, gb = grams(a), grams(b)
    return len(ga & gb) / len(ga | gb)
