"""Session-scoped Ray + shared synthetic corpus fixtures."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="session", autouse=True)
def _quiet_ray_data():
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
    except Exception:
        pass
    yield


@pytest.fixture(scope="session")
def pages_dir(tmp_path_factory):
    """sf-unit corpus: 1k rows, 8 fragments, with url-dups and near-dups."""
    from org_rdkit_lucene_ray.synth import write_pages_dir

    d = tmp_path_factory.mktemp("pages")
    write_pages_dir(str(d), n_docs=1000, n_fragments=8, seed=42)
    return str(d)


@pytest.fixture(scope="session")
def built_index(ray_session, pages_dir, tmp_path_factory):
    """Index built once for all query-side tests."""
    from org_rdkit_lucene_ray.config import IndexConfig
    from org_rdkit_lucene_ray.pipelines.build import build_index

    idx = tmp_path_factory.mktemp("index")
    cfg = IndexConfig(docs_per_segment=256, term_buckets=8, block_size=32)
    manifest = build_index(pages_dir, str(idx), cfg=cfg)
    return str(idx), manifest


@pytest.fixture(scope="session")
def oracle_index(pages_dir):
    """Oracle built over the SAME logical corpus (dedup applied, same ids)."""
    import numpy as np
    import pyarrow.parquet as pq

    from org_rdkit_lucene_ray.oracle import OracleIndex
    from org_rdkit_lucene_ray.pipelines.build import plan_fragments

    frags = plan_fragments(pages_dir)
    rows = []  # (doc_id, url, ts, text)
    for f in frags:
        t = pq.read_table(f["path"], columns=["url", "warc_ts", "text"])
        for i in range(t.num_rows):
            rows.append((
                f["base"] + i,
                t["url"][i].as_py(),
                t["warc_ts"][i].value,
                t["text"][i].as_py(),
            ))
    # last-write-wins dedup on url: keep max (warc_ts, doc_id)
    best: dict[str, tuple] = {}
    for doc_id, url, ts, text in rows:
        cur = best.get(url)
        if cur is None or (ts, doc_id) > (cur[0], cur[1]):
            best[url] = (ts, doc_id, text)
    oi = OracleIndex()
    for url, (ts, doc_id, text) in sorted(best.items(), key=lambda kv: kv[1][1]):
        oi.add(doc_id, text)
    return oi


@pytest.fixture(scope="session")
def bmw_boundaries():
    """-> ``check(searcher, queries)``: ``topk_bmw`` equals
    ``topk_exhaustive``, float32 scores included, at every k around the
    decode cache's per-term top-K (1, K-1, K, K+1, 500) and when paging
    with search-after from cuts around K. Returns how many queries match
    more than K docs, so a caller can assert the K boundary was crossed."""
    import numpy as np

    from org_rdkit_lucene_ray.pipelines.query import _TOP_K as K

    def check(s, queries) -> int:
        crossing = 0
        for q in queries:
            full = s.topk_exhaustive(q, 500)
            assert all(np.float32(sc) == sc for _, sc in full), q
            for k in (1, K - 1, K, K + 1, 500):
                assert s.topk_bmw(q, k) == s.topk_exhaustive(q, k), (q, k)
            for c in {0, K - 2, K - 1, K, len(full) // 2}:
                if c < len(full):
                    after = (full[c][1], full[c][0])
                    for k in (1, K, K + 1):
                        assert s.topk_bmw(q, k, after=after) == \
                            s.topk_exhaustive(q, k, after=after), (q, c, k)
            crossing += len(full) > K
        return crossing

    return check
