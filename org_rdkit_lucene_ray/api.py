"""User-facing engine façade — the ``ChemicalIndex`` public API reshaped.

The reference's whole public surface is one class: 3 add methods + 7
search methods + stats/lifecycle (``ChemicalIndex.java``; the demo GUI
and benchmark driver call nothing else — SURVEY §3.3). :class:`Engine`
is the drop-in-shaped equivalent over the Ray Data pipelines:

    reference (ChemicalIndex)              Engine
    -------------------------------------  -------------------------------
    addSDFFileToIndex / addMolecule(s)     build() / add_documents()
    (IndexWriter close(true) merge wait)   merge()
    searchMoleculeByPK          :505-519   lookup(url)
    searchExactMolecules        :574-589   search_exact(text)
    searchMoleculesByName       :538-554   search_or(query)
    searchMoleculesByFingerprintMatch
                                :607-637   search_fp(query, k) / search_and
    searchMoleculesWithSubstructure
                                :657-727   search_screen_verify(query, k)
    searchMoleculeFreeQuery     :466-491   search(query) — full QueryParser
                                           grammar incl. fuzzy/wildcard/
                                           prefix/range + bare-term
                                           all-field expansion
    getPrimaryKeysForSearchHits :739-767   resolve_urls(doc_ids)
    numDocs()                   :434-447   stats()["n_docs"]
    IndexSearcher reopen (T3)              automatic on generation change

Lifecycle: no locks, no close() — generations are immutable and the
CURRENT pointer swap is atomic, so an :class:`Engine` simply re-opens its
:class:`~org_rdkit_lucene_ray.pipelines.query.Searcher` when a write
method moved the pointer (the writer<->searcher exclusivity of
``ChemicalIndex.java:129-131`` is designed out). Nothing here calls
``ray.init()`` — the driver owns the session.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from org_rdkit_lucene_ray.config import IndexConfig


class Engine:
    """Open (or build) an index directory and serve the reference API."""

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        self._searcher = None
        self._searcher_gen = None

    # ------------------------------------------------------------- writes
    @classmethod
    def build(cls, input_paths: str | list[str], index_dir: str,
              cfg: IndexConfig | None = None, **kw) -> "Engine":
        """Bulk build (the ``-index`` entry): see
        :func:`pipelines.build.build_index` for knobs. Resumable."""
        from org_rdkit_lucene_ray.pipelines.build import build_index

        build_index(input_paths, index_dir, cfg=cfg, **kw)
        return cls(index_dir)

    @classmethod
    def build_from_records(cls, record_paths: str | list[str], index_dir: str,
                           cfg: IndexConfig | None = None,
                           staging_dir: str | None = None, **kw) -> "Engine":
        """End-to-end raw ingest (the reference's ``addSDFFileToIndex``
        shape, ``ChemicalIndex.java:226-308``): record files (optionally
        gzipped; ``sources/record_file.py``) -> pages-Parquet staging ->
        resumable :meth:`build` with html extraction. Staging is written
        once (marker-guarded), so re-running after a crash resumes the
        build against the identical fragment set."""
        import os

        from org_rdkit_lucene_ray.sources.record_file import read_record_files

        staging = staging_dir or os.path.join(index_dir, "staging_pages")
        marker = os.path.join(staging, "_STAGED")
        if not os.path.exists(marker):
            ds = read_record_files(record_paths).drop_columns(
                ["source_file", "record_no"])
            ds.write_parquet(staging)
            with open(marker, "w") as fh:
                fh.write("ok")
        return cls.build(staging, index_dir, cfg=cfg, use_html=True,
                         verify_extraction=False, **kw)

    def add_documents(self, input_paths: str | list[str], **kw) -> dict:
        """Incremental add as a delta generation with url upsert tombstones
        (delete-by-PK analog, ``ChemicalIndex.java:801``)."""
        from org_rdkit_lucene_ray.pipelines.merge import add_documents

        return add_documents(self.index_dir, input_paths, **kw)

    def delete(self, query: str, *, mode: str = "or") -> dict:
        """Tombstone every match of ``query`` in a new delete-only
        generation (``IndexWriter.deleteDocuments(Query)`` analog); made
        physical by the next :meth:`merge`."""
        from org_rdkit_lucene_ray.pipelines.merge import delete_by_query

        return delete_by_query(self.index_dir, query, mode=mode)

    def merge(self) -> dict:
        """Compact all live generations (``close(true)`` merge analog)."""
        from org_rdkit_lucene_ray.pipelines.merge import merge_generations

        return merge_generations(self.index_dir)

    # ------------------------------------------------------------ searcher
    def searcher(self):
        """The live generation's Searcher; re-opened automatically after a
        write moved the CURRENT pointer (T3 reopen semantics)."""
        from org_rdkit_lucene_ray.pipelines.query import Searcher
        from org_rdkit_lucene_ray.state.segment import current_generation

        gen = current_generation(self.index_dir)
        if self._searcher is None or gen != self._searcher_gen:
            self._searcher = Searcher(self.index_dir)
            self._searcher_gen = gen
        return self._searcher

    # ------------------------------------------------------------- queries
    def topk(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        """BM25 top-k (score desc, doc_id asc) — block-max pruned, exact."""
        return self.searcher().topk(query, k)

    def search(self, query: str, max_hits: int | None = None) -> np.ndarray:
        """Free query, full QueryParser grammar (+/-, field:, ~, ?/*,
        [lo TO hi]); bare single terms also expand across all indexed
        field namespaces like MultiFieldQueryParser when unmatched."""
        s = self.searcher()
        out = s.search_query(query, max_hits=max_hits)
        if out.size == 0 and " " not in query.strip():
            # MultiFieldQueryParser behavior for a bare unmatched term
            out = s.search_free(query, max_hits=max_hits)
        return out

    def lookup(self, url: str) -> pa.Table:
        return self.searcher().lookup_pk(url)

    def search_exact(self, text: str, max_hits: int | None = None) -> np.ndarray:
        return self.searcher().search_exact(text, max_hits=max_hits)

    def search_and(self, query: str, max_hits: int | None = None) -> np.ndarray:
        return self.searcher().search_and(query, max_hits=max_hits)

    def search_or(self, query: str, max_hits: int | None = None) -> np.ndarray:
        return self.searcher().search_or(query, max_hits=max_hits)

    def search_fp(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        return self.searcher().search_fp_scored(query, k)

    def search_screen_verify(self, query: str, k: int = 10,
                             **kw) -> list[tuple[int, float]]:
        return self.searcher().search_screen_verify(query, k, **kw)

    def resolve_urls(self, doc_ids: list[int]) -> dict[int, str]:
        return self.searcher().resolve_urls(doc_ids)

    def search_sorted(self, query: str, *, field: str = "dl", k: int = 10,
                      **kw) -> list[tuple[int, int]]:
        """Sort-by-stored-field collection (Lucene ``Sort``)."""
        return self.searcher().search_sorted(query, field=field, k=k, **kw)

    def search_synonyms(self, query: str, synonyms: dict[str, list[str]],
                        k: int = 10) -> list[tuple[int, float]]:
        """SynonymQuery-scored top-k (tf summed, df = max member)."""
        return self.searcher().topk_synonyms(query, synonyms, k=k)

    def search_boosted(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        """Scored top-k honoring ``term^boost`` clauses."""
        return self.searcher().topk_boosted(query, k=k)

    def search_numeric_range(self, field: str, lo, hi, **kw) -> np.ndarray:
        """PointRangeQuery over a stored numeric field."""
        return self.searcher().search_numeric_range(field, lo, hi, **kw)

    def collapse(self, query: str, field: str,
                 k: int = 10) -> list[tuple[str, int, float]]:
        """Field collapsing: best hit per field value, groups ranked."""
        return self.searcher().collapse_topk(query, field, k=k)

    def explain(self, query: str, doc_id: int) -> pa.Table:
        """Per-clause score breakdown for one (query, doc) pair."""
        return self.searcher().explain(query, doc_id)

    def search_phrases(self, docs: rd.Dataset,
                       phrases: list[tuple[int, str, int]],
                       **kw) -> rd.Dataset:
        """Phrase / in-order proximity search (PhraseQuery / SpanNearQuery
        analogs): index-only screen on the driver, one streamed verify pass
        over the stored-text Dataset. ``phrases`` = (query_id, phrase, slop);
        result = (query_id, doc_id) rows."""
        from org_rdkit_lucene_ray.pipelines.query import search_phrases

        return search_phrases(self.searcher(), docs, phrases, **kw)

    def phrase_hits(self, phrase: str, slop: int = 0,
                    max_hits: int | None = None) -> np.ndarray:
        """Phrase / in-order proximity hit set entirely off the index
        (needs ``store_positions=True``): positional-sidecar verify, no
        stored text touched."""
        s = self.searcher()
        return s.phrase_hits(s._query_terms(phrase), slop, max_hits)

    def search_phrase_topk(self, phrase: str, k: int = 10) -> list[tuple[int, float]]:
        """Scored exact-phrase top-k (Lucene PhraseQuery under BM25:
        tf = exact phrase frequency, idf = summed term idfs). Needs
        ``store_positions=True``."""
        return self.searcher().topk_phrase(phrase, k)

    def search_with_snippets(self, docs: rd.Dataset, query: str,
                             k: int = 10, *, window: int = 5,
                             text_col: str = "text",
                             id_col: str = "doc_id") -> rd.Dataset:
        """BM25 top-k plus a highlighted fragment per hit (Lucene
        Highlighter analog): the hit list broadcasts, the stored-text
        Dataset streams through one shuffle-free pass. Result rows =
        ``(query_id=0, rank, doc_id, snippet)``."""
        from org_rdkit_lucene_ray.stages.highlight import highlight_hits

        s = self.searcher()
        hits = s.topk(query, k)
        tbl = pa.table({
            "query_id": pa.array([0] * len(hits), pa.int64()),
            "rank": pa.array(range(len(hits)), pa.int64()),
            "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
        })
        terms = {0: sorted(set(s._query_terms(query)))}
        return highlight_hits(docs, tbl, terms, window=window,
                              text_col=text_col, id_col=id_col)

    def run_queries(self, queries: pa.Table | rd.Dataset, **kw) -> rd.Dataset:
        """Batch workload through the search tasks (the ``-benchmark``
        surface)."""
        from org_rdkit_lucene_ray.pipelines.query import run_queries

        return run_queries(self.index_dir, queries, **kw)

    # --------------------------------------------------------------- stats
    def stats(self) -> dict:
        """``numDocs()``-family corpus statistics from the live manifest."""
        return dict(self.searcher().manifest["stats"])
