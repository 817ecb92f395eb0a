"""org_rdkit_lucene_ray — a Ray-Data-native inverted-index + BM25 engine.

A from-scratch rebuild of the *capabilities* of rdkit/org.rdkit.lucene
(a Lucene 3.6 chemical-structure index) re-expressed over Common-Crawl-style
web pages (`url, warc_ts, html, text, lang` Parquet tables), per the
structural analogy in SURVEY.md:

    SDF molecule stream      -> Parquet pages Dataset
    canonical SMILES         -> extracted text (byte-identical per url)
    fingerprint-bit terms    -> tokenized terms with tf -> postings
    Lucene IndexWriter       -> groupby-term shuffle -> delta/varint segments
    TopScoreDocCollector     -> block-max WAND BM25 top-k, bounded min-heap

Execution model is Ray Data first: `ray.data.Dataset` pipelines,
`map_batches` task functions over zero-copy Arrow batches (no actor
pools), explicit shuffle/skew handling for the wide steps.

No module in this package calls ``ray.init()`` — the driver owns the session.
"""

from org_rdkit_lucene_ray.api import Engine
from org_rdkit_lucene_ray.config import AnalyzerConfig, IndexConfig, BM25Params

__all__ = ["AnalyzerConfig", "IndexConfig", "BM25Params", "Engine"]
