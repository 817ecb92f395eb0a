"""Single-process oracle: in-memory inverted index + BM25 top-k.

The executable spec for the distributed engine (SURVEY §5): the Ray pipeline
must be **rank-identical in top-k docIDs and bitwise-equal in float32 BM25
scores** against this oracle on any corpus/query set.

Scoring spec (BM25Params docstring; SURVEY §7.1(2)):
  idf  = ln(1 + (N - df + 0.5)/(df + 0.5))
  w    = idf * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))
  score(d) = float32( sum_{terms in ascending term order, float64} w )
Query duplicates are preserved (each occurrence is a clause, like Lucene
BooleanQuery SHOULD clauses — ``ChemicalIndex.java:538-554``).

Ordering: score desc, then doc_id asc — the reference comparator
``SubstructureHitQueue.java:113-118`` ("lower score loses; tie -> larger
docID loses").
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from org_rdkit_lucene_ray.config import AnalyzerConfig, BM25Params
from org_rdkit_lucene_ray.functions.analyze import analyze_text


class OracleIndex:
    """Naive but exact inverted index over (doc_id, text) pairs."""

    def __init__(self, cfg: AnalyzerConfig | None = None, bm25: BM25Params | None = None):
        self.cfg = cfg or AnalyzerConfig()
        self.bm25 = bm25 or BM25Params()
        self.postings: dict[str, list[tuple[int, int]]] = {}  # term -> [(doc, tf)]
        self.dl: dict[int, int] = {}
        self._texts: dict[int, str] = {}

    # ------------------------------------------------------------------ build
    def add(self, doc_id: int, text: str) -> None:
        if doc_id in self.dl:
            raise ValueError(f"duplicate doc_id {doc_id}")
        toks = analyze_text(text, self.cfg)
        self.dl[doc_id] = len(toks)
        self._texts[doc_id] = text
        for term, tf in sorted(Counter(toks).items()):
            self.postings.setdefault(term, []).append((doc_id, tf))

    # ------------------------------------------------------------------ stats
    @property
    def n_docs(self) -> int:
        return len(self.dl)

    @property
    def avgdl(self) -> float:
        return (sum(self.dl.values()) / len(self.dl)) if self.dl else 0.0

    def df(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def idf(self, term: str) -> float:
        df = self.df(term)
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    # ------------------------------------------------------------------ query
    def score_all(self, query: str) -> dict[int, np.float32]:
        """Score every matching doc. float64 accumulate in ascending term
        order (duplicate clauses kept adjacent), float32 final round."""
        terms = sorted(analyze_text(query, self.cfg))
        avgdl = self.avgdl
        k1, b = self.bm25.k1, self.bm25.b
        acc: dict[int, float] = {}
        for term in terms:  # ascending order, duplicates adjacent
            plist = self.postings.get(term)
            if not plist:
                continue
            idf = self.idf(term)
            for doc, tf in plist:
                K = k1 * (1.0 - b + b * self.dl[doc] / avgdl)
                w = idf * (tf * (k1 + 1.0)) / (tf + K)
                acc[doc] = acc.get(doc, 0.0) + w
        return {d: np.float32(s) for d, s in acc.items()}

    def topk(self, query: str, k: int) -> list[tuple[int, np.float32]]:
        """Top-k as [(doc_id, score_f32)] ordered score desc, doc_id asc."""
        scored = self.score_all(query)
        items = sorted(scored.items(), key=lambda kv: (-float(kv[1]), kv[0]))
        return items[:k]

    # ---------------------------------------------------- reference-API peers
    def search_exact(self, text: str) -> list[int]:
        """J2 analog: docs whose canonical form equals the query's. Canonical
        form = the sorted token multiset (the analyzer is our canonical-SMILES
        normalizer, ``ChemicalIndex.java:574-589``)."""
        key = sorted(analyze_text(text, self.cfg))
        return sorted(
            d for d, t in self._texts.items()
            if sorted(analyze_text(t, self.cfg)) == key
        )

    def search_and(self, query: str) -> list[int]:
        """J3 analog: conjunctive containment (docs whose term set ⊇ query's)."""
        terms = set(analyze_text(query, self.cfg))
        if not terms:
            return []
        sets = [set(d for d, _ in self.postings.get(t, ())) for t in terms]
        if any(not s for s in sets):
            return []
        out = set.intersection(*sets)
        return sorted(out)

    def search_or(self, query: str) -> list[int]:
        """J4 analog: disjunctive union."""
        terms = set(analyze_text(query, self.cfg))
        out: set[int] = set()
        for t in terms:
            out.update(d for d, _ in self.postings.get(t, ()))
        return sorted(out)

    def search_fp_scored(self, query: str, k: int) -> list[tuple[int, np.float32]]:
        """FP-search analog: BM25-scored conjunctive top-k."""
        allowed = set(self.search_and(query))
        if not allowed or k <= 0:
            return []
        scored = self.score_all(query)
        items = [(d, s) for d, s in scored.items() if d in allowed]
        items.sort(key=lambda kv: (-float(kv[1]), kv[0]))
        return items[:k]

    def search_boolean(self, query: str) -> list[int]:
        """+MUST / -MUST_NOT / SHOULD doc-set semantics (Lucene BooleanQuery)."""
        musts, must_nots, shoulds = [], [], []
        for raw in query.split():
            if raw.startswith("+") and len(raw) > 1:
                musts.extend(analyze_text(raw[1:], self.cfg))
            elif raw.startswith("-") and len(raw) > 1:
                must_nots.extend(analyze_text(raw[1:], self.cfg))
            else:
                shoulds.extend(analyze_text(raw, self.cfg))
        if musts:
            out = set(self.search_and(" ".join(musts)))
        elif shoulds:
            out = set(self.search_or(" ".join(shoulds)))
        else:
            return []
        for t in set(must_nots):
            out -= {d for d, _ in self.postings.get(t, ())}
        return sorted(out)
