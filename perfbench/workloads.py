"""The four benchmark workloads: build, serve, update and curate.

Each workload generates its inputs from the seed, prepares the engine
state it needs (counted in ``setup_s``), measures for ``seconds`` from one
client in a closed loop, then checks every answer outside the timed
window. Why each workload exists and how it is sized is in README.md.

Every workload reports the same two end-to-end metrics, each with the
meaning that workload gives it:

- ``latency_p50_ms``: median wall time of the workload's unit operation;
- ``setup_s``: process start to the first timed call, minus input
  generation (set by run.py).

Throughputs and the other named numbers are printed in the run's table.
"""

from __future__ import annotations

import gc
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import checks
from harness import Ops, Report, Spans, median
from org_rdkit_lucene_ray import synth
from org_rdkit_lucene_ray.config import AnalyzerConfig, IndexConfig
from org_rdkit_lucene_ray.functions.analyze import analyze_text

# Sizes fit one run of every workload, with its fixed Ray start-up and
# answer checks, in about 30 s on one CPU; see README.md.
BUILD_ROWS, BUILD_FRAGMENTS = 16_000, 16
SERVE_ROWS, SERVE_FRAGMENTS = 16_000, 16
UPDATE_BASE_ROWS, UPDATE_BASE_FRAGMENTS = 12_000, 8
UPDATE_DELTAS, UPDATE_DELTA_ROWS = 4, 1_500
CURATE_ROWS, CURATE_BLOCKS = 8_000, 16
WARMUP_ROWS = 400
# 4 segments per 16k-doc index, so queries cross segment boundaries
INDEX_CFG = IndexConfig(docs_per_segment=4096, term_buckets=8, block_size=128)

ZIPF_S = 1.07              # query-term skew, the same exponent as the corpus
STREAM_QUERIES = 6_000     # serve: more than one warm window consumes
COLD_QUERIES = 200         # serve: first queries on a freshly opened Searcher
BATCH_QUERIES = 600        # serve: stream prefix sent through run_queries
EXHAUSTIVE_SAMPLE = 100    # serve: stream queries checked BMW == exhaustive
LAYER_SLICE = 300          # serve: stream slice timed per scoring path
DECODE_CACHE_TERMS = 64    # Searcher's default decode-cache capacity
UPDATE_PHASES = UPDATE_DELTAS + 1   # a query stream after each delta and after the merge


def perf() -> float:
    return time.perf_counter()


def zipf_stream(seed: int, n: int) -> list[tuple[str, int]]:
    """``n`` queries of 1-5 terms drawn Zipf(1.07) over the corpus
    vocabulary; k=10, and k=100 for about one query in fifty."""
    rng = np.random.default_rng(seed)
    words = synth.vocab()
    p = np.arange(1, len(words) + 1, dtype=np.float64) ** -ZIPF_S
    p /= p.sum()
    lens = rng.integers(1, 6, size=n)
    toks = rng.choice(len(words), size=int(lens.sum()), p=p)
    ks = np.where(rng.random(n) < 0.02, 100, 10)
    ends = np.cumsum(lens)
    return [(" ".join(words[t] for t in toks[e - L:e]), int(k))
            for e, L, k in zip(ends, lens, ks)]


class Run:
    """What one workload run shares with run.py."""

    def __init__(self, tmp: str, seed: int, seconds: float, trace: bool):
        self.tmp = tmp
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.ops = Ops()
        self.spans = Spans(trace)
        self.e2e: dict[str, float] = {}   # the end-to-end metrics BENCHMARK.json declares
        self.report = Report()      # every end-to-end number, named per workload
        self.layers = Report()      # per-layer numbers (traced run)

    def path(self, *parts: str) -> str:
        return os.path.join(self.tmp, *parts)

    def call(self, what: str, i: int | None, fn, *args, **kw):
        """One timed engine call, counted as an operation and wrapped in a
        span named ``what``. Returns ``(seconds, result)``. ``i`` numbers the
        workload's unit operations: in the traced run spans are on for even
        ``i`` and off for odd ``i``, so one run measures its own overhead.
        Calls without ``i`` are always traced in the traced run."""
        self.spans.enabled = self.trace and (i is None or i % 2 == 0)
        with self.ops.op(what), self.spans.span(what, trace=i):
            t = perf()
            out = fn(*args, **kw)
            return perf() - t, out

    @staticmethod
    def overhead_ratio(unit_secs: list[float]) -> float:
        """Median traced (even) over median untraced (odd) unit time."""
        return median(unit_secs[0::2]) / median(unit_secs[1::2])


class Workload:
    name = ""

    def __init__(self, run: Run):
        self.run = run

    def inputs(self) -> None:
        """Generate seeded inputs; excluded from ``setup_s``."""

    def prepare(self) -> None:
        """Engine work needed before the first timed call."""

    def measure(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def layer_metrics(self) -> None:
        """Per-layer numbers for the traced run."""

    def probe_functions(self, html: pa.ChunkedArray, texts: pa.ChunkedArray) -> None:
        """Time the engine's function layers from outside over this
        workload's own corpus (the same per-layer names on every workload)."""
        from org_rdkit_lucene_ray.functions.analyze import tokenize_column
        from org_rdkit_lucene_ray.functions.codec import (
            varint_decode,
            varint_encode,
            varint_lengths,
        )
        from org_rdkit_lucene_ray.functions.html import extract_text

        sp, lay = self.run.spans, self.run.layers
        html_mb = sum(len(b) for b in html.to_pylist()) / 1e6
        rates = []
        for _ in range(3):
            with sp.span("functions.html.extract_text"):
                t = perf()
                extract_text(html)
                rates.append(html_mb / (perf() - t))
        lay.add("functions.html.extract_mb_per_s", "MB/s", rates)

        cfg = AnalyzerConfig()
        rates = []
        for _ in range(3):
            with sp.span("functions.analyze.tokenize_column"):
                t = perf()
                toks = tokenize_column(texts, cfg)
                rates.append(len(pc.list_flatten(toks)) / (perf() - t))
        lay.add("functions.analyze.tokens_per_s", "tokens/s", rates)

        # postings of the corpus as the build lays them out: per term, the
        # doc-id gaps of its sorted distinct docs, terms split over buckets
        counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        doc = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        term = pc.dictionary_encode(pc.list_flatten(toks)).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        key = np.unique(term * len(counts) + doc)
        term, doc = key // len(counts), key % len(counts)
        starts = np.flatnonzero(np.r_[True, term[1:] != term[:-1]])
        gaps = np.diff(doc, prepend=0).astype(np.uint64)
        gaps[starts] = doc[starts].astype(np.uint64)
        bounds = np.r_[starts, term.size]
        bucket_of = term[starts] % INDEX_CFG.term_buckets
        streams = []
        enc_s = 0.0
        for b in range(INDEX_CFG.term_buckets):
            runs = np.flatnonzero(bucket_of == b)
            sel = np.concatenate([np.arange(bounds[r], bounds[r + 1]) for r in runs])
            vals = gaps[sel]
            with sp.span("functions.codec.varint_encode"):
                t = perf()
                buf = varint_encode(vals)
                enc_s += perf() - t
            lens = np.diff(bounds)[runs]
            off = np.r_[0, np.cumsum(varint_lengths(vals))][np.r_[0, np.cumsum(lens)]]
            streams.append((np.frombuffer(buf, np.uint8), off, lens))
        total_bytes = sum(s[0].size for s in streams)
        lay.add("functions.codec.encode_mb_per_s", "MB/s", total_bytes / 1e6 / enc_s)
        t = perf()
        with sp.span("functions.codec.varint_decode"):
            for buf, off, lens in streams:      # one call per term, as a query decodes
                for j, n in enumerate(lens):
                    varint_decode(buf[off[j]:off[j + 1]], int(n))
        lay.add("functions.codec.decode_mpostings_per_s", "Mpostings/s",
                term.size / 1e6 / (perf() - t))


def _page_columns(paths: list[str]) -> tuple[pa.ChunkedArray, pa.ChunkedArray]:
    t = pa.concat_tables(pq.read_table(p, columns=["html", "text"]) for p in paths)
    return t["html"], t["text"]


def _build_layer_rows(lay: Report, manifests: list[dict]) -> None:
    """Build-phase times, per-task skew and exact counts from manifests."""
    prefix = "pipelines.build"
    phases = {"dedup_s": "dedup", "tokenize_s": "tokenize",
              "encode_s": "encode_shuffle", "df_s": "df_table"}
    for metric, key in phases.items():
        lay.add(f"{prefix}.{metric}", "s", [m["timings_sec"][key] for m in manifests])
    frag = [[r["seconds"] for r in m["fragments"]] for m in manifests]
    lay.add(f"{prefix}.fragment_s_p50", "s", [median(f) for f in frag])
    lay.add(f"{prefix}.fragment_s_max", "s", [max(f) for f in frag])
    chunk = [[r["bytes_compressed"] for r in m["chunks"]] for m in manifests]
    lay.add(f"{prefix}.chunk_bytes_p50", "B", [median(c) for c in chunk])
    lay.add(f"{prefix}.chunk_bytes_max", "B", [max(c) for c in chunk])
    st = manifests[-1]["stats"]
    for name, key in (("postings", "n_postings"), ("terms", "n_terms"),
                      ("segments", "n_segments"), ("dedup_dropped", "dedup_dropped")):
        lay.add(f"{prefix}.{name}", "count", st[key])
    lay.add(f"{prefix}.chunks", "count", len(manifests[-1]["chunks"]))


# ------------------------------------------------------------------- build
class Build(Workload):
    """``build_index`` from scratch, repeatedly, over one seeded corpus."""

    name = "build"

    def inputs(self) -> None:
        r = self.run
        self.pages = r.path("pages")
        synth.write_pages_dir(self.pages, BUILD_ROWS, n_fragments=BUILD_FRAGMENTS, seed=r.seed)
        self.warm_pages = r.path("warm-pages")
        synth.write_pages_dir(self.warm_pages, WARMUP_ROWS, n_fragments=2, seed=r.seed + 1)

    def prepare(self) -> None:
        from org_rdkit_lucene_ray.pipelines.build import build_index

        # starts the Ray worker and loads the build path into it
        self.run.call("pipelines.build.build_index", None, build_index,
                      self.warm_pages, self.run.path("warm-idx"), cfg=INDEX_CFG)

    def measure(self) -> None:
        from org_rdkit_lucene_ray.pipelines.build import build_index

        r = self.run
        self.manifests, secs = [], []
        end = perf() + r.seconds
        while len(secs) < 2 or perf() < end:
            idx = r.path(f"idx-{len(secs)}")
            dt, m = r.call("pipelines.build.build_index", len(secs),
                           build_index, self.pages, idx, cfg=INDEX_CFG)
            secs.append(dt)
            self.manifests.append(m)
            shutil.rmtree(idx)
        self.unit_secs = secs
        n_docs = self.manifests[0]["stats"]["n_docs"]
        st = self.manifests[0]["stats"]
        r.e2e["latency_p50_ms"] = median(secs) * 1e3
        r.report.add("build_docs_per_s", "docs/s", [n_docs / s for s in secs])
        r.report.add("index_bytes_per_doc", "B/doc", st["bytes_compressed"] / st["n_docs"])

    def verify(self) -> None:
        r = self.run
        want = checks.postings_recount(checks.survivors(checks.parquet_paths(self.pages))[0])
        r.ops.expect(4 * len(self.manifests))
        for i, m in enumerate(self.manifests):
            st = m["stats"]
            for key in ("n_docs", "n_postings", "n_terms"):
                r.ops.check(st[key] == want[key],
                            f"build {i}: {key} {st[key]} != recount {want[key]}")
            r.ops.check(st["extract_mismatches"] == 0,
                        f"build {i}: {st['extract_mismatches']} extract mismatches")

    def layer_metrics(self) -> None:
        self.probe_functions(*_page_columns(checks.parquet_paths(self.pages)))
        _build_layer_rows(self.run.layers, self.manifests)


# ------------------------------------------------------------------- serve
class Serve(Workload):
    """One index, one client: a Zipf query stream cold, warm, then batched."""

    name = "serve"

    def inputs(self) -> None:
        r = self.run
        self.pages = r.path("pages")
        synth.write_pages_dir(self.pages, SERVE_ROWS, n_fragments=SERVE_FRAGMENTS, seed=r.seed)
        self.stream = zipf_stream(r.seed + 1, STREAM_QUERIES)
        self.idx = r.path("idx")

    def prepare(self) -> None:
        from org_rdkit_lucene_ray.pipelines.build import build_index
        from org_rdkit_lucene_ray.pipelines.query import Searcher

        r = self.run
        _, self.manifest = r.call("pipelines.build.build_index", None, build_index,
                                  self.pages, self.idx, cfg=INDEX_CFG)
        self.open_s, self.searcher = r.call("pipelines.query.open", None, Searcher, self.idx)

    def _query(self, s, i: int) -> tuple[float, list]:
        return self.run.call("pipelines.query.topk", i, s.topk,
                             *self.stream[i % len(self.stream)])

    def _batch(self, n: int) -> tuple[float, list[dict]]:
        """The stream's first ``n`` queries through ``run_queries`` (the
        SearcherStage actor pool)."""
        from org_rdkit_lucene_ray.pipelines.query import run_queries

        tbl = pa.table({"query_id": pa.array(range(n), pa.int32()),
                        "query": [q for q, _ in self.stream[:n]],
                        "k": pa.array([k for _, k in self.stream[:n]], pa.int32())})
        return self.run.call("pipelines.query.run_queries", None,
                             lambda: run_queries(self.idx, tbl, resolve_urls=False).take_all())

    def measure(self) -> None:
        r = self.run
        self.results: dict[int, list] = {}
        cold = []
        for i in range(COLD_QUERIES):
            dt, self.results[i] = self._query(self.searcher, i)
            cold.append(dt)
        warm, done = [], []
        i = COLD_QUERIES
        t0 = perf()
        end = t0 + r.seconds
        while perf() < end:
            dt, hits = self._query(self.searcher, i)
            warm.append(dt)
            done.append(perf() - t0)
            if i < len(self.stream):
                self.results[i] = hits
            i += 1
        # queries completed in each whole second of the window
        per_s = np.bincount(np.asarray(done, dtype=np.int64))[:int(r.seconds)]
        self.warm_terms = {t for q, _ in self.stream[COLD_QUERIES:i]
                           for t in analyze_text(q, AnalyzerConfig())}

        # the session's first actor pool, so its start is part of the time
        batch_s, self.batch_rows = self._batch(BATCH_QUERIES)

        self.unit_secs = warm
        ms = [x * 1e3 for x in warm]
        r.e2e["latency_p50_ms"] = median(ms)
        r.report.add("query_ms", "ms", ms)
        r.report.add("query_qps", "queries/s", per_s.tolist())
        r.report.add("cold_query_ms", "ms", [x * 1e3 for x in cold])
        r.report.add("batch_qps", "queries/s", BATCH_QUERIES / batch_s)
        st = self.manifest["stats"]
        r.report.add("index_bytes_per_doc", "B/doc", st["bytes_compressed"] / st["n_docs"])

    def verify(self) -> None:
        r = self.run
        corpus = checks.survivors(checks.parquet_paths(self.pages))[0]
        oracle = checks.oracle_of(corpus)
        queries = synth.gen_queries(seed=r.seed).to_pylist()
        # a sample of the stream the timed loop answered
        sample = sorted(self.results)[::max(1, len(self.results) // EXHAUSTIVE_SAMPLE)]
        r.ops.expect(len(queries) + len(sample) + BATCH_QUERIES)
        s = self.searcher
        for row in queries:
            q, k = row["query"], int(row["k"])
            r.ops.check(checks.same_topk(s.topk(q, k), oracle.topk(q, k)),
                        f"oracle mismatch on {q!r} k={k}")
        for i in sample:
            q, k = self.stream[i]
            r.ops.check(checks.same_topk(self.results[i], s.topk_exhaustive(q, k)),
                        f"BMW != exhaustive on stream query {i} {q!r}")
        got: dict[int, list] = {}
        for row in sorted(self.batch_rows, key=lambda x: (x["query_id"], x["rank"])):
            got.setdefault(row["query_id"], []).append((row["doc_id"], row["score"]))
        for i in range(BATCH_QUERIES):
            want = self.results.get(i)
            if want is None:
                want = s.topk(*self.stream[i])
            r.ops.check(checks.same_topk(got.get(i, []), want),
                        f"run_queries answer to stream query {i} differs")

    def layer_metrics(self) -> None:
        from org_rdkit_lucene_ray.functions.codec import varint_decode
        from org_rdkit_lucene_ray.pipelines.build import stable_term_hash
        from org_rdkit_lucene_ray.pipelines.query import Searcher
        from org_rdkit_lucene_ray.state.segment import (
            chunk_bucket_of,
            gen_dir,
            list_chunk_files,
            list_segment_ids,
            read_chunk_table,
        )

        r, lay, sp = self.run, self.run.layers, self.run.spans
        self.probe_functions(*_page_columns(checks.parquet_paths(self.pages)))
        lay.add("pipelines.query.open_ms", "ms", self.open_s * 1e3)
        # A second actor pool in one session waits for the first pool's actor,
        # which a reference cycle keeps alive until the garbage collector
        # runs (up to ~20 s at num_cpus=1); collect first, so this times the
        # start of a pool and not the collector's schedule.
        gc.collect()
        lay.add("pipelines.query.actor_start_s", "s", self._batch(8)[0])

        gdir = gen_dir(self.idx)
        files: dict[int, list[str]] = {}
        for sid in list_segment_ids(gdir):
            for f in list_chunk_files(gdir, sid):
                files.setdefault(chunk_bucket_of(f), []).append(f)
        loads, tables = [], {}
        for b, fs in sorted(files.items()):
            with sp.span("state.segment.read_chunk_table"):
                t = perf()
                tables[b] = [read_chunk_table(f, memory_map=True) for f in fs]
                loads.append((perf() - t) * 1e3)
        lay.add("state.segment.bucket_load_ms", "ms", loads)

        # the same stream slice through each scoring path, buckets preloaded
        sl = self.stream[COLD_QUERIES:COLD_QUERIES + LAYER_SLICE]
        for mode in ("bmw", "exhaustive"):
            s = Searcher(self.idx, residency="eager")
            lat = []
            for i, (q, k) in enumerate(sl):
                with sp.span(f"pipelines.query.topk_{mode}", trace=i):
                    t = perf()
                    s.topk(q, k, mode=mode)
                    lat.append((perf() - t) * 1e3)
            lay.add(f"pipelines.query.{mode}_p50_ms", "ms", lat)

        cfg = AnalyzerConfig()
        postings = matches = results = 0
        for q, k in sl:
            postings += sum(s.df(t) for t in analyze_text(q, cfg))
            matches += len(s.score_all(q)[0])
            results += len(s.topk(q, k))
        lay.add("pipelines.query.postings_per_query", "count", postings / len(sl))
        lay.add("pipelines.query.matches_per_query", "count", matches / len(sl))
        lay.add("pipelines.query.postings_per_result", "count", postings / max(results, 1))
        lay.add("pipelines.query.distinct_terms", "count", len(self.warm_terms))
        lay.add("pipelines.query.terms_per_decode_cache_slot", "ratio",
                len(self.warm_terms) / DECODE_CACHE_TERMS)

        # posting decode over the slice's terms, straight from the chunk rows
        terms = sorted({t for q, _ in sl for t in analyze_text(q, cfg)})
        buckets = [int(h) % INDEX_CFG.term_buckets for h in stable_term_hash(terms)]
        rows = []
        for term, b in zip(terms, buckets):
            for tbl in tables.get(b, []):
                hit = pc.index(tbl["term"], term).as_py()
                if hit >= 0:
                    rows.append(tbl.slice(hit, 1).to_pylist()[0])
        n = 0
        t = perf()
        with sp.span("functions.codec.varint_decode"):
            for row in rows:
                for col in ("doc_bytes", "tf_bytes", "dl_bytes"):
                    varint_decode(row[col], row["df_chunk"])
                n += row["df_chunk"]
        lay.add("pipelines.query.stream_decode_mpostings_per_s", "Mpostings/s",
                n / 1e6 / (perf() - t))


# ------------------------------------------------------------------ update
class Update(Workload):
    """Deltas with upserts, a delete and a merge, each followed by queries
    on a freshly opened Searcher."""

    name = "update"

    def inputs(self) -> None:
        r = self.run
        rng = np.random.default_rng(r.seed + 2)
        self.base = r.path("base")
        synth.write_pages_dir(self.base, UPDATE_BASE_ROWS,
                              n_fragments=UPDATE_BASE_FRAGMENTS, seed=r.seed)
        base_urls = pa.concat_tables(pq.read_table(p, columns=["url"])
                                     for p in checks.parquet_paths(self.base))["url"]
        self.deltas = []
        for j in range(UPDATE_DELTAS):
            t = synth.gen_pages(UPDATE_DELTA_ROWS, seed=r.seed + 10 + j,
                                index_offset=UPDATE_BASE_ROWS + j * UPDATE_DELTA_ROWS)
            # half the rows re-publish base urls: upserts that tombstone
            urls = t["url"].to_pylist()
            rows = rng.choice(len(urls), size=len(urls) // 2, replace=False)
            for row, u in zip(rows, rng.choice(len(base_urls), size=rows.size, replace=False)):
                urls[row] = base_urls[int(u)].as_py()
            t = t.set_column(0, "url", pa.array(urls, pa.string()))
            d = r.path(f"delta-{j}")
            os.makedirs(d)
            half = len(urls) // 2
            pq.write_table(t.slice(0, half), os.path.join(d, "pages-00000.parquet"))
            pq.write_table(t.slice(half), os.path.join(d, "pages-00001.parquet"))
            self.deltas.append(d)
        self.stream = zipf_stream(r.seed + 3, STREAM_QUERIES)
        # an OR delete over one mid-frequency term (~1% of docs)
        self.delete_query = synth.vocab()[300 + r.seed % 100]
        self.idx = r.path("idx")

    def prepare(self) -> None:
        from org_rdkit_lucene_ray.pipelines.build import build_index

        _, self.base_manifest = self.run.call("pipelines.build.build_index", None, build_index,
                                              self.base, self.idx, cfg=INDEX_CFG)

    def _stream(self, gen: int, seconds: float) -> None:
        from org_rdkit_lucene_ray.pipelines.query import Searcher

        r = self.run
        _, s = r.call("pipelines.query.open", None, Searcher, self.idx)
        lat = []
        t0 = perf()
        while not lat or perf() - t0 < seconds:
            dt, _ = r.call("pipelines.query.topk", self.pos, s.topk,
                           *self.stream[self.pos % len(self.stream)])
            lat.append(dt * 1e3)
            self.done.append(self.read_s + perf() - t0)
            self.pos += 1
        self.read_s += perf() - t0
        self.gen_lat[gen] = lat

    def measure(self) -> None:
        from org_rdkit_lucene_ray.pipelines.merge import (
            add_documents,
            delete_by_query,
            merge_generations,
            read_deletes,
        )

        r = self.run
        phase_s = r.seconds / UPDATE_PHASES
        self.pos, self.gen_lat = 0, {}
        self.read_s, self.done = 0.0, []     # query time so far; completion times on it
        self.adds, add_s = [], []
        for j, d in enumerate(self.deltas):
            dt, add = r.call("pipelines.merge.add_documents", None, add_documents, self.idx, d)
            add_s.append(dt)
            self.adds.append(add)
            self._stream(j + 1, phase_s)
        self.tombstones = int(read_deletes(self.idx).size)
        self.bytes_before = (self.base_manifest["stats"]["bytes_compressed"]
                             + sum(a["delta_stats"]["bytes_compressed"] for a in self.adds))
        self.delete_s, self.deleted = r.call("pipelines.merge.delete_by_query", None,
                                             delete_by_query, self.idx, self.delete_query)
        merge_s, self.merged = r.call("pipelines.merge.merge_generations", None,
                                      merge_generations, self.idx)
        self._stream(UPDATE_PHASES, phase_s)

        lat = [x for g in sorted(self.gen_lat) for x in self.gen_lat[g]]
        self.unit_secs = lat
        per_s = np.bincount(np.asarray(self.done, dtype=np.int64))[:int(self.read_s)]
        self.add_s = add_s
        r.e2e["latency_p50_ms"] = median(lat)
        r.report.add("query_ms", "ms", lat)
        r.report.add("query_qps", "queries/s", per_s.tolist())
        r.report.add("add_docs_per_s", "docs/s",
                     [a["delta_stats"]["n_docs"] / t for a, t in zip(self.adds, add_s)])
        r.report.add("merge_s", "s", merge_s)
        st = self.merged["stats"]
        r.report.add("index_bytes_per_doc", "B/doc", st["bytes_compressed"] / st["n_docs"])

    def verify(self) -> None:
        r = self.run
        dps = INDEX_CFG.docs_per_segment
        live, n_rows = checks.survivors(checks.parquet_paths(self.base))
        n_all = len(live)
        ceiling = checks.segment_ceiling(n_rows, 0, dps)
        queries = synth.gen_queries(seed=r.seed).to_pylist()
        r.ops.expect(len(self.deltas) + 3 + len(queries))
        for j, d in enumerate(self.deltas):
            r.ops.check(self.adds[j]["doc_id_base"] == ceiling,
                        f"delta {j}: doc_id_base {self.adds[j]['doc_id_base']} != {ceiling}")
            delta, n_rows = checks.survivors(checks.parquet_paths(d), ceiling)
            n_all += len(delta)
            urls = {u for u, _ in delta.values()}
            live = {k: v for k, v in live.items() if v[0] not in urls}
            live.update(delta)
            ceiling = checks.segment_ceiling(n_rows, ceiling, dps)
        r.ops.check(self.tombstones == n_all - len(live),
                    f"tombstones {self.tombstones} != {n_all - len(live)}")
        gone = checks.matching_docs(live, self.delete_query)
        r.ops.check(self.deleted["n_new_deletes"] == len(gone),
                    f"delete_by_query removed {self.deleted['n_new_deletes']} != {len(gone)}")
        final = {k: v for k, v in live.items() if k not in gone}
        r.ops.check(self.merged["stats"]["n_docs"] == len(final),
                    f"merged n_docs {self.merged['stats']['n_docs']} != {len(final)}")
        from org_rdkit_lucene_ray.pipelines.query import Searcher

        oracle = checks.oracle_of(final)
        s = Searcher(self.idx)
        for row in queries:
            q, k = row["query"], int(row["k"])
            r.ops.check(checks.same_topk(s.topk(q, k), oracle.topk(q, k)),
                        f"after merge: oracle mismatch on {q!r} k={k}")

    def layer_metrics(self) -> None:
        r, lay = self.run, self.run.layers
        paths = checks.parquet_paths(self.base) + [p for d in self.deltas
                                                   for p in checks.parquet_paths(d)]
        self.probe_functions(*_page_columns(paths))
        lay.add("pipelines.merge.add_s_p50", "s", median(self.add_s))
        lay.add("pipelines.merge.add_s_max", "s", max(self.add_s))
        lay.add("pipelines.merge.delete_s", "s", self.delete_s)
        lay.add("pipelines.merge.tombstones", "count", self.tombstones)
        lay.add("pipelines.merge.bytes_before", "B", self.bytes_before)
        lay.add("pipelines.merge.bytes_after", "B", self.merged["stats"]["bytes_compressed"])
        for g, lat in sorted(self.gen_lat.items()):
            lay.add(f"pipelines.merge.query_p50_ms_gen{g}", "ms", lat)


# ------------------------------------------------------------------ curate
class Curate(Workload):
    """One pass = exact dedup, MinHash near-dup pairs and adjacent-pair
    counts over a seeded ``(doc_id, text)`` Dataset; passes repeat."""

    name = "curate"

    def inputs(self) -> None:
        r = self.run
        rng = np.random.default_rng(r.seed + 4)
        pages = synth.gen_pages(CURATE_ROWS, seed=r.seed)
        texts = pages["text"].to_pylist()
        # 2% exact copies, so exact dedup has groups to fold
        n = len(texts) // 50
        for dst, src in zip(rng.choice(len(texts), n, replace=False),
                            rng.choice(len(texts), n, replace=False)):
            texts[dst] = texts[src]
        self.ids = list(range(len(texts)))
        self.texts = texts
        self.html = pages["html"]
        self.table = pa.table({"doc_id": pa.array(self.ids, pa.int64()),
                               "text": pa.array(texts, pa.string())})

    def _dataset(self, t: pa.Table):
        import ray.data as rd

        step = -(-t.num_rows // CURATE_BLOCKS)
        return rd.from_arrow([t.slice(i, step) for i in range(0, t.num_rows, step)]).materialize()

    def _pass(self, ds, i: int | None) -> dict:
        from org_rdkit_lucene_ray.stages.dedup import exact_dedup_groups, minhash_dup_pairs
        from org_rdkit_lucene_ray.stages.lm import top_adjacent_pairs

        out, secs = {}, {}
        for name, fn in (("stages.dedup.exact_dedup", lambda: exact_dedup_groups(ds).take_all()),
                         ("stages.dedup.minhash_pairs", lambda: minhash_dup_pairs(ds, threshold=0.8)),
                         ("stages.lm.pair_counts", lambda: top_adjacent_pairs(ds, k=30))):
            secs[name], out[name] = self.run.call(name, i, fn)
        out["secs"] = secs
        return out

    def prepare(self) -> None:
        self.ds = self._dataset(self.table)
        # one small pass starts the worker and loads the stage code into it
        self._pass(self._dataset(self.table.slice(0, WARMUP_ROWS)), None)

    def measure(self) -> None:
        r = self.run
        self.passes = []
        end = perf() + r.seconds
        while len(self.passes) < 2 or perf() < end:
            self.passes.append(self._pass(self.ds, len(self.passes)))
        secs = [sum(p["secs"].values()) for p in self.passes]
        self.unit_secs = secs
        r.e2e["latency_p50_ms"] = median(secs) * 1e3
        r.report.add("curate_pass_s", "s", secs)

    def verify(self) -> None:
        r = self.run
        groups = checks.exact_groups(self.ids, self.texts)
        pairs = checks.top_pairs(self.texts, 30)
        r.ops.expect(3 * len(self.passes))
        jac: dict[tuple[int, int], float] = {}
        for i, p in enumerate(self.passes):
            got = {(g["doc_id"], g["n_copies"]) for g in p["stages.dedup.exact_dedup"]}
            r.ops.check(got == groups, f"pass {i}: exact dedup groups differ from recount")
            counts = p["stages.lm.pair_counts"]
            got_pairs = list(zip(counts["pair"].to_pylist(), counts["n"].to_pylist()))
            r.ops.check(got_pairs == pairs, f"pass {i}: adjacent-pair counts differ from recount")
            ok = True
            mh = p["stages.dedup.minhash_pairs"]
            for a, b, j in zip(*(mh[c].to_pylist() for c in ("a", "b", "jaccard"))):
                if (a, b) not in jac:
                    jac[(a, b)] = checks.shingle_jaccard(self.texts[a], self.texts[b])
                ok &= a < b and j >= 0.8 and round(jac[(a, b)], 6) == j   # reported to 6 places
            r.ops.check(ok, f"pass {i}: a MinHash pair fails exact Jaccard verification")

    def layer_metrics(self) -> None:
        lay = self.run.layers
        self.probe_functions(self.html, self.table["text"])
        last = self.passes[-1]
        for name in ("stages.dedup.exact_dedup", "stages.dedup.minhash_pairs",
                     "stages.lm.pair_counts"):
            lay.add(f"{name}_s", "s", [p["secs"][name] for p in self.passes])
            lay.add(f"{name}_rows", "count", len(last[name]))


WORKLOADS = {w.name: w for w in (Build, Serve, Update, Curate)}
