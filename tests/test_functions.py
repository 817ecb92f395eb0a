"""Unit tests: extractor, analyzer, codec (SURVEY §5 unit-test list)."""

import numpy as np
import pyarrow as pa
import pytest

from org_rdkit_lucene_ray.config import AnalyzerConfig
from org_rdkit_lucene_ray.functions import html as H
from org_rdkit_lucene_ray.functions.analyze import (
    REGISTRY,
    analyze_text,
    postings_from_batch,
    tokenize_column,
)
from org_rdkit_lucene_ray.functions.codec import (
    decode_posting_list,
    encode_posting_list,
    varint_decode,
    varint_encode,
)
from org_rdkit_lucene_ray.synth import gen_pages


# ------------------------------------------------------------------- extract
def test_extract_text_byte_identity_on_synth():
    t = gen_pages(300, seed=7)
    got = H.extract_text(t["html"]).to_pylist()
    assert got == t["text"].to_pylist()


def test_extract_text_units():
    html = pa.array([
        b"<p>Hello <b>World</b></p>",
        b"<!-- hidden -->visible",
        b"<script>var x = '<p>';</script>shown",
        b"<style>p{}</style>a &amp; b &lt;c&gt;",
        b"  spaced\n\n\tout  ",
    ])
    assert H.extract_text(html).to_pylist() == [
        "Hello World",
        "visible",
        "shown",
        "a & b <c>",
        "spaced out",
    ]


def test_is_empty_after_trimming_and_truncate():
    arr = pa.array(["  ", "x", None, "\t\n"])
    assert H.is_empty_after_trimming(arr).to_pylist() == [True, False, True, True]
    assert H.truncate_string(pa.array(["abcdef"]), 3).to_pylist() == ["abc"]


# Adversarial strings for the RE2 rewrites below: RE2's \s is
# [\t\n\f\r ], so \v, NBSP, U+2028 and U+3000 are NOT separators there.
_RE2_EDGE = [
    None, "", " ", "   ", "\t\n\r\f ", "\v", "\f", "\r\n", "a\r\nb",
    " a ", "a  b", "a\tb", "a\x0bb", "a\fb", "a\u00a0b", "\u00a0",
    "a\u2028b", "a\u3000b", "--a--", "A-B_C 42", "...!!!", "x \t y",
    "Ünïcödé straße 日本語 ÀB", "naïve\u00a0café", " \n leading", "trailing \t",
    "a" * 70 + " b", "mixed\r\n\t\f  \v\u00a0 end",
]


def test_collapse_whitespace_matches_regex_reference():
    """``\\s{2,}|[\\t\\n\\f\\r]`` -> " " is the same map as the old
    ``\\s+`` -> " " (then the same trim) on every edge string and on the
    synthetic pages' stripped html."""
    import pyarrow.compute as pc

    def reference(arr):
        return pc.utf8_trim_whitespace(
            pc.replace_substring_regex(arr, pattern=r"\s+", replacement=" "))

    t = gen_pages(200, seed=11)
    pages = H.decode_entities(H.remove_tags(H.remove_script_style(
        H.remove_html_comments(pc.cast(t["html"], pa.string())))))
    for arr in (pa.array(_RE2_EDGE, pa.string()), pages.combine_chunks()):
        assert H.collapse_whitespace(arr).equals(reference(arr))


# ------------------------------------------------------------------ analyzer
def test_analyzer_python_vs_arrow_identical():
    t = gen_pages(200, seed=3)
    for name in ("standard", "standard_en_stop", "whitespace",
                 "shingle_2", "shingle_3", "char_3gram", "char_4gram",
                 "en_stem"):
        cfg = REGISTRY[name]
        arrow = tokenize_column(t["text"].combine_chunks(), cfg).to_pylist()
        python = [analyze_text(s, cfg) for s in t["text"].to_pylist()]
        assert arrow == python, name


def test_gram_analyzer_semantics():
    from org_rdkit_lucene_ray.functions.analyze import analyze_text

    sh = REGISTRY["shingle_2"]
    assert analyze_text("Hash join merge", sh) == ["hash_join", "join_merge"]
    assert analyze_text("solo", sh) == []             # fewer tokens than k
    ng = REGISTRY["char_3gram"]
    assert analyze_text("hashes ab", ng) == ["has", "ash", "she", "hes"]
    assert analyze_text("ab", ng) == []               # shorter than n drops


def test_en_stem_analyzer_semantics():
    """EnglishMinimalStemFilter rules + 3-way Arrow/Python/SQL parity on
    the shared RE2 pattern."""
    import duckdb

    from org_rdkit_lucene_ray.functions.analyze import sql_gram_transform

    st = REGISTRY["en_stem"]
    assert analyze_text("tables Pages was bus class gas macros", st) == [
        "table", "page", "was",     # 'was' keeps: 'a' blocked? no — see below
        "bus",                      # ends 'us' -> keep
        "class",                    # ends 'ss' -> keep
        "gas",                      # len 3 < 4 -> keep
        "macro",
    ]
    # 'was': len 3 -> keep (the stopword list is not part of en_stem)
    con = duckdb.connect()
    samples = ["tables", "pages", "bus", "class", "gas", "was", "macros",
               "ss", "us", "s", "", "boss", "bosses", "42s"]
    expr = sql_gram_transform("toks", st)
    got = con.execute(
        f"SELECT {expr} FROM (SELECT ? AS toks)", [samples]).fetchone()[0]
    import pyarrow as pa
    arrow = tokenize_column(pa.array([" ".join(samples)]),
                            st).to_pylist()[0]
    # '' drops at tokenize; align the SQL list (which keeps it) for compare
    assert [x for x in got if x != ""] == arrow


def test_gram_analyzer_fingerprints_guard_compat():
    """The new analyzers participate in the index/query compat refusal
    (FingerprintType.isCompatible analog): distinct fingerprints per
    flavor, and a shingle index refuses standard-analyzer queries."""
    fps = {REGISTRY[n].fingerprint()
           for n in ("standard", "shingle_2", "shingle_3", "char_3gram",
                     "char_4gram")}
    assert len(fps) == 5
    from org_rdkit_lucene_ray.state.segment import check_query_compat

    manifest = {"config": {
        "query_analyzer_fp": REGISTRY["shingle_2"].fingerprint()}}
    import pytest

    with pytest.raises(ValueError):
        check_query_compat(manifest, REGISTRY["standard"].fingerprint())


def test_analyzer_edge_cases():
    cfg = REGISTRY["standard"]
    assert analyze_text("", cfg) == []
    assert analyze_text("...!!!", cfg) == []
    assert analyze_text("A-b_c 42", cfg) == ["a", "b", "c", "42"]
    stop = REGISTRY["standard_en_stop"]
    assert analyze_text("the quick fox", stop) == ["quick", "fox"]


def _regex_split_reference(arr, sep):
    """The old analyzer split: one RE2 regex split, empty tokens dropped."""
    import pyarrow.compute as pc

    return [None if r is None else [x for x in r if x != ""]
            for r in pc.split_pattern_regex(arr, pattern=sep).to_pylist()]


def test_analyzer_splits_match_regex_reference():
    """The literal-split analyzers give the tokens of the old regex splits
    (standard: ``[^a-z0-9]+`` after lowercasing; whitespace: ``\\s+``) on
    the edge strings and the synthetic pages; length filters off, so the
    split alone is compared."""
    import dataclasses

    import pyarrow.compute as pc

    from org_rdkit_lucene_ray.functions.analyze import split_whitespace

    texts = [pa.array(_RE2_EDGE, pa.string()),
             gen_pages(200, seed=12)["text"].combine_chunks()]
    std = dataclasses.replace(REGISTRY["standard"], max_token_len=0)
    ws = dataclasses.replace(REGISTRY["whitespace"], max_token_len=0)
    for arr in texts:
        want_std = _regex_split_reference(pc.utf8_lower(arr), "[^a-z0-9]+")
        want_ws = _regex_split_reference(arr, r"\s+")
        got_std = tokenize_column(arr, std).to_pylist()
        got_ws = tokenize_column(arr, ws).to_pylist()
        # a null text tokenizes to no tokens (list_flatten drops it)
        assert got_std == [r or [] for r in want_std]
        assert got_ws == [r or [] for r in want_ws]
        assert [None if r is None else [x for x in r if x]
                for r in split_whitespace(arr).to_pylist()] == want_ws


def test_token_stats_ws_count_matches_regex_reference():
    """``n_ws_tokens`` (now the analyzer's literal whitespace split) counts
    the non-empty pieces of the old ``\\s+`` regex split."""
    from org_rdkit_lucene_ray.stages.textstats import token_stats_batch

    edge = [x or "" for x in _RE2_EDGE]
    arr = pa.array(edge + gen_pages(100, seed=13)["text"].to_pylist())
    got = token_stats_batch(pa.table({"text": arr}))["n_ws_tokens"].to_pylist()
    assert got == [len(r) for r in _regex_split_reference(arr, r"\s+")]


def _group_by_postings(doc_ids, texts, cfg):
    """The old postings path: an Arrow group_by over (doc_id, term, dl)."""
    import pyarrow.compute as pc

    toks = tokenize_column(texts, cfg)
    parents = pc.list_parent_indices(toks)
    dl = pc.cast(pc.list_value_length(toks), pa.int32())
    g = pa.table({"doc_id": pc.take(pa.array(doc_ids, pa.int64()), parents),
                  "term": pc.list_flatten(toks),
                  "dl": pc.take(dl, parents)}
                 ).group_by(["doc_id", "term", "dl"]).aggregate([("term", "count")])
    return sorted(zip(g["term"].to_pylist(), g["doc_id"].to_pylist(),
                      g["term_count"].to_pylist(), g["dl"].to_pylist()))


@pytest.mark.parametrize("name", ["standard", "whitespace", "shingle_2"])
def test_postings_from_batch_term_doc_order(name):
    """Plain and positional postings come back in strict ``(term, doc_id)``
    order (Arrow's byte order on terms) with the ``(term, doc_id, tf, dl)``
    rows of a group_by reference; the positional rows carry each posting's
    positions in its doc's token list."""
    from org_rdkit_lucene_ray.functions.codec import decode_position_streams

    cfg = REGISTRY[name]
    texts = pa.array(gen_pages(120, seed=14)["text"].to_pylist() + _RE2_EDGE,
                     pa.string())
    ids = np.arange(len(texts), dtype=np.int64) * 3 + 1000   # not positional
    want = _group_by_postings(ids, texts, cfg)
    schema = {"term": pa.string(), "doc_id": pa.int64(), "tf": pa.int32(),
              "dl": pa.int32()}
    for positions in (False, True):
        post, _ = postings_from_batch(ids, texts, cfg, positions=positions)
        assert {f.name: f.type for f in post.schema} == dict(
            schema, **({"pos_bytes": pa.binary()} if positions else {}))
        rows = list(zip(*(post[c].to_pylist() for c in schema)))
        keys = [(t.encode(), d) for t, d, _, _ in rows]
        assert all(a < b for a, b in zip(keys, keys[1:]))     # strict order
        assert sorted(rows) == want
        if positions:
            flat = decode_position_streams(
                b"".join(post["pos_bytes"].to_pylist()), post["tf"].to_numpy())
            toks = dict(zip(ids.tolist(), tokenize_column(texts, cfg).to_pylist()))
            want_pos = [i for t, d, _, _ in rows
                        for i, tok in enumerate(toks[d]) if tok == t]
            assert flat.tolist() == want_pos


def test_postings_from_batch_empty_batch():
    for positions in (False, True):
        post, doclens = postings_from_batch(
            np.arange(3), pa.array(["", None, "!!"]), REGISTRY["standard"],
            positions=positions)
        assert post.num_rows == 0
        assert doclens["dl"].to_pylist() == [0, 0, 0]


def test_postings_from_batch_invariants():
    texts = pa.array(["a b a c", "b b b", "", "c"])
    postings, doclens = postings_from_batch(np.arange(4), texts, REGISTRY["standard"])
    p = {(r["term"], r["doc_id"]): (r["tf"], r["dl"]) for r in postings.to_pylist()}
    assert p[("a", 0)] == (2, 4)
    assert p[("b", 0)] == (1, 4)
    assert p[("b", 1)] == (3, 3)
    assert p[("c", 3)] == (1, 1)
    assert doclens.to_pydict() == {"doc_id": [0, 1, 2, 3], "dl": [4, 3, 0, 1]}


# --------------------------------------------------------------------- codec
def test_varint_roundtrip_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(0, 2000))
        magnitude = int(rng.integers(1, 63))
        v = rng.integers(0, 2**magnitude, size=n).astype(np.uint64)
        assert (varint_decode(varint_encode(v), n) == v).all()
    big = np.array([0, 1, 2**64 - 1, 2**63, 127, 128], dtype=np.uint64)
    assert (varint_decode(varint_encode(big)) == big).all()


def test_posting_list_roundtrip():
    rng = np.random.default_rng(1)
    for n in (1, 5, 128, 129, 1000):
        docs = np.cumsum(rng.integers(1, 100, size=n)).astype(np.int64)
        tfs = rng.integers(1, 30, size=n).astype(np.int64)
        dls = rng.integers(5, 500, size=n).astype(np.int64)
        row = encode_posting_list(docs, tfs, dls)
        d, t, l = decode_posting_list(row)
        assert (d == docs).all() and (t == tfs).all() and (l == dls).all()


def test_encode_rejects_unsorted():
    with pytest.raises(ValueError):
        encode_posting_list(np.array([3, 2]), np.array([1, 1]), np.array([1, 1]))


def test_analyzer_config_fingerprint_changes():
    a = AnalyzerConfig()
    b = AnalyzerConfig(stopwords=("the",))
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == AnalyzerConfig().fingerprint()


def test_encode_posting_block_matches_per_term():
    """Vectorized multi-term encoder is byte-identical to per-term encoding."""
    import numpy as np

    from org_rdkit_lucene_ray.functions.codec import (
        encode_posting_block,
        encode_posting_list,
    )

    rng = np.random.default_rng(3)
    starts_list, docs_l, tfs_l, dls_l = [], [], [], []
    pos = 0
    for n in [1, 2, 5, 300, 127, 128, 129, 1000]:
        starts_list.append(pos)
        d = np.cumsum(rng.integers(1, 50, size=n).astype(np.int64)) + int(rng.integers(0, 1e6))
        docs_l.append(d)
        tfs_l.append(rng.integers(1, 30, size=n).astype(np.int64))
        dls_l.append(rng.integers(5, 400, size=n).astype(np.int64))
        pos += n
    docs = np.concatenate(docs_l)
    tfs = np.concatenate(tfs_l)
    dls = np.concatenate(dls_l)
    starts = np.asarray(starts_list)
    blk = encode_posting_block(docs, tfs, dls, starts)
    bounds = np.concatenate([starts, [docs.size]])
    for i in range(starts.size):
        s, e = bounds[i], bounds[i + 1]
        ref = encode_posting_list(docs[s:e], tfs[s:e], dls[s:e])
        assert blk["df_chunk"][i] == ref["df_chunk"]
        assert bytes(blk["doc_buf"][blk["doc_off"][i]:blk["doc_off"][i + 1]]) == ref["doc_bytes"]
        assert bytes(blk["tf_buf"][blk["tf_off"][i]:blk["tf_off"][i + 1]]) == ref["tf_bytes"]
        assert bytes(blk["dl_buf"][blk["dl_off"][i]:blk["dl_off"][i + 1]]) == ref["dl_bytes"]


def test_record_serialize_round_trip():
    """M2 analog (SDFRecord.java:192-212): serialize -> parse is identity,
    and the exclusion list drops header fields."""
    import datetime

    import pyarrow as pa

    from org_rdkit_lucene_ray.functions.html import parse_record, serialize_records
    from org_rdkit_lucene_ray.synth import gen_pages

    t = gen_pages(20, seed=3, dup_url_frac=0.0, near_dup_frac=0.0)
    recs = serialize_records(t)
    for i in range(t.num_rows):
        got = parse_record(recs[i].as_py())
        assert got["url"] == t["url"][i].as_py()
        assert got["lang"] == t["lang"][i].as_py()
        assert got["warc_ts"] == t["warc_ts"][i].as_py()
        assert got["html"] == t["html"][i].as_py().decode("utf-8")
    # exclusion list: excluded fields are absent from the parsed record
    recs2 = serialize_records(t, exclude=("lang",))
    parsed = parse_record(recs2[0].as_py())
    assert "lang" not in parsed and parsed["url"] == t["url"][0].as_py()


def test_url_normalization_arrow_sql_parity():
    """functions/url.py: the Arrow kernel chain and the DuckDB expression
    are the same canonicalization, rule by rule."""
    import duckdb
    import pyarrow as pa

    from org_rdkit_lucene_ray.functions.url import (
        normalize_url_column,
        sql_normalize_url,
    )

    samples = [
        "HTTPS://WWW.Example.COM/Path/To/Page/?utm_source=f&utm_medium=x#frag",
        "http://example.com/path?id=3&utm_campaign=a&ref=home",
        "https://sub.example.com/a/b/",
        "example.com/a?utm_x=1",
        "ftp://www.x.org/?fbclid=abc&q=1&gclid=2",
        "https://example.com/?utm_a=1&utm_b=2&id=3",   # ? restored before id
        "https://example.com/p?&",
        "",
        "www.plain.com",
        "HTTP://EXAMPLE.COM////",
        "https://example.com/p#a#b?utm_x=1",           # fragment eats query
    ]
    eng = normalize_url_column(pa.array(samples)).to_pylist()
    con = duckdb.connect()
    got = [r[0] for r in con.execute(
        f"SELECT {sql_normalize_url('u')} FROM (SELECT unnest(?) AS u)",
        [samples]).fetchall()]
    assert eng == got
    assert eng[0] == "example.com/path/to/page"
    assert eng[5] == "example.com/?id=3"
    assert eng[9] == "example.com"


def test_pii_scrub_semantics():
    """Detector rules: sequential order, digit-free placeholders,
    conservative boundaries; Arrow and SQL agree per rule."""
    import duckdb
    import pyarrow as pa

    from org_rdkit_lucene_ray.functions.pii import (
        PII_RULES,
        scrub_batch,
        sql_count_expr,
        sql_scrub_expr,
    )

    samples = [
        "mail a.b+c@Example.org now",
        "host 192.168.0.1 and 1.2.3.4.5 spills",   # 2nd is not a bare ipv4
        "call +15551234567 or +12 (too short)",
        "user@sub.domain.co.uk from 8.8.8.8 call +4915112345678",
        "no pii here 123",
        "",
    ]
    s = scrub_batch(pa.array(samples))
    assert s["n_email"].to_pylist() == [1, 0, 0, 1, 0, 0]
    # '1.2.3.4.5': RE2 \b matching finds '1.2.3.4' then trailing '.5' fails
    # the boundary -> exactly one match inside the run
    assert s["n_ipv4"].to_pylist() == [0, 2, 0, 1, 0, 0]
    assert s["n_phone"].to_pylist() == [0, 0, 1, 1, 0, 0]
    clean = s["clean"].to_pylist()
    assert clean[0] == "mail <EMAIL> now"
    assert clean[3] == "<EMAIL> from <IP> call <PHONE>"
    assert clean[4] == samples[4]

    con = duckdb.connect()
    cols = ", ".join(
        [sql_count_expr("u", r) for r, _, _ in PII_RULES]
        + [sql_scrub_expr("u")])
    rows = con.execute(
        f"SELECT {cols} FROM (SELECT unnest(?) AS u)", [samples]).fetchall()
    for i, row in enumerate(rows):
        assert row == (s["n_email"][i].as_py(), s["n_ipv4"][i].as_py(),
                       s["n_phone"][i].as_py(), clean[i]), samples[i]
