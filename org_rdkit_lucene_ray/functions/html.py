"""Deterministic HTML -> text extraction (vectorized over Arrow).

Reference analogs:
- ``StringUtils.removeHtmlComments`` (``util/StringUtils.java:194``) ->
  :func:`remove_html_comments`
- ``StringUtils.removeTags`` (``util/StringUtils.java:207``) -> :func:`remove_tags`
- mol block -> canonical SMILES normalization
  (``ChemicalIndex.createCanonicalizedSmilesFromSdf``,
  ``ChemicalIndex.java:972-1046``) -> :func:`extract_text` — the normalizer
  whose output keys document identity. The per-row invariant from
  BASELINE.json: ``extract_text(html) == text`` byte-identical per url.

All transforms are pure pyarrow.compute (re2) kernels — no Python-per-row
loops — and fully deterministic: the same bytes in give the same string out
on every worker, every run.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# Entity subset handled by the extractor. Order matters: &amp; is decoded LAST
# so "&amp;lt;" decodes to "&lt;" (single pass, standard behavior).
_ENTITIES = [
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&#39;", "'"),
    ("&nbsp;", " "),
    ("&amp;", "&"),
]


def remove_html_comments(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Strip ``<!-- ... -->`` comments (non-greedy, may span lines)."""
    return pc.replace_substring_regex(arr, pattern=r"<!--[\s\S]*?-->", replacement=" ")


def remove_script_style(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Drop <script>/<style> elements INCLUDING their text content."""
    arr = pc.replace_substring_regex(
        arr, pattern=r"(?i)<script[\s\S]*?</script\s*>", replacement=" "
    )
    return pc.replace_substring_regex(
        arr, pattern=r"(?i)<style[\s\S]*?</style\s*>", replacement=" "
    )


def remove_tags(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Replace every remaining ``<...>`` tag with a single space."""
    return pc.replace_substring_regex(arr, pattern=r"<[^>]*>", replacement=" ")


def decode_entities(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    for ent, ch in _ENTITIES:
        arr = pc.replace_substring(arr, pattern=ent, replacement=ch)
    return arr


def collapse_whitespace(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Each run of RE2 ``\\s`` (``[\\t\\n\\f\\r ]``) -> one space, then trim.

    A lone space already is its own output, so the pattern matches only
    runs of two or more and lone non-space whitespace: the same map as
    ``\\s+`` -> ``" "`` without rewriting every word gap."""
    arr = pc.replace_substring_regex(arr, pattern=r"\s{2,}|[\t\n\f\r]",
                                     replacement=" ")
    return pc.utf8_trim_whitespace(arr)


def extract_text(html: pa.Array | pa.ChunkedArray) -> pa.Array:
    """``html:binary`` -> ``text:string``; THE deterministic normalizer.

    Pipeline: utf-8 decode (invalid bytes replaced) -> strip comments ->
    strip script/style -> strip tags -> decode entities -> collapse
    whitespace -> trim.
    """
    if pa.types.is_binary(html.type) or pa.types.is_large_binary(html.type):
        # Cast binary -> string validates utf-8; corpus is generated utf-8.
        s = pc.cast(html, pa.string())
    else:
        s = html
    s = remove_html_comments(s)
    s = remove_script_style(s)
    s = remove_tags(s)
    s = decode_entities(s)
    s = collapse_whitespace(s)
    return s


def truncate_string(arr: pa.Array | pa.ChunkedArray, max_len: int) -> pa.Array:
    """Analog of ``StringUtils.truncateString`` (``util/StringUtils.java:139``)."""
    return pc.utf8_slice_codeunits(arr, start=0, stop=max_len)


def is_empty_after_trimming(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Analog of ``StringUtils.isEmptyAfterTrimming`` (``util/StringUtils.java:171``)."""
    trimmed = pc.utf8_trim_whitespace(arr)
    return pc.or_kleene(pc.is_null(arr), pc.equal(trimmed, ""))


# --------------------------------------------------------------- M2: records
# Record serializer — the inverse of M1 with a property exclusion list
# (reference ``SDFRecord.java:192-212``: molblock + "> <prop>" blocks minus
# excluded properties, "$$$$" terminator). Web analog: a WARC-style record
# whose header fields are the page's metadata columns and whose body is the
# raw html. Only needed for round-trip tests / write-back-to-pages paths.
_RECORD_MAGIC = "WARC/1.0"
_RECORD_FIELDS = ("url", "warc_ts", "lang")   # header order is canonical
_RECORD_HEADERS = {"url": "WARC-Target-URI", "warc_ts": "WARC-Date",
                   "lang": "X-Lang"}
# serialize with Arrow strftime, whose %S already includes the (us-unit)
# fractional seconds; parse with Python strptime, which needs explicit %f
_TS_FORMAT_ARROW = "%Y-%m-%dT%H:%M:%S"
_TS_FORMAT_PY = "%Y-%m-%dT%H:%M:%S.%f"


def serialize_records(batch: pa.Table, exclude: tuple[str, ...] = ()) -> pa.Array:
    """Rows -> canonical record text (one string per row), vectorized.

    ``exclude`` drops header fields by column name (the reference's property
    exclusion list). The html body is appended verbatim after a blank line;
    records round-trip through :func:`parse_record` byte-identically."""
    n = batch.num_rows
    parts: list[pa.Array] = [pa.array([_RECORD_MAGIC + "\n"] * n)]
    for col in _RECORD_FIELDS:
        if col in exclude or col not in batch.column_names:
            continue
        if col == "warc_ts":
            vals = pc.strftime(pc.cast(batch[col], pa.timestamp("us")),
                               format=_TS_FORMAT_ARROW)
        else:
            vals = pc.cast(batch[col], pa.string())
        line = pc.binary_join_element_wise(
            pa.array([_RECORD_HEADERS[col] + ": "] * n), vals,
            pa.array(["\n"] * n), "")
        parts.append(line)
    body = pc.cast(batch["html"], pa.string()) if "html" in batch.column_names \
        else pa.array([""] * n)
    parts.append(pc.binary_join_element_wise(
        pa.array(["\n"] * n), body, ""))
    out = parts[0]
    for p in parts[1:]:
        out = pc.binary_join_element_wise(out, p, "")
    return out


def parse_record(text: str) -> dict:
    """Inverse of :func:`serialize_records` for one record string."""
    from datetime import datetime

    head, _, body = text.partition("\n\n")
    lines = head.splitlines()
    if not lines or lines[0] != _RECORD_MAGIC:
        raise ValueError("not a serialized record (missing magic)")
    by_header = {v: k for k, v in _RECORD_HEADERS.items()}
    out: dict = {"html": body}
    for line in lines[1:]:
        name, _, val = line.partition(": ")
        col = by_header.get(name)
        if col is None:
            continue
        if col == "warc_ts":
            out[col] = datetime.strptime(val, _TS_FORMAT_PY)
        else:
            out[col] = val
    return out
