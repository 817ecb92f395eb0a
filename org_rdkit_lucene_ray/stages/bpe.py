"""Byte-pair-encoding tokenizer training + application (Sennrich et al.,
ACL 2016) — the full merge-learning loop, not just the single-step pair
statistic (:func:`stages.lm.top_adjacent_pairs`).

Scale shape (the classic subword-nmt / fastBPE decomposition):

- **word-type counts are the distributed part** — BPE learns from the
  (word, frequency) table, which is vocabulary-sized, not corpus-sized.
  One ``map_batches`` tokenize pass emits per-batch (word, n) partials,
  folded by ``groupby(word).sum`` — the only exchange, O(vocab).
- **the merge loop is driver-side over that folded table** (fastBPE does
  exactly this): incremental pair-count maintenance touches only the word
  types containing the merged pair, so ``n_merges`` iterations cost
  O(n_merges x affected-types), independent of corpus size.
- **encoding streams** — merges broadcast once via ``ray.put``; each
  worker applies them with a per-word memo (web text repeats word types
  heavily, so each distinct word is segmented once per worker process).

Determinism contract: the merge choice is (count desc, pair lexicographic
asc) — a total order — and the fold is integer, so the learned merge list
is bit-identical under any partitioning (gate-verified by training under
two block splits).

Segmentation identity: both the trainer's rebuild and the encoder apply a
chosen pair left-to-right over all its occurrences; the encoder replays
merges in rank order, which reproduces the trainer's segmentation of any
training word (the standard BPE property) — so
``decode(encode(word)) == word`` with the end-of-word marker stripped.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from org_rdkit_lucene_ray.config import AnalyzerConfig
from org_rdkit_lucene_ray.functions.analyze import REGISTRY, tokenize_column

EOW = "</w>"     # end-of-word marker carried by a word's last symbol

# per-worker-process segmentation memo, namespaced by merge-table ref so
# concurrent pipelines with different tokenizers can't cross-pollinate
_BPE_MEMO: dict[str, dict[str, tuple[str, ...]]] = {}


def word_counts_ds(ds: rd.Dataset, *, text_column: str = "text",
                   analyzer: str = "standard") -> rd.Dataset:
    """Distributed (word, n) frequency Dataset — per-batch Arrow group_by
    partials folded through the shared bucket exchange. Stays distributed
    (vocabulary-sized, never driver-sized): consumers that need the full
    LUT on the driver go through :func:`word_counts`, which enforces no
    ceiling itself — callers with web-scale vocabularies must count this
    Dataset first and refuse/hash above their budget (keyword_textrank,
    collocation_topk do)."""
    cfg = REGISTRY[analyzer]

    def partial(t: pa.Table) -> pa.Table:
        toks = tokenize_column(t[text_column], cfg)
        flat = pa.table({"word": toks.values})
        g = flat.group_by("word").aggregate([("word", "count")])
        return pa.table({"word": g["word"],
                         "n": pc.cast(g["word_count"], pa.int64())})

    from org_rdkit_lucene_ray.util import fold_grouped_counts

    return fold_grouped_counts(ds, "word", ["n"], pre=partial)


def word_counts(ds: rd.Dataset, *, text_column: str = "text",
                analyzer: str = "standard") -> pa.Table:
    """:func:`word_counts_ds` gathered to one driver-side table sorted by
    word — for vocabularies that fit the driver (BPE training corpora)."""
    rows = word_counts_ds(ds, text_column=text_column,
                          analyzer=analyzer).take_all()
    words = pa.array([r["word"] for r in rows], pa.string())
    ns = pa.array([int(r["n"]) for r in rows], pa.int64())
    t = pa.table({"word": words, "n": ns})
    return t.take(pc.array_sort_indices(t["word"]))


def _symbols_of(word: str) -> tuple[str, ...]:
    if not word:
        return ()
    chars = list(word)
    chars[-1] = chars[-1] + EOW
    return tuple(chars)


def _merge_word(sym: tuple[str, ...], a: str, b: str) -> tuple[str, ...]:
    """Left-to-right single-pair merge of all (a, b) occurrences."""
    out: list[str] = []
    i, n = 0, len(sym)
    while i < n:
        if i + 1 < n and sym[i] == a and sym[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(sym[i])
            i += 1
    return tuple(out)


def bpe_train(wc: pa.Table, n_merges: int) -> list[tuple[str, str]]:
    """Learn ``n_merges`` merges from a (word, n) table. Driver-side by
    design (see module doc); incremental pair-count maintenance."""
    words = [_symbols_of(w) for w in wc["word"].to_pylist()]
    counts = [int(x) for x in wc["n"].to_pylist()]
    pair_counts: Counter = Counter()
    where: dict[tuple[str, str], set[int]] = {}
    for i, (sym, c) in enumerate(zip(words, counts)):
        for p in zip(sym, sym[1:]):
            pair_counts[p] += c
            where.setdefault(p, set()).add(i)
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        best = None
        for p, c in pair_counts.items():
            if c <= 0:
                continue
            if best is None or (-c, p) < best:
                best = (-c, p)
        if best is None:
            break
        a, b = best[1]
        merges.append((a, b))
        for i in sorted(where.get((a, b), ())):
            sym, c = words[i], counts[i]
            for p in zip(sym, sym[1:]):
                pair_counts[p] -= c
                s = where.get(p)
                if s is not None:
                    s.discard(i)
            new = _merge_word(sym, a, b)
            words[i] = new
            for p in zip(new, new[1:]):
                pair_counts[p] += c
                where.setdefault(p, set()).add(i)
    return merges


def encode_word(word: str, ranks: dict[tuple[str, str], int]) -> tuple[str, ...]:
    """Segment one word by replaying merges in rank order (GPT-2-style
    encode loop: repeatedly merge the lowest-rank adjacent pair)."""
    sym = _symbols_of(word)
    while len(sym) > 1:
        best_rank, best_pair = None, None
        for p in zip(sym, sym[1:]):
            r = ranks.get(p)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_pair = r, p
        if best_pair is None:
            break
        sym = _merge_word(sym, *best_pair)
    return sym


def bpe_encode(ds: rd.Dataset, merges: list[tuple[str, str]], *,
               text_column: str = "text", id_column: str = "doc_id",
               analyzer: str = "standard") -> rd.Dataset:
    """Apply learned merges to every document: emits
    (doc_id, n_tokens, n_pieces, roundtrip_ok). Per-worker word memo —
    each distinct word type is segmented once per worker process."""
    cfg = REGISTRY[analyzer]
    ref = ray.put({p: i for i, p in enumerate(merges)})
    memo_key = ref.hex()       # per-merge-table worker memo namespace

    def encode_batch(t: pa.Table) -> pa.Table:
        from org_rdkit_lucene_ray.stages.dedup import _bcast

        ranks = _bcast(ref)
        # One memo per merge table (keyed by its object ref), kept
        # side-by-side so two concurrent bpe_encode pipelines with
        # different merges on the same worker don't evict each other.
        # Bounded: evict oldest namespaces beyond a small cap.
        while memo_key not in _BPE_MEMO and len(_BPE_MEMO) >= 4:
            _BPE_MEMO.pop(next(iter(_BPE_MEMO)))
        memo = _BPE_MEMO.setdefault(memo_key, {})
        toks = tokenize_column(t[text_column], cfg)
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(offs)
        ids = t[id_column].to_numpy(zero_copy_only=False).astype(np.int64)
        # python work touches DISTINCT words only (memo across batches);
        # per-token stats scatter from the distinct-word arrays via one
        # vectorized index_in
        uniq = pc.unique(toks.values)
        uniq_list = uniq.to_pylist()
        p_len = np.empty(len(uniq_list), np.int64)
        p_ok = np.empty(len(uniq_list), bool)
        for j, w in enumerate(uniq_list):
            got = memo.get(w)
            if got is None:
                got = encode_word(w, ranks)
                memo[w] = got
            p_len[j] = len(got)
            joined = "".join(got)
            p_ok[j] = (joined[:-len(EOW)]
                       if got and got[-1].endswith(EOW) else joined) == w
        pos = pc.index_in(toks.values, value_set=uniq).to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_pieces_tok = p_len[pos]
        ok_tok = p_ok[pos]
        nz = lens > 0
        if not nz.any():
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "n_pieces": pa.array([], pa.int64()),
                             "roundtrip_ok": pa.array([], pa.int64())})
        piece_sum = np.add.reduceat(n_pieces_tok, offs[:-1][nz])
        ok_all = np.add.reduceat((~ok_tok).astype(np.int64),
                                 offs[:-1][nz]) == 0
        return pa.table({
            "doc_id": pa.array(ids[nz]),
            "n_tokens": pa.array(lens[nz]),
            "n_pieces": pa.array(piece_sum),
            "roundtrip_ok": pa.array(ok_all.astype(np.int64)),
        })

    return ds.map_batches(encode_batch, batch_format="pyarrow")
