"""Per-partition vectorized scoring kernels: exhaustive and Block-Max-WAND.

A search's top-k pass over several partitions of one process
(``search.engine.PartitionSearcher.topk``) calls these kernels once per
partition and makes one ``topk_select`` over the key ``part << 32 | local``,
which gives the (score desc, part, local) merge order.

The BMW variant here is impact-ordered ("score-at-a-time") rather than
Lucene's document-at-a-time pointer machine — the public Block-Max WAND
(Ding & Suel, SIGIR'11) bound logic applied over coarse doc-range windows so
the inner work stays in numpy kernels:

  1. per term, per 128-doc block, an upper-bound score from the stored
     impacts (max_tf, min_norm) — the Lucene91 'impacts' analog;
  2. windows of W docs get an upper bound = Σ_terms max(block σ overlapping
     the window), built with a vectorized diff-array;
  3. windows are processed in descending-bound order; once the running top-k
     threshold θ exceeds the next window's bound, every remaining window is
     pruned — no posting bytes of theirs are ever decoded.

A segment of one window has nothing to prune, so it is scored directly.

Equality with the exhaustive scorer (including float32 narrowing and the
(score desc, doc asc) tie-break) is property-tested.
"""

from __future__ import annotations

import numpy as np

from elasticsearch_ray.index.postings import (
    _payload_offsets,
    decode_blocks_range,
    decode_postings,
    read_headers,
)


def combine_sum(doc_arrays, score_arrays, dtype=np.float32):
    """Union-sum per doc → (docs, scores, counts). Scores summed in float64
    then narrowed (Lucene DisjunctionSumScorer)."""
    docs = np.concatenate(doc_arrays)
    if len(docs) == 0:
        return docs, np.empty(0, dtype), np.empty(0, np.int64)
    scores = np.concatenate([np.asarray(s, dtype=np.float64) for s in score_arrays])
    order = np.argsort(docs, kind="stable")
    docs_s = docs[order]
    sc_s = scores[order]
    change = np.empty(len(docs_s), dtype=bool)
    change[0] = True
    change[1:] = docs_s[1:] != docs_s[:-1]
    starts = np.flatnonzero(change)
    u_docs = docs_s[starts]
    sums = np.add.reduceat(sc_s, starts)
    counts = np.diff(np.append(starts, len(docs_s)))
    return u_docs, sums.astype(dtype), counts


def topk_select(docs: np.ndarray, scores: np.ndarray, k: int):
    """Top-k by (score desc, doc asc) — the within-shard tie-break of
    TopScoreDocCollector."""
    if len(docs) <= k:
        order = np.lexsort((docs, -scores.astype(np.float64)))
        return docs[order], scores[order]
    # candidates = everything scoring >= the kth score (keeps all ties for the
    # doc-asc tie-break), then exact sort of that small set
    kth = np.partition(-scores, k - 1)[k - 1]
    cand = np.flatnonzero(-scores <= kth)
    order = np.lexsort((docs[cand], -scores[cand].astype(np.float64)))[:k]
    sel = cand[order]
    return docs[sel], scores[sel]


class TermCursor:
    """One query term's postings inside one partition. ``norms`` optionally
    carries the term's FIELD-specific norm bytes (multi-field indexes score
    each field against its own doc lengths); kernels fall back to the
    passed-in default-field norms when unset."""

    __slots__ = ("blob", "headers", "offsets", "scorer", "norms")

    def __init__(self, blob, scorer, norms=None):
        self.blob = blob
        self.headers = read_headers(blob)
        self.offsets = _payload_offsets(self.headers) if len(self.headers) else None
        self.scorer = scorer
        self.norms = norms

    def decode_all(self):
        return decode_postings(self.blob)

    def block_range(self, b0: int, b1: int):
        return decode_blocks_range(self.blob, self.headers, self.offsets, b0, b1)

    def block_max_scores(self) -> np.ndarray:
        h = self.headers
        mt = h["max_tf"].astype(np.int64)
        s = np.asarray(self.scorer.max_score(mt, h["min_norm"]), dtype=np.float64)
        # max_tf is a u16 header field clamped at 0xFFFF; a block whose true
        # max tf exceeds that would get an UNDER-estimated bound and could be
        # wrongly pruned. Treat 0xFFFF as a saturation sentinel and fall back
        # to the tf→∞ limit (scorer weight), a valid upper bound.
        sat = mt == 0xFFFF
        if sat.any():
            s[sat] = float(self.scorer.weight)
        return s


def accumulate_dense(d_arrays, s_arrays, base: int, length: int, dtype=np.float32,
                     min_match: int = 1):
    """Dense union-sum over a doc range [base, base+length): per-term bincount
    into float64 accumulators (O(length + postings), no sort). Per-doc addend
    order is term order — identical to the sorted-reduceat path, so results
    are bit-equal between the dense and sparse combiners."""
    acc = np.zeros(length, dtype=np.float64)
    cnt = np.zeros(length, dtype=np.int64)
    for d, s in zip(d_arrays, s_arrays):
        rel = d - base
        acc += np.bincount(rel, weights=np.asarray(s, np.float64), minlength=length)
        cnt += np.bincount(rel, minlength=length)
    rel_docs = np.flatnonzero(cnt >= max(min_match, 1))
    return rel_docs + base, acc[rel_docs].astype(dtype)


def exhaustive_disjunction(cursors, norms, dtype=np.float32, min_match: int = 1):
    """Decode everything, score, union-sum; returns (docs, scores) filtered by
    the number of matching clauses >= min_match. Dense accumulation over the
    partition's doc space (partition sizing bounds it)."""
    d_arrays, s_arrays = [], []
    for c in cursors:
        d, t = c.decode_all()
        nl = c.norms if c.norms is not None else norms
        d_arrays.append(d)
        s_arrays.append(c.scorer.score(t, nl[d]))
    if not d_arrays:
        return np.empty(0, np.int64), np.empty(0, dtype)
    return accumulate_dense(d_arrays, s_arrays, 0, len(norms), dtype, min_match)


def _score_window(cursors, norms, wstart: int, wend: int, length: int, dtype,
                  min_match: int):
    """Exhaustive union-sum of the docs in window [wstart, wend) → (docs,
    scores), or None when no doc there can qualify (a full conjunction with
    a term absent from the window)."""
    d_arrays, s_arrays = [], []
    full_conj = min_match >= len(cursors)
    for c in cursors:
        h = c.headers
        if len(h) == 0:
            if full_conj:
                return None
            continue
        # candidate blocks: sorted disjoint ranges intersecting the window
        b0 = int(np.searchsorted(h["last_doc"], wstart, side="left"))
        b1 = int(np.searchsorted(h["first_doc"], wend, side="left"))
        if b1 <= b0:
            if full_conj:  # conjunction: one absent term kills the window
                return None
            continue
        d, t = c.block_range(b0, b1)  # bulk vectorized decode
        m = (d >= wstart) & (d < wend)
        if m.any():
            dm = d[m]
            nl = c.norms if c.norms is not None else norms
            d_arrays.append(dm)
            s_arrays.append(c.scorer.score(t[m], nl[dm]))
        elif full_conj:
            return None
    if not d_arrays:
        return None
    return accumulate_dense(d_arrays, s_arrays, wstart, length, dtype, min_match)


def bmw_topk(cursors, norms, k: int, n_docs: int, dtype=np.float32, window: int = 4096,
             min_match: int = 1, stats: dict | None = None):
    """Block-max pruned top-k disjunction; returns (docs, scores) of ≤k hits,
    ordered (score desc, doc asc). Bit-identical to
    topk_select(*exhaustive_disjunction(...), k). Pass ``stats`` to receive
    {'windows_total', 'windows_scored'} — the pruning evidence."""
    if stats is not None:
        stats["windows_total"] = (n_docs + window - 1) // window if n_docs else 0
        stats["windows_scored"] = 0
    empty = np.empty(0, np.int64), np.empty(0, dtype)
    if not cursors or n_docs == 0:
        return empty
    need = max(min_match, 1)
    if n_docs <= window:
        # one window: θ is -inf when it is reached, so no bound could prune
        # it; only fewer than min_match present terms skip it, as below
        if sum(len(c.headers) > 0 for c in cursors) < need:
            return empty
        if stats is not None:
            stats["windows_scored"] = 1
        got = _score_window(cursors, norms, 0, window, n_docs, dtype, min_match)
        return empty if got is None else topk_select(*got, k)
    n_windows = (n_docs + window - 1) // window
    wstarts = np.arange(n_windows, dtype=np.int64) * window
    wends = wstarts + window
    ub = np.zeros(n_windows, dtype=np.float64)
    present = np.zeros(n_windows, dtype=np.int32)
    for c in cursors:
        h = c.headers
        nb = len(h)
        if nb == 0:
            continue
        sigma = c.block_max_scores()
        # per-window upper bound for THIS term = max σ over its blocks
        # intersecting the window (NOT the sum — a dense term has many blocks
        # per window and summing makes the bound uselessly loose).
        lo = np.searchsorted(h["last_doc"], wstarts, side="left")
        hi = np.searchsorted(h["first_doc"], wends, side="left")
        red = np.maximum.reduceat(sigma, np.minimum(lo, nb - 1))
        red = np.where(lo < hi, red, 0.0)
        # at most one block straddles a window's right boundary; reduceat's
        # segment [lo_w, lo_{w+1}) can miss it — patch with sigma[hi-1]
        last_blk = np.clip(hi - 1, 0, nb - 1)
        boundary = np.where(hi - 1 >= lo, sigma[last_blk], 0.0)
        ub += np.maximum(red, boundary)
        present += (lo < hi).astype(np.int32)
    ub *= 1.0 + 1e-6  # guard float32-narrowing overshoot
    # conjunction-aware bound: a window lacking blocks from >= min_match
    # distinct terms (for min_match 1: any term) cannot produce a qualifying
    # doc — prune before any decode. Result-identical: accumulate_dense
    # would emit nothing there. A window whose bound is 0 (a similarity
    # that clamps scores at 0) still holds hits of score 0.
    ub[present < need] = -np.inf

    order = np.argsort(-ub, kind="stable")
    top_docs, top_scores = empty
    theta = -np.inf
    for w in order:
        if ub[w] == -np.inf:
            break
        if len(top_docs) >= k and ub[w] < theta:
            break  # every remaining window has a smaller bound — pruned
        wstart = int(w) * window
        if stats is not None:
            stats["windows_scored"] += 1
        got = _score_window(cursors, norms, wstart, wstart + window,
                            min(window, n_docs - wstart), dtype, min_match)
        if got is None or len(got[0]) == 0:
            continue
        top_docs, top_scores = topk_select(np.concatenate([top_docs, got[0]]),
                                           np.concatenate([top_scores, got[1]]), k)
        if len(top_docs) >= k:
            theta = float(top_scores[-1])
    return top_docs, top_scores
