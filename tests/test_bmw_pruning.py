"""Evidence that Block-Max WAND actually PRUNES (not just matches the
exhaustive scorer): on a zipfian corpus where the rare query term is
concentrated in a few doc ranges, low-bound windows are never scored."""

import numpy as np
import pytest

from elasticsearch_ray.index.norms import int_to_byte4
from elasticsearch_ray.index.postings import encode_postings
from elasticsearch_ray.search.bm25 import BM25Scorer
from elasticsearch_ray.search.topk import TermCursor, bmw_topk, exhaustive_disjunction, topk_select


def _make_corpus(n_docs=200_000, seed=4, ranges=((10_000, 11_000),)):
    """One common term (in ~half the docs) + one rare term confined to
    narrow doc ranges — the BMW-friendly shape."""
    rng = np.random.default_rng(seed)
    norms = int_to_byte4(rng.integers(30, 120, n_docs))
    common_docs = np.flatnonzero(rng.random(n_docs) < 0.5)
    common_tfs = rng.integers(1, 4, len(common_docs))
    rare_docs = np.unique(
        np.concatenate([rng.integers(lo, hi, 200) for lo, hi in ranges])
    )
    rare_tfs = rng.integers(1, 6, len(rare_docs))
    return n_docs, norms, (common_docs, common_tfs), (rare_docs, rare_tfs)


def _run(n_docs, norms, common, rare, k=10):
    cd, ct = common
    rd_, rt = rare
    avgdl = 75.0
    cursors = [
        TermCursor(encode_postings(cd, ct, norms[cd]),
                   BM25Scorer(df=len(cd), doc_count=n_docs, avgdl=avgdl)),
        TermCursor(encode_postings(rd_, rt, norms[rd_]),
                   BM25Scorer(df=len(rd_), doc_count=n_docs, avgdl=avgdl)),
    ]
    stats: dict = {}
    docs, scores = bmw_topk(cursors, norms, k=k, n_docs=n_docs, stats=stats)
    e_docs, e_scores = topk_select(*exhaustive_disjunction(cursors, norms), k)
    assert np.array_equal(docs, e_docs)
    assert np.array_equal(scores, e_scores)
    return docs, stats


def test_bmw_prunes_hard_when_rare_range_is_concentrated():
    n_docs, norms, common, rare = _make_corpus(ranges=((10_000, 11_000),))
    docs, stats = _run(n_docs, norms, common, rare)
    assert stats["windows_total"] == (n_docs + 4095) // 4096
    # one concentrated rare range → after its windows set θ, every
    # common-only window is pruned
    assert stats["windows_scored"] <= 4, stats
    assert np.isin(docs, rare[0]).all()


def test_bmw_prunes_partially_with_straddling_block():
    # two rare ranges: the posting block STRADDLING the gap props up the
    # bounds of every window it spans (block-granularity impacts — same
    # limitation as Lucene's), so pruning is partial: the windows after the
    # second range are still skipped
    n_docs, norms, common, rare = _make_corpus(
        ranges=((10_000, 11_000), (150_000, 151_000))
    )
    docs, stats = _run(n_docs, norms, common, rare)
    assert stats["windows_scored"] < stats["windows_total"], stats
    assert np.isin(docs, rare[0]).all()


def test_bmw_no_pruning_when_k_large():
    n_docs, norms, (cd, ct), (rd_, rt) = _make_corpus(n_docs=50_000)
    sc = BM25Scorer(df=len(cd), doc_count=n_docs, avgdl=75.0)
    cursors = [TermCursor(encode_postings(cd, ct, norms[cd]), sc)]
    stats: dict = {}
    docs, scores = bmw_topk(cursors, norms, k=10**9, n_docs=n_docs, stats=stats)
    # k unbounded → nothing can be pruned; still equal to exhaustive
    e_docs, e_scores = exhaustive_disjunction(cursors, norms)
    import numpy as _np

    order = _np.lexsort((docs,))
    e_order = _np.lexsort((e_docs,))
    assert _np.array_equal(docs[order], e_docs[e_order])
    assert _np.array_equal(scores[order], e_scores[e_order])  # bit-equal
    assert stats["windows_scored"] == stats["windows_total"]


def test_bmw_conjunction_window_pruning():
    """min_match == n_cursors (the AND path): windows missing the rare term
    are pruned at the BOUND level — only windows intersecting the rare range
    are ever scored — and results stay bit-equal to exhaustive."""
    n_docs, norms, common, rare = _make_corpus(ranges=((50_000, 52_000),))
    cd, ct = common
    rd_, rt = rare
    avgdl = 75.0
    cursors = [
        TermCursor(encode_postings(cd, ct, norms[cd]),
                   BM25Scorer(df=len(cd), doc_count=n_docs, avgdl=avgdl)),
        TermCursor(encode_postings(rd_, rt, norms[rd_]),
                   BM25Scorer(df=len(rd_), doc_count=n_docs, avgdl=avgdl)),
    ]
    stats: dict = {}
    docs, scores = bmw_topk(cursors, norms, k=10, n_docs=n_docs,
                            min_match=2, stats=stats)
    e_docs, e_scores = topk_select(
        *exhaustive_disjunction(cursors, norms, min_match=2), 10)
    assert np.array_equal(docs, e_docs)
    assert np.array_equal(scores, e_scores)
    # rare range spans 2000 docs ≈ 1-2 windows (+1 straddling block slack)
    assert stats["windows_scored"] <= 3, stats
    assert stats["windows_total"] == (n_docs + 4095) // 4096


def _cursors_of(n_docs, seed, densities, dtype="float32"):
    """One cursor per density (share of docs holding the term), with the
    shared norms; a density of 0 gives an empty cursor."""
    rng = np.random.default_rng(seed)
    norms = int_to_byte4(rng.integers(5, 120, n_docs))
    cursors = []
    for p in densities:
        docs = np.flatnonzero(rng.random(n_docs) < p)
        tfs = rng.integers(1, 5, len(docs))
        sc = BM25Scorer(df=max(len(docs), 1), doc_count=n_docs, avgdl=60.0, dtype=dtype)
        cursors.append(TermCursor(encode_postings(docs, tfs, norms[docs]), sc))
    return norms, cursors


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("densities", [(0.4, 0.05, 0.2), (0.4, 0.0, 0.2), (0.0,), (0.3,)])
@pytest.mark.parametrize("min_match", [1, 2, "all"])
def test_bmw_one_window_scores_directly(dtype, densities, min_match):
    """A doc space of one window (n_docs ≤ window) skips the bound set-up
    and scores that window directly: bit-equal to exhaustive and to the
    windowed loop over the same docs (a smaller window), including the
    min_match cut, an empty cursor and a dead full conjunction."""
    n_docs = 3000
    mm = len(densities) if min_match == "all" else min_match
    norms, cursors = _cursors_of(n_docs, 11, densities, "float32" if dtype == np.float32 else "float64")
    e = topk_select(*exhaustive_disjunction(cursors, norms, dtype, min_match=mm), 10)
    stats: dict = {}
    one = bmw_topk(cursors, norms, 10, n_docs, dtype, min_match=mm, stats=stats)
    loop = bmw_topk(cursors, norms, 10, n_docs, dtype, window=512, min_match=mm)
    for got in (one, loop):
        assert np.array_equal(got[0], e[0])
        assert got[1].dtype == e[1].dtype and np.array_equal(got[1], e[1])
    alive = sum(d > 0 for d in densities) >= mm
    assert stats == {"windows_total": 1, "windows_scored": int(alive)}
    if not alive:
        assert len(one[0]) == 0


def test_bmw_scores_windows_whose_bound_is_zero():
    """A similarity that clamps scores at 0 (LMDirichlet) bounds a window
    at 0; its docs still hit, at score 0, when fewer than k docs score
    higher — as in the exhaustive scorer, in one window and across many."""
    from elasticsearch_ray.search.bm25 import LMDirichletScorer

    n_docs = 20_000
    rng = np.random.default_rng(3)
    norms = int_to_byte4(rng.integers(400, 900, n_docs))
    held = rng.random(n_docs) < 0.3
    sc = LMDirichletScorer(ttf=10**7, total_tokens=10**7)  # every score clamps to 0
    for n in (4000, n_docs):
        docs = np.flatnonzero(held[:n])
        cursors = [TermCursor(encode_postings(docs, np.ones(len(docs), np.int64), norms[docs]),
                              sc)]
        e = topk_select(*exhaustive_disjunction(cursors, norms[:n]), 10)
        got = bmw_topk(cursors, norms[:n], 10, n)
        assert len(e[0]) == 10 and not e[1].any()
        assert np.array_equal(got[0], e[0]) and np.array_equal(got[1], e[1])


# ---- one scoring pass over several segments (PartitionSearcher.topk) ----

_SEG_SIZES = (4500, 5300, 4700)  # two BMW windows each


@pytest.fixture(scope="module")
def seg_index(tmp_path_factory):
    """Three segments of more than 4096 docs over a Zipf vocabulary. "hot"
    (with t1 and t2) sits in 40 docs of segment 1 only, "warm" in segments
    0 and 2 only, so a pass holds a term in some of its segments."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.index.spec import IndexSpec

    root = tmp_path_factory.mktemp("segs")
    corpus = root / "corpus"
    corpus.mkdir()
    rng = np.random.default_rng(8)
    p = 1.0 / np.arange(1, 301) ** 1.1
    p /= p.sum()
    start = 0
    for seg, n in enumerate(_SEG_SIZES):
        texts = []
        for i in range(n):
            words = [f"t{w}" for w in rng.choice(300, rng.integers(4, 30), p=p)]
            if seg == 1 and 100 <= i < 140:
                words += ["hot"] * int(rng.integers(2, 5)) + ["t1", "t2"]
            if seg != 1 and rng.random() < 0.2:
                words.append("warm")
            texts.append(" ".join(words))
        pq.write_table(pa.table({
            "doc_id": pa.array(np.arange(start, start + n), pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * n),
        }), str(corpus / f"seg{seg}.parquet"))
        start += n
    idx = str(root / "index")
    build_index(str(corpus), idx, IndexSpec(use_html=False, text_column="text",
                                            files_per_partition=1),
                concurrency=1, file_pattern="seg*.parquet")
    return idx


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("text,opts", [
    ("hot t1 t5", {}),
    ("hot t1 t2 t9", {"minimum_should_match": "2"}),
    ("hot t1 t2", {"operator": "and"}),
    ("warm t3 t40", {}),
    ("warm t2", {"operator": "and"}),
])
def test_one_pass_over_segments(seg_index, monkeypatch, dtype, text, opts):
    """One top-k pass over every candidate segment (BMW per segment, one
    ``topk_select`` over ``part << 32 | local``) == the exhaustive pass ==
    each partition's exhaustive ``topk_select`` merged by ``_merge_hits``,
    bit for bit, over all the segments and over subsets with a pruned
    partition's gap, whichever segment the pass enters through; BMW prunes
    inside the segment that holds the rare term."""
    from elasticsearch_ray.search import engine as engine_mod
    from elasticsearch_ray.search.engine import QueryEngine, _hits_table, _merge_hits
    from elasticsearch_ray.search.query import MatchQuery

    eng = QueryEngine(seg_index, dtype=dtype)
    assert eng.parts == [0, 1, 2]
    assert [s.r.n_docs for s in map(eng._searcher, eng.parts)] == list(_SEG_SIZES)
    runs = {}

    def counted(cursors, norms, k, n_docs, *a, **kw):
        stats = {}
        out = bmw_topk(cursors, norms, k, n_docs, *a, **kw, stats=stats)
        runs[n_docs] = stats
        return out

    monkeypatch.setattr(engine_mod, "bmw_topk", counted)
    q = eng._prepare(MatchQuery(text, **opts))
    scorers = eng._scorers_cached(q)
    for parts in ([0, 1, 2], [0, 2], [1, 2], [2, 0, 1]):
        segs = [eng._searcher(p) for p in parts]
        merged = _merge_hits(_hits_table(
            [(s.part, topk_select(*s._eval_scoring(q, scorers, None, "exhaustive"), 10))
             for s in segs]), 10)
        want = (merged["part"].to_numpy(), merged["local"].to_numpy(),
                merged["score"].to_numpy())
        assert len(want[0]) == 10 or sorted(parts) != [0, 1, 2]
        runs.clear()
        bmw = segs[0].topk(q, scorers, 10, "bmw", segs[1:])
        exh = segs[0].topk(q, scorers, 10, "exhaustive", segs[1:])
        for got in (bmw, exh):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert got[2].dtype == np.dtype(dtype)
            assert np.array_equal(np.asarray(got[2], np.float64), want[2])
        assert all(r["windows_total"] == 2 for r in runs.values()), runs
        if "hot" in text and 1 in parts:
            assert runs[_SEG_SIZES[1]]["windows_scored"] == 1, runs
