"""End-to-end: synthetic corpus → distributed build → query, cross-checked
against an independent brute-force BM25 oracle (float64), plus BMW ==
exhaustive, determinism, resume, phrase, and filter tests."""

import glob
import hashlib
import math
import os
import shutil
from collections import Counter

import numpy as np
import pyarrow.parquet as pq
import pytest

from elasticsearch_ray.analysis.analyzers import get_analyzer
from elasticsearch_ray.index.norms import byte4_to_int, int_to_byte4
from elasticsearch_ray.index.spec import IndexSpec
from elasticsearch_ray.search.query import (
    BoolQuery,
    MatchPhraseQuery,
    MatchQuery,
    RangeFilter,
    TermFilter,
    TermQuery,
)

SF_DIR = "/root/testdata/sf0.001"
K1, B = 1.2, 0.75


@pytest.fixture(scope="module")
def built_index(ray_session, tmp_path_factory):
    from elasticsearch_ray.index import build
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.sources.webpages import corpus_for_sf, plan_shards

    corpus = corpus_for_sf(SF_DIR, multiplier=1, num_files=3)
    idx = str(tmp_path_factory.mktemp("idx") / "index")
    # files_per_partition=1 → partition == input file, which is what the
    # brute-force oracle's (part, local) mapping assumes
    meta = build_index(corpus, idx, IndexSpec(files_per_partition=1), concurrency=2)
    assert build.LAST_BUILD_STATS["executor"] == "ray_data"  # three tokenize blocks
    return corpus, idx, meta


@pytest.fixture(scope="module")
def oracle(built_index):
    """Brute-force in-memory index over the same corpus (from the text column,
    which the generator guarantees equals strip_html(html))."""
    corpus, idx, meta = built_index
    an = get_analyzer("standard")
    docs = []  # (part, local, url, counter, dl)
    from elasticsearch_ray.sources.webpages import plan_shards

    for shard in plan_shards(corpus):
        t = pq.read_table(shard["path"], columns=["url", "text", "lang", "warc_ts"])
        for i, (url, text) in enumerate(zip(t["url"].to_pylist(), t["text"].to_pylist())):
            terms, pos = an(text)
            docs.append(
                {
                    "part": shard["part"],
                    "local": i,
                    "url": url,
                    "tf": Counter(terms),
                    "terms": terms,
                    "dl": len(terms),
                }
            )
    N = len(docs)
    avgdl = sum(d["dl"] for d in docs) / N
    df = Counter()
    for d in docs:
        df.update(d["tf"].keys())
    return {"docs": docs, "N": N, "avgdl": avgdl, "df": df}


def brute_scores(oracle, terms):
    """float64 BM25 (LegacyBM25: (k1+1) factor), lossy SmallFloat dl."""
    N, avgdl, df = oracle["N"], oracle["avgdl"], oracle["df"]
    out = []
    for d in oracle["docs"]:
        dl = float(byte4_to_int(int_to_byte4(np.array([d["dl"]])))[0])
        s = 0.0
        matched = 0
        for t in terms:
            tf = d["tf"].get(t, 0)
            if tf == 0:
                continue
            matched += 1
            idf = math.log(1 + (N - df[t] + 0.5) / (df[t] + 0.5))
            s += idf * (K1 + 1) * tf / (tf + K1 * (1 - B + B * dl / avgdl))
        if matched:
            out.append((s, d["part"], d["local"], d["url"]))
    out.sort(key=lambda x: (-x[0], x[1], x[2]))
    return out


def test_match_vs_bruteforce_float64(built_index, oracle):
    from elasticsearch_ray.search.engine import QueryEngine

    corpus, idx, meta = built_index
    eng = QueryEngine(idx, dtype="float64")
    for qtext in ["spark join merge", "window", "the fast key", "nonexistentterm"]:
        terms = get_analyzer("standard")(qtext)[0]
        want = brute_scores(oracle, terms)[:10]
        got = eng.search(MatchQuery(qtext), k=10, mode="exhaustive")
        assert len(got) == len(want)
        for row, (ws, wp, wl, wu) in zip(got.to_pylist(), want):
            assert row["part"] == wp and row["local"] == wl and row["url"] == wu
            assert abs(row["score"] - ws) < 1e-9 * max(ws, 1)


def test_and_operator(built_index, oracle):
    from elasticsearch_ray.search.engine import QueryEngine

    corpus, idx, meta = built_index
    eng = QueryEngine(idx, dtype="float64")
    terms = ["spark", "window"]
    want = [x for x in brute_scores(oracle, terms)]
    # AND: docs containing both
    want = [
        x
        for x in want
        if all(oracle["docs"][_doc_index(oracle, x[1], x[2])]["tf"].get(t, 0) > 0 for t in terms)
    ][:10]
    got = eng.search(MatchQuery("spark window", operator="and"), k=10, mode="exhaustive")
    assert [(r["part"], r["local"]) for r in got.to_pylist()] == [(p, l) for _, p, l, _ in want]


def _doc_index(oracle, part, local):
    for i, d in enumerate(oracle["docs"]):
        if d["part"] == part and d["local"] == local:
            return i
    raise KeyError


def test_bmw_equals_exhaustive(built_index):
    from elasticsearch_ray.search.engine import QueryEngine

    corpus, idx, meta = built_index
    for dtype in ("float32", "float64"):
        eng = QueryEngine(idx, dtype=dtype)
        for qtext in ["spark join merge", "the", "window filter group batch", "zzz spark"]:
            for k in (3, 10, 50):
                a = eng.search(MatchQuery(qtext), k=k, mode="bmw").to_pylist()
                b = eng.search(MatchQuery(qtext), k=k, mode="exhaustive").to_pylist()
                assert [(r["part"], r["local"], r["score"]) for r in a] == [
                    (r["part"], r["local"], r["score"]) for r in b
                ], (dtype, qtext, k)


def test_term_query_and_float32_close(built_index, oracle):
    from elasticsearch_ray.search.engine import QueryEngine

    corpus, idx, meta = built_index
    eng = QueryEngine(idx, dtype="float32")
    got = eng.search(TermQuery("spark"), k=5)
    want = brute_scores(oracle, ["spark"])[:5]
    for row, (ws, wp, wl, _) in zip(got.to_pylist(), want):
        assert (row["part"], row["local"]) == (wp, wl)
        assert abs(row["score"] - ws) < 1e-5 * ws


def test_phrase_query(built_index, oracle):
    from elasticsearch_ray.search.engine import QueryEngine

    corpus, idx, meta = built_index
    eng = QueryEngine(idx, dtype="float64")
    # find a phrase that exists: take two consecutive terms from some doc
    d0 = oracle["docs"][0]
    phrase = " ".join(d0["terms"][5:7])
    got = eng.search(MatchPhraseQuery(phrase), k=500, mode="exhaustive")
    # oracle: docs where the two terms appear consecutively
    t1, t2 = phrase.split()
    want = set()
    for d in oracle["docs"]:
        for a, b in zip(d["terms"], d["terms"][1:]):
            if a == t1 and b == t2:
                want.add((d["part"], d["local"]))
                break
    assert {(r["part"], r["local"]) for r in got.to_pylist()} == want
    assert (d0["part"], d0["local"]) in want


def test_bool_and_filters(built_index, oracle):
    from elasticsearch_ray.search.engine import QueryEngine

    corpus, idx, meta = built_index
    eng = QueryEngine(idx, dtype="float64")
    q = BoolQuery(
        must=(MatchQuery("spark join"),),
        filter=(TermFilter("lang", "en"),),
        must_not=(TermFilter("lang", "de"),),
    )
    got = eng.search(q, k=1000, mode="exhaustive", fetch=("url", "doc_id"))
    # every hit must be lang=en and match at least one of spark/join... must
    # semantics: ALL must clauses match (match defaults OR → at least one term)
    langs = {}
    from elasticsearch_ray.sources.webpages import plan_shards

    for shard in plan_shards(corpus):
        t = pq.read_table(shard["path"], columns=["lang"])
        for i, lg in enumerate(t["lang"].to_pylist()):
            langs[(shard["part"], i)] = lg
    assert len(got) > 0
    for r in got.to_pylist():
        assert langs[(r["part"], r["local"])] == "en"
        d = oracle["docs"][_doc_index(oracle, r["part"], r["local"])]
        assert d["tf"].get("spark", 0) + d["tf"].get("join", 0) > 0


def test_range_filter_on_warc_ts(built_index):
    from elasticsearch_ray.search.engine import QueryEngine

    corpus, idx, meta = built_index
    eng = QueryEngine(idx, dtype="float64")
    cut = np.datetime64("2024-07-01T00:00:00", "us")
    q = BoolQuery(must=(MatchQuery("spark"),), filter=(RangeFilter("warc_ts", gte=cut),))
    got = eng.search(q, k=1000, mode="exhaustive")
    all_hits = eng.search(MatchQuery("spark"), k=1000, mode="exhaustive")
    assert 0 < len(got) < len(all_hits)


def test_multi_file_partitions_same_results(built_index, ray_session, tmp_path_factory):
    """files_per_partition>1 (exercising the multi-chunk merge/re-encode path)
    must return the same docs+scores as single-file partitions."""
    from elasticsearch_ray.index import build
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.search.engine import QueryEngine

    corpus, idx, meta = built_index
    idx2 = str(tmp_path_factory.mktemp("idxfp") / "index")
    meta2 = build_index(corpus, idx2, IndexSpec(files_per_partition=2), concurrency=2)
    assert meta2["num_parts"] == 2  # 3 files → ceil(3/2)
    assert build.LAST_BUILD_STATS["executor"] == "ray_data"
    e1 = QueryEngine(idx, dtype="float64")
    e2 = QueryEngine(idx2, dtype="float64")
    for qtext in ["spark join merge", "the", "window filter group"]:
        a = e1.search(MatchQuery(qtext), k=20, fetch=("url", "doc_id")).to_pylist()
        b = e2.search(MatchQuery(qtext), k=20, fetch=("url", "doc_id")).to_pylist()
        assert [(r["doc_id"], r["score"], r["url"]) for r in a] == [
            (r["doc_id"], r["score"], r["url"]) for r in b
        ]
    # multi-chunk terms actually occurred (the combine path was exercised)
    import json

    with open(os.path.join(idx2, "parts", "part=00000", "manifest.json")) as f:
        assert json.load(f)["multi_chunk_terms"] > 0


def test_deterministic_segments(built_index, ray_session, tmp_path_factory):
    from elasticsearch_ray.index.build import build_index

    corpus, idx, meta = built_index
    idx2 = str(tmp_path_factory.mktemp("idx2") / "index")
    build_index(corpus, idx2, IndexSpec(files_per_partition=1), concurrency=2)
    for p in sorted(glob.glob(os.path.join(idx, "parts", "*"))):
        p2 = os.path.join(idx2, "parts", os.path.basename(p))
        for fname in ("postings.bin", "terms.parquet", "docs.parquet"):
            h1 = hashlib.md5(open(os.path.join(p, fname), "rb").read()).hexdigest()
            h2 = hashlib.md5(open(os.path.join(p2, fname), "rb").read()).hexdigest()
            assert h1 == h2, (p, fname)


def test_resume_skips_complete_parts(built_index, ray_session):
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.index.segments import part_dir
    from elasticsearch_ray.index.state import manifest_path

    corpus, idx, meta = built_index
    # invalidate part 1 only; hash ALL parts first so the rebuild can be
    # verified byte-identical (mtime alone can't prove content)
    before = {}
    for part in (0, 1, 2):
        f = os.path.join(part_dir(idx, part), "postings.bin")
        before[part] = (os.path.getmtime(f), hashlib.md5(open(f, "rb").read()).hexdigest())
    os.remove(manifest_path(idx, 1))
    meta2 = build_index(corpus, idx, IndexSpec(files_per_partition=1), concurrency=2)
    assert meta2["n_docs"] == meta["n_docs"]
    for part in (0, 2):
        f = os.path.join(part_dir(idx, part), "postings.bin")
        assert os.path.getmtime(f) == before[part][0], "untouched part was rebuilt"
    # every part's postings byte-identical after resume (part 1 rebuilt)
    for part in (0, 1, 2):
        f = os.path.join(part_dir(idx, part), "postings.bin")
        assert hashlib.md5(open(f, "rb").read()).hexdigest() == before[part][1], part
    from elasticsearch_ray.search.engine import QueryEngine

    eng = QueryEngine(idx, dtype="float64")
    assert len(eng.search(MatchQuery("spark"), k=5)) == 5


def test_salted_build_same_results(built_index, ray_session, tmp_path_factory):
    """Force head-term salting (tiny salt_docs → every head term splits into
    many doc-range sub-chunks through the shuffle) and verify segment content
    is byte-identical to the unsalted build — the canonical re-encode makes
    chunking invisible."""
    import json

    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.search.engine import QueryEngine

    corpus, idx, meta = built_index
    idx2 = str(tmp_path_factory.mktemp("salted") / "index")
    spec = IndexSpec(files_per_partition=1, salt_docs=16, head_df_ratio=0.01)
    build_index(corpus, idx2, spec, concurrency=2)
    # the salted path actually ran: multi-chunk terms occurred in every part
    multi = 0
    for p in range(meta["num_parts"]):
        with open(os.path.join(idx2, "parts", f"part={p:05d}", "manifest.json")) as f:
            multi += json.load(f)["multi_chunk_terms"]
    assert multi > 0, "salting did not produce multi-chunk terms"
    # byte-identical segments vs the unsalted build
    for p in range(meta["num_parts"]):
        for fname in ("postings.bin", "terms.parquet"):
            a = open(os.path.join(idx, "parts", f"part={p:05d}", fname), "rb").read()
            b = open(os.path.join(idx2, "parts", f"part={p:05d}", fname), "rb").read()
            assert a == b, (p, fname)
    # and identical search results incl. positions (phrase)
    e1 = QueryEngine(idx, dtype="float64")
    e2 = QueryEngine(idx2, dtype="float64")
    for q in (MatchQuery("spark join merge"), MatchPhraseQuery("batch batch")):
        r1 = e1.search(q, k=20, mode="exhaustive", fetch=("url",)).to_pylist()
        r2 = e2.search(q, k=20, mode="exhaustive", fetch=("url",)).to_pylist()
        assert [(r["url"], r["score"]) for r in r1] == [(r["url"], r["score"]) for r in r2]


def test_can_match_bloom_pruning(ray_session, tmp_path):
    """CanMatchPreFilterSearchPhase analog: partitions whose term bloom
    excludes every query term are never opened."""
    import pandas as pd
    import pyarrow as pa

    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.search.engine import QueryEngine

    src = tmp_path / "src"
    src.mkdir()
    # two files with DISJOINT vocabularies → two partitions
    pq.write_table(pa.Table.from_pandas(pd.DataFrame(
        {"id": range(50), "text": ["alpha beta gamma"] * 50}), preserve_index=False),
        src / "a.parquet")
    pq.write_table(pa.Table.from_pandas(pd.DataFrame(
        {"id": range(50, 100), "text": ["delta epsilon zeta"] * 50}), preserve_index=False),
        src / "b.parquet")
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, IndexSpec(use_html=False, text_column="text",
                                          doc_columns=("id",), files_per_partition=1),
                concurrency=2)
    eng = QueryEngine(idx, dtype="float64")
    assert eng.can_match_parts(["alpha"]) == [0]
    assert eng.can_match_parts(["zeta"]) == [1]
    assert set(eng.can_match_parts(["alpha", "zeta"])) == {0, 1}
    assert eng.can_match_parts(["nosuchterm"]) == []
    hits = eng.search(MatchQuery("alpha"), k=100, fetch=("id",))
    assert hits.num_rows == 50
    # partition 1 was never opened for this query (stats + topk both pruned)
    assert 1 not in eng._searchers
    # and a cross-partition query still sees both
    both = eng.search(MatchQuery("alpha zeta"), k=200, fetch=("id",))
    assert both.num_rows == 100


def _build_in_process(corpus, idx, spec, rows_per_run=40):
    """The build's tokenize → sort → route → merge stages called in this
    process rather than as Ray tasks, so a patched merge-kernel constant
    reaches the merge. Routing small slices of the sorted chunk rows gives
    each partition many run files."""
    import pyarrow as pa

    from elasticsearch_ray.index import build

    shards = build.plan_partitions(corpus, "*.parquet", spec.files_per_partition)
    sd = spec.to_dict()
    tok = build.TokenizeShard(idx, sd, build.sketch_head_terms(shards, spec))
    chunks = tok(pa.Table.from_pylist(shards)).sort_by(
        [(c, "ascending") for c in ("part", "term", "salt", "first_doc")])
    route = build.RouteChunks(idx, sd)
    runs = pa.concat_tables([route(chunks.slice(i, rows_per_run))
                             for i in range(0, len(chunks), rows_per_run)]).to_pylist()
    for part in sorted({s["part"] for s in shards}):
        build._merge_fn(idx, sd, part, [r["run_path"] for r in runs if r["part"] == part],
                        [s for s in shards if s["part"] == part])


def test_streaming_merge_identical_output(built_index, ray_session, tmp_path_factory,
                                          monkeypatch):
    """The merge kernel reads every run file MERGE_BATCH_ROWS rows at a time.
    With 3-row batches, many run files, and salted head terms whose chunks
    straddle batch boundaries inside one run, postings.bin, terms.parquet
    and positions.bin must be BYTE-identical to the normal build, docs
    identical, and searches equal."""
    import json

    from elasticsearch_ray.index import merge as merge_mod
    from elasticsearch_ray.search.engine import QueryEngine

    corpus, idx, meta = built_index
    idx2 = str(tmp_path_factory.mktemp("spill") / "index")
    monkeypatch.setattr(merge_mod, "MERGE_BATCH_ROWS", 3)
    _build_in_process(corpus, idx2,
                      IndexSpec(files_per_partition=1, salt_docs=16, head_df_ratio=0.01))
    # same corpus and partitioning → the same global stats
    shutil.copy(os.path.join(idx, "index_meta.json"), idx2)
    multi = 0
    for p in range(meta["num_parts"]):
        pd_a = os.path.join(idx, "parts", f"part={p:05d}")
        pd_b = os.path.join(idx2, "parts", f"part={p:05d}")
        with open(os.path.join(pd_b, "manifest.json")) as f:
            m = json.load(f)
        assert m["runs_merged"] > 1, p
        multi += m["multi_chunk_terms"]
        for fname in ("postings.bin", "terms.parquet", "positions.bin"):
            a = open(os.path.join(pd_a, fname), "rb").read()
            b = open(os.path.join(pd_b, fname), "rb").read()
            assert a == b, (p, fname)
        for fname in ("docs.parquet",):
            ta = pq.read_table(os.path.join(pd_a, fname))
            tb = pq.read_table(os.path.join(pd_b, fname))
            assert ta.equals(tb), (p, fname)
    assert multi > 0, "salting did not produce multi-chunk terms"
    e1 = QueryEngine(idx, dtype="float64")
    e2 = QueryEngine(idx2, dtype="float64")
    for q in (MatchQuery("spark join merge"), MatchPhraseQuery("batch batch")):
        a = e1.search(q, k=20, mode="exhaustive", fetch=("url",)).to_pylist()
        b = e2.search(q, k=20, mode="exhaustive", fetch=("url",)).to_pylist()
        assert [(r["url"], r["score"]) for r in a] == [(r["url"], r["score"]) for r in b]


def test_retired_spec_key_loads_with_same_fingerprint():
    """A spec saved before merge_spill_bytes was retired still loads (the
    data-stream write path rebuilds from the saved spec), and retiring the
    key changed no spec fingerprint, so no saved partition rebuilds."""
    from elasticsearch_ray.index.build import spec_fingerprint

    old = {**IndexSpec().to_dict(), "merge_spill_bytes": 1 << 30}
    assert IndexSpec.from_dict(old) == IndexSpec()
    assert spec_fingerprint(IndexSpec()) == "17d81233e21e6078"
    assert spec_fingerprint(IndexSpec(store_positions=False,
                                      files_per_partition=3)) == "6aa6e93f6854dda2"
