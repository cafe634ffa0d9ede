"""Every read API prepares its query through ``QueryEngine._prepare`` and
reads partitions through the engine's one gather or one all-hits pass, so
they agree with ``search`` on: the index gate, can_match pruning, per-field
analyzers, runtime fields and a partition rewritten in place."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from elasticsearch_ray.index import admin
from elasticsearch_ray.index.admin import IndexClosedError
from elasticsearch_ray.index.build import build_index
from elasticsearch_ray.index.spec import IndexSpec
from elasticsearch_ray.search.async_search import AsyncSearchService
from elasticsearch_ray.search.engine import QueryEngine
from elasticsearch_ray.search.profile import profile_search
from elasticsearch_ray.search.query import (BoolQuery, MatchAllQuery, MatchPhraseQuery,
                                            MatchQuery, TermFilter, TermQuery)
from test_pit import SF_DIR  # the sf0.001 corpus (TESTDATA.md)


def _docs() -> pa.Table:
    t = pq.read_table(f"{SF_DIR}/documents.parquet")
    cat = np.where(t["doc_id"].to_numpy() % 3 == 0, "Big Data", "Small Things")
    return t.append_column("cat", pa.array(cat))


def _build(base, n_files: int, files_per_partition: int = 1) -> str:
    """sf0.001's docs in ``n_files`` files; ``cat`` is an extra field
    indexed (and queried) through the keyword analyzer."""
    src = base / "src"
    src.mkdir()
    t = _docs()
    n = len(t) // n_files
    for i in range(n_files):
        pq.write_table(t.slice(i * n, n if i < n_files - 1 else len(t) - i * n),
                       str(src / f"docs{i}.parquet"))
    idx = str(base / "index")
    build_index(str(src), idx, IndexSpec(
        use_html=False, text_column="text", doc_columns=("lang", "cat"),
        fields={"cat": "cat"}, field_analyzers={"cat": "keyword"},
        files_per_partition=files_per_partition), concurrency=2)
    return idx


@pytest.fixture(scope="module")
def four_parts(ray_session, tmp_path_factory):
    return _build(tmp_path_factory.mktemp("frontdoor"), 4)


def test_profile_and_async_search_refuse_a_closed_index(ray_session, tmp_path):
    eng = QueryEngine(_build(tmp_path, 2))
    assert len(profile_search(eng, "spark")["hits"])
    assert len(AsyncSearchService(eng).submit("spark")["response"]["hits"])
    admin.close_index(eng.index_dir)
    try:
        with pytest.raises(IndexClosedError):
            eng.search("spark")
        with pytest.raises(IndexClosedError):
            profile_search(eng, "spark")
        with pytest.raises(IndexClosedError):
            AsyncSearchService(eng).submit("spark")
    finally:
        admin.open_index(eng.index_dir)


def test_every_read_api_refuses_a_closed_index(four_parts):
    """scan (before its first batch), scan_dataset, explain, mget and
    inner_hits pass the same gate as search."""
    eng = QueryEngine(four_parts)
    q = MatchQuery("spark")
    reads = {
        "scan": lambda: next(eng.scan(q)),
        "scan_dataset": lambda: eng.scan_dataset(q).count(),
        "explain": lambda: eng.explain(q, 0),
        "mget": lambda: eng.mget([0]),
        "inner_hits": lambda: eng.inner_hits(q, "lang", ["en"]),
    }
    for read in reads.values():
        read()
    admin.close_index(four_parts)
    try:
        for name, read in reads.items():
            with pytest.raises(IndexClosedError):
                read()
    finally:
        admin.open_index(four_parts)


def test_search_shards_prunes_like_search(four_parts):
    eng = QueryEngine(four_parts)
    q = BoolQuery(must=(MatchAllQuery(),), should=(TermQuery("zzzqqxunseen"),))
    hits = eng.search(q, k=10**6, fetch=())
    assert set(hits["part"].to_pylist()) == set(eng.parts) and len(eng.parts) == 4
    shards = eng.search_shards(q)
    assert shards["skipped"] == 0
    assert all(s["can_match"] for s in shards["shards"])
    # a term query still prunes: the unseen term is in no partition
    assert eng.search_shards(TermQuery("zzzqqxunseen"))["skipped"] == 4


def test_read_apis_agree_on_a_field_with_its_own_analyzer(four_parts):
    """``cat`` is indexed through the keyword analyzer, so "Big Data" is one
    term; the default analyzer would look for "big" and "data"."""
    eng = QueryEngine(four_parts, dtype="float64")
    q = MatchQuery("Big Data", field="cat")
    want = sorted(d for d in _docs()["doc_id"].to_pylist() if d % 3 == 0)
    hits = eng.search(q, k=10**6, fetch=("doc_id",))
    assert sorted(hits["doc_id"].to_pylist()) == want
    assert eng.count(q) == len(want)
    scanned = pa.concat_tables(eng.scan(q, batch_size=50))
    assert sorted(scanned["doc_id"].to_pylist()) == want
    ds = eng.scan_dataset(q).to_pandas()
    assert sorted(ds["doc_id"]) == want
    shards = eng.search_shards(q)
    assert {s["shard"] for s in shards["shards"] if s["can_match"]} == \
        set(hits["part"].to_pylist())
    top = hits.slice(0, 1).to_pylist()[0]
    ex = eng.explain(q, top["doc_id"])
    assert ex["match"] and ex["value"] == top["score"]


def test_fetch_subphases_share_one_gather(four_parts):
    """mget, highlight_hits, matched_queries and script_fields place their
    per-partition reads back in hit order, hits spread over partitions."""
    eng = QueryEngine(four_parts)
    hits = eng.search("spark data", k=40, fetch=("doc_id", "cat"))
    assert len(set(hits["part"].to_pylist())) > 1
    ids = hits["doc_id"].to_pylist()
    got = eng.mget([ids[3], -1, *ids], columns=("doc_id", "cat"))
    assert got["doc_id"].to_pylist() == [ids[3], -1, *ids]
    assert got["found"].to_pylist() == [True, False] + [True] * len(ids)
    assert got["cat"].to_pylist()[2:] == hits["cat"].to_pylist()
    src = pq.read_table(f"{SF_DIR}/documents.parquet")
    text = dict(zip(src["doc_id"].to_pylist(), src["text"].to_pylist()))
    hl = eng.highlight_hits("spark", hits)
    assert [h.replace("<em>", "").replace("</em>", "") for h in hl] == [text[d] for d in ids]
    named = {"big": MatchQuery("Big Data", field="cat"), "en": TermFilter("lang", "en")}
    langs = dict(zip(src["doc_id"].to_pylist(), src["lang"].to_pylist()))
    assert eng.matched_queries(named, hits) == [
        [n for n, ok in (("big", d % 3 == 0), ("en", langs[d] == "en")) if ok] for d in ids]
    sf = eng.script_fields(hits, {"n": lambda t: pa.array([len(x) for x in t["text"].to_pylist()])},
                           source_columns=("text",))
    assert sf["n"].to_pylist() == [len(text[d]) for d in ids]
    assert eng.mget([]).num_rows == 0 and eng.highlight_hits("spark", hits.slice(0, 0)) == []


def test_repeated_rescore_and_post_filter_build_no_scorer(four_parts, monkeypatch):
    eng = QueryEngine(four_parts)
    built = []
    orig = eng._scorers
    monkeypatch.setattr(eng, "_scorers", lambda q, *a: built.append(q) or orig(q, *a))
    for opts in ({"rescore": (MatchPhraseQuery("apache spark"), 20, 1.0, 2.0)},
                 {"post_filter": MatchQuery("data")}):
        first = eng.search("spark", k=5, **opts)
        n = len(built)
        assert eng.search("spark", k=5, **opts).to_pylist() == first.to_pylist()
        assert len(built) == n, opts


def test_scan_dataset_sees_a_partition_rewritten_in_place(ray_session, tmp_path):
    """With two files per partition, appending the second file rewrites
    partition 0 in place; a fresh engine's all-hits pass must read the new
    segment, also in worker processes that opened the old one."""
    src = tmp_path / "src"
    src.mkdir()
    t = _docs()
    pq.write_table(t, str(src / "docs0.parquet"))
    idx = str(tmp_path / "index")
    spec = IndexSpec(use_html=False, text_column="text", doc_columns=("lang",),
                     files_per_partition=2)
    build_index(str(src), idx, spec, concurrency=2)
    before = QueryEngine(idx).scan_dataset("spark").count()
    assert before > 0
    pq.write_table(t, str(src / "docs1.parquet"))
    build_index(str(src), idx, spec, concurrency=2)
    eng = QueryEngine(idx)
    assert eng.parts == [0]
    assert eng.count("spark") == 2 * before
    assert sum(len(b) for b in eng.scan("spark")) == 2 * before
    assert eng.scan_dataset("spark").count() == 2 * before


def test_significant_text_samples_the_top_scoring_hits(four_parts):
    """``sample_per_partition`` keeps each partition's best hits by score
    (ties by doc), read from the all-hits pass."""
    from elasticsearch_ray.analysis.analyzers import get_analyzer

    eng = QueryEngine(four_parts)
    hits = eng.search("spark data", k=10**6, fetch=("doc_id",)).to_pandas()
    top = hits.sort_values(["part", "score", "local"], ascending=[True, False, True])
    top = top.groupby("part").head(2)["doc_id"].tolist()
    src = pq.read_table(f"{SF_DIR}/documents.parquet").to_pandas().set_index("doc_id")
    an = get_analyzer(eng.analyzer_name)
    want = {}
    for d in top:
        for t in set(an(src.loc[d, "text"])[0]):
            want[t] = want.get(t, 0) + 1
    got = eng.significant_text("spark data", size=10**6, sample_per_partition=2)
    assert len(got) and dict(zip(got["term"], got["fg_count"])) == \
        {t: n for t, n in want.items() if t in set(got["term"])}
