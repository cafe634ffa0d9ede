"""Search profiler + _cat APIs: hits identical to plain search, phase
structure, per-shard entries, cat frames."""

import pytest

from elasticsearch_ray.search.profile import (cat_count, cat_indices,
                                              cat_segments,
                                              profile_search)
from elasticsearch_ray.search.query import MatchQuery, TermQuery

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def prof_engine(ray_session, tmp_path_factory):
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.index.spec import IndexSpec
    from elasticsearch_ray.search.engine import QueryEngine

    idx = str(tmp_path_factory.mktemp("profidx") / "index")
    spec = IndexSpec(use_html=False, text_column="text",
                     doc_columns=("lang",))
    build_index(SF_DIR, idx, spec, concurrency=2,
                file_pattern="documents.parquet")
    return QueryEngine(idx, dtype="float64")


def test_profile_hits_match_plain_search(prof_engine):
    out = profile_search(prof_engine, MatchQuery("spark join"), k=10)
    plain = prof_engine.search(MatchQuery("spark join"), k=10,
                               fetch=("doc_id",))
    assert out["hits"].to_pylist() == plain.to_pylist()
    assert out["took_ms"] > 0


def test_profile_structure(prof_engine):
    out = profile_search(prof_engine, TermQuery("spark"), k=5)
    prof = out["profile"]
    assert set(prof["phases"]) == {"rewrite", "create_weight",
                                   "can_match", "merge", "fetch"}
    assert all(v >= 0 for v in prof["phases"].values())
    assert len(prof["shards"]) >= 1
    node = prof["shards"][0]["searches"][0]["query"][0]
    assert node["type"] == "TermQuery"
    assert node["time_in_nanos"] > 0
    assert node["breakdown"]["collected_hits"] >= 0


def test_profiler_has_no_copy_of_the_query_loop():
    """The profiler times the engine's own query phase
    (``QueryEngine._query_phase`` with a lap callback): it picks no
    candidates, builds no scorers and scores no partition itself."""
    import inspect

    from elasticsearch_ray.search import profile

    src = inspect.getsource(profile)
    for name in ("_candidate_parts", "_scorers_cached", "_searcher", ".topk("):
        assert name not in src, name


def test_cat_apis(prof_engine):
    idx = cat_indices({"docs": prof_engine})
    assert idx.iloc[0]["index"] == "docs"
    assert idx.iloc[0]["docs.count"] == prof_engine.n_docs
    assert idx.iloc[0]["store.size_bytes"] > 0
    segs = cat_segments(prof_engine)
    assert len(segs) == len(prof_engine.parts)
    assert (segs["size_bytes"] > 0).all()
    assert int(segs["docs.count"].sum()) == prof_engine.n_docs
    assert cat_count(prof_engine).iloc[0]["count"] == prof_engine.n_docs


def test_field_usage_stats(prof_engine):
    from elasticsearch_ray.search.query import TermFilter

    prof_engine.field_usage.clear()
    prof_engine.search(MatchQuery("spark join"), k=5, fetch=("doc_id",))
    prof_engine.search(TermQuery("spark"), k=5, fetch=("doc_id",),
                       sort=[("lang", "asc")])
    st = prof_engine.field_usage_stats()
    assert st["text"]["inverted_index"] >= 3  # spark+join, spark
    assert st["doc_id"]["stored_fields"] == 2
    assert st["lang"]["doc_values"] == 1
