"""Async search API (x-pack async-search): submit/get/status/delete,
partial-prefix correctness, expiry, cancellation, error surfacing."""

import threading
import time

import pytest

from elasticsearch_ray.search.async_search import (AsyncSearchError,
                                                   AsyncSearchService)
from elasticsearch_ray.search.query import MatchQuery

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def async_engine(ray_session, tmp_path_factory):
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.index.spec import IndexSpec
    from elasticsearch_ray.search.engine import QueryEngine

    import pyarrow.parquet as pq

    # split the docs into 4 files -> 4 build partitions ("shards")
    corpus = tmp_path_factory.mktemp("ascorpus")
    t = pq.read_table(f"{SF_DIR}/documents.parquet")
    n = len(t) // 4
    for i in range(4):
        part = t.slice(i * n, n if i < 3 else len(t) - 3 * n)
        pq.write_table(part, str(corpus / f"docs{i}.parquet"))
    idx = str(tmp_path_factory.mktemp("asidx") / "index")
    spec = IndexSpec(use_html=False, text_column="text",
                     doc_columns=("lang",), files_per_partition=1)
    build_index(str(corpus), idx, spec, concurrency=2,
                file_pattern="docs*.parquet")
    return QueryEngine(idx, dtype="float64")


def test_fast_search_completes_within_wait(async_engine):
    svc = AsyncSearchService(async_engine)
    resp = svc.submit(MatchQuery("spark"), k=10,
                      wait_for_completion_timeout=30.0)
    assert resp["is_running"] is False and resp["is_partial"] is False
    r = resp["response"]
    assert r["successful_shards"] == r["total_shards"]
    # final hits identical to the synchronous search
    sync = async_engine.search(MatchQuery("spark"), k=10,
                               fetch=("doc_id",))
    assert r["hits"].to_pylist() == sync.to_pylist()


def test_partial_prefix_then_completion(async_engine):
    svc = AsyncSearchService(async_engine)
    gate = threading.Event()      # runner -> test: "2 partitions done"
    release = threading.Event()   # test -> runner: "carry on"
    seen = []

    def between(p):
        seen.append(p)
        if len(seen) == 2:
            gate.set()
            release.wait(30.0)   # HOLD the runner until the partial get

    resp = svc.submit(MatchQuery("spark"), k=10,
                      wait_for_completion_timeout=0.0,
                      _between_parts=between)
    sid = resp["id"]
    assert gate.wait(30.0)
    part = svc.get(sid)
    release.set()
    done_shards = part["response"]["successful_shards"]
    assert done_shards == 2  # runner was gated after exactly 2
    # a partial response is the exact top-k over its completed partitions
    hits = part["response"]["hits"].to_pylist()
    parts_done = {r["part"] for r in hits}
    sync = async_engine.search(MatchQuery("spark"), k=10**9,
                               fetch=("doc_id",)).to_pylist()
    expect = [r for r in sync
              if r["part"] in set(seen[:done_shards])][:len(hits)]
    assert [(h["part"], h["local"]) for h in hits] == \
        [(e["part"], e["local"]) for e in expect]
    assert parts_done <= set(seen)
    # wait for completion via get
    final = svc.get(sid, wait_for_completion_timeout=30.0)
    assert final["is_running"] is False
    assert final["response"]["hits"].to_pylist() == \
        async_engine.search(MatchQuery("spark"), k=10,
                            fetch=("doc_id",)).to_pylist()


def test_get_before_any_partition_completes(async_engine, monkeypatch):
    """Before the first partition completes, a get returns no hits, in the
    table a search that matches nothing returns (rank, score, part, local
    and the fetched columns)."""
    from elasticsearch_ray.search.engine import PartitionSearcher

    entered, release = threading.Event(), threading.Event()
    topk = PartitionSearcher.topk

    def held(self, *args, **kw):
        entered.set()
        release.wait(30.0)
        return topk(self, *args, **kw)

    monkeypatch.setattr(PartitionSearcher, "topk", held)
    svc = AsyncSearchService(async_engine)
    sid = svc.submit(MatchQuery("spark"), k=10, wait_for_completion_timeout=0.0)["id"]
    try:
        assert entered.wait(30.0)
        early = svc.get(sid)
    finally:
        release.set()
    final = svc.get(sid, wait_for_completion_timeout=30.0)
    assert early["is_running"] is True and final["is_running"] is False
    assert early["response"]["successful_shards"] < early["response"]["total_shards"]
    assert early["response"]["hits"].num_rows == 0
    assert final["response"]["hits"].num_rows == 10
    none = async_engine.search(MatchQuery("zzznothing"), k=10, fetch=("doc_id",))
    assert early["response"]["hits"].schema == none.schema
    assert none.column_names == ["rank", "score", "part", "local", "doc_id"]


def test_status_and_delete(async_engine):
    svc = AsyncSearchService(async_engine)
    resp = svc.submit(MatchQuery("spark"), wait_for_completion_timeout=30.0)
    st = svc.status(resp["id"])
    assert st["is_running"] is False
    assert st["successful_shards"] == st["total_shards"]
    svc.delete(resp["id"])
    with pytest.raises(AsyncSearchError):
        svc.get(resp["id"])


def test_expiry(async_engine):
    svc = AsyncSearchService(async_engine)
    resp = svc.submit(MatchQuery("spark"), wait_for_completion_timeout=30.0,
                      keep_alive=0.05)
    time.sleep(0.1)
    with pytest.raises(AsyncSearchError):
        svc.get(resp["id"])
    # keep_alive refresh via get extends the lease
    resp = svc.submit(MatchQuery("spark"), wait_for_completion_timeout=30.0,
                      keep_alive=0.2)
    got = svc.get(resp["id"], keep_alive=60.0)
    time.sleep(0.3)
    assert svc.get(resp["id"])["is_running"] is False
    assert got["id"] == resp["id"]


def test_unknown_id(async_engine):
    svc = AsyncSearchService(async_engine)
    with pytest.raises(AsyncSearchError):
        svc.get("nope")
    with pytest.raises(AsyncSearchError):
        svc.delete("nope")
