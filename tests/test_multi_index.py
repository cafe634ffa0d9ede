"""Cross-index DFS search: two indexes built over complementary halves of a
corpus must return RANK- and SCORE-identical top-k to one index over the
whole corpus (the dfs_query_then_fetch guarantee the reference makes —
TransportSearchAction fan-out + combined term statistics)."""

import os
import shutil

import numpy as np
import pytest

from elasticsearch_ray.index.build import build_index
from elasticsearch_ray.index.spec import IndexSpec
from elasticsearch_ray.search.engine import QueryEngine
from elasticsearch_ray.search.multi import MultiIndexEngine
from elasticsearch_ray.search.query import (BoolQuery, MatchPhraseQuery,
                                            MatchQuery, TermFilter, TermQuery)
from elasticsearch_ray.sources.webpages import corpus_for_sf, corpus_files

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def split_indexes(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("multi")
    corpus = corpus_for_sf(SF_DIR, multiplier=1, num_files=4)
    files = corpus_files(corpus)
    halves = [files[:2], files[2:]]
    dirs = []
    for i, fs in enumerate(halves):
        cdir = root / f"corpus{i}"
        cdir.mkdir()
        for f in fs:
            os.symlink(f, cdir / os.path.basename(f))
        idx = str(root / f"idx{i}")
        build_index(str(cdir), idx, IndexSpec(use_html=True, files_per_partition=1))
        dirs.append(idx)
    full_idx = str(root / "idx_full")
    build_index(corpus, full_idx, IndexSpec(use_html=True, files_per_partition=1))
    multi = MultiIndexEngine(dirs, dtype="float64")
    full = QueryEngine(full_idx, dtype="float64")
    yield multi, full
    multi.close()
    full.close()
    shutil.rmtree(root, ignore_errors=True)


QUERIES = [
    MatchQuery("spark join merge"),
    MatchQuery("spark window", operator="and"),
    TermQuery("batch"),
    MatchPhraseQuery("batch batch"),
    BoolQuery(must=(MatchQuery("merge sort"),),
              filter=(TermFilter("lang", "en"),)),
]


@pytest.mark.parametrize("q", QUERIES, ids=[type(q).__name__ + str(i)
                                            for i, q in enumerate(QUERIES)])
def test_multi_matches_merged(split_indexes, q):
    multi, full = split_indexes
    a = multi.search(q, k=10, fetch=("url",))
    b = full.search(q, k=10, fetch=("url",))
    assert a["url"].to_pylist() == b["url"].to_pylist()
    assert np.allclose(a["score"].to_numpy(), b["score"].to_numpy(),
                       rtol=0, atol=1e-9)


@pytest.mark.parametrize("sim", ["LMDirichlet", "LMJelinekMercer", "DFI"])
def test_multi_lm_family_matches_merged(split_indexes, sim):
    """LM-family similarities score P(w|C) from ttf: sub-engines must be
    primed with COMBINED ttf, not local ttf against the combined
    total_tokens (round-3 advice, medium). Score identity vs the merged
    index is the oracle."""
    multi0, full0 = split_indexes
    subs = [QueryEngine(e.index_dir, dtype="float64") for e in multi0.engines]
    for e in subs:
        e.similarity = sim
    multi = MultiIndexEngine.from_engines(subs)
    full = QueryEngine(full0.index_dir, dtype="float64")
    full.similarity = sim
    try:
        for q in (MatchQuery("spark join merge"), TermQuery("batch")):
            a = multi.search(q, k=10, fetch=("url",))
            b = full.search(q, k=10, fetch=("url",))
            assert a["url"].to_pylist() == b["url"].to_pylist()
            assert np.allclose(a["score"].to_numpy(), b["score"].to_numpy(),
                               rtol=0, atol=1e-9)
    finally:
        multi.close()
        full.close()


def test_multi_bmw_equals_exhaustive(split_indexes):
    multi, _ = split_indexes
    q = MatchQuery("spark join merge")
    a = multi.search(q, k=10, mode="bmw", fetch=("url",))
    b = multi.search(q, k=10, mode="exhaustive", fetch=("url",))
    assert a["url"].to_pylist() == b["url"].to_pylist()


def test_count_and_msearch(split_indexes):
    multi, full = split_indexes
    q = MatchQuery("spark join")
    # count == exhaustive hit count, and multi == merged
    exhaustive = full.search(q, k=10**9, mode="exhaustive", fetch=())
    assert full.count(q) == exhaustive.num_rows
    assert multi.count(q) == full.count(q)
    # msearch returns the same tables as individual searches, in order
    qs = [MatchQuery("spark join"), TermQuery("batch"), MatchQuery("merge")]
    bulk = full.msearch(qs, k=5, fetch=("url",))
    for got, q2 in zip(bulk, qs):
        want = full.search(q2, k=5, fetch=("url",))
        assert got["url"].to_pylist() == want["url"].to_pylist()


def test_member_mget_bounds_ids_by_its_own_partitions(split_indexes):
    """A member's ``n_docs`` is the combined count; an id past its own
    partitions is a found=false row, not a ``_locate`` error."""
    multi, _ = split_indexes
    member = multi.engines[0]
    own = sum(p["n_docs"] for p in member.meta["parts"])
    assert member.n_docs > own
    got = member.mget([own - 1, own + 1], columns=("doc_id",))
    assert got["doc_id"].to_pylist() == [own - 1, own + 1]
    assert got["found"].to_pylist() == [True, False]
