"""Mapping-level runtime fields (index/mapper/AbstractScriptFieldType):
expression-computed columns usable in range/term filters, sorts and the
count path — computed on demand per partition, cached like doc values."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from elasticsearch_ray.search.engine import QueryEngine
from elasticsearch_ray.search.query import (
    BoolQuery,
    MatchAllQuery,
    MatchQuery,
    RangeFilter,
)

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def rt_engine(ray_session, tmp_path_factory):
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.index.spec import IndexSpec

    idx = str(tmp_path_factory.mktemp("rtidx") / "index")
    build_index(SF_DIR, idx,
                IndexSpec(use_html=False, text_column="text",
                          doc_columns=("lang", "n_chars"),
                          files_per_partition=1),
                concurrency=2, file_pattern="documents.parquet")
    eng = QueryEngine(idx, dtype="float64",
                      runtime_fields={
                          "chars_sqrt": "sqrt(n_chars)",
                          # runtime field referencing ANOTHER runtime field
                          "chars_sqrt2": "chars_sqrt * 2",
                      })
    yield eng
    eng.close()


@pytest.fixture(scope="module")
def doc_chars():
    t = pq.read_table(f"{SF_DIR}/documents.parquet",
                      columns=["doc_id", "n_chars"])
    return dict(zip(t["doc_id"].to_pylist(), t["n_chars"].to_pylist()))


def test_runtime_field_range_filter_count(rt_engine, doc_chars):
    got = rt_engine.count(BoolQuery(must=(MatchAllQuery(),),
                                    filter=(RangeFilter("chars_sqrt",
                                                        gte=20.0),)))
    want = sum(1 for v in doc_chars.values() if np.sqrt(v) >= 20.0)
    assert got == want > 0


def test_runtime_field_chained_definition(rt_engine, doc_chars):
    got = rt_engine.count(BoolQuery(must=(MatchAllQuery(),),
                                    filter=(RangeFilter("chars_sqrt2",
                                                        lte=40.0),)))
    want = sum(1 for v in doc_chars.values() if 2 * np.sqrt(v) <= 40.0)
    assert got == want > 0


def test_runtime_field_in_sort(rt_engine, doc_chars):
    out = rt_engine.search(MatchAllQuery(), k=5,
                           sort=[("chars_sqrt", "desc")],
                           fetch=("doc_id",))
    ids = out["doc_id"].to_pylist()
    top = sorted(doc_chars, key=lambda d: (-np.sqrt(doc_chars[d]), d))[:5]
    assert ids == top


def test_runtime_field_with_query_filter(rt_engine, doc_chars):
    """Runtime filter composes with a scored query like a stored-column
    filter: results are the intersection."""
    base = rt_engine.search(MatchQuery("merge"), k=10**6,
                            fetch=("doc_id",))["doc_id"].to_pylist()
    got = rt_engine.search(
        BoolQuery(must=(MatchQuery("merge"),),
                  filter=(RangeFilter("chars_sqrt", gte=20.0),)),
        k=10**6, fetch=("doc_id",))["doc_id"].to_pylist()
    want = {d for d in base if np.sqrt(doc_chars[d]) >= 20.0}
    assert set(got) == want and len(got) < len(base)


def test_bad_runtime_expression_fails_fast(rt_engine):
    from elasticsearch_ray.search.expressions import ExpressionError

    with pytest.raises(ExpressionError):
        QueryEngine(rt_engine.index_dir,
                    runtime_fields={"bad": "sqrt(("})


def test_runtime_fields_through_actor_path(ray_session, rt_engine):
    eng = QueryEngine(rt_engine.index_dir, dtype="float64", parallel="ray",
                      num_actors=2,
                      runtime_fields={"chars_sqrt": "sqrt(n_chars)"})
    q = BoolQuery(must=(MatchAllQuery(),),
                  filter=(RangeFilter("chars_sqrt", gte=20.0),))
    assert eng.count(q) == rt_engine.count(q)
    eng.close()


def test_runtime_field_filter_in_all_hits_pass(rt_engine):
    """The Ray Data pass over all hits opens its partitions with the
    engine's runtime fields, like search."""
    q = BoolQuery(must=(MatchQuery("spark"),),
                  filter=(RangeFilter("chars_sqrt2", lte=40.0),))
    want = sorted(rt_engine.search(q, k=10**6, fetch=("doc_id",))["doc_id"].to_pylist())
    assert want
    assert sorted(rt_engine.scan_dataset(q).to_pandas()["doc_id"]) == want
