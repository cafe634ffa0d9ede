"""terms agg include/exclude/partition (IncludeExclude.java): anchored
regex + exact values + murmur3/mix64 hash partitioning."""

import numpy as np
import pandas as pd
import pytest

from elasticsearch_ray.ops.aggs import _include_exclude_mask, _mix64, terms_agg


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(61)
    keys = rng.choice([f"user_{i}" for i in range(30)] + ["admin", "root"],
                      size=500)
    return pd.DataFrame({"k": keys,
                         "n": rng.integers(0, 9, 500),
                         "ki": rng.integers(0, 40, 500).astype(np.int64)})


def _ds(df):
    import ray.data as rd

    return rd.from_pandas(df).repartition(4)


def test_include_regex_anchored_matches_duckdb(ray_session, frame):
    import duckdb

    out = terms_agg(_ds(frame), "k", include="user_1[0-9]")
    t = frame  # noqa: F841
    want = duckdb.sql("""
        SELECT k, count(*)::BIGINT AS doc_count FROM t
        WHERE regexp_full_match(k, 'user_1[0-9]')
        GROUP BY k ORDER BY doc_count DESC, k
    """).df()
    assert out["k"].tolist() == want["k"].tolist()
    assert out["doc_count"].tolist() == want["doc_count"].tolist()
    # anchored: 'user_1' alone must NOT slip through a partial match
    assert all(k.startswith("user_1") and len(k) == 7 for k in out["k"])


def test_exclude_values_and_combined(ray_session, frame):
    out = terms_agg(_ds(frame), "k", exclude=["admin", "root"])
    assert "admin" not in set(out["k"]) and "root" not in set(out["k"])
    both = terms_agg(_ds(frame), "k", include="user_.*",
                     exclude=["user_1"])
    assert "user_1" not in set(both["k"])
    assert all(k.startswith("user_") for k in both["k"])


def test_partitions_disjoint_and_complete(ray_session, frame):
    full = terms_agg(_ds(frame), "k")
    parts = [terms_agg(_ds(frame), "k", partition=(i, 3))
             for i in range(3)]
    seen = [set(p["k"]) for p in parts]
    assert seen[0] | seen[1] | seen[2] == set(full["k"])
    assert not (seen[0] & seen[1] or seen[0] & seen[2]
                or seen[1] & seen[2])
    # counts preserved within each slice
    cat = pd.concat(parts).set_index("k")["doc_count"]
    ref = full.set_index("k")["doc_count"]
    assert cat.sort_index().equals(ref.sort_index())


def test_partitions_integer_keys_mix64(ray_session, frame):
    full = terms_agg(_ds(frame), "ki")
    parts = [terms_agg(_ds(frame), "ki", partition=(i, 4))
             for i in range(4)]
    assert set().union(*[set(p["ki"]) for p in parts]) == set(full["ki"])
    # mix64 is the murmur3 finalizer: known avalanche sanity
    h = _mix64(np.array([0, 1, 2], np.int64))
    assert len(set(h.tolist())) == 3 and h[0] == 0  # mix64(0) == 0


def test_partition_validation(ray_session, frame):
    with pytest.raises(ValueError, match="num_partitions"):
        terms_agg(_ds(frame), "k", partition=(3, 3))
    with pytest.raises(ValueError, match="num_partitions"):
        terms_agg(_ds(frame), "k", partition=(-1, 3))


def test_all_filtered_returns_typed_empty(ray_session, frame):
    out = terms_agg(_ds(frame), "k", include=["no_such_key"],
                    value_col="n")
    assert out.empty
    assert list(out.columns) == ["k", "doc_count", "sum_n"]


def test_order_by_key_and_submetric(ray_session, frame):
    import duckdb

    by_key = terms_agg(_ds(frame), "k", order=("_key", "asc"))
    assert by_key["k"].tolist() == sorted(by_key["k"])
    by_sum = terms_agg(_ds(frame), "k", value_col="n",
                       order=("sum_n", "desc"))
    t = frame  # noqa: F841
    want = duckdb.sql("""
        SELECT k, count(*)::BIGINT AS doc_count, sum(n)::BIGINT AS sum_n
        FROM t GROUP BY k ORDER BY sum_n DESC, k
    """).df()
    assert by_sum["k"].tolist() == want["k"].tolist()
    assert by_sum["sum_n"].tolist() == want["sum_n"].tolist()
    with pytest.raises(ValueError, match="direction"):
        terms_agg(_ds(frame), "k", order=("_count", "down"))
    with pytest.raises(ValueError, match="unknown order path"):
        terms_agg(_ds(frame), "k", order=("sum_nope", "asc"))


def test_null_key_never_passes_a_filter():
    """A null key has no term, so no partition slice, include or exclude
    admits it (a NaN used to hash as the string "nan")."""
    vals = pd.Series(["a", "b", np.nan])
    for part in ((0, 2), (1, 2)):
        assert not _include_exclude_mask(vals, None, None, part)[2], part
    assert not _include_exclude_mask(vals, ".*", None, None)[2]
    assert not _include_exclude_mask(vals, None, ["a"], None)[2]
