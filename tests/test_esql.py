"""ES|QL subset (x-pack/plugin/esql grammar on Ray Dataset stages):
every command vs a DuckDB twin on the same frame."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from elasticsearch_ray.search.esql import EsqlError, esql


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(5)
    n = 2000
    return pd.DataFrame({
        "event_id": np.arange(n),
        "user_id": rng.integers(0, 25, n),
        "event_type": rng.choice(["click", "view", "purchase"], n),
        "value": rng.normal(50, 12, n).round(2),
        "msg": [f"u{u} did things" for u in rng.integers(0, 25, n)],
    })


@pytest.fixture(scope="module")
def tables(ray_session, frame):
    import ray.data as rd

    return {"events": rd.from_pandas(frame)}


def _duck(frame, sql):
    events = frame  # noqa: F841
    return duckdb.sql(sql).df()


def test_where_eval_sort_limit_keep(tables, frame):
    out = esql("""
        FROM events
        | WHERE event_type == "click" AND value > 55
        | EVAL boosted = value * 2 + 1
        | SORT boosted DESC, event_id ASC
        | LIMIT 7
        | KEEP event_id, boosted
    """, tables).to_pandas()
    want = _duck(frame, """
        SELECT event_id, value * 2 + 1 AS boosted FROM events
        WHERE event_type = 'click' AND value > 55
        ORDER BY boosted DESC, event_id LIMIT 7""")
    pd.testing.assert_frame_equal(out, want, check_dtype=False)


def test_stats_by(tables, frame):
    out = esql("""
        FROM events
        | STATS n = COUNT(*), total = SUM(value), avg_v = AVG(value),
                users = COUNT_DISTINCT(user_id) BY event_type
        | SORT event_type
    """, tables).to_pandas()
    want = _duck(frame, """
        SELECT event_type, count(*) AS n, sum(value) AS total,
               avg(value) AS avg_v, count(DISTINCT user_id) AS users
        FROM events GROUP BY event_type ORDER BY event_type""")
    out["total"] = out["total"].round(6)
    want["total"] = want["total"].round(6)
    out["avg_v"] = out["avg_v"].round(6)
    want["avg_v"] = want["avg_v"].round(6)
    pd.testing.assert_frame_equal(out[want.columns], want,
                                  check_dtype=False)


def test_global_stats_no_by(tables, frame):
    out = esql("FROM events | STATS n = COUNT(*), m = MAX(value)",
               tables).to_pandas()
    assert out["n"].iloc[0] == len(frame)
    assert out["m"].iloc[0] == frame["value"].max()


def test_where_in_like_null(tables, frame):
    out = esql("""
        FROM events
        | WHERE event_type IN ("view", "purchase") AND msg LIKE "u1 *"
        | STATS n = COUNT(*)
    """, tables).to_pandas()
    want = frame[frame.event_type.isin(["view", "purchase"])
                 & frame.msg.str.startswith("u1 ")]
    assert out["n"].iloc[0] == len(want)


def test_rename_drop(tables, frame):
    out = esql("""
        FROM events | RENAME value AS v | DROP msg, user_id
        | SORT event_id | LIMIT 3
    """, tables).to_pandas()
    assert list(out.columns) == ["event_id", "event_type", "v"]


def test_dissect(tables, frame):
    out = esql('FROM events | DISSECT msg "%{who} did %{what}" '
               '| KEEP event_id, who, what | SORT event_id | LIMIT 2',
               tables).to_pandas()
    assert out["what"].tolist() == ["things", "things"]
    assert out["who"].str.match(r"u\d+").all()


def test_enrich(tables, frame):
    pol = pd.DataFrame({"user_id": [0, 1, 2],
                        "tier": ["gold", "silver", "bronze"]})
    out = esql("""
        FROM events | ENRICH users ON user_id WITH tier
        | WHERE tier == "gold" | STATS n = COUNT(*)
    """, tables, enrich_policies={"users": pol}).to_pandas()
    assert out["n"].iloc[0] == int((frame.user_id == 0).sum())


def test_not_and_parens(tables, frame):
    out = esql("""
        FROM events
        | WHERE NOT (event_type == "click" OR value >= 50)
        | STATS n = COUNT(*)
    """, tables).to_pandas()
    want = frame[~((frame.event_type == "click") | (frame.value >= 50))]
    assert out["n"].iloc[0] == len(want)


def test_errors(tables):
    for bad in [
        "WHERE x == 1",                      # no FROM
        "FROM events | FOO bar",             # unknown command
        "FROM events | STATS",               # empty stats
        "FROM events | SORT",                # empty sort
        "FROM events | WHERE value ~ 3",     # bad operator
        "FROM events | ENRICH nope ON user_id",  # unknown policy
    ]:
        with pytest.raises(EsqlError):
            # parse errors surface before execution; force the lazy ones
            esql(bad, tables)


def test_split_mv_expand(tables, frame):
    out = esql("""
        FROM events
        | WHERE event_id < 50
        | EVAL words = SPLIT(msg, " ")
        | MV_EXPAND words
        | KEEP event_id, words
        | SORT event_id, words
    """, tables).to_pandas()
    want = _duck(frame, """
        SELECT event_id, unnest(string_split(msg, ' ')) AS words
        FROM events WHERE event_id < 50
        ORDER BY event_id, words""")
    pd.testing.assert_frame_equal(out.reset_index(drop=True), want,
                                  check_dtype=False)


def test_mv_expand_then_stats(tables, frame):
    out = esql("""
        FROM events
        | EVAL words = SPLIT(msg, " ")
        | MV_EXPAND words
        | STATS n = COUNT(*) BY words
        | SORT words
    """, tables).to_pandas()
    want = _duck(frame, """
        SELECT words, count(*) AS n FROM (
          SELECT unnest(string_split(msg, ' ')) AS words FROM events)
        GROUP BY words ORDER BY words""")
    pd.testing.assert_frame_equal(
        out[["words", "n"]].reset_index(drop=True), want[["words", "n"]],
        check_dtype=False)


def test_mv_expand_errors(tables):
    with pytest.raises(EsqlError):
        esql("FROM events | MV_EXPAND", tables)
    with pytest.raises(EsqlError):
        esql('FROM events | MV_EXPAND "msg"', tables)


def test_row_literal_source(ray_session):
    from elasticsearch_ray.search.esql import EsqlError, esql

    out = esql('ROW a = 1, b = 2.5, s = "hi" | EVAL c = a + b',
               {}).to_pandas()
    assert len(out) == 1
    assert out.loc[0, "a"] == 1 and out.loc[0, "c"] == 3.5
    assert out.loc[0, "s"] == "hi"
    import pytest as _pt

    with _pt.raises(EsqlError, match="ROW"):
        esql("ROW a", {})
    with _pt.raises(EsqlError, match="FROM <table> or ROW"):
        esql("WHERE x == 1", {})


def test_row_rejects_trailing_tokens_and_expressions(ray_session):
    """Review r5 #8: 'ROW a = 1 + 2' must error, not silently yield a=1."""
    from elasticsearch_ray.search.esql import EsqlError, esql

    import pytest as _pt

    with _pt.raises(EsqlError, match="ROW takes"):
        esql("ROW a = 1 + 2", {})
    # negative literals lex as one number token and stay supported
    out = esql("ROW a = -3", {}).to_pandas()
    assert out.loc[0, "a"] == -3


def test_inlinestats_attaches_group_aggregates(ray_session, tables):
    """INLINESTATS: per-group aggregates attached to every row without
    collapsing (broadcast of the small stats frame, no big-side
    shuffle); same-name columns are replaced; DuckDB window twin."""
    import duckdb

    out = esql("""
        FROM events
        | INLINESTATS avg_v = AVG(value), n = COUNT(*) BY event_type
        | KEEP event_id, event_type, value, avg_v, n
        | SORT event_id
        | LIMIT 200
    """, tables).to_pandas()
    ev = tables["events"].to_pandas()  # noqa: F841
    want = duckdb.sql("""
        SELECT event_id, event_type, value,
               avg(value) OVER (PARTITION BY event_type) AS avg_v,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM ev ORDER BY event_id LIMIT 200
    """).df()
    assert out["event_id"].tolist() == want["event_id"].tolist()
    assert np.allclose(out["avg_v"], want["avg_v"])
    assert out["n"].astype(int).tolist() == want["n"].astype(int).tolist()


def test_inlinestats_global_constant_columns(ray_session, tables):
    out = esql("""
        FROM events
        | INLINESTATS total = SUM(value)
        | KEEP event_id, total
        | LIMIT 5
    """, tables).to_pandas()
    ref = tables["events"].to_pandas()["value"].sum()
    assert np.allclose(out["total"], ref)


def test_lookup_join_broadcast(ray_session, tables, frame):
    """LOOKUP JOIN: broadcast left join; lookup-side precedence on
    same-named non-key columns; unmatched left rows keep nulls."""
    import ray.data as rd

    lk = pd.DataFrame({
        "user_id": [0, 1, 2, 3],
        "tier": ["gold", "silver", "bronze", "gold"],
        # collides with the left frame -> lookup side must win
        "msg": ["lk0", "lk1", "lk2", "lk3"],
    })
    t = dict(tables)
    t["users"] = rd.from_pandas(lk)
    out = esql("""
        FROM events
        | LOOKUP JOIN users ON user_id
        | KEEP event_id, user_id, tier, msg
        | SORT event_id
        | LIMIT 300
    """, t).to_pandas()
    want = duckdb.sql("""
        SELECT e.event_id, e.user_id, l.tier, l.msg
        FROM frame e LEFT JOIN lk l USING (user_id)
        ORDER BY e.event_id LIMIT 300
    """).df()
    assert out["event_id"].tolist() == want["event_id"].tolist()
    assert out["tier"].fillna("-").tolist() == \
        want["tier"].fillna("-").tolist()
    # precedence: matched rows carry the LOOKUP side's msg
    matched = out["user_id"] <= 3
    assert (out.loc[matched, "msg"].str.startswith("lk")).all()
    assert out.loc[~matched, "msg"].isna().all()


def test_lookup_join_multiple_matches_expand(ray_session, tables):
    import ray.data as rd

    lk = pd.DataFrame({"user_id": [0, 0], "tag": ["a", "b"]})
    t = dict(tables)
    t["tags"] = rd.from_pandas(lk)
    out = esql("""
        FROM events
        | WHERE user_id == 0
        | LOOKUP JOIN tags ON user_id
        | STATS n = COUNT(*)
    """, t).to_pandas()
    base = esql("FROM events | WHERE user_id == 0 | STATS n = COUNT(*)",
                t).to_pandas()
    assert int(out.loc[0, "n"]) == 2 * int(base.loc[0, "n"])


# SAMPLE's row text in SQL: every column as text in schema order, joined
# by U+001F, a float as %.17g, a null as ""
_ROW_TEXT = "concat_ws(chr(31), " + ", ".join(
    f"coalesce({e}, '')" for e in ("CAST(event_id AS VARCHAR)", "CAST(user_id AS VARCHAR)",
                                   "event_type", "printf('%.17g', value)", "msg")) + ")"


def test_sample_deterministic_band(ray_session, tables, frame):
    """SAMPLE: md5-band keep rule == the DuckDB twin, repartition- and
    rerun-stable."""
    q = """
        FROM events
        | SAMPLE 0.25
        | STATS n = COUNT(*), total = SUM(value)
    """
    out1 = esql(q, tables).to_pandas()
    out2 = esql(q, tables).to_pandas()
    assert int(out1.loc[0, "n"]) == int(out2.loc[0, "n"])
    want = duckdb.sql(f"""
        SELECT count(*) AS n, sum(value) AS total FROM frame
        WHERE ('0x' || substr(md5(':' || {_ROW_TEXT}), 1, 8))::BIGINT % 10000 < 2500
    """).df()
    assert int(out1.loc[0, "n"]) == int(want.loc[0, "n"])
    assert np.isclose(float(out1.loc[0, "total"]), float(want.loc[0, "total"]))
    # a seed gives an independent subset: the sampled id SETS differ
    ids0 = esql("FROM events | SAMPLE 0.25 | KEEP event_id | SORT event_id",
                tables).to_pandas()["event_id"].tolist()
    ids7 = esql("FROM events | SAMPLE 0.25 7 | KEEP event_id | SORT event_id",
                tables).to_pandas()["event_id"].tolist()
    assert ids0 != ids7
    assert 0 < int(out1.loc[0, "n"]) < len(frame)


def test_sample_bands_by_whole_row(ray_session, frame):
    """SAMPLE keys on the whole row: a constant leading column (every row
    shares it) still samples about p of the rows, not all or none, and the
    same seed keeps the same rows."""
    import ray.data as rd

    t = {"events": rd.from_pandas(frame.assign(event_id=0).rename(
        columns={"event_id": "tenant"}).assign(id=np.arange(len(frame))))}
    q = "FROM events | SAMPLE 0.25 3 | KEEP id | SORT id"
    ids = esql(q, t).to_pandas()["id"].tolist()
    assert 0.2 * len(frame) < len(ids) < 0.3 * len(frame)
    assert esql(q, t).to_pandas()["id"].tolist() == ids
    assert esql("FROM events | SAMPLE 0.25 4 | KEEP id | SORT id",
                t).to_pandas()["id"].tolist() != ids


def test_sample_nullable_int64_above_2_53_is_batch_stable(ray_session):
    """A nullable int64 column beyond 2**53 prints every digit whether or
    not its batch holds a null, so the kept rows are the same however the
    rows are split into batches, and are the rows whose exact text bands
    under the cut (a list column prints as Python's text)."""
    import hashlib

    import pyarrow as pa
    import ray.data as rd

    n = 400
    big = [None if i % 7 == 0 and i < n // 2 else 2**60 + 2 * i + 1 for i in range(n)]
    t = pa.table({"id": pa.array(range(n), pa.int64()), "big": pa.array(big, pa.int64()),
                  "tags": pa.array([[i % 3, 7] for i in range(n)])})
    q = "FROM events | SAMPLE 0.5 9 | KEEP id | SORT id"
    split = {"events": rd.from_arrow([t.slice(0, n // 2), t.slice(n // 2)])}
    whole = {"events": rd.from_arrow(t)}
    want = [i for i, b in enumerate(big)
            if int(hashlib.md5(f"9:{i}\x1f{'' if b is None else b}\x1f{[i % 3, 7]}".encode())
                   .hexdigest()[:8], 16) % 10000 < 5000]
    assert 0 < len(want) < n
    for tables in (split, whole):
        assert esql(q, tables).to_pandas()["id"].tolist() == want


def test_sample_validates(ray_session, tables):
    with pytest.raises(EsqlError):
        esql("FROM events | SAMPLE 1.5", tables)
    with pytest.raises(EsqlError):
        esql('FROM events | SAMPLE 0.5 "x"', tables)


def test_change_point_annotates_step_row(ray_session):
    """CHANGE_POINT: planted step -> the step row (and only it) gets
    type + p-value; other rows null; output keeps every row."""
    import ray.data as rd

    n = 60
    v = np.concatenate([np.full(30, 10.0), np.full(30, 60.0)])
    v += np.sin(np.arange(n)) * 0.3  # break exact ties
    t = {"m": rd.from_pandas(pd.DataFrame({"k": np.arange(n), "v": v}))}
    out = esql("FROM m | CHANGE_POINT v ON k AS cp_type, cp_pv | SORT k",
               t).to_pandas()
    assert len(out) == n
    hit = out[out["cp_type"].notna()]
    assert len(hit) == 1
    assert hit["cp_type"].iloc[0] == "step_change"
    assert abs(int(hit["k"].iloc[0]) - 30) <= 1
    assert float(hit["cp_pv"].iloc[0]) <= 1e-4
    assert out["cp_pv"].notna().sum() == 1


def test_change_point_caps_series(ray_session):
    import ray.data as rd

    t = {"m": rd.from_pandas(pd.DataFrame(
        {"k": np.arange(1500), "v": np.random.default_rng(0).normal(size=1500)}))}
    with pytest.raises(EsqlError):
        esql("FROM m | CHANGE_POINT v ON k", t)


def test_mv_functions_against_duckdb(ray_session, tables, frame):
    """MV_* family over SPLIT lists vs DuckDB list functions."""
    out = esql("""
        FROM events
        | EVAL words = SPLIT(msg, " ")
        | EVAL n = MV_COUNT(words), first = MV_FIRST(words),
               last = MV_LAST(words), joined = MV_CONCAT(words, "-")
        | KEEP event_id, n, first, last, joined
        | SORT event_id
        | LIMIT 100
    """, tables).to_pandas()
    want = duckdb.sql("""
        SELECT event_id,
               len(string_split(msg, ' '))::BIGINT AS n,
               string_split(msg, ' ')[1] AS first,
               string_split(msg, ' ')[-1] AS last,
               array_to_string(string_split(msg, ' '), '-') AS joined
        FROM frame ORDER BY event_id LIMIT 100
    """).df()
    assert out["n"].astype(int).tolist() == want["n"].astype(int).tolist()
    assert out["first"].tolist() == want["first"].tolist()
    assert out["last"].tolist() == want["last"].tolist()
    assert out["joined"].tolist() == want["joined"].tolist()


def test_mv_numeric_and_sort_slice(ray_session):
    import ray.data as rd

    t = {"m": rd.from_pandas(pd.DataFrame({
        "id": [0, 1, 2],
        "v": [[3.0, 1.0, 2.0], [5.0], None],
    }))}
    out = esql("""
        FROM m
        | EVAL s = MV_SUM(v), a = MV_AVG(v), mn = MV_MIN(v),
               mx = MV_MAX(v), md = MV_MEDIAN(v),
               srt = MV_SORT(v, "DESC"), sl = MV_SLICE(v, 0, 1),
               neg = MV_SLICE(v, -1)
        | SORT id
    """, t).to_pandas()
    assert out.loc[0, "s"] == 6.0 and out.loc[0, "a"] == 2.0
    assert out.loc[0, "mn"] == 1.0 and out.loc[0, "mx"] == 3.0
    assert out.loc[0, "md"] == 2.0
    assert list(out.loc[0, "srt"]) == [3.0, 2.0, 1.0]
    assert list(out.loc[0, "sl"]) == [3.0, 1.0]
    assert list(out.loc[0, "neg"]) == [2.0]
    assert out.loc[1, "s"] == 5.0 and list(out.loc[1, "sl"]) == [5.0]
    assert pd.isna(out.loc[2, "s"]) and out.loc[2, "sl"] is None


def test_mv_dedupe_stable_and_scalar_promotion(ray_session):
    import ray.data as rd

    t = {"m": rd.from_pandas(pd.DataFrame({
        "id": [0], "v": [["b", "a", "b", "c", "a"]], "x": [7],
    }))}
    out = esql("FROM m | EVAL d = MV_DEDUPE(v), nx = MV_COUNT(x)",
               t).to_pandas()
    assert list(out.loc[0, "d"]) == ["b", "a", "c"]
    assert out.loc[0, "nx"] == 1  # scalar promotes to 1-element mv


def test_mv_validates(ray_session, tables):
    with pytest.raises(EsqlError):
        esql('FROM events | EVAL x = MV_SORT(msg, "SIDEWAYS")',
             tables).to_pandas()
    with pytest.raises(EsqlError):
        esql("FROM events | EVAL x = MV_BOGUS(msg)", tables).to_pandas()


def test_fork_union_with_discriminator(ray_session, tables, frame):
    """FORK: branches over the same input, _fork tags, null-padded
    column union; DuckDB UNION twin."""
    out = esql("""
        FROM events
        | FORK ( WHERE event_type == "click" | SORT value DESC
                 | LIMIT 5 | KEEP event_id, value )
               ( STATS n = COUNT(*) BY event_type | SORT event_type )
    """, tables).to_pandas()
    f1 = out[out["_fork"] == "fork1"]
    f2 = out[out["_fork"] == "fork2"].sort_values("event_type")
    want1 = duckdb.sql("""
        SELECT event_id, value FROM frame WHERE event_type = 'click'
        ORDER BY value DESC LIMIT 5
    """).df()
    want2 = duckdb.sql("""
        SELECT event_type, count(*) AS n FROM frame
        GROUP BY event_type ORDER BY event_type
    """).df()
    assert sorted(f1["event_id"].astype(int)) == \
        sorted(want1["event_id"].astype(int))
    assert f2["event_type"].tolist() == want2["event_type"].tolist()
    assert f2["n"].astype(int).tolist() == want2["n"].astype(int).tolist()
    # null padding across the column union
    assert f1["n"].isna().all()
    assert f2["event_id"].isna().all()
    assert set(out["_fork"]) == {"fork1", "fork2"}


def test_fork_validates(ray_session, tables):
    with pytest.raises(EsqlError):
        esql("FROM events | FORK", tables)
    with pytest.raises(EsqlError):
        esql("FROM events | FORK ( LIMIT 5", tables)
    with pytest.raises(EsqlError):
        esql("FROM events | FORK LIMIT 5", tables)


def test_rerank_bow_scores_and_validates(ray_session):
    import ray.data as rd

    docs = pd.DataFrame({
        "id": [0, 1, 2],
        "body": ["alpha beta beta", "alpha", "gamma delta"],
    })
    t = {"d": rd.from_pandas(docs)}
    out = esql('FROM d | RERANK "alpha beta" ON body | SORT _score DESC, id',
               t).to_pandas()
    # bow: score(doc0) = 1*1 + 1*(1+ln2); doc1 = 1; doc2 = 0
    assert out["id"].tolist() == [0, 1, 2]
    assert np.isclose(out["_score"].iloc[0], 1.0 + 1.0 + np.log(2))
    assert np.isclose(out["_score"].iloc[1], 1.0)
    assert out["_score"].iloc[2] == 0.0
    with pytest.raises(EsqlError):
        esql("FROM d | RERANK body", t)
    with pytest.raises(ValueError):
        esql('FROM d | RERANK "x" ON body WITH nosuchmodel', t)


def test_completion_extractive_model(ray_session):
    import ray.data as rd

    from elasticsearch_ray.search.sparse_vector import (
        register_completion_model,
    )

    docs = pd.DataFrame({
        "id": [0, 1],
        "body": [" ".join(f"w{i}" for i in range(20)), "short text"],
    })
    t = {"d": rd.from_pandas(docs)}
    out = esql("FROM d | COMPLETION summary = body WITH extractive | SORT id",
               t).to_pandas()
    assert out["summary"].iloc[0] == " ".join(f"w{i}" for i in range(12))
    assert out["summary"].iloc[1] == "short text"
    # custom registered model
    register_completion_model("shout", lambda p: p.upper())
    out2 = esql("FROM d | COMPLETION s = body WITH shout", t).to_pandas()
    assert out2["s"].iloc[1] == "SHORT TEXT"
    with pytest.raises(ValueError):
        esql("FROM d | COMPLETION s = body WITH nosuch", t)
    with pytest.raises(EsqlError):
        esql("FROM d | COMPLETION s = body", t)


def test_keep_drop_wildcards_and_rlike(ray_session, tables, frame):
    out = esql("""
        FROM events
        | WHERE msg RLIKE "u1[0-9] .*"
        | KEEP event_*, msg
        | DROP event_t*
        | SORT event_id
        | LIMIT 50
    """, tables).to_pandas()
    want = duckdb.sql("""
        SELECT event_id, msg FROM frame
        WHERE regexp_full_match(msg, 'u1[0-9] .*')
        ORDER BY event_id LIMIT 50
    """).df()
    assert list(out.columns) == ["event_id", "msg"]
    assert out["event_id"].tolist() == want["event_id"].tolist()
    # bare * keeps everything
    full = esql("FROM events | KEEP * | LIMIT 1", tables).to_pandas()
    assert set(full.columns) == set(frame.columns)


def test_stats_by_bucket_expression(ray_session, tables, frame):
    out = esql("""
        FROM events
        | STATS n = COUNT(*), avg_v = AVG(value) BY b = BUCKET(value, 20.0)
        | SORT b
    """, tables).to_pandas()
    want = duckdb.sql("""
        SELECT floor(value / 20) * 20 AS b, count(*) AS n,
               avg(value) AS avg_v
        FROM frame GROUP BY 1 ORDER BY 1
    """).df()
    assert out["b"].tolist() == want["b"].tolist()
    assert out["n"].astype(int).tolist() == want["n"].astype(int).tolist()
    assert np.allclose(out["avg_v"], want["avg_v"])
    with pytest.raises(EsqlError):
        esql("FROM events | STATS n = COUNT(*) BY b = BUCKET(value, 0)",
             tables)


def test_from_metadata_index(ray_session, tables):
    out = esql("""
        FROM events METADATA _index
        | STATS n = COUNT(*) BY _index
    """, tables).to_pandas()
    assert out["_index"].tolist() == ["events"]
    with pytest.raises(EsqlError):
        esql("FROM events METADATA _id", tables)


def test_review_r5c_mv_null_split_and_soft_keywords(ray_session):
    """Review r5c regressions: (1) null SPLIT -> MV_* propagate null;
    (4) new command words usable as column names; (6) MV_CONCAT with a
    comma-space delimiter; (3) RLIKE/LIKE never match nulls."""
    import ray.data as rd

    docs = pd.DataFrame({
        "id": [0, 1],
        "text": ["a b a", None],
        "sample": [1, 2],      # soft keywords stay valid column names
        "join": ["x", None],
    })
    t = {"d": rd.from_pandas(docs)}
    out = esql("""
        FROM d
        | EVAL words = SPLIT(text, " ")
        | EVAL n = MV_COUNT(words), s = MV_CONCAT(words, " , ")
        | KEEP id, n, s, sample, join
        | SORT id
    """, t).to_pandas()
    assert int(out.loc[0, "n"]) == 3
    assert out.loc[0, "s"] == "a , b , a"
    assert pd.isna(out.loc[1, "n"]) and out.loc[1, "s"] is None
    # soft keywords as columns in SORT/KEEP/WHERE
    out2 = esql("FROM d | WHERE sample > 1 | KEEP sample, join | SORT sample",
                t).to_pandas()
    assert out2["sample"].tolist() == [2]
    # RLIKE / LIKE exclude nulls
    out3 = esql('FROM d | WHERE join RLIKE ".*" | KEEP id', t).to_pandas()
    assert out3["id"].tolist() == [0]
    out4 = esql('FROM d | WHERE join LIKE "*" | KEEP id', t).to_pandas()
    assert out4["id"].tolist() == [0]


def test_review_r5c_mv_sum_null_rows(ray_session):
    import ray.data as rd

    t = {"d": rd.from_pandas(pd.DataFrame({
        "id": [0, 1], "text": ["1 2", None]}))}
    out = esql("""
        FROM d
        | EVAL words = SPLIT(text, " ")
        | EVAL c = MV_SUM(words)
        | SORT id
    """, t).to_pandas()
    assert pd.isna(out.loc[1, "c"])


def test_bucket_date_spans(ray_session):
    import ray.data as rd

    ts = pd.to_datetime([
        "2024-01-01 00:10", "2024-01-01 13:40", "2024-01-02 05:00",
        "2024-02-15 00:00", "2024-03-04 12:00",
    ])
    df = pd.DataFrame({"ts": ts, "v": [1.0, 2.0, 3.0, 4.0, 5.0]})
    t = {"m": rd.from_pandas(df)}
    out = esql("""
        FROM m | STATS n = COUNT(*) BY d = BUCKET(ts, "1 day") | SORT d
    """, t).to_pandas()
    want = duckdb.sql("""
        SELECT date_trunc('day', ts) AS d, count(*) AS n
        FROM df GROUP BY 1 ORDER BY 1""").df()
    assert pd.to_datetime(out["d"]).tolist() == \
        pd.to_datetime(want["d"]).tolist()
    assert out["n"].astype(int).tolist() == want["n"].astype(int).tolist()
    # 6-hour fixed buckets
    out6 = esql("""
        FROM m | STATS n = COUNT(*) BY h = BUCKET(ts, "6 hours") | SORT h
    """, t).to_pandas()
    want6 = duckdb.sql("""
        SELECT to_timestamp((epoch(ts)::BIGINT // 21600) * 21600)
                 AT TIME ZONE 'UTC' AS h,
               count(*) AS n
        FROM df GROUP BY 1 ORDER BY 1""").df()
    assert out6["n"].astype(int).tolist() == \
        want6["n"].astype(int).tolist()
    # calendar month
    outm = esql("""
        FROM m | STATS n = COUNT(*) BY mo = BUCKET(ts, "1 month") | SORT mo
    """, t).to_pandas()
    assert pd.to_datetime(outm["mo"]).tolist() == \
        pd.to_datetime(["2024-01-01", "2024-02-01", "2024-03-01"]).tolist()
    with pytest.raises(EsqlError):
        esql('FROM m | STATS n = COUNT(*) BY x = BUCKET(ts, "3 months")', t)


def test_stats_per_agg_where_filters(ray_session, tables, frame):
    """Filtered aggregations (`agg(x) WHERE cond`): DuckDB FILTER twin."""
    out = esql("""
        FROM events
        | STATS n_err = COUNT(*) WHERE event_type == "error",
                total_hi = SUM(value) WHERE value > 60,
                avg_click = AVG(value) WHERE event_type == "click",
                n = COUNT(*)
          BY user_id
        | SORT user_id
    """, tables).to_pandas()
    want = duckdb.sql("""
        SELECT user_id,
               count(*) FILTER (event_type = 'error') AS n_err,
               sum(value) FILTER (value > 60) AS total_hi,
               avg(value) FILTER (event_type = 'click') AS avg_click,
               count(*) AS n
        FROM frame GROUP BY user_id ORDER BY user_id
    """).df()
    assert out["user_id"].tolist() == want["user_id"].tolist()
    assert out["n_err"].astype(int).tolist() == \
        want["n_err"].astype(int).tolist()
    assert np.allclose(out["total_hi"].fillna(0), want["total_hi"].fillna(0))
    assert np.allclose(out["avg_click"].fillna(-1),
                       want["avg_click"].fillna(-1))
    assert out["n"].astype(int).tolist() == want["n"].astype(int).tolist()
    with pytest.raises(EsqlError):
        esql('FROM events | STATS u = COUNT_DISTINCT(user_id) '
             'WHERE value > 0', tables)
    with pytest.raises(EsqlError):
        esql("FROM events | STATS n = COUNT(*) WHERE", tables)


def test_review_r5d_split_separator_escaping(ray_session):
    import ray.data as rd

    t = {"d": rd.from_pandas(pd.DataFrame(
        {"id": [0], "p": ["a\\b\\c"], "q": ['x"y"z']}))}
    out = esql('FROM d | EVAL parts = SPLIT(p, "\\\\") | MV_EXPAND parts',
               t).to_pandas()
    assert out["parts"].tolist() == ["a", "b", "c"]
    out2 = esql('FROM d | EVAL parts = SPLIT(q, "\\"") | MV_EXPAND parts',
                t).to_pandas()
    assert out2["parts"].tolist() == ["x", "y", "z"]


def test_review_r5d_bucket_zero_span_and_filter_aliasing(ray_session,
                                                         tables, frame):
    with pytest.raises(EsqlError):
        esql('FROM events | STATS n = COUNT(*) BY d = BUCKET(ts, "0 hours")',
             tables)
    # two aggregates sharing the auto name: the filter stays on ITS
    # aggregate only
    out = esql("""
        FROM events
        | STATS sum_value = SUM(value) WHERE value > 60, SUM(value)
    """, tables).to_pandas()
    filtered = frame.loc[frame.value > 60, "value"].sum()
    assert np.isclose(out["sum_value"].iloc[0], filtered)
    assert np.isclose(out.iloc[0, 1], frame["value"].sum())


def test_split_separator_roundtrip_property(ray_session):
    """Property: for arbitrary printable separators, ES|QL SPLIT over a
    Dataset equals str.split — the tokenizer's string escaping must
    round-trip every separator (quotes, backslashes, comma-space, ...)."""
    import ray.data as rd

    from hypothesis import given, settings
    from hypothesis import strategies as st

    base = rd.from_pandas(pd.DataFrame(
        {"id": [0], "t": ["a::b,c \\d\"e|f(g)h"]}))

    @settings(max_examples=40, deadline=None)
    @given(sep=st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        min_size=1, max_size=3))
    def check(sep):
        text = "a::b,c \\d\"e|f(g)h"
        esc = sep.replace("\\", "\\\\").replace('"', '\\"')
        out = esql(f'FROM d | EVAL parts = SPLIT(t, "{esc}")',
                   {"d": base}).to_pandas()
        assert list(out["parts"].iloc[0]) == text.split(sep)

    check()
