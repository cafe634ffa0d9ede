"""EQL sequence queries (x-pack/plugin/eql SequenceGroup / KeyToSequences):
state-machine semantics, maxspan/until, asof-sharing mode, and the
block-boundary-straddling regression."""

import numpy as np
import pandas as pd
import pytest

from elasticsearch_ray.search.eql import _seq_state_machine, eql_sequence


def _run(events, n_stages, maxspan=None, has_until=False):
    """events: list of (ts, tb, bits) — ts numeric for clarity."""
    ts = np.array([e[0] for e in events], float)
    tb = np.array([e[1] for e in events], np.int64)
    bits = np.array([e[2] for e in events], np.int64)
    return _seq_state_machine(ts, tb, bits, list(range(n_stages)),
                              1 << n_stages, maxspan, has_until)


def test_latest_wins_nested_matching():
    # q1@1, q1@2, q2@3, q2@4: the first q2 consumes the MOST RECENT q1
    # (SequenceGroup#before → nested, non-crossing matching)
    out = _run([(1, 10, 1), (2, 11, 1), (3, 20, 2), (4, 21, 2)], 2)
    assert [(ids) for _f, ids, _t in out] == [(11, 20), (10, 21)]


def test_no_event_sharing():
    # one q1, two q2: only one match (sequences never share events)
    out = _run([(1, 10, 1), (2, 20, 2), (3, 21, 2)], 2)
    assert [ids for _f, ids, _t in out] == [(10, 20)]


def test_maxspan_expiry_prunes_partials():
    # q1@0, q1@2, q2@6: maxspan 4 → latest q1@2 in span (6-2=4), match;
    # maxspan 3 → both q1 partials expired, no match
    out = _run([(0, 1, 1), (2, 2, 1), (6, 3, 2)], 2, maxspan=4)
    assert [ids for _f, ids, _t in out] == [(2, 3)]
    out = _run([(0, 1, 1), (2, 2, 1), (6, 3, 2)], 2, maxspan=3)
    assert out == []


def test_maxspan_bounds_whole_sequence_not_per_hop():
    # 3 stages: hops of 2 each, total 4 > maxspan 3 → no match
    out = _run([(0, 1, 1), (2, 2, 2), (4, 3, 4)], 3, maxspan=3)
    assert out == []
    out = _run([(0, 1, 1), (2, 2, 2), (4, 3, 4)], 3, maxspan=4)
    assert [ids for _f, ids, _t in out] == [(1, 2, 3)]


def test_until_cancels_pending():
    # q1@1, until@2, q2@3 → the until clears the partial
    out = _run([(1, 1, 1), (2, 2, 4), (3, 3, 2)], 2, has_until=True)
    assert out == []
    # until BEFORE q1 is harmless
    out = _run([(0, 0, 4), (1, 1, 1), (3, 3, 2)], 2, has_until=True)
    assert [ids for _f, ids, _t in out] == [(1, 3)]


def test_event_matching_two_stages_advances_then_opens():
    # event@2 matches BOTH q1 and q2 (bits=3): it completes the pending
    # partial AND opens a new one (which the q2@3 then completes)
    out = _run([(1, 1, 1), (2, 2, 3), (3, 3, 2)], 2)
    assert sorted(ids for _f, ids, _t in out) == [(1, 2), (2, 3)]


def test_three_stage_chain_orders():
    out = _run([(1, 1, 1), (2, 2, 2), (3, 3, 4), (4, 4, 2), (5, 5, 4)],
               3)
    assert [ids for _f, ids, _t in out] == [(1, 2, 3)]


@pytest.fixture(scope="module")
def event_frame():
    rng = np.random.default_rng(7)
    n = 3000
    return pd.DataFrame({
        "event_id": np.arange(n),
        "user_id": rng.integers(0, 12, n),
        # us precision on purpose — parquet ts columns arrive as
        # datetime64[us]; a unitless-timedelta comparison bug only
        # showed there (ns frames were coincidentally consistent)
        "ts": (pd.to_datetime("2024-01-01")
               + pd.to_timedelta(rng.integers(0, 3_000_000, n), unit="s")
               ).astype("datetime64[us]"),
        "event_type": rng.choice(
            ["view", "click", "purchase", "error"], n),
    })


def test_boundary_straddling_blocks_identical(ray_session, event_frame):
    """A key's event run straddling Ray block boundaries must not change
    the result: 1-block vs 16-block datasets produce identical matches."""
    import ray.data as rd

    stages = [{"event_type": "view"}, {"event_type": "click"},
              {"event_type": "purchase"}]
    kw = dict(by="user_id", ts_col="ts", stages=stages,
              maxspan="2 days", until={"event_type": "error"})
    a = eql_sequence(rd.from_pandas(event_frame), **kw)
    many = rd.from_pandas(event_frame).repartition(16)
    b = eql_sequence(many, **kw)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0


def test_asof_mode_matches_duckdb(ray_session, event_frame):
    import duckdb
    import ray.data as rd

    out = eql_sequence(
        rd.from_pandas(event_frame), by="user_id", ts_col="ts",
        stages=[{"event_type": "view"}, {"event_type": "purchase"}],
        maxspan="1 days", until={"event_type": "error"}, mode="asof")
    events = event_frame  # noqa: F841 — duckdb binds it
    sql = duckdb.sql("""
        WITH c1 AS (SELECT user_id, ts, event_id FROM events
                    WHERE event_type = 'view'),
             c2 AS (SELECT user_id, ts, event_id FROM events
                    WHERE event_type = 'purchase')
        SELECT c2.user_id, c1.ts AS ts_0, c2.ts AS ts_1,
               c1.event_id AS id_0, c2.event_id AS id_1
        FROM c2 ASOF JOIN c1
          ON c2.user_id = c1.user_id AND c2.ts > c1.ts
        WHERE c2.ts - c1.ts <= INTERVAL 1 DAY
          AND NOT EXISTS (
            SELECT 1 FROM events u
            WHERE u.user_id = c2.user_id AND u.event_type = 'error'
              AND u.ts > c1.ts AND u.ts < c2.ts)
        ORDER BY c2.user_id, id_0, id_1
    """).df()
    got = out[["user_id", "ts_0", "ts_1", "id_0", "id_1"]].reset_index(
        drop=True).astype({"ts_0": "datetime64[us]",
                           "ts_1": "datetime64[us]"})
    want = sql.astype({"user_id": "int64", "id_0": "int64",
                       "id_1": "int64", "ts_0": "datetime64[us]",
                       "ts_1": "datetime64[us]"}).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    assert len(got) > 0


def test_mode_and_stage_validation():
    with pytest.raises(ValueError):
        eql_sequence(None, by="k", ts_col="t", stages=[{}])
    with pytest.raises(ValueError):
        eql_sequence(None, by="k", ts_col="t", stages=[{}, {}, {}],
                     mode="asof")
    with pytest.raises(ValueError):
        eql_sequence(None, by="k", ts_col="t", stages=[{}, {}],
                     mode="nope")


def test_eql_pipes_head_tail_and_errors():
    """LogicalPlanBuilder pipes: implicit ascending (ts_0, id_0) order,
    head/tail chain; unrecognized vs unsupported error parity."""
    import pandas as pd
    import pytest as _pytest

    from elasticsearch_ray.search.eql import eql_pipes

    f = pd.DataFrame({
        "ts_0": pd.to_datetime(["2024-01-03", "2024-01-01", "2024-01-02",
                                "2024-01-05", "2024-01-04"]),
        "id_0": [3, 1, 2, 5, 4],
    })
    assert eql_pipes(f, [("head", 3)])["id_0"].tolist() == [1, 2, 3]
    assert eql_pipes(f, [("tail", 2)])["id_0"].tolist() == [4, 5]
    assert eql_pipes(f, [("head", 4), ("tail", 2)])["id_0"].tolist() \
        == [3, 4]
    assert eql_pipes(f, [])["id_0"].tolist() == [1, 2, 3, 4, 5]
    with _pytest.raises(ValueError, match=r"Unrecognized pipe \[heda\].*"
                                          r"did you mean"):
        eql_pipes(f, [("heda", 1)])
    with _pytest.raises(ValueError, match=r"Pipe \[unique\] is not "
                                          r"supported"):
        eql_pipes(f, [("unique", 1)])
    with _pytest.raises(ValueError, match="positive integer"):
        eql_pipes(f, [("head", 0)])
    with _pytest.raises(ValueError, match="positive integer"):
        eql_pipes(f, [("tail", True)])


def test_runs_shared_predicate_bit_state_machine():
    # stage_bit [0, 1, 1] = `[q1] [q2] with runs=2`: both later stages
    # match the SAME predicate bit (bit 1)
    ts = np.array([1.0, 2.0, 3.0])
    tb = np.array([1, 2, 3], np.int64)
    bits = np.array([1, 2, 2], np.int64)
    out = _seq_state_machine(ts, tb, bits, [0, 1, 1], 1 << 2, None, False)
    assert [ids for _f, ids, _t in out] == [(1, 2, 3)]


def test_runs_expansion_equals_manual_duplicate(ray_session, event_frame):
    import ray.data as rd

    base = dict(by="user_id", ts_col="ts", maxspan="2 days")
    a = eql_sequence(rd.from_pandas(event_frame),
                     stages=[{"event_type": "view"},
                             {"event_type": "click"}],
                     runs=[1, 2], **base)
    b = eql_sequence(rd.from_pandas(event_frame),
                     stages=[{"event_type": "view"},
                             {"event_type": "click"},
                             {"event_type": "click"}], **base)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0


def test_runs_validation_reference_messages():
    with pytest.raises(ValueError, match="positive runs value"):
        eql_sequence(None, by="k", ts_col="t", stages=[{}, {}],
                     runs=[1, 0])
    with pytest.raises(ValueError, match="more than 100 times"):
        eql_sequence(None, by="k", ts_col="t", stages=[{}, {}],
                     runs=[1, 101])
    with pytest.raises(ValueError, match="more than 256 queries"):
        eql_sequence(None, by="k", ts_col="t", stages=[{}, {}, {}],
                     runs=[100, 100, 100])
    with pytest.raises(ValueError, match="minimum of 2 queries"):
        eql_sequence(None, by="k", ts_col="t", stages=[{}], runs=[1])
    with pytest.raises(ValueError, match="align"):
        eql_sequence(None, by="k", ts_col="t", stages=[{}, {}], runs=[1])


def test_multi_key_by_composite_join_keys(ray_session):
    """`sequence by user, host`: a view/click pair split across hosts
    matches on the single key but NOT on the composite key
    (LogicalPlanBuilder visitJoinKeys — all keys must agree)."""
    import ray.data as rd

    df = pd.DataFrame({
        "event_id": [1, 2, 3, 4],
        "user_id": [7, 7, 7, 7],
        "host": ["a", "b", "c", "c"],
        "ts": pd.to_datetime(
            ["2024-01-01", "2024-01-02", "2024-01-03", "2024-01-04"]
        ).astype("datetime64[us]"),
        "event_type": ["view", "click", "view", "click"],
    })
    stages = [{"event_type": "view"}, {"event_type": "click"}]
    single = eql_sequence(rd.from_pandas(df), by="user_id", ts_col="ts",
                          stages=stages)
    assert len(single) == 2  # (1,2) nested-latest + (3,4)
    both = eql_sequence(rd.from_pandas(df), by=["user_id", "host"],
                        ts_col="ts", stages=stages)
    assert list(both.columns[:2]) == ["user_id", "host"]
    assert len(both) == 1 and both["host"].iloc[0] == "c"
    assert (both["id_0"].iloc[0], both["id_1"].iloc[0]) == (3, 4)


def test_eql_sample_min_pick_and_all_filters_required(ray_session):
    """EQL sample: keys matching ALL filters, one min-tiebreak event per
    filter; keys missing any filter are absent."""
    import ray.data as rd

    from elasticsearch_ray.search.eql import eql_sample

    df = pd.DataFrame({
        "host": ["a", "a", "a", "b", "b", "c", "c"],
        "event_type": ["open", "write", "open", "open", "open",
                       "write", "open"],
        "event_id": [5, 3, 1, 2, 4, 6, 7],
    })
    out = eql_sample(rd.from_pandas(df), "host",
                     [{"event_type": "open"}, {"event_type": "write"}])
    # host a: open ids {5,1} -> 1; write -> 3. host b: no write. host c: both.
    assert out["host"].tolist() == ["a", "c"]
    assert out["id_0"].tolist() == [1, 7]
    assert out["id_1"].tolist() == [3, 6]


def test_eql_sample_validates_and_composite_key(ray_session):
    import ray.data as rd
    import pytest as _pt

    from elasticsearch_ray.search.eql import eql_sample

    df = pd.DataFrame({
        "host": ["a", "a"], "user": ["u", "u"],
        "event_type": ["open", "write"], "event_id": [1, 2],
    })
    with _pt.raises(ValueError):
        eql_sample(rd.from_pandas(df), "host", [{"event_type": "open"}])
    out = eql_sample(rd.from_pandas(df), ["host", "user"],
                     [{"event_type": "open"}, {"event_type": "write"}])
    assert out[["host", "user"]].iloc[0].tolist() == ["a", "u"]


def test_review_r5c_sample_string_tiebreak_and_big_ids(ray_session):
    """Review r5c #7: eql_sample preserves tiebreak dtype — string
    tiebreaks work; int64 ids above 2^53 survive exactly."""
    import ray.data as rd

    from elasticsearch_ray.search.eql import eql_sample

    big = 2**60 + 3
    df = pd.DataFrame({
        "host": ["a", "a"],
        "event_type": ["open", "write"],
        "event_id": [big, big + 1],
        "name": ["zz", "aa"],
    })
    out = eql_sample(rd.from_pandas(df), "host",
                     [{"event_type": "open"}, {"event_type": "write"}])
    assert int(out["id_0"].iloc[0]) == big
    assert int(out["id_1"].iloc[0]) == big + 1
    out2 = eql_sample(rd.from_pandas(df), "host",
                      [{"event_type": "open"}, {"event_type": "write"}],
                      tiebreak="name")
    assert out2["id_0"].iloc[0] == "zz" and out2["id_1"].iloc[0] == "aa"


def test_eql_sequence_missing_events(ray_session):
    """Missing-event sequences: [open] ![deny] [exec] — sequences whose
    gap contains a deny event (same key, strictly between) are removed;
    others keep matching."""
    import ray.data as rd

    from elasticsearch_ray.search.eql import eql_sequence_missing

    rows = [
        # host a: open(1) .. deny(2) .. exec(3)  -> filtered out
        ("a", "open", 1), ("a", "deny", 2), ("a", "exec", 3),
        # host b: open(1) .. exec(4), deny outside the gap (5) -> kept
        ("b", "open", 1), ("b", "exec", 4), ("b", "deny", 5),
        # host c: open(2) .. exec(6), deny BEFORE the open (1) -> kept
        ("c", "deny", 1), ("c", "open", 2), ("c", "exec", 6),
        # host d: deny exactly AT the exec ts -> strictly-between: kept
        ("d", "open", 1), ("d", "deny", 3), ("d", "exec", 3),
    ]
    df = pd.DataFrame(rows, columns=["host", "event_type", "t"])
    df["event_id"] = np.arange(len(df))
    out = eql_sequence_missing(
        rd.from_pandas(df), "host", "t",
        [{"event_type": "open"}, {"event_type": "exec"}],
        missing={0: {"event_type": "deny"}})
    assert sorted(out["host"]) == ["b", "c", "d"]
    # no missing spec behaves exactly like eql_sequence
    base = eql_sequence_missing(
        rd.from_pandas(df), "host", "t",
        [{"event_type": "open"}, {"event_type": "exec"}])
    assert sorted(base["host"]) == ["a", "b", "c", "d"]
    import pytest as _pt

    with _pt.raises(ValueError, match="gap index"):
        eql_sequence_missing(
            rd.from_pandas(df), "host", "t",
            [{"event_type": "open"}, {"event_type": "exec"}],
            missing={5: {"event_type": "deny"}})


def test_eql_sequence_missing_gap_follows_runs(ray_session):
    """With ``runs`` the gap after positive stage g lies between the LAST
    repeat of stage g and stage g+1: ``[open] with runs=2 ![deny] [exec]``."""
    import ray.data as rd

    from elasticsearch_ray.search.eql import eql_sequence_missing

    rows = [
        # host a: deny between the second open and the exec -> filtered out
        ("a", "open", 1), ("a", "open", 2), ("a", "deny", 3), ("a", "exec", 5),
        # host b: deny between the two opens, outside the gap -> kept
        ("b", "open", 1), ("b", "deny", 2), ("b", "open", 3), ("b", "exec", 5),
    ]
    df = pd.DataFrame(rows, columns=["host", "event_type", "t"])
    df["event_id"] = np.arange(len(df))
    out = eql_sequence_missing(
        rd.from_pandas(df), "host", "t",
        [{"event_type": "open"}, {"event_type": "exec"}],
        missing={0: {"event_type": "deny"}}, runs=[2, 1])
    assert sorted(out["host"]) == ["b"]
