"""Fleet plugin: global checkpoints + checkpoint-gated _fleet_search
(GetGlobalCheckpointsAction / RestFleetSearchAction semantics)."""

import threading
import time

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from elasticsearch_ray.index.spec import IndexSpec
from elasticsearch_ray.search.fleet import (
    current_checkpoints,
    fleet_search,
    global_checkpoints,
)
from elasticsearch_ray.search.query import MatchQuery


def _write_file(src, name, words, n=30, base=0):
    pq.write_table(
        pa.Table.from_pandas(
            pd.DataFrame({"id": range(base, base + n),
                          "text": [words] * n}),
            preserve_index=False),
        src / name)


@pytest.fixture()
def one_shard_index(ray_session, tmp_path):
    from elasticsearch_ray.index.build import build_index

    src = tmp_path / "src"
    src.mkdir()
    _write_file(src, "f-00.parquet", "alpha beta")
    idx = str(tmp_path / "idx")
    spec = IndexSpec(use_html=False, text_column="text",
                     doc_columns=("id",), files_per_partition=4)
    build_index(str(src), idx, spec, concurrency=2)
    return src, idx, spec


def test_current_checkpoints_and_plain_get(one_shard_index):
    _, idx, _ = one_shard_index
    assert current_checkpoints(idx) == [29]
    resp = global_checkpoints(idx)
    assert resp == {"global_checkpoints": [29], "timed_out": False}


def test_validations(one_shard_index, tmp_path):
    _, idx, _ = one_shard_index
    with pytest.raises(ValueError, match="wait_for_advance must"):
        global_checkpoints(idx, wait_for_index=True)
    with pytest.raises(ValueError, match=">= -1"):
        global_checkpoints(idx, wait_for_advance=True, checkpoints=[-2],
                           timeout=0.2)
    with pytest.raises(ValueError, match="must equal number of shards"):
        global_checkpoints(idx, wait_for_advance=True,
                           checkpoints=[1, 2], timeout=0.2)
    with pytest.raises(FileNotFoundError):
        global_checkpoints(str(tmp_path / "nope"))


def test_wait_for_advance_requires_one_shard(ray_session, tmp_path):
    from elasticsearch_ray.index.build import build_index

    src = tmp_path / "src2"
    src.mkdir()
    _write_file(src, "f-00.parquet", "alpha", base=0)
    _write_file(src, "f-01.parquet", "beta", base=30)
    idx = str(tmp_path / "idx2")
    spec = IndexSpec(use_html=False, text_column="text",
                     doc_columns=("id",), files_per_partition=1)
    build_index(str(src), idx, spec, concurrency=2)
    assert len(current_checkpoints(idx)) == 2
    with pytest.raises(ValueError, match="one shard"):
        global_checkpoints(idx, wait_for_advance=True, timeout=0.2)
    # a non-waiting GET over many shards is fine
    assert global_checkpoints(idx)["global_checkpoints"] == [29, 29]


def test_wait_for_advance_soft_timeout(one_shard_index):
    _, idx, _ = one_shard_index
    # checkpoint is already 29; asking to advance past 29 times out
    # SOFTLY with the current values (reference: timed_out=true response)
    t0 = time.monotonic()
    resp = global_checkpoints(idx, wait_for_advance=True,
                              checkpoints=[29], timeout=0.3)
    assert resp == {"global_checkpoints": [29], "timed_out": True}
    assert time.monotonic() - t0 >= 0.3
    # already-satisfied wait returns immediately
    resp2 = global_checkpoints(idx, wait_for_advance=True,
                               checkpoints=[10], timeout=5.0)
    assert resp2 == {"global_checkpoints": [29], "timed_out": False}


def test_wait_for_advance_sees_concurrent_append(one_shard_index):
    from elasticsearch_ray.index.build import build_index

    src, idx, spec = one_shard_index

    def append_later():
        time.sleep(0.3)
        _write_file(src, "f-01.parquet", "gamma beta", base=30)
        build_index(str(src), idx, spec, concurrency=2)

    t = threading.Thread(target=append_later)
    t.start()
    try:
        resp = global_checkpoints(idx, wait_for_advance=True,
                                  checkpoints=[29], timeout=20.0)
    finally:
        t.join()
    assert resp["timed_out"] is False
    assert resp["global_checkpoints"] == [59]


def test_fleet_search_gates_on_checkpoints(one_shard_index):
    from elasticsearch_ray.search.engine import QueryEngine

    _, idx, _ = one_shard_index
    eng = QueryEngine(idx, dtype="float64")
    # satisfied checkpoint -> identical to a plain search
    out = fleet_search(eng, MatchQuery("beta"),
                       wait_for_checkpoints=[29], k=100)
    assert out.num_rows == eng.search(MatchQuery("beta"), k=100).num_rows
    # unreachable checkpoint -> hard error (unlike the soft GET timeout)
    with pytest.raises(TimeoutError):
        fleet_search(eng, MatchQuery("beta"),
                     wait_for_checkpoints=[99], timeout=0.3, k=10)
    with pytest.raises(ValueError, match="must equal number of shards"):
        fleet_search(eng, MatchQuery("beta"),
                     wait_for_checkpoints=[1, 2], timeout=0.3, k=10)


def test_manifest_removed_mid_read_reads_as_uncommitted(tmp_path, monkeypatch):
    """A rebuild replaces a partition dir while global_checkpoints polls
    it: a manifest that passes an existence check and is gone by the open
    reads as "not committed yet", not as an error."""
    from elasticsearch_ray.index import state

    monkeypatch.setattr(state.os.path, "exists", lambda _p: True)
    assert state.read_manifest(str(tmp_path), 0) is None
