"""Point-in-time API: snapshot isolation across appends, stable corpus
stats, expiry, close, merged-away partition error."""

import os
import shutil

import pyarrow.parquet as pq
import pytest

from elasticsearch_ray.search.pit import (PitError, close_pit, open_pit,
                                          pit_engine)
from elasticsearch_ray.search.query import MatchQuery

SF_DIR = "/root/testdata/sf0.001"


def _growing(tmp_path, files_per_partition: int = 1):
    """An index over the first half of the docs, and a function that
    appends the second half as a new file and refreshes the index."""
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.index.spec import IndexSpec

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    t = pq.read_table(f"{SF_DIR}/documents.parquet")
    half = len(t) // 2
    pq.write_table(t.slice(0, half), str(corpus / "docs0.parquet"))
    idx = str(tmp_path / "index")
    spec = IndexSpec(use_html=False, text_column="text",
                     doc_columns=("lang",), files_per_partition=files_per_partition)
    build_index(str(corpus), idx, spec, concurrency=2,
                file_pattern="docs*.parquet")

    def grow():
        pq.write_table(t.slice(half, len(t) - half),
                       str(corpus / "docs1.parquet"))
        build_index(str(corpus), idx, spec, concurrency=2,
                    file_pattern="docs*.parquet")

    return idx, grow


@pytest.fixture()
def growing_index(ray_session, tmp_path):
    return _growing(tmp_path)


def test_pit_isolates_appends(growing_index):
    from elasticsearch_ray.search.engine import QueryEngine

    idx, grow = growing_index
    pit = open_pit(idx)
    before = pit_engine(pit).search(MatchQuery("spark"), k=10**9,
                                    fetch=("doc_id",))
    grow()
    # a fresh engine sees the appended docs; the PIT does not
    fresh = QueryEngine(idx, dtype="float64").search(
        MatchQuery("spark"), k=10**9, fetch=("doc_id",))
    pinned = pit_engine(pit).search(MatchQuery("spark"), k=10**9,
                                    fetch=("doc_id",))
    assert len(fresh) > len(before)
    assert pinned.to_pylist() == before.to_pylist()  # scores stable too
    close_pit(pit)
    with pytest.raises(PitError):
        pit_engine(pit)


def test_pit_expiry_and_refresh(growing_index):
    idx, _grow = growing_index
    pit = open_pit(idx, keep_alive=0.05)
    import time

    time.sleep(0.1)
    with pytest.raises(PitError):
        pit_engine(pit)
    pit = open_pit(idx, keep_alive=0.2)
    pit_engine(pit, keep_alive=60.0)  # refresh
    time.sleep(0.3)
    pit_engine(pit)  # still alive
    close_pit(pit)


def test_pit_merged_away_partition_errors(growing_index):
    idx, _grow = growing_index
    pit = open_pit(idx)
    part0 = os.path.join(idx, "parts", "part=00000")
    shutil.rmtree(part0)
    with pytest.raises(PitError, match="merged/deleted"):
        pit_engine(pit)
    close_pit(pit)
    with pytest.raises(PitError):
        close_pit("pit_nope")


def test_pit_detects_a_partition_rewritten_in_place(ray_session, tmp_path):
    """With two files per partition, an append rewrites partition 0 in
    place: the PIT can no longer serve its snapshot and says so."""
    idx, grow = _growing(tmp_path, files_per_partition=2)
    pit = open_pit(idx)
    assert len(pit_engine(pit).search("spark", k=10**9, fetch=("doc_id",))) > 0
    grow()
    with pytest.raises(PitError, match="rewritten"):
        pit_engine(pit)
    close_pit(pit)
