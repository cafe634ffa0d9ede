"""The benchmark's ``--trace`` pass times query phases by wrapping engine
methods by name (perfbench/layers.py). Every phase it wraps must still be
reached by a local search, and wrapping must not change the hits."""

import gc
import os
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from elasticsearch_ray.index.build import build_index
from elasticsearch_ray.index.spec import IndexSpec
from elasticsearch_ray.search.engine import QueryEngine
from elasticsearch_ray.search.query import MatchQuery

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import cycle  # noqa: E402  (perfbench/cycle.py, imported read-only)
import layers  # noqa: E402  (perfbench/layers.py, imported read-only)


def _build(base, texts) -> str:
    src = base / "src"
    src.mkdir()
    for f, rows in enumerate(texts):
        rows = rows * 10
        pq.write_table(pa.table({"url": [f"u{f}-{i}" for i in range(len(rows))],
                                 "text": rows}), str(src / f"f{f}.parquet"))
    idx = str(base / "index")
    build_index(str(src), idx, IndexSpec(use_html=False, text_column="text",
                                         doc_columns=("url",), files_per_partition=1),
                concurrency=2)
    return idx


@pytest.fixture(scope="module")
def two_part_index(ray_session, tmp_path_factory):
    return _build(tmp_path_factory.mktemp("seams"),
                  [["alpha beta gamma", "alpha delta"], ["epsilon zeta", "zeta alpha eta"]])


def test_query_tracer_sees_every_phase(two_part_index):
    q = MatchQuery("alpha zeta")
    eng = QueryEngine(two_part_index)
    tracer = layers.QueryTracer(eng)
    with tracer.installed():
        phases = tracer.search(q)
        traced = eng.search(q).to_pylist()
    for phase in ("stats", "can_match", "score", "fetch"):
        assert phases[phase] > 0, phase
    assert phases["local"] >= phases["stats"] + phases["score"]
    plain = QueryEngine(two_part_index).search(q).to_pylist()
    assert traced == plain
    assert len(plain) == 10  # k defaults to 10; 30 docs match


def _two_file_build_stages(tmp_path, concurrency: int, executor: str) -> dict:
    """Build two one-file partitions and parse ``LAST_BUILD_STATS`` the way
    the traced build does."""
    from elasticsearch_ray.index import build

    src = tmp_path / "src"
    src.mkdir()
    for f in range(2):
        pq.write_table(pa.table({"url": [f"u{f}-{i}" for i in range(20)],
                                 "text": ["alpha beta", "beta gamma"] * 10}),
                       str(src / f"f{f}.parquet"))
    build_index(str(src), str(tmp_path / "index"),
                IndexSpec(use_html=False, text_column="text", doc_columns=("url",),
                          files_per_partition=1), concurrency=concurrency)
    assert build.LAST_BUILD_STATS["executor"] == executor
    stages = layers.build_stages(build.LAST_BUILD_STATS)
    for st in ("tokenize", "sort", "route", "merge_part"):
        assert stages.get(f"{st}_s", 0.0) > 0, st
    return stages


def test_build_stage_stats_name_every_stage(ray_session, tmp_path):
    """The traced build reads its stage times from the Ray Data operator
    names in ``LAST_BUILD_STATS``; a renamed stage function would silently
    drop its ``layer.build.*_s`` metric."""
    _two_file_build_stages(tmp_path, 2, "ray_data")


def test_inline_build_reports_every_stage(tmp_path):
    """A one-lane build runs inline and writes the same stage reports
    itself, chunk rows and bytes included."""
    stages = _two_file_build_stages(tmp_path, 1, "inline")
    assert stages["chunk_rows"] == 6  # 3 terms in each of 2 files
    assert stages["shuffle_bytes"] > 0


def _actor_pids() -> set[int]:
    """The searcher/coordinator processes perfbench's ``peak_rss_mb`` waits for."""
    return {p for p in cycle._descendants(os.getpid())
            if cycle._cmdline(p).startswith(("ray::SearcherActor", "ray::CoordinatorActor"))}


def test_refresh_shape_reuses_actors_then_last_close_ends_them(two_part_index, tmp_path):
    """perfbench's refresh shape: the serving engine stays open while each
    refresh opens, searches and closes an engine on a second index. The
    second refresh starts no actor process; once the serving engine closes,
    no searcher or coordinator process survives (``peak_rss_mb`` waits up to
    10 s for exactly those, then counts whatever is alive)."""
    gc.collect()  # engines other tests dropped release their leases
    ingest = _build(tmp_path, [["alpha omega", "omega beta"], ["gamma omega"]])
    q = MatchQuery("alpha omega")
    # the engine perfbench's Run.open_engine opens
    serve = QueryEngine(two_part_index, parallel="ray", num_coordinators=1)
    serve.search(q)

    def refresh():
        eng = QueryEngine(ingest, parallel="ray", num_coordinators=1)
        try:
            assert len(eng.search(q)) > 0
        finally:
            eng.close()

    refresh()
    warm = _actor_pids()
    assert warm
    refresh()
    assert _actor_pids() == warm
    serve.close()
    deadline = time.monotonic() + 10
    while _actor_pids() and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not _actor_pids()
