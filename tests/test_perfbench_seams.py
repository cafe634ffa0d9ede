"""The benchmark's ``--trace`` pass times query phases by wrapping engine
methods by name (perfbench/layers.py). Every phase it wraps must still be
reached by a local search, and wrapping must not change the hits."""

import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from elasticsearch_ray.index.build import build_index
from elasticsearch_ray.index.spec import IndexSpec
from elasticsearch_ray.search.engine import QueryEngine
from elasticsearch_ray.search.query import MatchQuery

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import layers  # noqa: E402  (perfbench/layers.py, imported read-only)


@pytest.fixture(scope="module")
def two_part_index(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("seams")
    src = base / "src"
    src.mkdir()
    texts = [["alpha beta gamma", "alpha delta"], ["epsilon zeta", "zeta alpha eta"]]
    for f, rows in enumerate(texts):
        rows = rows * 10
        pq.write_table(pa.table({"url": [f"u{f}-{i}" for i in range(len(rows))],
                                 "text": rows}), str(src / f"f{f}.parquet"))
    idx = str(base / "index")
    build_index(str(src), idx, IndexSpec(use_html=False, text_column="text",
                                         doc_columns=("url",), files_per_partition=1),
                concurrency=2)
    return idx


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


def test_build_stage_stats_name_every_stage(ray_session, tmp_path):
    """The traced build reads its stage times from the Ray Data operator
    names in ``LAST_BUILD_STATS``; a renamed stage function would silently
    drop its ``layer.build.*_s`` metric."""
    from elasticsearch_ray.index import build

    src = tmp_path / "src"
    src.mkdir()
    for f in range(2):
        pq.write_table(pa.table({"url": [f"u{f}-{i}" for i in range(20)],
                                 "text": ["alpha beta", "beta gamma"] * 10}),
                       str(src / f"f{f}.parquet"))
    build_index(str(src), str(tmp_path / "index"),
                IndexSpec(use_html=False, text_column="text", doc_columns=("url",),
                          files_per_partition=1), concurrency=2)
    stages = layers.build_stages(build.LAST_BUILD_STATS)
    for st in ("tokenize", "sort", "route", "merge_part"):
        assert stages.get(f"{st}_s", 0.0) > 0, st
