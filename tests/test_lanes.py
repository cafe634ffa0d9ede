"""The one lane rule (index/lanes.py): every batch of per-partition jobs the
index layer starts runs in the calling process at width 1 and as Ray tasks
when wider, with the same output either way; a process that never started
Ray does not start it; and no other module reads the cluster's CPUs or
defines its own Ray task."""

import ast
import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

import elasticsearch_ray
from elasticsearch_ray.index import lanes, state
from test_index_state import SF_DIR, SPEC, _with_sidecars

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sources(sub: str = ""):
    root = os.path.dirname(elasticsearch_ray.__file__)
    for d, _dirs, files in os.walk(os.path.join(root, sub)):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                with open(path) as fh:
                    yield os.path.relpath(path, root), fh.read()


def test_only_the_lane_module_reads_cluster_cpus_or_defines_tasks():
    """``cluster_resources`` is named only in index/lanes.py, and no module
    under index/ defines a Ray task of its own (actor classes are exempt):
    each batch of jobs goes through ``lanes.run``."""
    named = [rel for rel, src in _sources()
             if "cluster_resources" in src and rel != os.path.join("index", "lanes.py")]
    assert named == []

    def is_ray_remote(node):
        f = node.func if isinstance(node, ast.Call) else node
        return isinstance(f, ast.Attribute) and f.attr == "remote" and \
            isinstance(f.value, ast.Name) and f.value.id == "ray"

    tasks = []
    for rel, src in _sources("index"):
        tree = ast.parse(src)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    any(is_ray_remote(d) for d in node.decorator_list):
                tasks.append(f"{rel}:{node.lineno}")
        for node in tree.body:  # module-level ``x = ray.remote(...)(fn)``
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and \
                    is_ray_remote(node.value.func):
                tasks.append(f"{rel}:{node.lineno}")
    assert tasks == []


def test_width_rule(monkeypatch):
    monkeypatch.setattr(lanes, "cpus", lambda: 3)
    assert [lanes.width(n) for n in (0, 1, 2, 5)] == [0, 1, 2, 3]
    assert [lanes.width(n, 2) for n in (1, 2, 5)] == [1, 2, 2]


def _four_part_index(root) -> str:
    """sf0.001 split into four one-file partitions, with a rank_features and
    a wildcard sidecar."""
    from elasticsearch_ray.index.build import build_index

    corpus = root / "corpus"
    corpus.mkdir()
    t = pq.read_table(f"{SF_DIR}/documents.parquet")
    cuts = np.linspace(0, len(t), 5).astype(int)
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        pq.write_table(t.slice(lo, hi - lo), str(corpus / f"docs{i}.parquet"))
    idx = str(root / "index")
    build_index(str(corpus), idx, SPEC, concurrency=2, file_pattern="docs*.parquet")
    return _with_sidecars(idx)


@pytest.fixture(scope="module")
def four_parts(ray_session, tmp_path_factory):
    return _four_part_index(tmp_path_factory.mktemp("lanes"))


def _index_files(idx: str) -> tuple[dict, dict]:
    """{path: bytes} of every file but the manifests, and {part: manifest
    without elapsed_sec}."""
    files, manifests = {}, {}
    for d, _dirs, names in os.walk(idx):
        for f in names:
            path = os.path.join(d, f)
            rel = os.path.relpath(path, idx)
            if f == "manifest.json":
                m = state.load_manifest(d)[0]
                manifests[rel] = {k: v for k, v in m.items() if k != "elapsed_sec"}
            else:
                with open(path, "rb") as fh:
                    files[rel] = fh.read()
    return files, manifests


def test_merge_in_process_equals_merge_as_ray_tasks(four_parts, tmp_path, monkeypatch):
    """``force_merge(idx, 2)`` merges two groups: as two Ray tasks on the
    4-CPU test cluster, in the calling process when the cluster has one
    CPU. Both write the same segment files, manifests (bar elapsed_sec),
    rank_features and wildcard sidecars and index meta."""
    from elasticsearch_ray.index import merge

    tasks, inline = str(tmp_path / "tasks"), str(tmp_path / "inline")
    shutil.copytree(four_parts, tasks)
    shutil.copytree(four_parts, inline)
    written = []
    write_segment = merge.write_segment
    monkeypatch.setattr(merge, "write_segment",
                        lambda *a, **kw: written.append(a[1]) or write_segment(*a, **kw))

    assert lanes.width(2) == 2
    merge.force_merge(tasks, 2)
    assert written == []  # the Ray workers ran their own, unpatched module
    monkeypatch.setattr(lanes, "cpus", lambda: 1)
    merge.force_merge(inline, 2)
    assert written == [0, 2]

    a_files, a_manifests = _index_files(tasks)
    b_files, b_manifests = _index_files(inline)
    assert state.snapshot(tasks).part_ids == [0, 2]
    assert a_files.keys() == b_files.keys()
    assert any("rankfeat-tags" in f for f in a_files)
    assert any("wildcarddv-u" in f for f in a_files)
    for f in a_files:
        assert a_files[f] == b_files[f], f
    assert a_manifests == b_manifests


def test_wildcard_and_vector_results_equal_at_every_width(four_parts, tmp_path,
                                                          monkeypatch):
    """Wildcard sidecar builds and searches and stateless vector top-k's give
    the same results run as Ray tasks (width 4) and in this process
    (width 1)."""
    import ray.data as rd

    from elasticsearch_ray.index import wildcard
    from elasticsearch_ray.index.vectors import VectorIndexReader, build_vector_index

    emb = pq.read_table(f"{SF_DIR}/embeddings.parquet")
    vec = str(tmp_path / "vec")
    build_vector_index(rd.from_arrow(emb), vec, num_partitions=3)
    qm = np.stack([np.asarray(v, np.float64) for v in emb["embedding"][:3].to_pylist()])
    qids = emb["vec_id"][:3].to_pylist()

    def results(idx):
        wildcard.build_wildcard_field(idx, "lang_wc", column="lang")
        with open(os.path.join(idx, "parts", "part=00001", "wildcard-lang_wc.parquet"),
                  "rb") as fh:
            side = fh.read()
        reader = VectorIndexReader(vec)
        return (side,
                wildcard.wildcard_field_search(idx, "u", "/docs/3/*1?.html").tolist(),
                wildcard.regexp_field_search(idx, "u", r"/docs/[12]/page-1\d\.html").tolist(),
                wildcard.range_field_search(idx, "u", gte="/docs/2/page-2",
                                            lt="/docs/2/page-4").tolist(),
                wildcard.wildcard_field_search(idx, "lang_wc", "e?").tolist(),
                [reader.topk(qids, qm, k=5, brute=b) for b in (True, False)])

    wide, narrow = str(tmp_path / "wide"), str(tmp_path / "narrow")
    shutil.copytree(four_parts, wide)
    shutil.copytree(four_parts, narrow)
    assert lanes.width(4) == 4
    a = results(wide)
    monkeypatch.setattr(lanes, "cpus", lambda: 1)
    b = results(narrow)
    assert a[:5] == b[:5]
    assert all(len(r) for r in a[1:5])
    for x, y in zip(a[5], b[5]):
        pd.testing.assert_frame_equal(x, y)


def test_a_process_without_ray_does_not_start_it(tmp_path):
    """A build at ``concurrency=1``, a wildcard sidecar build over three
    partitions, a one-group ``tiered_merge`` and ``force_merge(idx, 1)`` all
    run in a process that never calls ``ray.init``, and leave Ray
    unstarted."""
    script = textwrap.dedent(f"""
        import os
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray
        from elasticsearch_ray.index import build, merge, state, wildcard
        from elasticsearch_ray.index.spec import IndexSpec

        root = {str(tmp_path)!r}
        src = os.path.join(root, "src")
        os.makedirs(src)
        for f in range(3):
            pq.write_table(pa.table({{"url": [f"/u{{f}}/{{i}}" for i in range(20)],
                                     "text": ["alpha beta", "beta gamma"] * 10}}),
                           os.path.join(src, f"f{{f}}.parquet"))
        spec = IndexSpec(use_html=False, text_column="text", doc_columns=("url",),
                         files_per_partition=1)
        for name in ("tiered", "forced"):
            idx = os.path.join(root, name)
            build.build_index(src, idx, spec, concurrency=1)
            assert build.LAST_BUILD_STATS["executor"] == "inline"
            wildcard.build_wildcard_field(idx, "u", column="url")
            if name == "tiered":
                merge.tiered_merge(idx)
            else:
                merge.force_merge(idx, 1)
            assert state.snapshot(idx).part_ids == [0]
            assert len(wildcard.wildcard_field_search(idx, "u", "/u1/*")) == 20
        assert not ray.is_initialized()
        print("ok")
    """)
    env = {**os.environ, "PYTHONPATH": REPO}
    out = subprocess.run([sys.executable, "-c", script], cwd=str(tmp_path), env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip().endswith("ok")
