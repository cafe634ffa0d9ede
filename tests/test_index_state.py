"""Committed index state goes through one module (index/state.py): the
boundary itself, the round trip of every state file, sidecars across
merges, a pinned search across a merge, and build stats of a no-op build."""

import inspect
import json
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import elasticsearch_ray
from elasticsearch_ray.index import state
from elasticsearch_ray.index.spec import IndexSpec
from elasticsearch_ray.search.query import MatchQuery, RankFeatureQuery

SF_DIR = "/root/testdata/sf0.001"
SPEC = IndexSpec(use_html=False, text_column="text", doc_columns=("lang",),
                 files_per_partition=1)


def test_only_the_state_module_names_state_files():
    """No module but index/state.py names the index-level state files or
    reads / locates a part manifest."""
    pat = re.compile(r"index_meta\.json|frozen\.json|admin\.json"
                     r"|\b(read_manifest|manifest_path)\b")
    root = os.path.dirname(elasticsearch_ray.__file__)
    own = os.path.join(root, "index", "state.py")
    offenders = []
    for d, _dirs, files in os.walk(root):
        for f in files:
            path = os.path.join(d, f)
            if f.endswith(".py") and path != own:
                with open(path) as fh:
                    offenders += [f"{os.path.relpath(path, root)}:{i}"
                                  for i, line in enumerate(fh, 1) if pat.search(line)]
    assert offenders == []


def _grep(pat: str) -> list[str]:
    """``file:line`` of each package source line that matches ``pat``."""
    root = os.path.dirname(elasticsearch_ray.__file__)
    hits = []
    for d, _dirs, files in os.walk(root):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(d, f)) as fh:
                    hits += [f"{os.path.relpath(os.path.join(d, f), root)}:{i}"
                             for i, line in enumerate(fh, 1) if re.search(pat, line)]
    return hits


def test_one_read_write_pair_for_json_files():
    """Every JSON file goes through segments.atomic_write_json / read_json;
    only state.load_manifest and state.snapshot open theirs by hand, for the
    fstat stamp. Each file shared by two modules is named by one of them."""
    assert {h.split(":")[0] for h in _grep(r"json\.dump\(")} == {"index/segments.py"}
    loads = _grep(r"json\.load\(")
    assert {h.split(":")[0] for h in loads} == {"index/segments.py", "index/state.py"}
    stamped = set()
    for fn in (state.load_manifest, state.snapshot):
        lines, start = inspect.getsourcelines(fn)
        stamped |= {f"index/state.py:{i}" for i in range(start, start + len(lines))}
    assert {h for h in loads if h.startswith("index/state.py")} <= stamped
    assert {h.split(":")[0] for h in _grep(r'"snapshot\.json"')} == {"index/snapshot.py"}
    assert {h.split(":")[0] for h in _grep(r'"transform_manifest\.json"')} == \
        {"pipelines/transform.py"}


def _three_part_index(root) -> str:
    """sf0.001 split into three one-file partitions."""
    from elasticsearch_ray.index.build import build_index

    corpus = root / "corpus"
    corpus.mkdir()
    t = pq.read_table(f"{SF_DIR}/documents.parquet")
    n = len(t)
    for i, (lo, hi) in enumerate([(0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n)]):
        pq.write_table(t.slice(lo, hi - lo), str(corpus / f"docs{i}.parquet"))
    idx = str(root / "index")
    build_index(str(corpus), idx, SPEC, concurrency=2, file_pattern="docs*.parquet")
    return idx


def _with_sidecars(idx: str) -> str:
    """A rank_features field ``tags`` (f_a on every doc, f_b on every third)
    and a wildcard field ``u`` over synthetic paths."""
    from elasticsearch_ray.index.rank_features import build_rank_features
    from elasticsearch_ray.index.wildcard import build_wildcard_field

    n = state.snapshot(idx).n_docs
    ids = np.arange(n, dtype=np.int64)
    b = ids[ids % 3 == 0]
    build_rank_features(idx, "tags", pa.table({
        "doc_id": np.concatenate([ids, b]),
        "feature": ["f_a"] * n + ["f_b"] * len(b),
        "weight": np.concatenate([1.0 + (ids % 4) * 0.25, 0.5 + (b % 8) * 0.5]),
    }))
    build_wildcard_field(idx, "u", values=pa.table({
        "doc_id": ids, "value": [f"/docs/{i % 7}/page-{i}.html" for i in range(n)]}))
    return idx


def _sidecar_hits(idx: str) -> dict:
    from elasticsearch_ray.index.wildcard import (range_field_search,
                                                  wildcard_field_search)
    from elasticsearch_ray.search.engine import QueryEngine

    eng = QueryEngine(idx, dtype="float64")
    out = {}
    for feat in ("f_a", "f_b"):
        q = RankFeatureQuery(field=f"tags.{feat}")
        tbl = eng.search(q, k=10**9, mode="exhaustive", fetch=("doc_id",))
        out[feat] = (eng.count(q), sorted((r["doc_id"], round(r["score"], 6))
                                          for r in tbl.to_pylist()))
    out["wildcard"] = wildcard_field_search(idx, "u", "/docs/3/*1?.html").tolist()
    out["range"] = range_field_search(idx, "u", gte="/docs/2/page-2",
                                      lt="/docs/2/page-4").tolist()
    return out


@pytest.fixture(scope="module")
def sidecar_index(ray_session, tmp_path_factory):
    idx = _with_sidecars(_three_part_index(tmp_path_factory.mktemp("state")))
    return idx, _sidecar_hits(idx)


@pytest.mark.parametrize("merge", ["force_merge", "tiered_merge", "shrink_index"])
def test_merges_carry_rank_feature_and_wildcard_sidecars(sidecar_index, tmp_path, merge):
    """A merge rewrites the merged segment into the first part's slot: every
    recorded sidecar must come along, with locals shifted into the merged
    doc space, so the hits are those of the unmerged index."""
    import shutil

    from elasticsearch_ray.index import merge as merge_mod
    from elasticsearch_ray.index.resize import shrink_index

    src, before = sidecar_index
    assert before["f_a"][0] == state.snapshot(src).n_docs
    assert before["f_b"][0] > 0 and before["wildcard"] and before["range"]
    idx = str(tmp_path / "merged")
    if merge == "shrink_index":
        shrink_index(src, idx, 1)
    else:
        shutil.copytree(src, idx)
        if merge == "tiered_merge":
            merge_mod.tiered_merge(idx)  # three below-floor parts: one group
        else:
            merge_mod.force_merge(idx, 1)
    snap = state.snapshot(idx)
    assert len(snap.parts) == 1
    assert snap.sidecar_complete("rankfeat", "tags")
    assert snap.sidecar_complete("wildcard", "u")
    assert _sidecar_hits(idx) == before


def _load(path):
    with open(path) as f:
        return json.load(f)


def test_snapshot_round_trips_every_state_file(ray_session, tmp_path):
    """After build, sidecar builds, a merge, freeze and close/open, the
    snapshot equals a plain read of the files, and each file is exactly
    ``json.dump(obj, indent=1)`` of what it holds."""
    from elasticsearch_ray.index import admin
    from elasticsearch_ray.index.merge import force_merge
    from elasticsearch_ray.search.engine import QueryEngine

    idx = _with_sidecars(_three_part_index(tmp_path))
    force_merge(idx, 2)
    QueryEngine(idx).freeze()
    admin.close_index(idx)
    admin.open_index(idx)

    snap = state.snapshot(idx)
    assert snap.meta == _load(os.path.join(idx, state.META))
    assert [p.part for p in snap.parts] == [p["part"] for p in snap.meta["parts"]]
    bases = np.cumsum([0] + [p["n_docs"] for p in snap.meta["parts"]])[:-1].tolist()
    assert [p.base for p in snap.parts] == bases
    files = [os.path.join(idx, state.META)]
    for p in snap.parts:
        mpath = os.path.join(idx, "parts", f"part={p.part:05d}", "manifest.json")
        assert p.manifest == _load(mpath) and p.manifest["base_doc_id"] == p.base
        st = os.stat(mpath)
        assert p.stamp == (st.st_ino, st.st_mtime_ns, st.st_size)
        files.append(mpath)
    records = {("rankfeat", "tags"): "rankfeat-tags.json", ("wildcard", "u"): "wildcard-u.json"}
    assert snap.sidecars == {k: _load(os.path.join(idx, f)) for k, f in records.items()}
    assert snap.frozen and state.admin_state(idx) == {"closed": False}
    files += [os.path.join(idx, f) for f in records.values()]
    files += [os.path.join(idx, f) for f in os.listdir(idx) if f in ("frozen.json", "admin.json")]
    assert len(files) == 1 + len(snap.parts) + 2 + 2
    for f in files:
        with open(f) as fh:
            raw = fh.read()
        assert raw == json.dumps(json.loads(raw), indent=1), f


def test_pinned_search_across_a_merge_names_the_stale_commit(ray_session, tmp_path):
    """A search pinned before a merge lands opens no reader of the merged
    slot and no missing directory: it raises the stale-commit error, and its
    Bloom filters take their size from the pinned manifests."""
    from elasticsearch_ray.index.merge import tiered_merge
    from elasticsearch_ray.search.engine import QueryEngine

    def top(e):
        return [(r["doc_id"], r["score"]) for r in
                e.search(MatchQuery("spark"), k=10, fetch=("doc_id",)).to_pylist()]

    idx = _three_part_index(tmp_path)
    eng = QueryEngine(idx, dtype="float64")
    held = eng._pinned()  # before any search: nothing is open yet
    want = top(QueryEngine(idx, dtype="float64"))
    tiered_merge(idx)
    assert eng.reopen()["removed"] == 2
    for p in held.parts:
        bits = held.snap.part(p).manifest["bloom_bits"]
        assert held._bloom(p)[1] == bits
    with pytest.raises(state.StaleCommitError):
        top(held)
    assert top(eng) == want


def test_noop_build_reports_no_build_stats(ray_session, tmp_path):
    """``LAST_BUILD_STATS`` describes the last build_index call: a fully
    resumed build built nothing and leaves it empty."""
    from elasticsearch_ray.index import build

    idx = _three_part_index(tmp_path)
    assert build.LAST_BUILD_STATS["executor"]
    build.build_index(str(tmp_path / "corpus"), idx, SPEC, concurrency=2,
                      file_pattern="docs*.parquet")
    assert build.LAST_BUILD_STATS == {}


def test_creation_time_survives_refresh_noop_build_and_merge(tmp_path, monkeypatch):
    """``commit_parts`` stamps ``created_unix`` at the index's first commit
    and carries it forward, so neither an append-and-refresh build, a no-op
    build nor a merge moves the index's ILM age; a meta written before the
    stamp existed keeps the age of its file's mtime."""
    import shutil
    import types

    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.index.ilm import index_creation_time
    from elasticsearch_ray.index.merge import tiered_merge

    src = tmp_path / "src"
    src.mkdir()
    t = pq.read_table(f"{SF_DIR}/documents.parquet")
    for i in range(3):
        pq.write_table(t.slice(100 * i, 100), str(src / f"docs{i}.parquet"))
    later = tmp_path / "later"
    later.mkdir()
    shutil.move(str(src / "docs2.parquet"), str(later / "docs2.parquet"))
    idx = str(tmp_path / "index")
    build_index(str(src), idx, SPEC, concurrency=1)
    t0 = index_creation_time(idx)

    import time as _time
    monkeypatch.setattr(state, "time", types.SimpleNamespace(
        time=lambda: _time.time() + 10**6), raising=False)
    shutil.move(str(later / "docs2.parquet"), str(src / "docs2.parquet"))
    build_index(str(src), idx, SPEC, concurrency=1)  # append + refresh
    assert len(state.snapshot(idx).parts) == 3 and index_creation_time(idx) == t0
    build_index(str(src), idx, SPEC, concurrency=1)  # no-op
    assert index_creation_time(idx) == t0
    tiered_merge(idx)
    assert len(state.snapshot(idx).parts) == 1 and index_creation_time(idx) == t0
    assert state.snapshot(idx).meta["created_unix"] == t0

    meta_path = os.path.join(idx, state.META)
    old = {k: v for k, v in _load(meta_path).items() if k != "created_unix"}
    with open(meta_path, "w") as f:
        json.dump(old, f, indent=1)
    os.utime(meta_path, (t0 - 3600, t0 - 3600))
    assert index_creation_time(idx) == t0 - 3600
    build_index(str(tmp_path / "src"), idx, SPEC, concurrency=1)
    assert state.snapshot(idx).meta["created_unix"] == t0 - 3600


@pytest.mark.parametrize("read", ["sidecar", "auto_pivot", "pruning"])
def test_pinned_rank_feature_search_across_a_merge_names_the_stale_commit(
        sidecar_index, tmp_path, read):
    """A search pinned before a merge reads rank_features sidecars and
    their feature statistics (rank_feature auto-pivot, sparse_vector
    pruning) from its own commit: after the merge it raises the
    stale-commit error instead of scoring the merged slot's locals against
    its old readers."""
    import shutil

    from elasticsearch_ray.index.merge import force_merge
    from elasticsearch_ray.search.engine import QueryEngine
    from elasticsearch_ray.search.query import SparseVectorQuery

    q = {"sidecar": RankFeatureQuery(field="tags.f_b", pivot=1.0),
         "auto_pivot": RankFeatureQuery(field="tags.f_b"),
         "pruning": SparseVectorQuery(field="tags", tokens=(("f_a", 1.0), ("f_b", 1.0)),
                                      prune=True)}[read]
    idx = str(tmp_path / "index")
    shutil.copytree(sidecar_index[0], idx)
    eng = QueryEngine(idx, dtype="float64")
    for p in eng.parts:  # as a search over every partition would
        eng._searcher(p)
    held = eng._pinned()
    force_merge(idx, 1)
    with pytest.raises(state.StaleCommitError):
        held.search(q, k=10, fetch=("doc_id",))
    eng.reopen()
    assert eng.count(RankFeatureQuery(field="tags.f_b")) == sidecar_index[1]["f_b"][0]
