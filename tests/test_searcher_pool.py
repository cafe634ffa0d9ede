"""The process-level searcher pool: ray-backed engines on any index directory
lease the same warm actors, a refresh reopens readers inside them, and views
and leases end with their engine."""

import gc
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from elasticsearch_ray.index import admin
from elasticsearch_ray.index.build import build_index
from elasticsearch_ray.index.merge import tiered_merge
from elasticsearch_ray.index.spec import IndexSpec
from elasticsearch_ray.search import engine as engine_mod
from elasticsearch_ray.search.engine import QueryEngine
from elasticsearch_ray.search.query import MatchQuery, TermQuery

NEEDLE = "zzneedle"
WORDS = [f"w{i}" for i in range(300)]


def _write_file(src: str, f: int, rng, docs: int = 40, needles: int = 3) -> None:
    w = 1.0 / np.arange(1, len(WORDS) + 1) ** 1.1
    texts = []
    for i in range(docs):
        words = list(rng.choice(WORDS, size=int(rng.integers(8, 30)), p=w / w.sum()))
        if i < needles:
            words.append(NEEDLE)
        texts.append(" ".join(words))
    pq.write_table(pa.table({"url": [f"u{f}-{i}" for i in range(docs)], "text": texts}),
                   os.path.join(src, f"f{f:02d}.parquet"))


def _spec() -> IndexSpec:
    return IndexSpec(use_html=False, text_column="text", doc_columns=("url",),
                     files_per_partition=1)


def _index(base, name: str, n_files: int = 4, seed: int = 3) -> tuple[str, str]:
    """A fresh ``n_files``-partition index; returns (corpus dir, index dir)."""
    src, idx = str(base / f"{name}_src"), str(base / name)
    os.makedirs(src)
    rng = np.random.default_rng(seed)
    for f in range(n_files):
        _write_file(src, f, rng)
    build_index(src, idx, _spec(), concurrency=2)
    return src, idx


def _held(dirs=None) -> list:
    """(index_dir, part) of every reader view open on the pool's actors."""
    actors = engine_mod._POOL._searchers + engine_mod._POOL._coords
    views = [v for h in ray.get([a.held.remote() for a in actors]) for v in h.values()]
    return [(d, p) for v in views for d, p in v
            if dirs is None or any(d.startswith(x + os.sep) for x in dirs)]


def _rows(tbl) -> list:
    return [(r["part"], r["local"], r["score"]) for r in tbl.to_pylist()]


def _needle_hits(eng) -> int:
    return len(eng.search(TermQuery(NEEDLE), k=1000, fetch=()))


def test_engines_on_two_indexes_lease_the_same_actors(ray_session, tmp_path):
    _, idx_a = _index(tmp_path, "a")
    _, idx_b = _index(tmp_path, "b", n_files=3, seed=4)
    pool = engine_mod._POOL
    a = QueryEngine(idx_a, parallel="ray", num_coordinators=1)
    try:
        ids = [h._actor_id for h in pool._searchers + pool._coords]
        b = QueryEngine(idx_b, parallel="ray", num_coordinators=1)
        try:
            assert [h._actor_id for h in pool._searchers + pool._coords] == ids
            held = _held([idx_a, idx_b])
            assert {d for d, _ in held} == {os.path.join(idx_a, "parts", f"part={p:05d}")
                                            for p in a.parts} | {
                os.path.join(idx_b, "parts", f"part={p:05d}") for p in b.parts}
            q = MatchQuery("w1 w7 w30")
            assert _rows(b.search(q, k=10, fetch=())) == _rows(
                QueryEngine(idx_b).search(q, k=10, fetch=()))
            assert _needle_hits(a) == 12 and _needle_hits(b) == 9
        finally:
            b.close()
    finally:
        a.close()


def test_refresh_reopens_changed_partitions_only(ray_session, tmp_path):
    """An appended file, then a tiered_merge: after each admin.refresh the
    engine serves the new commit (needle counts equal the planted df) and
    never a removed partition; unchanged readers are kept."""
    src, idx = _index(tmp_path, "r")
    eng = QueryEngine(idx, parallel="ray", num_actors=2, num_coordinators=1)
    try:
        assert _needle_hits(eng) == 12
        kept = {p: eng._searcher(p) for p in eng.parts}
        _write_file(src, 4, np.random.default_rng(9))
        build_index(src, idx, _spec(), concurrency=2)
        out = admin.refresh(eng)
        assert out["parts"] == 5 and out["reopened"] == 1 and out["removed"] == 0
        assert all(eng._searcher(p) is s for p, s in kept.items())
        assert _needle_hits(eng) == 15

        tiered_merge(idx)
        out = admin.refresh(eng)
        assert out["removed"] > 0
        q = MatchQuery("w0 w2 w5")
        hits = eng.search(q, k=1000, fetch=())
        assert set(hits["part"].to_pylist()) <= set(eng.parts)
        assert _rows(hits) == _rows(QueryEngine(idx).search(q, k=1000, fetch=()))
        assert _needle_hits(eng) == 15
        assert eng.count(TermQuery(NEEDLE)) == 15
        # the pre-merge view lingers for searches in flight; the next
        # reopen retires it on every actor
        assert {p for _, p in _held([idx])} == {0, 1, 2, 3, 4}
        admin.refresh(eng)
        assert {p for _, p in _held([idx])} == set(eng.parts)
    finally:
        eng.close()


def test_search_in_flight_during_reopen_sees_one_view(ray_session, tmp_path):
    """A search held inside _fanout while the index is merged and the engine
    reopened returns exactly the old exhaustive top-k; the next search
    returns exactly the new one."""
    _, idx = _index(tmp_path, "f")
    eng = QueryEngine(idx, parallel="ray", num_actors=2)
    q = MatchQuery("w1 w3 w8 zzneedle")
    try:
        old = _rows(QueryEngine(idx).search(q, k=20, mode="exhaustive", fetch=()))
        entered, release = threading.Event(), threading.Event()
        orig = eng._fanout

        def held(method, *a, **kw):
            entered.set()
            release.wait(60)
            return orig(method, *a, **kw)

        eng._fanout = held
        with ThreadPoolExecutor(1) as ex:
            fut = ex.submit(eng.search, q, k=20, fetch=())
            assert entered.wait(60)
            try:
                tiered_merge(idx)
                admin.refresh(eng)
            finally:
                release.set()
            got = _rows(fut.result())
        del eng._fanout
        new = _rows(QueryEngine(idx).search(q, k=20, mode="exhaustive", fetch=()))
        assert old != new  # the merge renumbered the hits' partitions
        assert got == old
        assert _rows(eng.search(q, k=20, fetch=())) == new
    finally:
        eng.close()


def test_close_releases_the_engines_views(ray_session, tmp_path):
    """After one of two engines closes, the actors hold none of its readers
    and all of the live engine's; the last close ends the actors."""
    gc.collect()
    pool = engine_mod._POOL
    _, idx_a = _index(tmp_path, "ca")
    _, idx_b = _index(tmp_path, "cb", n_files=2)
    a = QueryEngine(idx_a, parallel="ray", num_actors=2, num_coordinators=1)
    b = QueryEngine(idx_b, parallel="ray", num_actors=2, num_coordinators=1)
    a.search(MatchQuery("w1"), k=5)
    b.search(MatchQuery("w1"), k=5)
    a.close()
    assert not _held([idx_a])
    assert {d for d, _ in _held([idx_b])} == {
        os.path.join(idx_b, "parts", f"part={p:05d}") for p in b.parts}
    b.close()
    if pool._leases == 0:
        assert not pool._searchers and not pool._coords


def test_garbage_collected_engine_releases_its_lease(ray_session, tmp_path):
    pool = engine_mod._POOL
    _, idx = _index(tmp_path, "g")
    keep = QueryEngine(idx, parallel="ray", num_actors=1)
    try:
        leases = pool._leases
        eng = QueryEngine(idx, parallel="ray", num_actors=1, num_coordinators=1)
        eng.search(MatchQuery("w2"), k=5)
        view = eng._view
        assert pool._leases == leases + 1
        del eng
        gc.collect()
        assert pool._leases == leases
        actors = pool._searchers + pool._coords
        for _ in range(50):  # the release is sent without waiting for it
            if not any(view in h for h in ray.get([x.held.remote() for x in actors])):
                break
            time.sleep(0.1)
        else:
            pytest.fail("a collected engine's view is still open")
    finally:
        keep.close()


def test_concurrent_open_search_reopen_close(ray_session, tmp_path):
    """Threads (more than cores) open, search and close engines on two
    indexes while another thread keeps reopening a shared engine that they
    also search: every search returns the local result and every lease is
    returned."""
    pool = engine_mod._POOL
    _, idx_a = _index(tmp_path, "sa")
    _, idx_b = _index(tmp_path, "sb", n_files=2)
    q = MatchQuery("w1 w4 w9")
    want = {d: _rows(QueryEngine(d).search(q, k=10, fetch=())) for d in (idx_a, idx_b)}
    shared = QueryEngine(idx_a, parallel="ray", num_actors=2)
    leases = pool._leases
    stop = threading.Event()

    def reopener():
        # paced: a search's view survives one reopen, not two in a row
        while not stop.wait(0.05):
            shared.reopen()

    def worker(t):
        for i in range(3):
            d = (idx_a, idx_b)[(t + i) % 2]
            eng = QueryEngine(d, parallel="ray", num_actors=1 + t % 2,
                              num_coordinators=t % 2)
            try:
                assert _rows(eng.search(q, k=10, fetch=())) == want[d]
                assert _rows(shared.search(q, k=10, fetch=())) == want[idx_a]
            finally:
                eng.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(7) as ex:
            bg = ex.submit(reopener)
            try:
                for f in [ex.submit(worker, t) for t in range(6)]:
                    f.result(timeout=120)
            finally:
                stop.set()
            bg.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        shared.close()
    assert pool._leases == leases - 1


def test_replica_sets_disjoint_and_multi_index_members_share_the_pool(ray_session, tmp_path):
    """num_replicas gives each replica set its own actors; MultiIndexEngine
    members lease the pool's existing actors and search as the local backend."""
    from elasticsearch_ray.search.multi import MultiIndexEngine

    _, idx_a = _index(tmp_path, "ma")
    _, idx_b = _index(tmp_path, "mb", n_files=2)
    pool = engine_mod._POOL
    eng = QueryEngine(idx_a, parallel="ray", num_replicas=2, num_actors=4)
    try:
        views = [h.get(eng._view, []) for h in
                 ray.get([a.held.remote() for a in pool._searchers])]
        assert sum(1 for v in views if v) == 4  # 2 sets × 2 actors
        assert sorted(p for v in views for _, p in v) == sorted(eng.parts * 2)
        n = len(pool._searchers)
        multi = MultiIndexEngine([idx_a, idx_b], parallel="ray", num_actors=2)
        try:
            assert len(pool._searchers) == n
            q = MatchQuery("w1 w6 zzneedle")
            assert (multi.search(q, k=15).to_pylist()
                    == MultiIndexEngine([idx_a, idx_b]).search(q, k=15).to_pylist())
        finally:
            multi.close()
    finally:
        eng.close()
