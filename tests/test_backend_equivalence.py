"""The local, actor-pool and coordinator backends of QueryEngine must return
identical results for every distributed read API, on a Zipf-vocabulary index
with several partitions (so can_match pruning is exercised); plus the
candidate-selection and DFS-gather guarantees the backends share."""

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from elasticsearch_ray.index.build import build_index
from elasticsearch_ray.index.spec import IndexSpec
from elasticsearch_ray.search import engine as engine_mod
from elasticsearch_ray.search.async_search import AsyncSearchService
from elasticsearch_ray.search.engine import (CoordinatorActor, PartitionSearcher, QueryEngine,
                                            _sort_order, coordinator_request)
from elasticsearch_ray.search.profile import profile_search
from elasticsearch_ray.search.query import IntervalsQuery, MatchQuery, TermFilter, TermQuery

N_PARTS = 4
NEEDLE = "zzneedle"  # planted into one file only → one partition
_SYL = [c + v for c, v in itertools.product("bdfghklmnprstvz", "aeiou")]


def _vocabulary(rng, size: int = 2000) -> list[str]:
    """Consonant+vowel syllable words: dense edit-distance neighbourhoods,
    so the suggesters and fuzzy completion have real candidates."""
    two = ["".join(p) for p in itertools.product(_SYL, repeat=2)]
    return [two[i] for i in rng.choice(len(two), size=size, replace=False)]


def _write_zipf_corpus(src: str, seed: int = 11, docs_per_file: int = 60) -> list[str]:
    """N_PARTS parquet files of Zipf(s=1.07) text; returns the vocabulary
    in rank order (rank 0 = most frequent)."""
    rng = np.random.default_rng(seed)
    vocab = _vocabulary(rng)
    w = 1.0 / np.arange(1, len(vocab) + 1) ** 1.07
    cdf = np.cumsum(w) / w.sum()
    os.makedirs(src)
    for f in range(N_PARTS):
        texts = []
        for i in range(docs_per_file):
            ranks = np.searchsorted(cdf, rng.random(int(rng.integers(20, 60))))
            words = [vocab[min(r, len(vocab) - 1)] for r in ranks]
            if f == 2 and i < 5:
                words.append(NEEDLE)
            texts.append(" ".join(words))
        n = len(texts)
        pq.write_table(pa.table({
            "url": [f"u{f}-{i}" for i in range(n)],
            "text": texts,
            "lang": rng.choice(["en", "de", "fr"], n).tolist(),
            "ts": rng.integers(0, 10_000, n).astype(np.int64),
        }), os.path.join(src, f"part-{f}.parquet"))
    return vocab


def _spec(**kw) -> IndexSpec:
    return IndexSpec(use_html=False, text_column="text",
                     doc_columns=("url", "lang", "ts"),
                     fields={"lang": "lang"}, field_analyzers={"lang": "keyword"},
                     files_per_partition=1, **kw)


@pytest.fixture(scope="module")
def zipf(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("zipf")
    src = str(base / "src")
    vocab = _write_zipf_corpus(src)
    idx = str(base / "index")
    build_index(src, idx, _spec(), concurrency=2)
    return idx, vocab


@pytest.fixture(scope="module")
def backends(zipf):
    idx, _vocab = zipf
    engines = {
        "local": QueryEngine(idx),
        "actors": QueryEngine(idx, parallel="ray", num_actors=2),
        "coordinator": QueryEngine(idx, parallel="ray", num_actors=2,
                                   num_coordinators=1),
    }
    yield engines
    for e in engines.values():
        if e.parallel == "ray":
            e.close()


def _typo(word: str) -> str:
    return word[:-1] + "q"  # 'q' is in no vocabulary word


def _set_cpus(monkeypatch, cpus: int, *engines) -> None:
    """Place the engines' top-k's as on a cluster of ``cpus`` CPUs: 1 keeps
    every top-k on the engine's own readers, 4 (more than the test's
    searcher actors) fans out every one that spans two actors."""
    for e in engines:
        monkeypatch.setattr(e, "_cpus", cpus)


def _request(view, kw) -> tuple:
    """The coordinator request for one case's search keywords (all but
    fetch, which stays on the driver)."""
    return coordinator_request(view, **{n: v for n, v in kw.items() if n != "fetch"})


def test_backends_agree_on_every_read_api(zipf, backends, monkeypatch):
    idx, v = zipf
    local = backends["local"]
    assert len(local.parts) >= N_PARTS
    q = MatchQuery(f"{v[5]} {v[30]} {v[200]}")
    page1 = local.search(q, k=5, fetch=("url",)).to_pylist()
    cursor = (page1[-1]["score"], page1[-1]["part"], page1[-1]["local"])
    needle_parts = local.can_match_parts([NEEDLE])
    assert 1 <= len(needle_parts) < len(local.parts)  # pruning is exercised
    stat_terms = [v[0], v[7], v[150], v[1999], NEEDLE, "absentterm"]

    searches = {
        "search_bmw": dict(q=q, k=10, fetch=("url",)),
        "search_exhaustive": dict(q=q, k=10, mode="exhaustive", fetch=("url",)),
        "search_after": dict(q=q, k=5, search_after=cursor, fetch=("url",)),
        "search_needle": dict(q=TermQuery(NEEDLE), k=10, fetch=("url",)),
        "search_intervals": dict(
            q=IntervalsQuery(source=("match", f"{v[3]} {v[4]}", 8, False)),
            k=10, fetch=("url",)),
        "search_field_sort": dict(q=q, k=10, sort=[("ts", "desc")],
                                  fetch=("url", "ts")),
        "search_post_filter": dict(q=q, k=10, post_filter=TermFilter(column="lang", value="en"),
                                   fetch=("url", "lang")),
        "search_post_filter_scoring": dict(q=q, k=10, post_filter=MatchQuery(v[7]),
                                           fetch=("url",)),
        "search_terminate_after": dict(q=q, k=10, terminate_after=4, fetch=("url",)),
        "search_min_score": dict(q=q, k=10, min_score=page1[2]["score"], fetch=("url",)),
        "search_collapse": dict(q=q, k=10, collapse="lang", fetch=("url", "lang")),
        "search_rescore": dict(q=q, k=10, rescore=(MatchQuery(f"{v[1]} {v[7]}"), 20, 1.0, 2.0),
                               fetch=("url",)),
    }
    calls = {
        **{name: (lambda e, kw=kw: e.search(**kw).to_pylist())
           for name, kw in searches.items()},
        "count": lambda e: (e.count(q), e.count(TermQuery(NEEDLE))),
        "terms_enum": lambda e: e.terms_enum(v[2][:2], size=20),
        "suggest": lambda e: e.suggest(f"{_typo(v[10])} {_typo(v[60])}", size=5),
        "complete": lambda e: e.complete(v[1][:2], size=8),
        "complete_ctx": lambda e: e.complete_ctx(
            v[1][:2], {"lang": ["en", {"context": "de", "boost": 2.0}]}, size=8),
        "complete_fuzzy": lambda e: e.complete_fuzzy(_typo(v[9][:3]), size=8),
        "suggest_phrase": lambda e: e.suggest_phrase(
            f"{v[0]} {_typo(v[12])} {v[3]}", size=3),
        "inner_hits": lambda e: e.inner_hits(
            q, "lang", ["en", "de", "fr"], size=2, fetch=("url",)).to_pylist(),
        "raw_stats": lambda e: e.raw_stats(stat_terms),
        "_global_ttf": lambda e: e._global_ttf(stat_terms),
        "_vocab_size": lambda e: e._vocab_size(),
    }
    for name, call in calls.items():
        want = call(local)
        assert want, name  # every API returns something non-trivial here
        for backend in ("actors", "coordinator"):
            assert call(backends[backend]) == want, (name, backend)

    # a sequential search no longer reaches a coordinator: drive one directly
    coord = backends["coordinator"]
    for name, kw in searches.items():
        tbl = ray.get(coord._coords[0](_request(coord._view, kw)))
        assert coord._attach_fetch(tbl, kw["fetch"]).to_pylist() == calls[name](local), name

    # the same searches under both placements: from the driver, and from a
    # coordinator's inner engine (run in this process, so the patched CPU
    # count reaches it; it fans out to the coordinator backend's searcher
    # actors under that engine's view key)
    inner = CoordinatorActor()
    inner.reopen(coord._view, idx, coord.dtype,
                 engine_mod._POOL._searchers[:len(coord._actors[1])], 4)
    engines = (backends["actors"], coord, inner.engines[coord._view])
    for cpus in (4, 1):
        _set_cpus(monkeypatch, cpus, *engines)
        for name, kw in searches.items():
            want = calls[name](local)
            runs = [lambda: calls[name](backends["actors"]),
                    lambda: calls[name](coord),
                    lambda: coord._attach_fetch(inner.search(_request(coord._view, kw)),
                                                kw["fetch"]).to_pylist()]
            # every option is placed once, like a plain search; on 4 CPUs
            # only the needle's query phase stays put: it sits in one
            # partition, so on one actor
            placed = "fanout" if cpus > 1 and name != "search_needle" else "driver"
            for e, run in zip(engines, runs):
                before = dict(e.placements)
                assert run() == want, (name, e.parallel, cpus)
                assert e.placements == {**before, placed: before[placed] + 1}, (name, cpus)


@pytest.mark.parametrize("backend,first", [("actors", 500), ("coordinator", 520)])
def test_sequential_search_is_one_round_trip(zipf, backends, monkeypatch, backend, first):
    """On one CPU, a sequential search scores on the driver's own readers
    with no Ray call at all; when its candidate partitions span actors on
    more than one CPU it makes ONE searcher fan-out (topk): the DFS runs on
    the engine's own readers, scorers ship inline (no object-store put), and
    no coordinator hop is taken."""
    _idx, v = zipf
    eng = backends[backend]
    local = backends["local"]
    gets, puts, fanouts = [], [], []
    orig_get, orig_put, orig_fanout = ray.get, ray.put, QueryEngine._fanout

    def get(*a, **kw):
        gets.append(1)
        return orig_get(*a, **kw)

    def put(*a, **kw):
        puts.append(1)
        return orig_put(*a, **kw)

    def fanout(self, method, *a, **kw):
        fanouts.append((method, bool(kw.get("pool"))))
        return orig_fanout(self, method, *a, **kw)

    monkeypatch.setattr(ray, "get", get)
    monkeypatch.setattr(ray, "put", put)
    monkeypatch.setattr(QueryEngine, "_fanout", fanout)
    for cpus, terms in ((1, [v[first], v[first + 7], v[first + 300]]),
                        (4, [v[first + 1], v[first + 8], v[first + 301]])):
        assert not set(terms) & set(eng._df_cache)  # fresh: the DFS must run
        q = MatchQuery(" ".join(terms))
        want = local.search(q, k=10, fetch=("url",)).to_pylist()
        _set_cpus(monkeypatch, cpus, eng)
        before = dict(eng.placements)
        gets.clear(), puts.clear(), fanouts.clear()
        assert eng.search(q, k=10, fetch=("url",)).to_pylist() == want
        fanned = cpus > 1
        placed = "fanout" if fanned else "driver"
        assert eng.placements == {**before, placed: before[placed] + 1}
        assert fanouts == [("topk", fanned)]
        assert puts == []
        assert len(gets) == (1 if fanned else 0)


def test_place_counts_actors_holding_candidates(zipf):
    """The placement rule: ``_place`` fans out exactly when more than one
    actor holds candidate partitions (dealt round-robin), counted up to the
    cluster's CPUs, or when the search overlaps another on the engine."""
    idx, _vocab = zipf
    eng = QueryEngine(idx)
    assert eng._place(eng.parts) == ()  # no actors
    pool = ("view", [None, None])
    eng._actors, eng._cpus = pool, 4
    assert eng._place(eng.parts) is pool
    assert eng._place(eng.parts[0::2]) == ()  # all on actor 0
    assert eng._place(eng.parts[1:2]) == ()
    assert eng._place([]) == ()
    eng._cpus = 1
    assert eng._place(eng.parts) == ()
    eng._overlap = True
    assert eng._place(eng.parts[:1]) is pool
    assert eng.placements == {"driver": 5, "fanout": 2, "coordinator": 0}


def test_overlapping_searches_use_coordinators(zipf, backends, monkeypatch):
    """Concurrent searches on the coordinator backend return the local
    results; a search issued while another is in flight goes to a
    coordinator instead of fanning out from the driver."""
    _idx, v = zipf
    local, coord = backends["local"], backends["coordinator"]
    queries = [MatchQuery(f"{v[i]} {v[i + 50]} {v[i + 400]}") for i in range(40, 72)]
    want = [local.search(q, k=10, fetch=("url",)).to_pylist() for q in queries]
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    got = {}

    def worker(t):
        barrier.wait()
        for i in range(t, len(queries), n_threads):
            got[i] = coord.search(queries[i], k=10, fetch=("url",)).to_pylist()

    with ThreadPoolExecutor(n_threads) as ex:
        list(ex.map(worker, range(n_threads)))
    assert got == dict(enumerate(want))

    entered, release = threading.Event(), threading.Event()
    driver_fanouts = []
    orig_fanout = coord._fanout

    def held(method, *a, **kw):
        driver_fanouts.append(method)
        entered.set()
        release.wait(60)
        return orig_fanout(method, *a, **kw)

    monkeypatch.setattr(coord, "_fanout", held)
    with ThreadPoolExecutor(1) as ex:
        first = ex.submit(coord.search, queries[0], k=10, fetch=("url",))
        assert entered.wait(60)
        try:
            second = coord.search(queries[1], k=10, fetch=("url",)).to_pylist()
        finally:
            release.set()
        assert first.result().to_pylist() == want[0]
    assert second == want[1]
    assert driver_fanouts == ["topk"]  # the overlapping search went to a coordinator


def test_overlapping_search_without_coordinators_fans_out(zipf, backends, monkeypatch):
    """On an engine without coordinators, a search issued while another is
    in flight fans its top-k out to the actors instead of scoring it on
    the driver's readers beside the first one, even on one CPU."""
    _idx, v = zipf
    local, eng = backends["local"], backends["actors"]
    queries = [MatchQuery(f"{v[i]} {v[i + 1]}") for i in (80, 82)]
    want = [local.search(q, k=10, fetch=("url",)).to_pylist() for q in queries]
    entered, release = threading.Event(), threading.Event()
    orig_fanout = QueryEngine._fanout

    def held(self, method, *a, **kw):
        if not entered.is_set():
            entered.set()
            release.wait(60)
        return orig_fanout(self, method, *a, **kw)

    monkeypatch.setattr(QueryEngine, "_fanout", held)
    _set_cpus(monkeypatch, 1, eng)
    before = dict(eng.placements)
    with ThreadPoolExecutor(1) as ex:
        first = ex.submit(eng.search, queries[0], k=10, fetch=("url",))
        assert entered.wait(60)
        try:
            second = eng.search(queries[1], k=10, fetch=("url",)).to_pylist()
        finally:
            release.set()
        assert first.result().to_pylist() == want[0]
    assert second == want[1]
    assert eng.placements == {**before, "driver": before["driver"] + 1,
                              "fanout": before["fanout"] + 1}


def test_profile_prunes_like_search(zipf):
    """profile_search and async search score exactly the partitions search
    would (can_match applies to IntervalsQuery in all three)."""
    idx, _vocab = zipf
    eng = QueryEngine(idx)
    q = IntervalsQuery(source=("match", NEEDLE, -1, False))
    cand = eng.can_match_parts([NEEDLE])
    assert len(cand) < len(eng.parts)
    want = eng.search(q, k=10, fetch=("doc_id",)).to_pylist()
    out = profile_search(eng, q, k=10)
    # one scoring pass on the driver, over exactly the candidate partitions
    assert [s["id"] for s in out["profile"]["shards"]] == \
        [f"[driver][part={','.join(map(str, cand))}]"]
    assert out["hits"].to_pylist() == want
    scored = []
    resp = AsyncSearchService(eng).submit(q, k=10, wait_for_completion_timeout=30.0,
                                          _between_parts=scored.append)
    assert scored == cand
    assert resp["response"]["successful_shards"] == resp["response"]["total_shards"]
    assert resp["response"]["hits"].to_pylist() == want


def test_profile_on_the_actor_backend_matches_search(zipf, backends):
    """profile_search is the search's own query phase, so on the actor
    backend it is placed like a search: candidates on both actors fan out
    (the test cluster has 4 CPUs), one shard entry per actor pass naming
    the partitions that actor scored, and the hits of ``search()``."""
    _idx, v = zipf
    eng = backends["actors"]
    q = MatchQuery(f"{v[0]} {v[3]}")
    assert eng._cpus >= 2 and eng.can_match_parts([v[0]]) == eng.parts
    want = eng.search(q, k=10, fetch=("doc_id",)).to_pylist()
    assert want == backends["local"].search(q, k=10, fetch=("doc_id",)).to_pylist()
    before = dict(eng.placements)
    out = profile_search(eng, q, k=10)
    assert eng.placements == {**before, "fanout": before["fanout"] + 1}
    assert out["hits"].to_pylist() == want
    n = len(eng._actors[1])
    assert n == 2
    shards = out["profile"]["shards"]
    assert [s["id"] for s in shards] == [
        f"[actor={a}][part={','.join(map(str, eng.parts[a::n]))}]" for a in range(n)]
    for s in shards:
        node = s["searches"][0]["query"][0]
        assert node["breakdown"]["collected_hits"] == 10
        assert node["time_in_nanos"] == shards[0]["searches"][0]["query"][0]["time_in_nanos"] > 0


def test_dfs_gather_once_per_fresh_term(zipf, tmp_path, monkeypatch):
    """An LM-similarity search needs df AND ttf; both come from ONE
    local_stats call per candidate partition per fresh term."""
    idx, vocab = zipf
    lm_idx = str(tmp_path / "lm")
    src = os.path.join(os.path.dirname(idx), "src")
    build_index(src, lm_idx, _spec(similarity="LMDirichlet"), concurrency=2)
    eng = QueryEngine(lm_idx)
    calls: list[int] = []
    orig = PartitionSearcher.local_stats

    def counted(self, terms):
        calls.append(len(terms))
        return orig(self, terms)

    monkeypatch.setattr(PartitionSearcher, "local_stats", counted)
    for term in (NEEDLE, vocab[0]):
        calls.clear()
        hits = eng.search(TermQuery(term), k=5)
        assert len(hits) > 0
        assert calls == [1] * len(eng.can_match_parts([term])), term
        calls.clear()
        eng.search(TermQuery(term), k=5)  # cached: no gather at all
        assert calls == []


def test_rescore_ships_only_its_window(zipf, backends, monkeypatch):
    """The rescore pass returns one score per window row, however many docs
    the rescore query matches, and re-ranks the window as QueryRescorer
    does: score·query_weight + rescore score·rescore_weight, and
    score·query_weight alone where the rescore query misses."""
    _idx, v = zipf
    local = backends["local"]
    q, rq = MatchQuery(f"{v[5]} {v[30]} {v[200]}"), MatchQuery(v[3])
    window, qw, rw = 12, 0.5, 3.0
    rescored = {(r["part"], r["local"]): r["score"]
                for r in local.search(rq, k=10**6, mode="exhaustive", fetch=()).to_pylist()}
    assert len(rescored) > 10 * window  # the rescore query matches far more than the window
    top = local.search(q, k=window, fetch=()).to_pylist()
    assert len(top) == window
    for r in top:
        extra = rescored.get((r["part"], r["local"]))
        r["score"] = r["score"] * qw + (extra * rw if extra is not None else 0.0)
    assert any((r["part"], r["local"]) not in rescored for r in top)
    want = [(r["part"], r["local"], r["score"])
            for r in sorted(top, key=lambda r: (-r["score"], r["part"], r["local"]))[:10]]
    shipped = []

    def counted(fanout):
        def wrapper(method, *a, **kw):
            out = fanout(method, *a, **kw)
            if method == "window_scores":
                shipped.append(sum(len(s) for _p, s in out))
            return out
        return wrapper

    for name, eng in backends.items():
        monkeypatch.setattr(eng, "_fanout", counted(eng._fanout))
        shipped.clear()
        got = eng.search(q, k=10, fetch=(), rescore=(rq, window, qw, rw)).to_pylist()
        assert [(r["part"], r["local"], r["score"]) for r in got] == want, name
        assert [r["rank"] for r in got] == list(range(1, 11)), name
        assert shipped == [window], name


def test_merge_orders_large_ints_exactly():
    """A descending integer sort key keeps its order beyond 2**53, where
    float64 would make neighbours tie and fall back to (part, doc)."""
    big = np.array([2**53, 2**53 + 1, 2**62, -(2**62)], np.int64)
    assert _sort_order([big], [True], np.arange(4)).tolist() == [2, 1, 0, 3]
    assert _sort_order([big.astype(np.uint64)[:3]], [True], np.arange(3)).tolist() == [2, 1, 0]
