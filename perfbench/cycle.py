"""One benchmark run — set-up, then rounds of build, serve and refresh — in
this process.

Started by ``run.py`` as a fresh child process. Every workload runs the same
steps, sized differently, so every run reports every metric:

  set-up   seeded corpus; pin CPUs; ``ray.init``; four fresh builds of a
           tiny corpus (their median is ``setup_s``); a fresh build of the
           base corpus — the serving index, a build sample;
           ``QueryEngine(parallel="ray", num_coordinators=1)`` on it, warmed up
  round    (ROUNDS times) one fresh build of the base files (in round 0, the
           ingest index); a slice of the closed-loop stream of distinct
           seeded queries on the serving engine, from one thread; one
           refresh of the ingest index: append
           a file → incremental ``build_index`` → open an engine → first
           query (refresh time ends) → query batch → close, with the
           workload's ``tiered_merge`` after refresh ``merge_after``

Every time and rate is reported at reference host speed: divided (a rate
multiplied) by the run's Gauge factor — the probe job's median CPU time over
the samples taken between the timed operations, relative to REF_PROBE_S —
raised to HOST_ELASTICITY. The figures as measured go to standard error.

With ``--trace 1`` the same steps run, then a traced pass measures each
layer (see layers.py) and the run prints per-layer metrics instead.

Correctness gate (any failure aborts the run before a result is written):
n_docs equals the rows generated and every planted needle's hit count equals
its planted df, after every build and every refresh; actor-path ``bmw`` top-k
equals local ``exhaustive`` top-k (part, doc, score) on a seeded query
sample; that sample's top-k (doc_id, score) is unchanged across each merge.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import time
from itertools import islice

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import layers  # noqa: E402
from queries import CLASSES, query_stream  # noqa: E402

# base_files × base_pages: the fresh-build corpus; fpp: files_per_partition
# (None = IndexSpec default); stream_share: the query stream's share of
# --seconds, split evenly over the rounds; one tiered_merge after refresh
# number merge_after (None: no merge, except after the rounds when traced).
WORKLOADS = {
    "build_zipf": dict(base_files=8, base_pages=50, fpp=None, stream_share=0.75,
                       merge_after=None),
    "query_zipf": dict(base_files=4, base_pages=120, fpp=1, stream_share=1.0,
                       merge_after=0),
}
# Every round runs one fresh build, a slice of the query stream and one
# refresh, so each metric's samples spread over the whole run and a host
# that speeds up or slows down mid-run moves them all alike.
ROUNDS = 3
APPEND_PAGES = 80
TINY_PAGES = 60
SETUP_BUILDS = 4
GATE_QUERIES = 24
WARM_QUERIES = 12
REFRESH_BATCH = 40
TRACE_REPLAY = 400
# fixes the unit of every time and rate: figures read as on a host that runs
# the probe job in 10 ms of CPU time
REF_PROBE_S = 0.010
# The program slows down more than the probe when the host does: over 20 runs
# spanning probe factors 1.32–2.06, log(time) against log(factor) had slope
# 1.14–1.62 for every end-to-end time and rate (pooled 1.40, |r| 0.89–0.99).
# Times are divided by factor ** HOST_ELASTICITY.
HOST_ELASTICITY = 1.4
PROBE_EVERY = 25  # queries between two gauge samples in a stream
K = 10


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def nproc() -> int:
    """CPU count as GNU ``nproc`` reports it: the affinity mask, overridden
    by OMP_NUM_THREADS and capped by OMP_THREAD_LIMIT."""
    n = avail = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    if omp.isdigit() and int(omp) > 0:
        n = int(omp)
    lim = os.environ.get("OMP_THREAD_LIMIT", "").strip()
    if lim.isdigit() and int(lim) > 0:
        n = min(n, int(lim))
    return max(1, min(n, avail))


_PROBE_WORDS = ("alpha beta gamma delta epsilon zeta eta theta iota kappa " * 400).split()
_PROBE_ARR = np.random.default_rng(7).random(1 << 20)


def _probe_once() -> float:
    """CPU seconds of a fixed job, independent of the program under test:
    interpreter work (dict counting, an integer loop), as in tokenizing and
    query dispatch, and a numpy sort larger than the core caches, as in
    posting decode and Arrow kernels."""
    t = time.process_time()
    counts: dict[str, int] = {}
    for w in _PROBE_WORDS:
        counts[w] = counts.get(w, 0) + 1
    s = 0
    for i in range(40000):
        s += i * i
    np.sort(_PROBE_ARR)
    return time.process_time() - t


class Gauge:
    """Host speed over the run, sampled between its timed operations on the
    run's pinned CPU: the median CPU time of the probe job divided by
    REF_PROBE_S. A factor of 2 means the host ran the probe at half the
    reference speed; the run's times are divided by it, its rates multiplied.
    CPU time, not wall time, so the run's own processes competing for the
    CPU do not move it."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall = 0.0  # wall time spent sampling, kept out of measured walls

    def sample(self, n: int = 3) -> None:
        t0 = time.perf_counter()
        self.samples.extend(_probe_once() for _ in range(n))
        self.wall += time.perf_counter() - t0

    @property
    def factor(self) -> float:
        return statistics.median(self.samples) / REF_PROBE_S


def _busy_jiffies() -> dict[int, int]:
    """Per-CPU non-idle time (user … steal) from /proc/stat."""
    out = {}
    with open("/proc/stat") as f:
        for line in f:
            name, *vals = line.split()
            if name.startswith("cpu") and name[3:].isdigit():
                v = [int(x) for x in vals[:8]]
                out[int(name[3:])] = sum(v) - v[3] - v[4]  # minus idle, iowait
    return out


def quiet_cpus(n: int, window_s: float = 0.5) -> list[int]:
    """The ``n`` CPUs of this process's affinity mask that were least busy
    over ``window_s``, ties going to the higher-numbered CPU. On a shared
    host the first CPU is the worst choice: it takes most device interrupts
    and is where other jobs that pin "the first CPUs" land."""
    allowed = sorted(os.sched_getaffinity(0))
    b0 = _busy_jiffies()
    time.sleep(window_s)
    b1 = _busy_jiffies()
    by_load = sorted(allowed, key=lambda c: (b1.get(c, 0) - b0.get(c, 0), -c))
    return sorted(by_load[:n])


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(d))
    out, todo = [], [root]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, ()))
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return ""


def peak_rss_mb() -> float:
    """Σ VmHWM over this Ray driver and every live process it started (the Ray
    daemons and workers), once the actors of closed engines have exited."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(
            _cmdline(p).startswith(("ray::SearcherActor", "ray::CoordinatorActor"))
            for p in _descendants(os.getpid())):
        time.sleep(0.1)
    kb = 0
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as f:
                hwm = next((int(line.split()[1]) for line in f if line.startswith("VmHWM:")), 0)
        except OSError:
            continue
        kb += hwm
    return kb / 1024


def index_bytes(index_dir: str, part: str = "") -> int:
    """Bytes of segment data (every non-JSON file under parts/, or under one
    partition directory)."""
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join(index_dir, "parts", part)):
        total += sum(os.path.getsize(os.path.join(dirpath, f))
                     for f in files if not f.endswith(".json"))
    return total


def manifest_stamps(index_dir: str) -> dict[str, int]:
    root = os.path.join(index_dir, "parts")
    out = {}
    for name in os.listdir(root) if os.path.isdir(root) else ():
        try:
            out[name] = os.stat(os.path.join(root, name, "manifest.json")).st_mtime_ns
        except OSError:
            pass
    return out


def changed_parts(before: dict[str, int], after: dict[str, int]) -> int:
    return sum(1 for p, st in after.items() if before.get(p) != st)


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


class GateError(AssertionError):
    pass


def gate(cond: bool, msg: str) -> None:
    if not cond:
        raise GateError(msg)


class Run:
    def __init__(self, args):
        self.args = args
        self.cfg = WORKLOADS[args.workload]
        self.work = args.work
        self.ops = 0
        self.m: dict[str, float] = {}      # end-to-end metrics
        self.raw: dict[str, float] = {}    # the same, before host-speed scaling
        self.gauge = Gauge()
        self.layer: dict[str, float] = {}  # per-layer metrics
        self.corpus_dir = os.path.join(self.work, "corpus")         # base files only
        self.ingest_corpus = os.path.join(self.work, "ingest_corpus")  # base + appended
        self.serve_idx = os.path.join(self.work, "serve_idx")
        self.ingest_idx = os.path.join(self.work, "ingest_idx")
        self.base_infos: list[dict] = []
        self.ingest_infos: list[dict] = []
        self.tiny_s: list[float] = []      # set-up builds
        self.rates: list[float] = []       # fresh builds, docs/s
        self.stream_q: list = []           # (class, query) pairs the stream ran
        self.stream_lat: list = []         # their actor-path latencies (s)
        self.stream_wall = 0.0             # the stream's wall, gauge samples left out
        self.refresh_s: list[float] = []   # append → searchable
        self.batch_lat: list[float] = []   # queries after a refresh (s)
        self.appended = 0
        self.ingest_wall = 0.0             # refreshes, batches and merges
        self.incr: list[float] = []
        self.opens: list[float] = []
        self.rebuilt: list[int] = []
        self.merge_s: list[float] = []
        self.merge_bytes: list[int] = []
        self.refresh_rpc: list[float] = []

    # ---- helpers ----
    def _fresh_dir(self, name: str) -> str:
        d = os.path.join(self.work, name)
        shutil.rmtree(d, ignore_errors=True)
        return d

    def build(self, corpus_dir: str, index_dir: str) -> tuple[dict, float]:
        from elasticsearch_ray.index.build import build_index

        t0 = time.perf_counter()
        meta = build_index(corpus_dir, index_dir, self.spec)
        dt = time.perf_counter() - t0
        self.ops += 1
        return meta, dt

    def put(self, name: str, value: float, rate: bool = False) -> None:
        """Record a timing metric at reference host speed (see Gauge and
        HOST_ELASTICITY); the figure as measured goes to ``self.raw``."""
        f = self.gauge.factor ** HOST_ELASTICITY
        self.raw[name] = value
        self.m[name] = value * f if rate else value / f

    def check_index(self, meta: dict, infos: list[dict], index_dir: str, eng=None) -> None:
        """n_docs and every needle's hit count against what was generated."""
        from elasticsearch_ray.search.engine import QueryEngine
        from elasticsearch_ray.search.query import TermQuery

        rows = sum(f["rows"] for f in infos)
        gate(meta["n_docs"] == rows, f"n_docs {meta['n_docs']} != generated rows {rows}")
        e = eng or QueryEngine(index_dir)
        for nd, df in corpus.needle_totals(infos).items():
            got = e.count(TermQuery(nd))
            self.ops += 1
            gate(got == df, f"needle {nd}: {got} hits, planted df {df}")

    def topk_rows(self, eng, q, mode="bmw", fetch=()):
        t = eng.search(q, k=K, mode=mode, fetch=fetch)
        self.ops += 1
        cols = ["part", "local", "score"] + list(fetch)
        return [tuple(r[c] for c in cols) for r in t.to_pylist()]

    def open_engine(self, index_dir: str):
        from elasticsearch_ray.search.engine import QueryEngine

        return QueryEngine(index_dir, parallel="ray", num_coordinators=1)

    # ---- set-up ----
    def setup(self) -> None:
        import ray
        from ray.data import DataContext

        from elasticsearch_ray.index.spec import IndexSpec
        from elasticsearch_ray.search.engine import QueryEngine

        a, cfg = self.args, self.cfg
        self.spec = (IndexSpec() if cfg["fpp"] is None
                     else IndexSpec(files_per_partition=cfg["fpp"]))
        self.vocab = corpus.vocabulary(a.seed)
        self.base_infos = corpus.write_corpus(self.corpus_dir, a.seed, cfg["base_files"],
                                              cfg["base_pages"])
        os.makedirs(self.ingest_corpus)
        self.ingest_infos = [dict(f, path=shutil.copy(f["path"], self.ingest_corpus))
                             for f in self.base_infos]
        tiny_dir = os.path.join(self.work, "tiny")
        corpus.write_corpus(tiny_dir, a.seed, 1, TINY_PAGES, first_file=900)
        paths = [f["path"] for f in self.base_infos]
        self.stream = query_stream(self.vocab, paths, a.seed, salt=1)
        self.gate_q = list(islice(query_stream(self.vocab, paths, a.seed, salt=2), GATE_QUERIES))
        self.warm_q = list(islice(query_stream(self.vocab, paths, a.seed, salt=3), WARM_QUERIES))
        log(f"ray.init(num_cpus={a.cpus})")
        ray.init(num_cpus=a.cpus, include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, object_store_memory=256 << 20, _temp_dir=a.ray_tmp)
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        for i in range(SETUP_BUILDS):
            self.gauge.sample()
            meta, dt = self.build(tiny_dir, self._fresh_dir(f"tiny_idx{i}"))
            gate(meta["n_docs"] == TINY_PAGES, "tiny build n_docs")
            self.tiny_s.append(dt)
        self.gauge.sample()
        log(f"setup builds: {[round(t, 3) for t in self.tiny_s]}")

        # the serving index: a fresh build of the base corpus, a build sample
        meta, dt = self.build(self.corpus_dir, self.serve_idx)
        self.gauge.sample()
        self.check_index(meta, self.base_infos, self.serve_idx)
        self.rates.append(meta["n_docs"] / dt)
        self.m["index_bytes_per_doc"] = index_bytes(self.serve_idx) / meta["n_docs"]

        self.eng = self.open_engine(self.serve_idx)
        for _cls, q in self.warm_q:
            self.topk_rows(self.eng, q)
        local = QueryEngine(self.serve_idx)
        for _cls, q in self.gate_q:
            got = self.topk_rows(self.eng, q, "bmw")
            want = self.topk_rows(local, q, "exhaustive")
            gate(got == want, f"actor bmw top-k != local exhaustive top-k for {q}")

    # ---- one round: fresh build, query stream, refresh ----
    def fresh_build(self, r: int) -> None:
        """A fresh build of the base files: in round 0 the ingest index
        (from the ingest corpus, which holds the same files until the first
        refresh), later a throwaway index."""
        if r == 0:
            src, idx, infos = self.ingest_corpus, self.ingest_idx, self.ingest_infos
        else:
            src, idx, infos = self.corpus_dir, self._fresh_dir("fresh_idx"), self.base_infos
        meta, dt = self.build(src, idx)
        self.gauge.sample()
        self.check_index(meta, infos, idx)
        self.rates.append(meta["n_docs"] / dt)
        if r:
            shutil.rmtree(idx, ignore_errors=True)

    def stream_chunk(self, seconds: float) -> None:
        """Closed-loop stream of distinct queries on the serving engine from
        this one thread; the gauge is sampled every PROBE_EVERY queries and
        its time kept out of the stream's wall."""
        lat, g, eng = self.stream_lat, self.gauge, self.eng
        wall0, t0 = g.wall, time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            if len(lat) % PROBE_EVERY == PROBE_EVERY - 1:
                g.sample(1)
            item = next(self.stream)
            s = time.perf_counter()
            eng.search(item[1], k=K)
            lat.append(time.perf_counter() - s)
            self.stream_q.append(item)
        self.stream_wall += time.perf_counter() - t0 - (g.wall - wall0)

    def refresh(self, r: int) -> None:
        """Append one file to the ingest corpus → incremental ``build_index``
        → open an engine → first query (refresh time ends) → query batch →
        close; then the workload's ``tiered_merge`` if it falls here."""
        from elasticsearch_ray.search.engine import QueryEngine

        cfg, a = self.cfg, self.args
        batch = list(islice(self.stream, REFRESH_BATCH + 1))
        info = corpus.write_file(self.ingest_corpus, a.seed, cfg["base_files"] + r,
                                 APPEND_PAGES, self.vocab)
        self.ingest_infos.append(info)
        self.appended += info["rows"]
        before = manifest_stamps(self.ingest_idx)
        t0 = time.perf_counter()
        meta, _ = self.build(self.ingest_corpus, self.ingest_idx)
        t1 = time.perf_counter()
        eng = self.open_engine(self.ingest_idx)
        try:
            t2 = time.perf_counter()
            eng.search(batch[0][1], k=K)
            t3 = time.perf_counter()
            self.ops += 1
            self.refresh_s.append(t3 - t0)
            self.incr.append(t1 - t0)
            self.opens.append(t2 - t1)
            self.rebuilt.append(changed_parts(before, manifest_stamps(self.ingest_idx)))
            t_check = time.perf_counter()
            self.check_index(meta, self.ingest_infos, self.ingest_idx, eng)
            t_check = time.perf_counter() - t_check
            lat = []
            for _cls, q in batch[1:]:
                s = time.perf_counter()
                eng.search(q, k=K)
                lat.append(time.perf_counter() - s)
            self.ops += len(lat)
            self.batch_lat.extend(lat)
        finally:
            eng.close()
        self.ingest_wall += time.perf_counter() - t0 - t_check
        if a.trace:
            local = QueryEngine(self.ingest_idx)
            for (_cls, q), l_actor in zip(batch[1:], lat):
                s = time.perf_counter()
                local.search(q, k=K)
                self.refresh_rpc.append((l_actor - (time.perf_counter() - s)) * 1e3)
        log(f"refresh {r}: {t3 - t0:.2f}s (build {self.incr[-1]:.2f}s, "
            f"open {self.opens[-1]:.2f}s), partitions rewritten {self.rebuilt[-1]}")
        if r == cfg["merge_after"]:
            self.ingest_wall += self.merge()

    def rounds(self) -> None:
        stream_s = self.args.seconds * self.cfg["stream_share"] / ROUNDS
        try:
            for r in range(ROUNDS):
                self.gauge.sample()
                self.fresh_build(r)
                self.stream_chunk(stream_s)
                self.refresh(r)
        finally:
            self.eng.close()
        if self.args.trace and not self.merge_s:
            self.merge()
        lat = self.stream_lat
        self.ops += len(lat)
        log(f"build docs/s: {[round(x, 1) for x in self.rates]}; stream: {len(lat)} "
            f"queries in {self.stream_wall:.2f}s")
        self.put("setup_s", statistics.median(self.tiny_s))
        self.put("build_docs_per_s", statistics.median(self.rates), rate=True)
        self.put("query_p50_ms", quantile(lat, 0.5) * 1e3)
        self.put("query_p95_ms", quantile(lat, 0.95) * 1e3)
        self.put("query_qps", len(lat) / self.stream_wall, rate=True)
        self.put("refresh_p50_s", statistics.median(self.refresh_s))
        self.put("ingest_docs_per_s", self.appended / self.ingest_wall, rate=True)
        self.put("ingest_query_p50_ms", quantile(self.batch_lat, 0.5) * 1e3)
        L = self.layer
        L["layer.build.incremental_s"] = statistics.median(self.incr)
        L["layer.engine.open_s"] = statistics.median(self.opens)
        L["layer.build.parts_rebuilt_per_refresh"] = statistics.mean(self.rebuilt)
        L["layer.merge.s"] = sum(self.merge_s)
        L["layer.merge.bytes_rewritten"] = float(sum(self.merge_bytes))
        if self.refresh_rpc:
            L["layer.refresh.rpc_ms"] = statistics.median(self.refresh_rpc)

    def sample_topk(self) -> list:
        """Gate-sample top-k as (doc_id, score) — part/local ids change when
        partitions merge, global doc ids and scores must not."""
        from elasticsearch_ray.search.engine import QueryEngine

        local = QueryEngine(self.ingest_idx)
        return [[(r[3], r[2]) for r in self.topk_rows(local, q, "exhaustive", ("doc_id",))]
                for _cls, q in self.gate_q]

    def merge(self) -> float:
        """One ``tiered_merge`` of the ingest index, checked against the gate
        sample's top-k; returns its wall time."""
        from elasticsearch_ray.index.merge import tiered_merge

        want = self.sample_topk()
        before = manifest_stamps(self.ingest_idx)
        t0 = time.perf_counter()
        tiered_merge(self.ingest_idx)
        dt = time.perf_counter() - t0
        self.ops += 1
        after = manifest_stamps(self.ingest_idx)
        self.merge_s.append(dt)
        self.merge_bytes.append(sum(index_bytes(self.ingest_idx, p)
                                    for p, st in after.items() if before.get(p) != st))
        gate(self.sample_topk() == want, "sample top-k changed across tiered_merge")
        log(f"merge: {dt:.2f}s, {self.merge_bytes[-1]} bytes rewritten")
        return dt

    def trace_pass(self) -> None:
        """Per-layer numbers on the base index, before the refresh phase."""
        from elasticsearch_ray.index import build as build_mod
        from elasticsearch_ray.search.engine import QueryEngine

        L = self.layer
        # build: one untraced and one traced fresh build of the base corpus
        _, t_plain = self.build(self.corpus_dir, self._fresh_dir("trace_plain"))
        _, t_traced = self.build(self.corpus_dir, self._fresh_dir("trace_build"))
        stages = layers.build_stages(getattr(build_mod, "LAST_BUILD_STATS", None))
        L["layer.build.wall_s"] = t_traced
        L["trace.build_overhead_s"] = t_traced - t_plain
        if stages is not None:
            for st in ("tokenize", "sort", "route", "merge_part"):
                L[f"layer.build.{st}_s"] = stages.get(f"{st}_s", 0.0)
            L["layer.build.driver_s"] = t_traced - sum(
                stages.get(f"{st}_s", 0.0) for st in ("tokenize", "sort", "route", "merge_part"))
            L["layer.build.chunk_rows"] = stages.get("chunk_rows", 0.0)
            L["layer.build.shuffle_bytes"] = stages.get("shuffle_bytes", 0.0)
        else:
            log("index.build.LAST_BUILD_STATS missing: build stage metrics absent")
        L["layer.analysis.docs_per_s"] = layers.analysis_docs_per_s(
            [f["path"] for f in self.base_infos])
        for k, v in layers.postings_layer(self.serve_idx).items():
            L[f"layer.postings.{k}"] = v

        # query: the stream's queries replayed on in-process engines
        replay = self.stream_q[:TRACE_REPLAY]
        plain = QueryEngine(self.serve_idx)
        for _cls, q in self.warm_q:
            plain.search(q, k=K)
        untraced = []
        for _cls, q in replay:
            s = time.perf_counter()
            plain.search(q, k=K)
            untraced.append((time.perf_counter() - s) * 1e3)
        eng = QueryEngine(self.serve_idx)
        for _cls, q in self.warm_q:
            eng.search(q, k=K)
        tracer, blocks = layers.QueryTracer(eng), [0]
        rows = []
        with tracer.installed(), layers.count_blocks(blocks):
            for i, (cls, q) in enumerate(replay):
                blocks[0] = 0
                ph = tracer.search(q)
                ph["bmw_blocks"] = blocks[0]
                ph["rpc"] = self.stream_lat[i] * 1e3 - untraced[i]
                ph["cls"] = cls
                rows.append(ph)
        with layers.count_blocks(blocks):
            for ph, (_cls, q) in zip(rows, replay):
                blocks[0] = 0
                eng.search(q, k=K, mode="exhaustive")
                ph["exh_blocks"] = blocks[0]
        self.ops += 3 * len(replay)
        L["trace.query_overhead_ms"] = (statistics.median(r["local"] for r in rows)
                                        - statistics.median(untraced))
        for cls in (None,) + CLASSES:
            sel = [r for r in rows if cls is None or r["cls"] == cls]
            suffix = "" if cls is None else "." + cls
            for ph in ("stats", "can_match", "score", "fetch", "merge", "local", "rpc"):
                L[f"layer.search.{ph}_ms{suffix}"] = statistics.median(r[ph] for r in sel)
            L[f"layer.search.parts_pruned_ratio{suffix}"] = statistics.mean(
                r["parts_pruned_ratio"] for r in sel)
            exh = sum(r["exh_blocks"] for r in sel)
            L[f"layer.topk.blocks_decoded_ratio{suffix}"] = (
                sum(r["bmw_blocks"] for r in sel) / exh if exh else 1.0)


UNITS = (("_per_s", "1/s"), ("_qps", "1/s"), ("_ms", "ms"), ("_s", "s"), (".s", "s"),
         ("_mb", "MB"), ("_per_doc", "B"), ("_per_posting", "B"), ("_bytes", "B"),
         ("bytes_rewritten", "B"), ("_ratio", "ratio"), ("_rows", "count"),
         ("_per_refresh", "count"))


def unit(name: str) -> str:
    head, _, tail = name.rpartition(".")
    base = head if tail in CLASSES else name
    return next(u for suffix, u in UNITS if base.endswith(suffix))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cpus", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    # pin before ray.init: the Ray daemons and workers inherit the mask
    cpus = quiet_cpus(args.cpus)
    os.sched_setaffinity(0, cpus)
    log(f"pinned to CPUs {cpus}")
    import ray

    run = Run(args)
    try:
        run.setup()
        run.rounds()
        if args.trace:
            run.trace_pass()
        log(f"host speed factor {run.gauge.factor:.4f} over {len(run.gauge.samples)} samples")
        log("RAW " + json.dumps(run.raw))
        run.m["peak_rss_mb"] = peak_rss_mb()
    finally:
        if ray.is_initialized():
            ray.shutdown()
    metrics = run.layer if args.trace else run.m
    result = {
        "correct": True,
        "attempted": run.ops,
        "failed": 0,
        "metrics": {k: {"value": float(v), "unit": unit(k)} for k, v in sorted(metrics.items())},
    }
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
