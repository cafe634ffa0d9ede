"""Per-layer measurement for the traced run, taken from outside the program.

Nothing here edits the engine: build stage times are parsed from the Ray Data
operator stats the build already keeps (``index.build.LAST_BUILD_STATS``);
query phases are timed by wrapping the public methods of one in-process
``QueryEngine(parallel="local")`` and of ``PartitionSearcher``; block counts
come from wrapping ``TermCursor``. Wrappers are installed for the traced pass
only and removed afterwards.
"""

from __future__ import annotations

import os
import re
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import pyarrow.parquet as pq

_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_WALL = re.compile(r"Remote wall time:.*?([\d.]+)(us|ms|s) total")
_ROWS = re.compile(r"Output num rows per block:.*?(\d+) total")
_BYTES = re.compile(r"Output size bytes per block:.*?(\d+) total")
_OPS = re.compile(r"^Operator \d+ (.+?):", re.M)

# Ray Data operator name → build stage
STAGES = {
    "MapBatches(_tokenize_fn)": "tokenize",
    "Sort": "sort",
    "MapBatches(_route_fn)": "route",
    "MapBatches(_merge_fn)": "merge_part",
}


def _operators(stats: str) -> dict[str, str]:
    """Split a ``Dataset.stats()`` report into {operator name: its text}.
    The top-level report ends at the iterator breakdown."""
    stats = stats.split("Dataset iterator time breakdown")[0]
    heads = list(_OPS.finditer(stats))
    return {
        m.group(1): stats[m.start(): heads[i + 1].start() if i + 1 < len(heads) else len(stats)]
        for i, m in enumerate(heads)
    }


def build_stages(last_build_stats: dict | None) -> dict[str, float] | None:
    """Stage remote-wall totals (s) plus tokenize output rows/bytes, or None
    when the build exposes no stats."""
    if not last_build_stats:
        return None
    out: dict[str, float] = {}
    for report in last_build_stats.values():
        for name, text in _operators(str(report)).items():
            stage = STAGES.get(name)
            if stage is None:
                continue
            out[f"{stage}_s"] = sum(float(v) * _UNIT_S[u] for v, u in _WALL.findall(text))
            if stage == "tokenize":
                rows, nbytes = _ROWS.search(text), _BYTES.search(text)
                out["chunk_rows"] = float(rows.group(1)) if rows else 0.0
                out["shuffle_bytes"] = float(nbytes.group(1)) if nbytes else 0.0
    return out


def analysis_docs_per_s(corpus_paths: list[str], min_seconds: float = 1.0) -> float:
    """strip_html + the ``standard`` analyzer over the workload's own pages,
    in this process, batched the way the tokenize stage batches a file."""
    from elasticsearch_ray.analysis.analyzers import get_analyzer
    from elasticsearch_ray.analysis.html_strip import strip_html

    an = get_analyzer("standard")
    block = getattr(an, "analyze_block", None)
    htmls = pq.read_table(corpus_paths[0], columns=["html"])["html"].to_pylist()
    docs, t0 = 0, time.perf_counter()
    while True:
        texts = [strip_html(h.decode("utf-8")) for h in htmls]
        if block is None or block(texts) is None:
            for t in texts:
                an(t)
        docs += len(texts)
        dt = time.perf_counter() - t0
        if dt >= min_seconds:
            return docs / dt


def postings_layer(index_dir: str) -> dict[str, float]:
    """Encoded bytes per posting and in-process full-decode throughput over
    every term of every partition."""
    from elasticsearch_ray.index.postings import decode_postings

    parts_root = os.path.join(index_dir, "parts")
    n_postings = n_bytes = 0
    decode_s = 0.0
    for name in sorted(os.listdir(parts_root)):
        pd = os.path.join(parts_root, name)
        terms = pq.read_table(os.path.join(pd, "terms.parquet"), columns=["df", "off", "len"])
        with open(os.path.join(pd, "postings.bin"), "rb") as f:
            blob = memoryview(f.read())
        n_bytes += len(blob)
        n_postings += int(np.sum(terms["df"].to_numpy()))
        spans = list(zip(terms["off"].to_numpy().tolist(), terms["len"].to_numpy().tolist()))
        t0 = time.perf_counter()
        for off, ln in spans:
            decode_postings(blob[off: off + ln])
        decode_s += time.perf_counter() - t0
    return {
        "bytes_per_posting": n_bytes / max(n_postings, 1),
        "decode_postings_per_s": n_postings / max(decode_s, 1e-9),
    }


@contextmanager
def _patched(obj, name, make):
    orig = getattr(obj, name)
    setattr(obj, name, make(orig))
    try:
        yield
    finally:
        setattr(obj, name, orig)


class QueryTracer:
    """Times the phases of ``QueryEngine.search`` on a local engine:
    scorer stats, can_match, per-partition top-k, fetch; the rest of the
    call is the merge's self time."""

    def __init__(self, eng):
        self.eng = eng
        self.cur: dict[str, float] = defaultdict(float)

    def _timed(self, phase):
        def make(orig):
            def wrapper(*a, **kw):
                t0 = time.perf_counter()
                try:
                    return orig(*a, **kw)
                finally:
                    self.cur[phase] += time.perf_counter() - t0
            return wrapper
        return make

    @contextmanager
    def installed(self):
        from elasticsearch_ray.search import engine as engine_mod

        eng = self.eng
        in_stats = [False]
        stats_make, cand_make = self._timed("stats"), self._timed("can_match")

        def scorers_make(orig):
            timed = stats_make(orig)

            def wrapper(q):
                in_stats[0] = True
                try:
                    return timed(q)
                finally:
                    in_stats[0] = False
            return wrapper

        def can_match_make(orig):
            timed = cand_make(orig)

            def wrapper(terms):
                if in_stats[0]:  # the DFS phase's own bloom check is stats time
                    return orig(terms)
                cand = timed(terms)
                self.cur["parts_pruned"] += 1 - len(cand) / max(len(eng.parts), 1)
                return cand
            return wrapper

        with _patched(eng, "_scorers_cached", scorers_make), \
                _patched(eng, "can_match_parts", can_match_make), \
                _patched(eng, "_attach_fetch", self._timed("fetch")), \
                _patched(engine_mod.PartitionSearcher, "topk", self._timed("score")):
            yield self

    def search(self, q) -> dict[str, float]:
        """One traced search → phase times in ms (+ pruned-part share)."""
        self.cur = defaultdict(float)
        t0 = time.perf_counter()
        self.eng.search(q)
        total = time.perf_counter() - t0
        c = self.cur
        out = {k: c[k] * 1e3 for k in ("stats", "can_match", "score", "fetch")}
        out["merge"] = total * 1e3 - sum(out.values())
        out["local"] = total * 1e3
        out["parts_pruned_ratio"] = c["parts_pruned"]
        return out


@contextmanager
def count_blocks(counter: list):
    """Count posting blocks decoded through ``TermCursor`` into counter[0]."""
    from elasticsearch_ray.search.topk import TermCursor

    def decode_all_make(orig):
        def wrapper(self):
            counter[0] += len(self.headers)
            return orig(self)
        return wrapper

    def block_range_make(orig):
        def wrapper(self, b0, b1):
            counter[0] += b1 - b0
            return orig(self, b0, b1)
        return wrapper

    with _patched(TermCursor, "decode_all", decode_all_make), \
            _patched(TermCursor, "block_range", block_range_make):
        yield counter
