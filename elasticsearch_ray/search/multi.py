"""Cross-index search — the reference's comma-separated-indices surface
(`POST /idx1,idx2/_search`; TransportSearchAction expands the index list and
fans the query out over every shard of every matched index).

This engine searches N independently-built indexes as one, in DFS mode
(`dfs_query_then_fetch`, SearchType.DFS_QUERY_THEN_FETCH): term statistics
are first gathered from EVERY index and combined (df summed, N summed,
avgdl recomputed over the union), so every sub-index scores with the same
global weights. Consequence (and the correctness oracle): for analyzed term
queries, searching k indexes that PARTITION a corpus is **rank- and
score-identical to searching one merged index over the whole corpus** —
exactly the reference's DFS guarantee.

Scope notes:
- Sub-engines are owned by this object: their global stats (n_docs, sum_dl,
  per-field sums) are rewritten to the combined values at construction and
  their DFS caches are primed with combined dfs before each query. Do not
  share a QueryEngine between a MultiIndexEngine and standalone use.
- Multi-term rewrites (wildcard/prefix/fuzzy) expand against each index's
  own term dictionary; expansions can differ per index, so the merged-index
  equivalence holds for analyzed/term/phrase/bool queries (the DFS-stats
  query family). Same caveat as the reference, where per-shard rewrites are
  also dictionary-local.
- EXACT score ties order by (sub-index, part, doc) here vs the merged
  index's own (part, doc) — tie order across bit-equal scores is placement-
  dependent, the same caveat the reference has across shards. Consumers
  needing determinism under ties re-rank on (rounded score, stable id), as
  the oracle entries do.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from elasticsearch_ray.search.engine import QueryEngine, _merge_hits
from elasticsearch_ray.search.query import query_terms


class MultiIndexEngine:
    def __init__(self, index_dirs: list[str], **engine_kwargs):
        # coordinators build scorers actor-side from their own stat copies,
        # which would bypass the combined stats — sub-engines stay
        # coordinator-free (plain actor pools still work: the driver's
        # scorers ship inline in each searcher task's arguments)
        engine_kwargs.pop("num_coordinators", None)
        self._init_from([QueryEngine(d, **engine_kwargs) for d in index_dirs])

    @classmethod
    def from_engines(cls, engines: list) -> "MultiIndexEngine":
        """Wrap ALREADY-OPEN engines (the alias path). Idempotent: each
        engine's original stats snapshot once on first wrap, so re-wrapping
        (alias re-put, shared members) recombines from the originals
        instead of compounding the mutated values."""
        m = cls.__new__(cls)
        m._init_from(list(engines))
        return m

    def _init_from(self, engines: list) -> None:
        self.engines = engines
        for e in self.engines:
            if getattr(e, "_coords", None):
                # a coordinator actor rebuilds its own engine from the index
                # dir and would score with single-index stats — refuse loudly
                raise ValueError(
                    "MultiIndexEngine members must not have coordinators "
                    "(coordinator-side scorers bypass combined stats)")
            if not hasattr(e, "_orig_stats"):
                e._orig_stats = (e.n_docs, e.meta["sum_dl"],
                                 dict(e.sum_dl_fields or {}))
        n = sum(e._orig_stats[0] for e in self.engines)
        sum_dl = sum(e._orig_stats[1] for e in self.engines)
        sum_dl_fields: dict[str, int] = {}
        for e in self.engines:
            for f, v in e._orig_stats[2].items():
                sum_dl_fields[f] = sum_dl_fields.get(f, 0) + int(v)
        for e in self.engines:
            e.n_docs = n
            e.meta = {**e.meta, "sum_dl": sum_dl}
            e.avgdl = sum_dl / max(n, 1)
            e.sum_dl_fields = sum_dl_fields
        # terms THIS multi-engine has combined: sub-engine caches may hold
        # per-index dfs from earlier standalone/other-alias use, so priming
        # decisions key on our own set and always overwrite
        self._primed: set[str] = set()

    def _prime_dfs(self, q) -> None:
        """The DFS round: raw per-index dfs for the query's terms, summed,
        written into every sub-engine's stat cache (so their scorer builds
        see combined numbers). Idempotent; cached scorers stay valid because
        combined stats never change for an immutable index set."""
        term_set: set[str] = set()
        for e in self.engines:
            term_set.update(query_terms(e._prepare(q), e.analyzer_name))
        missing = sorted(term_set - self._primed)
        if not missing:
            return
        combined = dict.fromkeys(missing, 0)
        combined_ttf = dict.fromkeys(missing, 0)
        for e in self.engines:
            for t, (d, tt) in e.raw_stats(missing).items():
                combined[t] += d
                combined_ttf[t] += tt
        for e in self.engines:
            e._df_cache.update(combined)
            # ttf primes too: LM-family similarities (LMDirichlet /
            # LMJelinekMercer / DFI) score P(w|C) from ttf — a sub-engine
            # left with LOCAL ttf against the combined total_tokens would
            # silently break the merged-index score identity (round-3
            # advice, medium)
            e._ttf_cache.update(combined_ttf)
            e._scorer_cache.clear()  # stale per-index dfs may be baked in
        self._primed.update(missing)

    def search(self, q, k: int = 10, mode: str = "bmw",
               fetch: tuple = ("url", "doc_id"),
               index_boosts: list | None = None) -> pa.Table:
        """Combined top-k: DFS prime → per-index top-k (each already sorted
        by the reference tie-break) → k-way merge on (score desc, index,
        part, doc) with ranks reassigned over the union.

        ``index_boosts`` — per-sub-index score multiplier (the reference's
        ``indices_boost``: DefaultSearchContext.java:171 applies the
        resolved index boost as the shard-level queryBoost, scaling every
        hit's score BEFORE the cross-shard merge)."""
        if index_boosts is not None and len(index_boosts) != \
                len(self.engines):
            raise ValueError("index_boosts must have one entry per index")
        self._prime_dfs(q)
        tables = []
        for i, e in enumerate(self.engines):
            t = e.search(q, k=k, mode=mode, fetch=fetch)
            if index_boosts is not None and index_boosts[i] != 1.0:
                b = float(index_boosts[i])
                t = t.set_column(t.column_names.index("score"), "score",
                                 pa.array(t["score"].to_numpy() * b))
            tables.append(t.append_column("_index", pa.array(
                np.full(len(t), i, dtype=np.int64))))
        return _merge_hits(pa.concat_tables(tables, promote_options="default"), k,
                           (("score", "desc"), ("_index", "asc")))

    def count(self, q) -> int:
        """Cross-index `_count`: per-index counts summed (stats-independent)."""
        return sum(e.count(q) for e in self.engines)

    def close(self) -> None:
        for e in self.engines:
            e.close()
