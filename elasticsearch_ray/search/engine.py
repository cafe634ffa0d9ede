"""Distributed query execution — the _search path (SURVEY §3.2).

Phases, mirroring the reference coordinator:
  0. Prepare: every read API takes its query through ``QueryEngine._prepare``
     (a string becomes a MatchQuery; ``_rewrite`` runs once over the whole
     tree: per-field analyzers, more_like_this / multi_match / query_string
     / sparse_vector / terms-lookup rewrites), so all of them see the same
     query as ``search``.
  1. DFS phase: gather per-partition df/total_tf for the query's terms and
     sum to GLOBAL stats (dfs_query_then_fetch semantics,
     ``search/dfs/DfsPhase.java:29-75`` + ``SearchPhaseController.aggregateDfs``)
     — our build makes this a cheap term-dict lookup per partition.
  2. Query phase: one per-partition collector with the global-stats BM25
     scorers — the top-k (Block-Max WAND or exhaustive) of a plain search,
     or the exhaustive collector chain (terminate_after → post_filter →
     min_score → sort keys → search_after → collapse → top-k by sort order)
     of a search whose options need every candidate.
  3. Merge: (sort keys…, partition asc, doc asc), by default (score desc,
     partition asc, doc asc) — the tie-break of
     ``SearchPhaseController.mergeTopDocs`` (score desc, shardIndex, doc);
     then the optional rescore of the top window.
  4. Fetch phase: read winning (part, local) rows of docs.parquet for
     url/doc_id (``search/fetch/FetchPhase.java:72`` analog). The fetch and
     its subphases (mget, highlight_hits, matched_queries, script_fields)
     share one per-partition gather (``QueryEngine._gather``).

Execution backends:
  - parallel="local": sequential driver loop with cached SegmentReaders —
    right for few/small partitions and for oracle-compared queries.
  - parallel="ray": SearcherActor actors holding warm readers (mmapped
    postings, cached term dicts) for the engine's partitions, each actor a
    stable partition group — the 'long-lived warm scorer' design from
    SURVEY §3.2; used by bench for QPS. The driver runs can_match and the
    DFS on its own readers, then PLACES the top-k per query (``_place``):
    it scores on those same readers when at most one CPU's worth of actors
    holds candidate partitions (fanning out would buy no parallelism, only
    the actor round trip), and otherwise fans out, shipping scorers inline,
    one round trip; a search that overlaps another in flight on the engine
    always fans out. With num_coordinators, an overlapping search goes to a
    CoordinatorActor instead, whose inner engine places the top-k by the
    same rule (one hop in all when it scores on its own readers).
    The actors belong to one process-level pool (``_POOL``) shared by every
    ray-backed engine, whatever its index directory, and outliving any one
    engine: opening an engine leases actors and opens a VIEW on them (one
    blocking ``reopen`` per actor, tagged with a per-engine view key; a
    reader whose index dir and manifest stamp match is reused), and
    ``reopen()`` (``admin.refresh``) opens a new view in the same live
    processes, reopening only changed partitions. Every actor call carries
    its view key, and a search runs on a snapshot of the engine taken at its
    start (``_pinned``), so a search in flight during a reopen scores and
    fetches on the commit and the open readers it started with (a reader
    it must still open reads the partition directory, which a merge that
    lands meanwhile may have removed). ``close()`` (or garbage collection)
    releases the engine's views; the last lease kills the actors.
Read APIs reach the partitions in one of three ways, each written once:
``QueryEngine._fanout`` (one PartitionSearcher method per partition →
``[(part, result)]``, on either backend), ``_gather`` (the fetch-side
reads of given hits, on the driver's readers), and ``_all_hits_ds`` (one
Ray Data task per partition over ALL hits of a query, for scan_dataset,
highlight_scan, significant_text and delete/update_by_query). Every
search, whatever its options, runs one query phase
(``QueryEngine._query_phase``), whose top-k is one pass per process
(``PartitionSearcher.topk``: (parts, locals, scores) in merge order), and
the profiler is that same query phase with timing switched on. Async
search runs the same top-k pass one partition at a time (the reference's
per-shard partial responses) and merges its steps like a fan-out's passes
(``_pass_table``); both sit behind the same gate (``_read_gate``) and on
the same snapshot (``_pinned``) as ``search``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import weakref

import numpy as np
import pyarrow as pa

from elasticsearch_ray.analysis.analyzers import get_analyzer
from elasticsearch_ray.index import lanes, state
from elasticsearch_ray.index.segments import (SegmentReader, bloom_might_contain, part_dir,
                                              read_term_bloom)
from elasticsearch_ray.index.spec import FIELD_SEP, field_of_term, fkey
from elasticsearch_ray.search.bm25 import (
    BM25Params,
    BM25Scorer,
    BooleanScorer,
    make_scorer,
)
from elasticsearch_ray.search.query import (
    COMPOUND_CHILDREN,
    BoolQuery,
    BoostingQuery,
    CombinedFieldsQuery,
    ConstantScoreQuery,
    DisMaxQuery,
    ExistsQuery,
    FunctionScoreQuery,
    FuzzyQuery,
    IdsQuery,
    IntervalsQuery,
    MatchAllQuery,
    MatchNoneQuery,
    MatchPhraseQuery,
    MatchPhrasePrefixQuery,
    MatchQuery,
    DistanceFeatureQuery,
    MoreLikeThisQuery,
    MultiMatchQuery,
    PrefixQuery,
    QueryStringQuery,
    Query,
    RangeFilter,
    RegexpQuery,
    PinnedQuery,
    RankFeatureQuery,
    SpanFirstQuery,
    SpanNearQuery,
    SpanNotQuery,
    SpanOrQuery,
    SpanWithinQuery,
    SpanContainingQuery,
    TermFilter,
    TermQuery,
    TermsLookupQuery,
    TermsQuery,
    TermsSetQuery,
    SparseVectorQuery,
    WeightedTokensQuery,
    WildcardQuery,
    intervals_terms,
    parse_query_string,
    query_terms,
    subqueries,
)
from elasticsearch_ray.search.topk import (
    TermCursor,
    bmw_topk,
    combine_sum,
    exhaustive_disjunction,
    topk_select,
)


def _as_np(docs):
    return np.asarray(docs, dtype=np.int64)


# purely term-scored query types: a partition whose bloom excludes every
# query term cannot produce hits, so can_match may skip it
_CAN_MATCH_TYPES = (TermQuery, TermsQuery, MatchQuery, MatchPhraseQuery,
                    SpanNearQuery, IntervalsQuery)


def _hits_table(results, names=()) -> pa.Table:
    """Per-partition collector results ``[(part, (locals, scores, *cols))]``
    as one hits table: score (as float64), part, local, then ``cols`` under
    ``names``. Typed and empty when nothing matched."""
    rows = [(p, r) for p, r in results if len(r[0])] or [
        (0, (np.empty(0, np.int64), np.empty(0), *[np.empty(0)] * len(names)))]
    return pa.table({
        "score": np.concatenate([np.asarray(r[1], np.float64) for _p, r in rows]),
        "part": np.concatenate([np.full(len(r[0]), p, np.int64) for p, r in rows]),
        "local": np.concatenate([np.asarray(r[0], np.int64) for _p, r in rows]),
        **{n: np.concatenate([r[2 + i] for _p, r in rows]) for i, n in enumerate(names)},
    })


def _merge_hits(hits: pa.Table, k: int | None = None, keys=(("score", "desc"),),
                per=None) -> pa.Table:
    """The one hit merge (the reference's ``TopDocs.merge``): order ``hits``
    by (keys…, part asc, local asc), where the default key is score desc
    compared as float64; with ``per`` = (column, n) keep the first n rows of
    each value of that column (collapse, inner_hits). Returns the first ``k``
    rows, numbered 1..n in a leading ``rank`` column (replacing any old one)."""
    order = np.empty(0, np.int64)
    if len(hits):
        order = _sort_order([hits[c].to_numpy() for c, _ in keys],
                            [d == "desc" for _, d in keys],
                            hits["local"].to_numpy(), hits["part"].to_numpy())
        if per is not None:
            order = order[_rank_within(hits[per[0]].to_numpy()[order]) < per[1]]
    order = order[:k]
    if "rank" in hits.column_names:
        hits = hits.drop_columns(["rank"])
    return hits.take(order).add_column(
        0, "rank", pa.array(np.arange(1, len(order) + 1, dtype=np.int64)))


def _rank_within(vals) -> np.ndarray:
    """0-based occurrence number of each row among the rows with its value,
    in row order (nulls form one value)."""
    import pandas as pd

    return pd.Series(vals).groupby(vals, dropna=False, sort=False).cumcount().to_numpy()


_NO_HITS = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))


def _no_lap(*_phase) -> None:
    """``QueryEngine._query_phase``'s phase callback when nothing profiles."""


def _pass_table(results, k: int, min_score: float | None = None) -> pa.Table:
    """The hits (rank, score, part, local) of top-k passes ``[(parts,
    locals, scores)]`` (``PartitionSearcher.topk``), cut at ``min_score``.
    Returns the first ``k``: one pass is already in merge order; several (a
    fan-out's, or async search's steps) are merged by ``_merge_hits``; none
    give an empty table."""
    if min_score is not None:
        results = [(p[s >= min_score], d[s >= min_score], s[s >= min_score])
                   for p, d, s in results]
    parts, locs, scores = (np.concatenate(c) for c in zip(_NO_HITS, *results))
    hits = pa.table({"score": np.asarray(scores, np.float64), "part": parts, "local": locs})
    if len(results) > 1:
        return _merge_hits(hits, k)
    hits = hits.slice(0, k)
    return hits.add_column(0, "rank", pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)))


class PartitionSearcher:
    """Evaluates a query tree over one partition's segment, under the spec
    of the index commit the segment belongs to."""

    def __init__(self, reader: SegmentReader, part: int, spec: dict,
                 dtype: str = "float32", runtime_fields: dict | None = None):
        self.r = reader
        self.part = part
        self.spec = spec
        self.analyzer_name = spec["analyzer"]
        self.params = BM25Params(k1=spec["k1"], b=spec["b"])
        self.dtype = dtype
        self.runtime_fields = runtime_fields or {}
        self._doc_cols: dict[str, np.ndarray] = {}

    # ---- stats phase ----
    def local_stats(self, terms: list[str]) -> dict[str, tuple[int, int]]:
        rows = self.r.lookup(terms)
        return {
            t: (int(self.r.df[i]), int(self.r.total_tf[i]))
            for t, i in zip(terms, rows)
            if i >= 0
        }

    # ---- query phase ----
    def _cursor(self, term: str, scorers) -> TermCursor | None:
        i = self.r.lookup([term])[0]
        if i < 0:
            return None
        fld = field_of_term(term)
        norms = self.r.norms_for(fld) if fld is not None else None
        return TermCursor(self.r.blob(int(i)), scorers[term], norms)

    def _stored_col(self, name: str) -> np.ndarray:
        return self.r.read_docs([name])[name].to_numpy(zero_copy_only=False)

    def _rank_sidecar(self, field: str):
        """Lazy per-field rank_features sidecar (RankFeaturesFieldMapper /
        FeatureField postings analog) of the reader's commit: {feature:
        (locals int64, decoded float64 values)}; None when the field was
        never built here (``state.StaleCommitError`` after a rewrite)."""
        cache = getattr(self, "_rankfeat", None)
        if cache is None:
            cache = self._rankfeat = {}
        if field in cache:
            return cache[field]
        from elasticsearch_ray.index.rank_features import decode_feature

        t = state.read_committed(self.r.dir, f"rankfeat-{field}.parquet", self.r.stamp)
        if t is None:
            cache[field] = None
            return None
        feats = t["feature"].to_numpy(zero_copy_only=False)
        locals_ = t["local"].to_numpy(zero_copy_only=False).astype(np.int64)
        vals = decode_feature(
            t["freq"].to_numpy(zero_copy_only=False)).astype(np.float64)
        out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        if len(feats):
            # rows are (feature, local)-sorted at build time → slice views
            chg = np.empty(len(feats), dtype=bool)
            chg[0] = True
            chg[1:] = feats[1:] != feats[:-1]
            starts = np.flatnonzero(chg)
            ends = np.append(starts[1:], len(feats))
            for s, e in zip(starts, ends):
                out[str(feats[s])] = (locals_[s:e], vals[s:e])
        cache[field] = out
        return out

    def _doc_col(self, name: str):
        col = self._doc_cols.get(name)
        if col is None:
            if name in self.runtime_fields:
                # runtime field (AbstractScriptFieldType): computed once
                # per partition from the stored columns it references,
                # then cached like any doc-values column. A runtime field
                # may SHADOW a stored column (ES allows it) — a self-named
                # variable resolves to the STORED column; mutual recursion
                # is a definition error, not a RecursionError (review r5)
                from elasticsearch_ray.search.expressions import (
                    compile_expression,
                    expression_variables,
                )

                in_prog = getattr(self, "_rt_in_progress", None)
                if in_prog is None:
                    in_prog = self._rt_in_progress = set()
                if name in in_prog:
                    raise ValueError(
                        f"runtime field cycle through {name!r}")
                in_prog.add(name)
                try:
                    src = self.runtime_fields[name]
                    if isinstance(src, dict) and \
                            src.get("lang") == "painless":
                        # painless runtime field (AbstractScriptFieldType
                        # with a Painless source): vector fast path,
                        # per-row emit/return fallback
                        from elasticsearch_ray.search.painless import (
                            compile_painless,
                            painless_doc_fields,
                        )

                        script = compile_painless(src["source"])
                        cols = {f: (self._stored_col(f) if f == name
                                    else self._doc_col(f))
                                for f in painless_doc_fields(script)}
                        params = src.get("params") or {}
                        try:
                            col = script.run_vectorized(
                                cols, self.r.n_docs, params=params)
                        except Exception:
                            from elasticsearch_ray.search.painless import (
                                _pyval,
                            )

                            rows = [
                                {k: _pyval(v[i]) for k, v in cols.items()}
                                for i in range(self.r.n_docs)]
                            col = np.asarray(
                                script.field_many(rows, params))
                    else:
                        fn = compile_expression(src)
                        env = {v: (self._stored_col(v) if v == name
                                   else self._doc_col(v))
                               for v in expression_variables(src)}
                        col = fn(env, length=self.r.n_docs)
                finally:
                    in_prog.discard(name)
            else:
                col = self._stored_col(name)
            self._doc_cols[name] = col
        return col

    def _eval_filter(self, q: Query, scorers=None) -> np.ndarray:
        """Non-scoring clause → sorted doc array."""
        if isinstance(q, RangeFilter):
            col = self._doc_col(q.column)
            mask = np.ones(len(col), dtype=bool)
            if q.gte is not None:
                mask &= col >= q.gte
            if q.lte is not None:
                mask &= col <= q.lte
            if q.gt is not None:
                mask &= col > q.gt
            if q.lt is not None:
                mask &= col < q.lt
            return np.flatnonzero(mask).astype(np.int64)
        if isinstance(q, TermFilter):
            col = self._doc_col(q.column)
            return np.flatnonzero(col == q.value).astype(np.int64)
        # any scoring query used as filter: matching docs, scores ignored
        docs, _ = self._eval_scoring(q, scorers or {}, k=None, mode="exhaustive",
                                     scorers_required=False)
        return docs

    def _function_factor(self, fn, docs: np.ndarray) -> np.ndarray:
        """One ScoreFunction's raw output (weight already applied) for
        every doc in ``docs`` (caller masks by the function's filter)."""
        kind = fn.kind
        if kind == "weight":
            return np.full(len(docs), fn.weight, np.float64)
        if kind == "field_value_factor":
            fv = self._doc_col(fn.param("field"))[docs].astype(np.float64)
            fv = fv * float(fn.param("factor", 1.0))
            mod = fn.param("modifier", "none")
            if mod == "log1p":
                fv = np.log1p(fv)
            elif mod == "sqrt":
                fv = np.sqrt(np.maximum(fv, 0))
            return fn.weight * fv
        if kind == "random_score":
            # stable per-doc uniform [0,1): splitmix64 over id ^ seed
            # (RandomScoreFunction mixes a seed with a per-doc value the
            # same way; exact mix constants differ, distribution and
            # determinism match)
            field = fn.param("field", "doc_id")
            ids = self._doc_col(field)[docs].astype(np.int64)
            seed = int(fn.param("seed", 0))
            z = ids.view(np.uint64) ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
            z = (z + np.uint64(0x9E3779B97F4A7C15))
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
            return fn.weight * ((z >> np.uint64(11)).astype(np.float64)
                                * (2.0 ** -53))
        if kind in ("gauss", "exp", "linear"):
            field = fn.param("field")
            origin = float(fn.param("origin", 0.0))
            scale = float(fn.param("scale"))
            offset = float(fn.param("offset", 0.0))
            decay = float(fn.param("decay", 0.5))
            if scale <= 0 or not 0 < decay < 1:
                raise ValueError("decay function needs scale > 0 and "
                                 "decay in (0, 1)")
            x = self._doc_col(field)[docs].astype(np.float64)
            dist = np.maximum(np.abs(x - origin) - offset, 0.0)
            if kind == "gauss":
                sigma2 = -(scale * scale) / (2.0 * math.log(decay))
                out = np.exp(-(dist * dist) / (2.0 * sigma2))
            elif kind == "exp":
                out = np.exp(math.log(decay) / scale * dist)
            else:  # linear
                s = scale / (1.0 - decay)
                out = np.maximum((s - dist) / s, 0.0)
            return fn.weight * out
        raise ValueError(f"unsupported score function kind: {kind}")

    def _apply_score_functions(self, q, docs: np.ndarray,
                               scores: np.ndarray, scorers
                               ) -> tuple[np.ndarray, np.ndarray]:
        """functions-array scoring (FunctionScoreQuery.java): per-doc
        combine of MATCHING functions per score_mode, max_boost cap,
        boost_mode merge with the base score, min_score cut. Docs
        matching no function keep factor 1 (reference behavior)."""
        n = len(docs)
        factors = np.empty((len(q.functions), n), np.float64)
        matched = np.zeros((len(q.functions), n), bool)
        for i, fn in enumerate(q.functions):
            if fn.filter is None:
                m = np.ones(n, bool)
            else:
                fdocs = self._eval_filter(fn.filter, scorers)
                m = np.isin(docs, fdocs, assume_unique=True)
            matched[i] = m
            factors[i] = 0.0
            if m.any():
                factors[i, m] = self._function_factor(fn, docs[m])
        any_match = matched.any(axis=0)
        mode = q.score_mode
        if mode == "multiply":
            combined = np.where(matched, factors, 1.0).prod(axis=0)
        elif mode == "sum":
            combined = np.where(matched, factors, 0.0).sum(axis=0)
        elif mode == "avg":
            # reference FunctionScoreQuery AVG: sum of function outputs
            # divided by the sum of the MATCHING functions' weights
            weights = np.array([fn.weight for fn in q.functions],
                               np.float64)[:, None]
            wsum = np.where(matched, weights, 0.0).sum(axis=0)
            combined = np.where(matched, factors, 0.0).sum(axis=0) \
                / np.where(wsum != 0, wsum, 1.0)
        elif mode == "max":
            combined = np.where(matched, factors, -np.inf).max(axis=0)
        elif mode == "min":
            combined = np.where(matched, factors, np.inf).min(axis=0)
        elif mode == "first":
            first = np.argmax(matched, axis=0)
            combined = factors[first, np.arange(n)]
        else:
            raise ValueError(f"unsupported score_mode: {mode}")
        combined = np.where(any_match, combined, 1.0)
        combined = np.minimum(combined, q.max_boost)
        base = np.asarray(scores, np.float64)
        bm = q.boost_mode
        if bm == "multiply":
            out = base * combined
        elif bm == "sum":
            out = base + combined
        elif bm == "avg":
            out = (base + combined) / 2.0
        elif bm == "max":
            out = np.maximum(base, combined)
        elif bm == "min":
            out = np.minimum(base, combined)
        elif bm == "replace":
            out = combined
        else:
            raise ValueError(f"unsupported boost_mode: {bm}")
        if q.min_score is not None:
            keep = out >= q.min_score
            return docs[keep], out[keep]
        return docs, out

    def _phrase_docs(self, terms: list[str], slop: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Phrase matching; returns (docs, phrase_freqs).

        slop=0 (exact) is fully vectorized: each term's (doc, position) pairs
        become int64 keys (doc << 32 | (pos - term_offset)); consecutive-
        position matches are the intersection of the key sets across terms
        (sorted-unique arrays → np.intersect1d); freq = surviving keys/doc.

        slop>0 uses the window interpretation (see MatchPhraseQuery): sliding
        minimal-window over the merged shifted-position stream per candidate
        doc (candidates are few after the AND of all terms)."""
        rows = self.r.lookup(terms)
        if len(rows) == 0 or np.any(rows < 0):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        if not self.r.has_positions:
            # match_only_text / index_options=docs: positional queries are
            # answered by re-analyzing _source for the AND-candidate docs
            # (SourceConfirmedTextQuery.java:59 — "verify matches by looking
            # at stored fields or _source whenever positions are needed")
            return self._source_confirmed_phrase(terms, rows, slop)
        from elasticsearch_ray.index.postings import decode_postings

        if slop == 0:
            decoded = [decode_postings(self.r.blob(int(i))) for i in rows]
            sizes = [len(d[0]) for d in decoded]
            # ADAPTIVE: with skewed dfs, a doc-level AND first (rarest term
            # leading) means position keys are built only for surviving docs
            # — a phrase with one rare member never materializes the dense
            # member's full (doc, pos) key set. With uniform dfs the AND
            # filters nothing, so the extra isin+gather is pure overhead and
            # the straight full-decode intersection is faster.
            common = None
            if min(sizes) * 4 < max(sizes):
                order_df = np.argsort(sizes, kind="stable")
                common = decoded[int(order_df[0])][0]
                for oi in order_df[1:]:
                    common = common[np.isin(common, decoded[int(oi)][0],
                                            assume_unique=True)]
                    if len(common) == 0:
                        return np.empty(0, np.int64), np.empty(0, np.int64)
            keys = None
            for ti, i in enumerate(rows):
                docs, tfs = decoded[ti]
                flat = self.r.positions_for(int(i))
                if common is not None and len(common) * 2 < len(docs):
                    # gather positions for surviving docs only
                    j = np.searchsorted(docs, common)
                    tf_c = tfs[j]
                    offs = np.zeros(len(tfs) + 1, dtype=np.int64)
                    np.cumsum(tfs, out=offs[1:])
                    starts = offs[j]
                    total = int(tf_c.sum())
                    idx = np.repeat(starts + tf_c, tf_c) - np.repeat(
                        np.cumsum(tf_c), tf_c) + np.arange(total, dtype=np.int64)
                    pos = flat[idx].astype(np.int64) - ti
                    doc_rep = np.repeat(common, tf_c)
                else:
                    doc_rep = np.repeat(docs, tfs)
                    pos = flat.astype(np.int64) - ti
                ok = pos >= 0
                k = (doc_rep[ok] << np.int64(32)) | pos[ok]
                keys = k if keys is None else np.intersect1d(keys, k, assume_unique=True)
                if len(keys) == 0:
                    return np.empty(0, np.int64), np.empty(0, np.int64)
            match_docs = keys >> np.int64(32)
            out_docs, out_freqs = np.unique(match_docs, return_counts=True)
            return out_docs.astype(np.int64), out_freqs.astype(np.int64)

        # sloppy path: AND-intersect docs, then per-candidate window check
        per_term = []
        common = None
        for ti, i in enumerate(rows):
            docs, tfs = decode_postings(self.r.blob(int(i)))
            flat = self.r.positions_for(int(i))
            offs = np.zeros(len(tfs) + 1, dtype=np.int64)
            np.cumsum(tfs, out=offs[1:])
            per_term.append((docs, flat.astype(np.int64), offs))
            common = docs if common is None else common[np.isin(common, docs, assume_unique=True)]
        if common is None or len(common) == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        idx_maps = [
            dict(zip(docs.tolist(), range(len(docs)))) for docs, _, _ in per_term
        ]
        out_docs, out_freqs = [], []
        nt = len(terms)
        for d in common.tolist():
            streams = []
            for ti, (docs, flat, offs) in enumerate(per_term):
                j = idx_maps[ti][d]
                base = flat[offs[j] : offs[j + 1]] - ti
                streams.append(np.stack([base, np.full(len(base), ti, np.int64)], axis=1))
            merged = np.concatenate(streams)
            merged = merged[np.argsort(merged[:, 0], kind="stable")]
            matches = _window_match_count(merged, nt, slop)
            if matches:
                out_docs.append(d)
                out_freqs.append(matches)
        return np.asarray(out_docs, np.int64), np.asarray(out_freqs, np.int64)

    def _source_confirmed_phrase(self, terms: list[str], rows: np.ndarray,
                                 slop: int) -> tuple[np.ndarray, np.ndarray]:
        """Phrase matching without positions (match_only_text /
        ``index_options: docs``): candidates = the AND of the member terms'
        postings; each candidate's _source is fetched (row-group-pushdown)
        and re-analyzed with the field's index analyzer, and the phrase is
        verified against the fresh token stream — the reference's
        SourceConfirmedTextQuery model (one in-memory index per candidate
        doc; here a vectorized token-array scan). Candidate count after the
        AND is small, so the per-doc work is bounded like the sloppy path."""
        from elasticsearch_ray.index.postings import decode_postings

        common = None
        order_df = np.argsort(self.r.df[rows], kind="stable")
        for oi in order_df:
            docs, _tfs = decode_postings(self.r.blob(int(rows[oi])))
            if common is None:
                common = docs
            else:
                common = common[np.isin(common, docs, assume_unique=True)]
            if len(common) == 0:
                return np.empty(0, np.int64), np.empty(0, np.int64)
        spec = self.spec
        fld = field_of_term(terms[0])
        if fld is None:
            if spec.get("use_html", True):
                raise ValueError(
                    "source-confirmed phrase needs a re-analyzable _source "
                    "column; html-derived text has none (match_only_text "
                    "indexes are built with use_html=False)")
            src_col = spec.get("text_column", "text")
            an_name = self.analyzer_name
        else:
            src_col = (spec.get("fields") or {}).get(fld, fld)
            an_name = (spec.get("field_analyzers") or {}).get(
                fld, self.analyzer_name)
        bare = [t if fld is None else t.split(FIELD_SEP, 1)[1] for t in terms]
        texts = _fetch_source_rows(
            self.r.manifest, common.astype(np.int64), [src_col]
        )[src_col].to_pylist()
        an = get_analyzer(an_name)
        nt = len(bare)
        out_docs, out_freqs = [], []
        for local, text in zip(common.tolist(), texts):
            toks = np.asarray(an(text or "")[0], dtype=object)
            if len(toks) < nt:
                continue
            if slop == 0:
                cand = np.flatnonzero(toks[: len(toks) - nt + 1] == bare[0])
                for i in range(1, nt):
                    if len(cand) == 0:
                        break
                    cand = cand[toks[cand + i] == bare[i]]
                matches = int(len(cand))
            else:
                streams = []
                for ti, b in enumerate(bare):
                    base = np.flatnonzero(toks == b).astype(np.int64) - ti
                    streams.append(np.stack(
                        [base, np.full(len(base), ti, np.int64)], axis=1))
                merged = np.concatenate(streams)
                merged = merged[np.argsort(merged[:, 0], kind="stable")]
                matches = _window_match_count(merged, nt, slop)
            if matches:
                out_docs.append(local)
                out_freqs.append(matches)
        return np.asarray(out_docs, np.int64), np.asarray(out_freqs, np.int64)

    def _ordered_spans(self, terms: list[str], slop: int):
        """Enumerate ordered span_near matches: (start_keys, end_keys) with
        keys = doc<<32|pos, sorted by start key. Empty arrays when any term
        is absent."""
        empty = (np.empty(0, np.int64), np.empty(0, np.int64))
        rows = self.r.lookup(terms)
        if len(rows) == 0 or np.any(rows < 0):
            return empty
        from elasticsearch_ray.index.postings import decode_postings

        keys_per_term = []
        for i in rows:
            docs, tfs = decode_postings(self.r.blob(int(i)))
            flat = np.asarray(self.r.positions_for(int(i)), dtype=np.int64)
            keys_per_term.append((np.repeat(docs, tfs) << np.int64(32)) | flat)
        if len(terms) == 1:
            k = keys_per_term[0]
            return k, k
        return _ordered_chain(keys_per_term, slop)

    def _span_docs(self, terms: list[str], slop: int, in_order: bool):
        """span_near matching over stored positions; returns (docs, freqs).

        in_order: chains are evaluated VECTORIZED across the whole partition
        — every clause-0 occurrence is encoded (doc<<32|pos) and chained
        through the earliest strictly-later occurrence of each next clause
        with one searchsorted per level (NearSpansOrdered semantics, no
        per-doc Python). Unordered n=2 likewise checks the nearest
        neighbor on both sides vectorized; unordered n>2 falls back to the
        per-candidate minimal-window sweep (span <= slop + n - 1)."""
        empty = (np.empty(0, np.int64), np.empty(0, np.int64))
        rows = self.r.lookup(terms)
        if len(rows) == 0 or np.any(rows < 0):
            return empty
        from elasticsearch_ray.index.postings import decode_postings

        nt = len(terms)
        keys_per_term = []
        per_term = []
        for i in rows:
            docs, tfs = decode_postings(self.r.blob(int(i)))
            flat = np.asarray(self.r.positions_for(int(i)), dtype=np.int64)
            doc_rep = np.repeat(docs, tfs)
            keys_per_term.append((doc_rep << np.int64(32)) | flat)
            per_term.append((docs, flat, tfs))
        if nt == 1:
            docs, _flat, tfs = per_term[0]
            return docs, tfs
        MASK = np.int64((1 << 32) - 1)

        if in_order:
            starts, ends = _ordered_chain(keys_per_term, slop)
            if len(starts) == 0:
                return empty
            hit_docs = (starts >> np.int64(32))
            out_docs, out_freqs = np.unique(hit_docs, return_counts=True)
            return out_docs.astype(np.int64), out_freqs.astype(np.int64)

        if nt == 2 and terms[0] != terms[1]:
            a, b = keys_per_term
            if len(a) == 0 or len(b) == 0:
                return empty
            idx = np.searchsorted(b, a, side="right")
            il = np.maximum(idx - 1, 0)
            ir = np.minimum(idx, len(b) - 1)
            da = a >> np.int64(32)
            near = np.zeros(len(a), dtype=bool)
            for side in (il, ir):
                cand = b[side]
                same = (cand >> np.int64(32)) == da
                gap = np.abs((cand & MASK) - (a & MASK)) - 1
                near |= same & (gap <= slop)
            if not near.any():
                return empty
            out_docs, out_freqs = np.unique(da[near], return_counts=True)
            return out_docs.astype(np.int64), out_freqs.astype(np.int64)

        # unordered n>2: AND-candidates, per-doc minimal-window sweep
        common = None
        offs_per_term = []
        for docs, _flat, tfs in per_term:
            offs = np.zeros(len(tfs) + 1, dtype=np.int64)
            np.cumsum(tfs, out=offs[1:])
            offs_per_term.append(offs)
            common = docs if common is None else common[np.isin(common, docs, assume_unique=True)]
        if common is None or len(common) == 0:
            return empty
        idxs = [np.searchsorted(docs, common) for docs, _, _ in per_term]
        out_docs, out_freqs = [], []
        for ci, d in enumerate(common.tolist()):
            pls = [
                per_term[ti][1][offs_per_term[ti][int(idxs[ti][ci])]:
                                offs_per_term[ti][int(idxs[ti][ci]) + 1]]
                for ti in range(nt)
            ]
            streams = [
                np.stack([pl, np.full(len(pl), ti, np.int64)], axis=1)
                for ti, pl in enumerate(pls)
            ]
            merged = np.concatenate(streams)
            merged = merged[np.argsort(merged[:, 0], kind="stable")]
            c = _window_match_count(merged, nt, slop + nt - 1)
            if c:
                out_docs.append(d)
                out_freqs.append(c)
        return np.asarray(out_docs, np.int64), np.asarray(out_freqs, np.int64)

    def _eval_intervals(self, source: tuple):
        """Evaluate an intervals source → (docs, freqs)."""
        kind = source[0]
        if kind == "match":
            _k, text, max_gaps, ordered = source
            terms = get_analyzer(self.analyzer_name)(text)[0]
            if not terms:
                return np.empty(0, np.int64), np.empty(0, np.int64)
            slop = int(max_gaps) if max_gaps is not None and max_gaps >= 0 else 1 << 30
            return self._span_docs(terms, slop, bool(ordered))
        if kind == "all_of":
            _k, leaves, max_gaps, ordered = source
            slop = int(max_gaps) if max_gaps is not None and max_gaps >= 0 else 1 << 30
            return self._span_docs(list(leaves), slop, bool(ordered))
        if kind == "any_of":
            parts = [self._eval_intervals(s) for s in source[1]]
            d_all = [d for d, _ in parts if len(d)]
            if not d_all:
                return np.empty(0, np.int64), np.empty(0, np.int64)
            docs = np.concatenate(d_all)
            freqs = np.concatenate([f for _, f in parts if len(f)])
            order = np.argsort(docs, kind="stable")
            docs, freqs = docs[order], freqs[order]
            change = np.empty(len(docs), dtype=bool)
            change[0] = True
            change[1:] = docs[1:] != docs[:-1]
            starts = np.flatnonzero(change)
            return docs[starts], np.add.reduceat(freqs, starts)
        raise ValueError(f"unsupported intervals source {kind!r}")

    def _eval_scoring(self, q: Query, scorers, k, mode, scorers_required=True):
        """Returns (docs, scores) arrays, docs sorted asc (NOT top-k-cut unless
        the pure-disjunction fast path applies and k is given)."""
        dtype = np.float32 if self.dtype == "float32" else np.float64
        r = self.r
        if isinstance(q, MatchAllQuery):
            docs = np.arange(r.n_docs, dtype=np.int64)
            return docs, np.full(r.n_docs, q.boost, dtype=dtype)
        if isinstance(q, MatchNoneQuery):
            return np.empty(0, np.int64), np.empty(0, dtype)
        if isinstance(q, TermQuery):
            c = self._cursor(fkey(q.field, q.term), scorers)
            if c is None:
                return np.empty(0, np.int64), np.empty(0, dtype)
            d, t = c.decode_all()
            nl = c.norms if c.norms is not None else r.norms
            return d, np.asarray(c.scorer.score(t, nl[d]), dtype=dtype)
        if isinstance(q, (TermsQuery, MatchQuery)):
            if isinstance(q, TermsQuery):
                terms, op, msm = list(q.terms), "or", 1
            else:
                an = get_analyzer(q.analyzer or self.analyzer_name)
                terms = [fkey(q.field, t) for t in an(q.text)[0]]
                op = q.operator
                msm = _min_should_match(q.minimum_should_match, len(terms))
            if not terms:
                if isinstance(q, MatchQuery) and q.zero_terms_query == "all":
                    docs = np.arange(r.n_docs, dtype=np.int64)
                    return docs, np.full(r.n_docs, 1.0, dtype=dtype)
                return np.empty(0, np.int64), np.empty(0, dtype)
            cursors = [c for t in terms if (c := self._cursor(t, scorers)) is not None]
            if op == "and":
                if len(cursors) < len(terms):
                    return np.empty(0, np.int64), np.empty(0, dtype)
                min_match = len(terms)
            else:
                min_match = max(1, msm)
                if len(cursors) < min_match:
                    return np.empty(0, np.int64), np.empty(0, dtype)
            if k is not None and mode == "bmw":
                return bmw_topk(cursors, r.norms, k, r.n_docs, dtype, min_match=min_match)
            docs, scores = exhaustive_disjunction(cursors, r.norms, dtype, min_match=min_match)
            return docs, scores
        if isinstance(q, MatchPhraseQuery):
            an = get_analyzer(q.analyzer or self.analyzer_name)
            terms = [fkey(q.field, t) for t in an(q.text)[0]]
            if not terms:
                return np.empty(0, np.int64), np.empty(0, dtype)
            docs, freqs = self._phrase_docs(terms, slop=getattr(q, "slop", 0))
            if len(docs) == 0:
                return docs, np.empty(0, dtype)
            # phrase scored like a term with tf = phrase_freq; Lucene
            # PhraseQuery uses the combined (summed) idf of all terms
            sc = scorers.get(("__phrase__",) + tuple(terms))
            nl = r.norms if q.field is None else r.norms_for(q.field)
            return docs, np.asarray(sc.score(freqs, nl[docs]), dtype=dtype)
        if isinstance(q, MatchPhrasePrefixQuery):
            an = get_analyzer(q.analyzer or self.analyzer_name)
            terms = an(q.text)[0]
            if not terms:
                return np.empty(0, np.int64), np.empty(0, dtype)
            # expand the last term against the sorted term dict
            rows = self._expand_multi_term(PrefixQuery(terms[-1]))[: q.max_expansions]
            terms_np = self._terms_np()
            d_arrays = []
            for ri in rows:
                full = terms[:-1] + [str(terms_np[int(ri)])]
                d, _f = self._phrase_docs(full)
                if len(d):
                    d_arrays.append(d)
            if not d_arrays:
                return np.empty(0, np.int64), np.empty(0, dtype)
            docs = np.unique(np.concatenate(d_arrays))
            return docs, np.full(len(docs), q.boost, dtype=dtype)  # constant-score rewrite
        if isinstance(q, SpanFirstQuery):
            i = self.r.lookup([q.term])[0]
            if i < 0:
                return np.empty(0, np.int64), np.empty(0, dtype)
            from elasticsearch_ray.index.postings import decode_postings

            d, tfs = decode_postings(self.r.blob(int(i)))
            flat = np.asarray(self.r.positions_for(int(i)), dtype=np.int64)
            doc_rep = np.repeat(d, tfs)
            hit = flat < q.end
            if not hit.any():
                return np.empty(0, np.int64), np.empty(0, dtype)
            docs_u, freqs = np.unique(doc_rep[hit], return_counts=True)
            sc = scorers.get(("__phrase__", q.term))
            return docs_u.astype(np.int64), np.asarray(
                sc.score(freqs, r.norms[docs_u]), dtype=dtype)
        if isinstance(q, SpanOrQuery):
            from elasticsearch_ray.index.postings import decode_postings

            d_arrays, t_arrays = [], []
            for t in q.clauses:
                i = self.r.lookup([t])[0]
                if i < 0:
                    continue
                d, tfs = decode_postings(self.r.blob(int(i)))
                d_arrays.append(d)
                t_arrays.append(tfs)
            if not d_arrays:
                return np.empty(0, np.int64), np.empty(0, dtype)
            alld = np.concatenate(d_arrays)
            allt = np.concatenate(t_arrays).astype(np.int64)
            docs_u, inv = np.unique(alld, return_inverse=True)
            freqs = np.bincount(inv, weights=allt).astype(np.int64)
            sc = scorers.get(("__phrase__",) + tuple(dict.fromkeys(q.clauses)))
            return docs_u.astype(np.int64), np.asarray(
                sc.score(freqs, r.norms[docs_u]), dtype=dtype)
        if isinstance(q, SpanNotQuery):
            from elasticsearch_ray.index.postings import decode_postings

            i = self.r.lookup([q.include])[0]
            if i < 0:
                return np.empty(0, np.int64), np.empty(0, dtype)
            d_inc, tf_inc = decode_postings(self.r.blob(int(i)))
            pos_inc = np.asarray(self.r.positions_for(int(i)), dtype=np.int64)
            doc_inc = np.repeat(d_inc, tf_inc)
            j = self.r.lookup([q.exclude])[0]
            if j < 0:
                keep = np.ones(len(pos_inc), dtype=bool)
            else:
                d_exc, tf_exc = decode_postings(self.r.blob(int(j)))
                pos_exc = np.asarray(self.r.positions_for(int(j)), dtype=np.int64)
                doc_exc = np.repeat(d_exc, tf_exc)
                # encode (doc, pos) pairs on one axis; an include occurrence
                # dies if any exclude position falls in [p - pre, p + post]
                kill = np.zeros(len(pos_inc), dtype=bool)
                enc_exc = doc_exc * (1 << 32) + pos_exc
                for off in range(-int(q.pre), int(q.post) + 1):
                    kill |= np.isin(doc_inc * (1 << 32) + (pos_inc + off), enc_exc)
                keep = ~kill
            if not keep.any():
                return np.empty(0, np.int64), np.empty(0, dtype)
            docs_u, freqs = np.unique(doc_inc[keep], return_counts=True)
            sc = scorers.get(("__phrase__", q.include))
            return docs_u.astype(np.int64), np.asarray(
                sc.score(freqs, r.norms[docs_u]), dtype=dtype)
        if isinstance(q, (SpanWithinQuery, SpanContainingQuery)):
            from elasticsearch_ray.index.postings import decode_postings

            s_keys, e_keys = self._ordered_spans(list(q.big), q.big_slop)
            i = self.r.lookup([q.little])[0]
            if len(s_keys) == 0 or i < 0:
                return np.empty(0, np.int64), np.empty(0, dtype)
            d_l, tf_l = decode_postings(self.r.blob(int(i)))
            lk = (np.repeat(d_l, tf_l) << np.int64(32)) | np.asarray(
                self.r.positions_for(int(i)), dtype=np.int64)
            if isinstance(q, SpanWithinQuery):
                # little occurrence covered by some big span: the span with
                # the largest start <= key works via a GLOBAL running max of
                # end keys — an earlier doc's end key is always smaller than
                # any later doc's keys (doc id in the high bits), so no
                # per-doc reset is needed
                em = np.maximum.accumulate(e_keys)
                idx = np.searchsorted(s_keys, lk, side="right") - 1
                cov = (idx >= 0) & (em[np.maximum(idx, 0)] >= lk)
                if not cov.any():
                    return np.empty(0, np.int64), np.empty(0, dtype)
                docs_u, freqs = np.unique(lk[cov] >> np.int64(32), return_counts=True)
            else:
                # big spans containing >=1 little occurrence
                lo = np.searchsorted(lk, s_keys, side="left")
                hi = np.searchsorted(lk, e_keys, side="right")
                has = hi > lo
                if not has.any():
                    return np.empty(0, np.int64), np.empty(0, dtype)
                docs_u, freqs = np.unique(s_keys[has] >> np.int64(32),
                                          return_counts=True)
            sc = scorers.get(("__phrase__",) + tuple(dict.fromkeys((q.little, *q.big))))
            return docs_u.astype(np.int64), np.asarray(
                sc.score(freqs, r.norms[docs_u]), dtype=dtype)
        if isinstance(q, PinnedQuery):
            gids = self._doc_col("doc_id")
            pos = np.searchsorted(gids, np.asarray(q.ids, dtype=np.int64))
            pin_loc, pin_sc = [], []
            for rank_i, (p, gid) in enumerate(zip(pos, q.ids)):
                if p < len(gids) and gids[p] == gid:
                    pin_loc.append(int(p))
                    # descending ladder far above any BM25 score; 2^25 − 4i
                    # is exactly representable in float32 AND float64 (ulp at
                    # 2^25 is 4 in float32), so the pinned order survives the
                    # dtype narrowing — 1e30−i would collapse to equal scores
                    pin_sc.append(33554432.0 - 4.0 * rank_i)
            if q.organic is not None:
                od, osc = self._eval_scoring(q.organic, scorers, None, "exhaustive")
            else:
                od = np.empty(0, np.int64)
                osc = np.empty(0, dtype)
            if pin_loc:
                keep = ~np.isin(od, np.asarray(pin_loc, dtype=np.int64))
                od, osc = od[keep], osc[keep]
            docs = np.concatenate([np.asarray(pin_loc, dtype=np.int64), od])
            sc = np.concatenate([np.asarray(pin_sc, dtype=np.float64),
                                 np.asarray(osc, np.float64)])
            order = np.argsort(docs, kind="stable")
            return docs[order], sc[order].astype(dtype)
        if isinstance(q, RankFeatureQuery):
            docs = None
            if "." in q.field:
                head, feat = q.field.split(".", 1)
                side = self._rank_sidecar(head)
                if side is not None:
                    # rank_features sidecar feature: only docs CARRYING the
                    # feature match (FeatureField postings, not a dense col)
                    locs, vals = side.get(
                        feat, (np.empty(0, np.int64), np.empty(0)))
                    if len(locs) == 0:
                        return np.empty(0, np.int64), np.empty(0, dtype)
                    docs, x = locs, vals
            if docs is None:
                x = self._doc_col(q.field).astype(np.float64)
                docs = np.arange(r.n_docs, dtype=np.int64)
            if q.pivot is None:
                raise ValueError("auto-pivot must be resolved at the "
                                 "coordinator rewrite (engine-level search)")
            if q.function == "log":
                s = np.log(q.scaling_factor + x)
            elif q.function == "sigmoid":
                xe = np.power(x, q.exponent)
                s = xe / (xe + q.pivot ** q.exponent)
            elif q.function == "linear":  # FeatureField.newLinearQuery
                s = x
            else:  # saturation
                s = x / (x + q.pivot)
            return docs, (q.boost * s).astype(dtype)
        if isinstance(q, WeightedTokensQuery):
            side = self._rank_sidecar(q.field)
            if side is None:
                raise ValueError(
                    f"weighted_tokens field {q.field!r}: no rank_features "
                    f"sidecar built for this index")
            d_arrays, s_arrays = [], []
            for tok, w in q.tokens:
                locs, vals = side.get(
                    tok, (np.empty(0, np.int64), np.empty(0)))
                if len(locs):
                    d_arrays.append(locs)
                    s_arrays.append(float(w) * vals)
            if not d_arrays:
                return np.empty(0, np.int64), np.empty(0, dtype)
            from elasticsearch_ray.search.topk import accumulate_dense

            docs, scores = accumulate_dense(
                d_arrays, s_arrays, 0, r.n_docs, np.float64, 1)
            return docs, (scores * q.boost).astype(dtype)
        if isinstance(q, TermsSetQuery):
            cursors = [c for t in q.terms if (c := self._cursor(t, scorers)) is not None]
            if not cursors:
                return np.empty(0, np.int64), np.empty(0, dtype)
            d_arrays, s_arrays = [], []
            for c in cursors:
                d, t = c.decode_all()
                nl = c.norms if c.norms is not None else r.norms
                d_arrays.append(d)
                s_arrays.append(c.scorer.score(t, nl[d]))
            docs_u, scores_u, counts = combine_sum(d_arrays, s_arrays, np.float64)
            need = self._doc_col(q.minimum_should_match_field)[docs_u]
            keep = counts >= need
            return docs_u[keep], (scores_u[keep] * q.boost).astype(dtype)
        if isinstance(q, DistanceFeatureQuery):
            col = self._doc_col(q.field)
            v = col.astype("datetime64[us]").astype(np.int64).astype(np.float64) \
                if col.dtype.kind == "M" else col.astype(np.float64)
            if col.dtype.kind == "M":
                origin = np.datetime64(q.origin).astype("datetime64[us]").astype(np.int64)
                pivot = float(np.timedelta64(q.pivot).astype("timedelta64[us]").astype(np.int64)) \
                    if not isinstance(q.pivot, (int, float)) else float(q.pivot)
            else:
                origin, pivot = float(q.origin), float(q.pivot)
            s = q.boost * pivot / (pivot + np.abs(v - float(origin)))
            docs = np.arange(r.n_docs, dtype=np.int64)
            return docs, s.astype(dtype)
        if isinstance(q, CombinedFieldsQuery):
            from elasticsearch_ray.index.postings import decode_postings

            an = get_analyzer(self.analyzer_name)
            terms = an(q.text)[0]
            if not terms:
                return np.empty(0, np.int64), np.empty(0, dtype)
            weights = dict(zip(q.fields, q.weights)) if q.weights else {}
            # blended per-doc length dl' = Σ_f w_f · exact doclen_f
            dl = None
            for f in q.fields:
                w = weights.get(f, 1.0)
                col = self._doc_col("doclen" if f is None else f"doclen_{f}").astype(np.float64)
                dl = w * col if dl is None else dl + w * col
            d_arrays, s_arrays = [], []
            n_present = 0
            for t in terms:
                parts = []
                for f in q.fields:
                    i = self.r.lookup([fkey(f, t)])[0]
                    if i < 0:
                        continue
                    d_, tf_ = decode_postings(self.r.blob(int(i)))
                    parts.append((d_, tf_.astype(np.float64) * weights.get(f, 1.0)))
                if not parts:
                    continue
                n_present += 1
                dd = np.concatenate([p[0] for p in parts])
                tt = np.concatenate([p[1] for p in parts])
                order = np.argsort(dd, kind="stable")
                dd, tt = dd[order], tt[order]
                chg = np.empty(len(dd), dtype=bool)
                chg[0] = True
                chg[1:] = dd[1:] != dd[:-1]
                starts = np.flatnonzero(chg)
                docs_u = dd[starts]
                tf_u = np.add.reduceat(tt, starts)
                sc = scorers[("__cf__", t, q.fields, tuple(q.weights))]
                d_arrays.append(docs_u)
                s_arrays.append(sc.score_dl(tf_u, dl[docs_u]))
            if not d_arrays:
                return np.empty(0, np.int64), np.empty(0, dtype)
            min_match = n_present if q.operator == "and" else 1
            from elasticsearch_ray.search.topk import accumulate_dense

            return accumulate_dense(d_arrays, s_arrays, 0, r.n_docs, dtype, min_match)
        if isinstance(q, SpanNearQuery):
            docs, freqs = self._span_docs(list(q.clauses), q.slop, q.in_order)
            if len(docs) == 0:
                return docs, np.empty(0, dtype)
            sc = scorers.get(("__phrase__",) + tuple(dict.fromkeys(q.clauses)))
            return docs, np.asarray(sc.score(freqs, r.norms[docs]), dtype=dtype)
        if isinstance(q, IntervalsQuery):
            docs, freqs = self._eval_intervals(q.source)
            if len(docs) == 0:
                return docs, np.empty(0, dtype)
            terms = tuple(dict.fromkeys(intervals_terms(q.source, self.analyzer_name)))
            sc = scorers.get(("__phrase__",) + terms)
            return docs, np.asarray(sc.score(freqs, r.norms[docs]), dtype=dtype)
        if isinstance(q, (PrefixQuery, WildcardQuery, RegexpQuery, FuzzyQuery)):
            rows = self._expand_multi_term(q)
            return self._const_score_union(rows, getattr(q, "boost", 1.0), dtype)
        if isinstance(q, ExistsQuery):
            lens = self._doc_col("doclen" if q.field is None else f"doclen_{q.field}")
            docs = np.flatnonzero(lens > 0).astype(np.int64)
            return docs, np.full(len(docs), q.boost, dtype=dtype)
        if isinstance(q, IdsQuery):
            gids = self._doc_col("doc_id")
            docs = np.flatnonzero(np.isin(gids, np.asarray(list(q.ids)))).astype(np.int64)
            return docs, np.full(len(docs), q.boost, dtype=dtype)
        if isinstance(q, ConstantScoreQuery):
            docs = self._eval_filter(q.filter, scorers)
            return docs, np.full(len(docs), q.boost, dtype=dtype)
        if isinstance(q, DisMaxQuery):
            per = [self._eval_scoring(c, scorers, None, "exhaustive") for c in q.queries]
            docs = np.unique(np.concatenate([d for d, _ in per])) if per else np.empty(0, np.int64)
            if len(docs) == 0:
                return docs, np.empty(0, dtype)
            mx = np.zeros(len(docs), np.float64)
            sm = np.zeros(len(docs), np.float64)
            for d, s in per:
                pos = np.searchsorted(docs, d)
                np.maximum.at(mx, pos, np.asarray(s, np.float64))
                np.add.at(sm, pos, np.asarray(s, np.float64))
            out = mx + q.tie_breaker * (sm - mx)
            return docs, (out * q.boost).astype(dtype)
        if isinstance(q, BoostingQuery):
            docs, scores = self._eval_scoring(q.positive, scorers, None, "exhaustive")
            if q.negative is not None and len(docs):
                neg, _ = self._eval_scoring(q.negative, scorers, None, "exhaustive")
                hit = np.isin(docs, neg, assume_unique=True)
                scores = np.where(hit, scores * np.asarray(q.negative_boost, dtype), scores).astype(dtype)
            return docs, scores
        if isinstance(q, FunctionScoreQuery):
            if q.query is None:
                raise ValueError(
                    "function_score/script_score needs a base query "
                    "(the reference rejects a missing query too)")
            docs, scores = self._eval_scoring(q.query, scorers, None, "exhaustive")
            if len(docs) == 0:
                return docs, scores
            if q.functions:
                docs, out = self._apply_score_functions(q, docs, scores, scorers)
                return docs, out.astype(dtype)
            if q.script:
                # ScriptScoreQueryBuilder: the script REPLACES the score,
                # reading doc columns + _score (base query score)
                if getattr(q, "script_lang", "expression") == "painless":
                    from elasticsearch_ray.search.painless import (
                        compile_painless,
                        painless_doc_fields,
                    )

                    script = compile_painless(q.script)
                    cols = {f: self._doc_col(f)[docs]
                            for f in painless_doc_fields(script)}
                    out = q.weight * script.score_many(
                        cols, np.asarray(scores, np.float64),
                        dict(getattr(q, "script_params", ()) or ()))
                    return docs, out.astype(dtype)
                from elasticsearch_ray.search.expressions import (
                    compile_expression,
                    expression_variables,
                )

                fn = compile_expression(q.script)
                env = {}
                for name in expression_variables(q.script):
                    if name != "_score":
                        env[name] = self._doc_col(name)[docs].astype(np.float64)
                env["_score"] = np.asarray(scores, np.float64)
                out = q.weight * fn(env, length=len(docs))
                return docs, out.astype(dtype)
            if q.field is None:
                # weight-only function (FunctionScoreQuery with no
                # field_value_factor): score composed with the bare weight
                base = np.asarray(scores, np.float64)
                out = base + q.weight if q.boost_mode == "sum" else base * q.weight
                return docs, out.astype(dtype)
            fv = self._doc_col(q.field)[docs].astype(np.float64) * q.factor
            if q.modifier == "log1p":
                fv = np.log1p(fv)
            elif q.modifier == "sqrt":
                fv = np.sqrt(np.maximum(fv, 0))
            base = np.asarray(scores, np.float64)
            if q.boost_mode == "sum":
                out = base + q.weight * fv
            else:  # multiply (default)
                out = base * (q.weight * fv)
            return docs, out.astype(dtype)
        if isinstance(q, (RangeFilter, TermFilter)):
            docs = self._eval_filter(q)
            return docs, np.zeros(len(docs), dtype=dtype)
        if isinstance(q, BoolQuery):
            return self._eval_bool(q, scorers, mode)
        raise TypeError(f"unsupported query {type(q).__name__}")

    def _terms_np(self) -> np.ndarray:
        t = getattr(self, "_terms_cache", None)
        if t is None:
            t = self.r._terms.to_numpy(zero_copy_only=False)
            self._terms_cache = t
        return t

    def _expand_multi_term(self, q) -> np.ndarray:
        """Multi-term queries rewrite against the sorted term dict
        (PrefixQueryBuilder / WildcardQueryBuilder / RegexpQueryBuilder /
        FuzzyQueryBuilder): returns matching term rows."""
        terms_np = self._terms_np()
        if isinstance(q, PrefixQuery):
            lo = np.searchsorted(terms_np, q.prefix, side="left")
            hi = np.searchsorted(terms_np, q.prefix + "￿", side="right")
            return np.arange(int(lo), int(hi), dtype=np.int64)
        if isinstance(q, WildcardQuery):
            import fnmatch
            import re as _re

            # literal prefix before the first metachar cuts the SORTED dict
            # to a range; the residual matches via pandas' C regex loop
            lit = _re.match(r"^[^*?\[]*", q.pattern).group(0)
            cand, base = self._prefix_cut(terms_np, lit)
            import pandas as pd

            rx = fnmatch.translate(q.pattern)
            mask = pd.Series(cand, dtype=object).str.match(rx, na=False).to_numpy()
            return base + np.flatnonzero(mask)
        if isinstance(q, RegexpQuery):
            import re as _re

            m = _re.match(r"[A-Za-z0-9_]+", q.pattern)
            lit = m.group(0) if m else ""
            nxt = q.pattern[len(lit) : len(lit) + 1]
            if lit and nxt in "*?{":
                lit = lit[:-1]  # the last literal char is quantified → optional
            cand, base = self._prefix_cut(terms_np, lit)
            import pandas as pd

            mask = pd.Series(cand, dtype=object).str.fullmatch(q.pattern, na=False).to_numpy()
            return base + np.flatnonzero(mask)
        if isinstance(q, FuzzyQuery):
            maxd = _auto_fuzziness(q.term) if q.fuzziness == "AUTO" else int(q.fuzziness)
            base_t = q.term
            cand, base = self._prefix_cut(terms_np, base_t[: q.prefix_length])
            lens = self._term_lens()[base : base + len(cand)]
            lmask = np.abs(lens - len(base_t)) <= maxd
            hits = [
                base + ri
                for ri, t in zip(np.flatnonzero(lmask), cand[lmask])
                if _edit_distance_le(base_t, t, maxd)
            ]
            return np.asarray(hits, dtype=np.int64)
        raise TypeError(type(q))

    def _prefix_cut(self, terms_np: np.ndarray, lit: str) -> tuple[np.ndarray, int]:
        """Sorted-dict range sharing the literal prefix → (slice, base row)."""
        if not lit:
            return terms_np, 0
        lo = int(np.searchsorted(terms_np, lit, side="left"))
        hi = int(np.searchsorted(terms_np, lit + "\uffff", side="right"))
        return terms_np[lo:hi], lo

    def _const_score_union(self, rows: np.ndarray, boost: float, dtype):
        from elasticsearch_ray.index.postings import decode_postings

        d_arrays = [decode_postings(self.r.blob(int(i)))[0] for i in rows]
        if not d_arrays:
            return np.empty(0, np.int64), np.empty(0, dtype)
        docs = np.unique(np.concatenate(d_arrays))
        return docs, np.full(len(docs), boost, dtype=dtype)

    def _eval_bool(self, q: BoolQuery, scorers, mode):
        dtype = np.float32 if self.dtype == "float32" else np.float64
        base_docs = None  # sorted candidate set from must+filter
        base_scores = None
        for clause in q.must:
            d, s = self._eval_scoring(clause, scorers, k=None, mode="exhaustive")
            if base_docs is None:
                base_docs, base_scores = d, s.astype(np.float64)
            else:
                base_docs, (base_scores, s2) = _intersect(base_docs, d, (base_scores,), (s,))
                base_scores = base_scores + s2
        for clause in q.filter:
            d = self._eval_filter(clause, scorers)
            if base_docs is None:
                base_docs, base_scores = d, np.zeros(len(d), dtype=np.float64)
            else:
                base_docs, (base_scores,) = _intersect(base_docs, d, (base_scores,))
        if q.should:
            sd, ss, scounts = [], [], None
            per_clause = [
                self._eval_scoring(c, scorers, k=None, mode="exhaustive") for c in q.should
            ]
            docs_u, scores_u, counts = combine_sum(
                [d for d, _ in per_clause], [s for _, s in per_clause], np.float64
            )
            explicit = q.minimum_should_match is not None
            if explicit:
                msm = _min_should_match(q.minimum_should_match, len(q.should))
            else:
                msm = 0 if (q.must or q.filter) else 1
            if msm > 0:
                keep = counts >= msm
                docs_u, scores_u = docs_u[keep], scores_u[keep]
            if base_docs is None:
                base_docs, base_scores = docs_u, scores_u
            elif explicit and msm > 0:
                # explicit msm is a HARD constraint even with must/filter
                # present (BooleanQuery semantics): candidates must satisfy
                # >= msm should clauses.
                base_docs, (base_scores, s_add) = _intersect(
                    base_docs, docs_u, (base_scores,), (scores_u,)
                )
                base_scores = base_scores + s_add
            else:
                # optional should: add scores where overlapping
                pos = np.searchsorted(docs_u, base_docs)
                pos_c = np.clip(pos, 0, max(len(docs_u) - 1, 0))
                hit = (len(docs_u) > 0) & (docs_u[pos_c] == base_docs) if len(docs_u) else np.zeros(len(base_docs), bool)
                add = np.where(hit, scores_u[pos_c] if len(docs_u) else 0.0, 0.0)
                base_scores = base_scores + add
        if base_docs is None:
            base_docs = np.arange(self.r.n_docs, dtype=np.int64)
            base_scores = np.zeros(len(base_docs), dtype=np.float64)
        for clause in q.must_not:
            d = self._eval_filter(clause, scorers)
            keep = ~np.isin(base_docs, d, assume_unique=True)
            base_docs, base_scores = base_docs[keep], base_scores[keep]
        return base_docs, (base_scores * q.boost).astype(dtype)

    def topk(self, q: Query, scorers, k: int, mode: str = "bmw", others=()):
        """One top-k scoring pass over this segment and ``others`` (the
        process's other candidate segments of one commit) → (parts, locals,
        scores) in merge order (score desc, part asc, local asc): the
        score-ordered collector of every search whose options need no full
        candidate set. Each segment is scored on its own (BMW per segment),
        then one ``topk_select`` runs over the key ``part << 32 | local``
        (locals fit in u32: the postings header's doc fields are u32).
        perfbench times the query phase's scoring by wrapping this method
        by name."""
        segs = [self, *others]
        docs, scores = zip(*(s._eval_scoring(q, scorers, k=k, mode=mode) for s in segs))
        keys, scores = topk_select(
            np.concatenate([np.add(d, s.part << 32, dtype=np.int64) for d, s in zip(docs, segs)]),
            np.concatenate(scores), k)
        return keys >> 32, keys & 0xFFFFFFFF, scores

    def window_scores(self, q: Query, scorers, window: dict) -> np.ndarray:
        """Rescore pass over this partition's rows of the rescore window
        (``window`` = {part: locals}): ``q``'s score at each local, NaN where
        ``q`` does not match. Only window-sized arrays leave the partition."""
        locs = window[self.part]
        docs, scores = self._eval_scoring(q, scorers, None, "exhaustive")
        out = np.full(len(locs), np.nan)
        if len(docs):
            i = np.minimum(np.searchsorted(docs, locs), len(docs) - 1)
            hit = docs[i] == locs
            out[hit] = np.asarray(scores, np.float64)[i[hit]]
        return out

    def count(self, q: Query, scorers) -> int:
        """Matching-doc count (the _count API ships ints, never doc ids)."""
        return len(self._eval_scoring(q, scorers, None, "exhaustive")[0])

    def inner_hits_candidates(self, q, scorers, collapse: str, values, size: int):
        """Per-partition inner_hits pre-cut: the ≤ size best hits (score
        desc, doc asc) of each collapse value in ``values`` — (locals,
        scores, values) columns, driver-mergeable."""
        docs, scores = self._eval_scoring(q, scorers, None, "exhaustive")
        coll = self._doc_col(collapse)[docs]
        m = np.flatnonzero(np.isin(coll, list(values)))
        order = m[_sort_order([scores[m]], [True], docs[m])]
        order = order[_rank_within(coll[order]) < size]
        return docs[order], scores[order], coll[order]

    def suggest_candidates(self, tok: str, max_edits: int,
                           prefix_length: int = 1) -> dict[str, int]:
        """Per-partition term-suggester candidates: dictionary terms within
        ``max_edits`` Damerau-Levenshtein edits of ``tok`` → their df.

        Pruning instead of a full-dict scan: with prefix_length>=1 the SORTED
        term dict is cut to the shared-prefix range (searchsorted, like the
        reference's DirectSpellChecker default prefix=1), then a length
        window ±max_edits filters before any edit-distance work."""
        terms_np = self._terms_np()
        if prefix_length >= 1 and tok:
            pre = tok[:prefix_length]
            lo = int(np.searchsorted(terms_np, pre, side="left"))
            hi = int(np.searchsorted(terms_np, pre + "\uffff", side="right"))
            cand_terms = terms_np[lo:hi]
            rows = np.arange(lo, hi)
        else:
            cand_terms = terms_np
            rows = np.arange(len(terms_np))
        lens = self._term_lens()[rows[0] : rows[-1] + 1] if len(rows) else np.empty(0, np.int64)
        lmask = np.abs(lens - len(tok)) <= max_edits
        out: dict[str, int] = {}
        for t, ri in zip(cand_terms[lmask], rows[lmask]):
            if t != tok and "\x1f" not in t and _edit_distance_le(tok, t, max_edits):
                out[t] = int(self.r.df[ri])
        return out

    def bigram_freqs(self, pairs: list) -> dict:
        """Adjacent-occurrence (shingle) counts over stored positions — the
        phrase-suggester bigram model data (the reference's LaplaceScorer
        reads a shingle FIELD; positions.bin already holds the same
        information, so no separate shingle index is needed)."""
        if not getattr(self.r, "has_positions", False):
            return {tuple(p): 0 for p in pairs}
        out = {}
        for w1, w2 in pairs:
            _docs, freqs = self._phrase_docs([w1, w2], 0)
            out[(w1, w2)] = int(freqs.sum()) if len(freqs) else 0
        return out

    def vocab_size(self) -> int:
        """Main-field dictionary size (field-namespaced entries excluded) —
        the Laplace smoothing vocabulary term; cached per searcher."""
        v = getattr(self, "_vocab_cache", None)
        if v is None:
            v = sum(1 for t in self._terms_np().tolist() if "\x1f" not in t)
            self._vocab_cache = v
        return v

    def completion_candidates(self, prefix: str, limit: int = 1000) -> dict[str, int]:
        """Sorted-dict prefix range → {term: df} (completion suggester data;
        the FST prefix walk becomes a searchsorted range cut)."""
        terms_np = self._terms_np()
        cand, base = self._prefix_cut(terms_np, prefix)
        out: dict[str, int] = {}
        for i, t in enumerate(cand[:limit]):
            if "\x1f" not in t:
                out[t] = int(self.r.df[base + i])
        return out

    def completion_candidates_ctx(self, prefix: str, ctx_field: str,
                                  ctx_values: list, limit: int = 200
                                  ) -> dict[str, dict]:
        """Category-context completion candidates (search/suggest/completion/
        context/ — ``ContextMappings.java``, ``CategoryContextMapping.java``):
        per candidate term, the df WITHIN each requested context =
        |postings(term) ∩ postings(ctx_field:value)|. The reference bakes
        context prefixes into the completion FST at index time; here the
        sorted dict yields prefix candidates and contexts resolve by a
        sorted-postings intersection count per (term, context) — bounded
        by ``limit`` candidates and the requested context values."""
        from elasticsearch_ray.index.postings import decode_postings

        terms_np = self._terms_np()
        cand, base = self._prefix_cut(terms_np, prefix)
        ctx_docs = {}
        for v in ctx_values:
            i = self.r.lookup([fkey(ctx_field, str(v))])[0]
            if i >= 0:
                ctx_docs[v] = decode_postings(self.r.blob(int(i)))[0]
        if not ctx_docs:
            return {}
        out: dict[str, dict] = {}
        for i, t in enumerate(cand[:limit]):
            if "\x1f" in t:
                continue
            docs = decode_postings(self.r.blob(int(base + i)))[0]
            per = {}
            for v, cd in ctx_docs.items():
                n = int(np.isin(docs, cd, assume_unique=True).sum())
                if n:
                    per[v] = n
            if per:
                out[t] = per
        return out

    def fuzzy_completion_candidates(self, prefix: str, max_edits: int = 1,
                                    prefix_length: int = 1,
                                    min_length: int = 3,
                                    limit: int = 2000) -> dict[str, tuple[int, int]]:
        """Fuzzy completion candidates (search/suggest/completion
        FuzzyCompletionSuggestion / Lucene FuzzyCompletionQuery): terms
        with SOME prefix within ``max_edits`` edits of the typed prefix →
        {term: (df, edits)}. Reference defaults kept: the first
        ``prefix_length`` chars must match exactly (prunes the sorted dict
        to one searchsorted range, like the exact path), and prefixes
        shorter than ``min_length`` don't fuzz at all."""
        if len(prefix) < min_length:
            max_edits = 0
        if max_edits == 0:
            return {t: (df, 0)
                    for t, df in self.completion_candidates(prefix, limit).items()}
        terms_np = self._terms_np()
        cand, base = self._prefix_cut(terms_np, prefix[:prefix_length])
        out: dict[str, tuple[int, int]] = {}
        for i, t in enumerate(cand):
            if len(out) >= limit:
                break
            if "\x1f" in t or len(t) < len(prefix) - max_edits:
                continue
            e = _prefix_edits(prefix, t, max_edits)
            if e is not None:
                out[t] = (int(self.r.df[base + i]), e)
        return out

    def terms_with_prefix(self, prefix: str, limit: int) -> list[str]:
        """Exact prefix listing for _terms_enum: field-scoped ('\\x1f') keys
        are filtered BEFORE the limit cut — a field name sharing the prefix
        must not consume the window (field keys sort interleaved with bare
        terms)."""
        cand, _base = self._prefix_cut(self._terms_np(), prefix)
        out = []
        for t in cand:
            if "\x1f" not in t:
                out.append(t)
                if len(out) >= limit:
                    break
        return out

    def _term_lens(self) -> np.ndarray:
        a = getattr(self, "_term_lens_cache", None)
        if a is None:
            a = np.fromiter((len(t) for t in self._terms_np()), dtype=np.int64)
            self._term_lens_cache = a
        return a

    def extended_candidates(self, q, scorers, k, opts):
        """The exhaustive per-partition collector, for a search whose options
        need every candidate. It runs the reference's QueryPhase collector
        chain in its order: terminate_after cut in doc order → post_filter →
        min_score → sort keys → search_after cursor → collapse (best hit per
        value) → top-k BY SORT ORDER. Returns (locals, scores, *cols): one
        column per sort key other than _score, then the collapse values. The
        driver merges k·P rows; nothing partition-sized leaves the partition.

        ``opts`` (``QueryEngine._query_phase``) holds ``sort`` and any of
        ``terminate_after``, ``post_filter`` as (query, its scorers),
        ``min_score``, ``search_after``, ``collapse`` and ``index_sorted``.
        A cursor two entries longer than the sort spec carries the implicit
        (part, doc) tiebreak (the reference's ``_shard_doc`` PIT field), so
        pagination is exact even when sort values tie at a page boundary.

        ``index_sorted`` (set only when the requested sort is exactly the
        index sort — field AND direction — and nothing needs scores) takes
        the early-terminating path of a Lucene sorted index: storage order
        IS the sort order, so the partition evaluates MATCHES only (no
        scoring), applies the cursor, and slices the first k — no sort, no
        per-match score. Scores come back NaN (the reference's null _score
        on early-terminated sorted queries)."""
        sort, cursor = opts["sort"], opts.get("search_after")
        if opts.get("index_sorted"):
            docs = self._eval_filter(q, scorers)
            scores = np.full(len(docs), np.nan)
        else:
            docs, scores = self._eval_scoring(q, scorers, k=None, mode="exhaustive")
            scores = np.asarray(scores, np.float64)
        if "terminate_after" in opts:
            docs, scores = docs[:opts["terminate_after"]], scores[:opts["terminate_after"]]
        if "post_filter" in opts:
            keep = np.isin(docs, self._eval_filter(*opts["post_filter"]), assume_unique=True)
            docs, scores = docs[keep], scores[keep]
        if "min_score" in opts:
            keep = scores >= opts["min_score"]
            docs, scores = docs[keep], scores[keep]
        key_cols = [scores if col == "_score" else self._doc_col(col)[docs]
                    for col, _ in sort]
        descs = [d == "desc" for _, d in sort]
        if cursor is not None:
            cols, ds_ = key_cols, descs
            if len(cursor) == len(key_cols) + 2:
                cols = key_cols + [np.full(len(docs), self.part, np.int64),
                                   np.asarray(docs, np.int64)]
                ds_ = descs + [False, False]
            keep = _after_mask(cols, ds_, cursor)
            docs, scores = docs[keep], scores[keep]
            key_cols = [kc[keep] for kc in key_cols]
        cols = [kc for kc, (col, _) in zip(key_cols, sort) if col != "_score"]
        if "collapse" in opts:
            cols.append(self._doc_col(opts["collapse"])[docs])
        if opts.get("index_sorted"):
            if len(docs):
                self.sorted_early_hits = getattr(self, "sorted_early_hits", 0) + 1
            order = np.arange(min(k, len(docs)))
        else:
            order = _sort_order(key_cols, descs, docs)
            if "collapse" in opts:
                order = order[_rank_within(cols[-1][order]) == 0]
            order = order[:k]
        return (docs[order], scores[order], *[c[order] for c in cols])


def _ordered_chain(keys_per_term: list, slop: int):
    """NearSpansOrdered chain over per-term sorted (doc<<32|pos) key arrays:
    every clause-0 occurrence chains through the earliest strictly-later
    occurrence of each following clause; returns (start_keys, end_keys) of
    chains whose in-doc width - (n-1) <= slop, sorted by start key."""
    MASK = np.int64((1 << 32) - 1)
    nt = len(keys_per_term)
    starts = keys_per_term[0]
    ends = starts.copy()
    ok = np.ones(len(starts), dtype=bool)
    for k in range(1, nt):
        bk = keys_per_term[k]
        idx = np.searchsorted(bk, ends, side="right")
        idx_c = np.minimum(idx, max(len(bk) - 1, 0))
        valid = (idx < len(bk)) & (
            (bk[idx_c] >> np.int64(32)) == (ends >> np.int64(32))
        ) if len(bk) else np.zeros(len(ends), dtype=bool)
        ok &= valid
        ends = np.where(valid, bk[idx_c], ends)
    hit = ok & ((ends & MASK) - (starts & MASK) - (nt - 1) <= slop)
    return starts[hit], ends[hit]


def _after_mask(key_cols, descs, cursor) -> np.ndarray:
    """Strictly-after lexicographic comparison of sort-key columns against a
    search_after cursor (SearchAfterBuilder.java:40), vectorized; rows equal
    on every key are excluded."""
    n = len(key_cols[0])
    keep = np.zeros(n, dtype=bool)
    tie = np.ones(n, dtype=bool)
    for kc, desc, c in zip(key_cols, descs, cursor):
        gt = (kc < c) if desc else (kc > c)
        keep |= tie & gt
        tie &= kc == c
    return keep


def _sort_order(key_cols, descs, docs, parts=None) -> np.ndarray:
    """lexsort by the sort keys then (part asc, doc asc) tie-break."""
    arrs = []
    tie = [docs] if parts is None else [docs, parts]
    for kcol, desc in zip(reversed(key_cols), reversed(descs)):
        a = kcol
        if desc:
            if a.dtype.kind in "Mm":
                a = (a.astype("int64")) * -1
            elif a.dtype.kind in "iu":
                a = ~a  # exact reversal, also beyond 2**53
            elif a.dtype.kind == "f":
                a = -a.astype(np.float64)
            else:
                raise TypeError(f"cannot sort desc on dtype {a.dtype}")
        arrs.append(a)
    return np.lexsort((*tie, *arrs))


def _window_match_count(merged: np.ndarray, nt: int, width: int) -> int:
    """Minimal-window sweep over a merged (pos, term_idx) stream sorted by
    pos: count windows containing all nt terms with span <= width; each match
    consumes its window start (so matches don't overlap at the start)."""
    count = np.zeros(nt, np.int64)
    have = 0
    lo = 0
    matches = 0
    for hi in range(len(merged)):
        t = merged[hi, 1]
        count[t] += 1
        if count[t] == 1:
            have += 1
        while have == nt and count[merged[lo, 1]] > 1:
            count[merged[lo, 1]] -= 1
            lo += 1
        if have == nt and merged[hi, 0] - merged[lo, 0] <= width:
            matches += 1
            count[merged[lo, 1]] -= 1
            if count[merged[lo, 1]] == 0:
                have -= 1
            lo += 1
    return matches


def _intersect(a: np.ndarray, b: np.ndarray, a_scores: tuple = (), b_scores: tuple = ()):
    """Intersect sorted unique doc arrays; returns (docs, remapped scores).
    Alignment is EXPLICIT: arrays in ``a_scores`` are aligned with `a`, arrays
    in ``b_scores`` with `b` (a length heuristic silently mis-aligned scores
    whenever both sides matched the same number of docs). The returned tuple
    is a_scores' remaps followed by b_scores'."""
    pos = np.searchsorted(b, a)
    pos_c = np.clip(pos, 0, max(len(b) - 1, 0))
    hit = (b[pos_c] == a) if len(b) else np.zeros(len(a), bool)
    docs = a[hit]
    out = [np.asarray(s, np.float64)[hit] for s in a_scores]
    out += [np.asarray(s, np.float64)[pos_c[hit]] for s in b_scores]
    return docs, tuple(out)


def _true_distance(a: str, b: str, maxd: int) -> int:
    """Smallest d <= maxd with edit_distance(a,b) <= d (for suggester ranking)."""
    for d in range(maxd + 1):
        if _edit_distance_le(a, b, d):
            return d
    return maxd + 1


def _auto_fuzziness(term: str) -> int:
    """Fuzziness.AUTO: 0 for len<3, 1 for 3..5, 2 above (Fuzziness.java)."""
    n = len(term)
    return 0 if n < 3 else (1 if n <= 5 else 2)


def _prefix_edits(a: str, b: str, maxd: int) -> int | None:
    """Min Damerau-Levenshtein distance from ``a`` to ANY PREFIX of ``b``
    (≤ maxd), or None — the fuzzy-completion predicate (Lucene
    FuzzyCompletionQuery matches analyzed suggestions whose prefix is
    within ``maxEdits`` of the typed prefix). Only the first
    len(a)+maxd chars of b can matter."""
    if maxd == 0:
        return 0 if b.startswith(a) else None
    b = b[: len(a) + maxd]
    la, lb = len(a), len(b)
    prev2 = None
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            v = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if (prev2 is not None and i > 1 and j > 1
                    and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]):
                v = min(v, prev2[j - 2] + 1)
            cur[j] = v
        if min(cur) > maxd:
            return None
        prev2, prev = prev, cur
    best = min(prev)  # min over all prefixes of b
    return best if best <= maxd else None


def _edit_distance_le(a: str, b: str, maxd: int) -> bool:
    """Damerau-Levenshtein (adjacent transposition) distance <= maxd, with
    band cutoff — Lucene fuzzy matching counts transposition as one edit."""
    if maxd == 0:
        return a == b
    la, lb = len(a), len(b)
    prev2 = None
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        lo = max(1, i - maxd)
        hi = min(lb, i + maxd)
        if lo > hi:
            return False
        if lo > 1:
            cur[lo - 1] = maxd + 1
        j = lo - 1
        for j in range(lo, hi + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            v = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if prev2 is not None and i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                v = min(v, prev2[j - 2] + 1)
            cur[j] = v
        if j < lb:
            cur[j + 1 :] = [maxd + 1] * (lb - j)
        if min(cur) > maxd:
            return False
        prev2, prev = prev, cur
    return prev[lb] <= maxd


def _min_should_match(msm, n_clauses: int) -> int:
    """Queries.calculateMinShouldMatch subset: int or 'N%' (negative = all-but)."""
    if msm is None:
        return 1
    if isinstance(msm, int):
        return msm if msm >= 0 else max(0, n_clauses + msm)
    s = str(msm).strip()
    if s.endswith("%"):
        pct = float(s[:-1])
        val = int(pct / 100.0 * n_clauses)
        return val if pct >= 0 else n_clauses + val
    return int(s)


class QueryEngine:
    """Search over a built index directory."""

    def __init__(self, index_dir: str, dtype: str = "float32", parallel: str = "local",
                 num_actors: int | None = None, num_coordinators: int = 0,
                 num_replicas: int = 1,
                 runtime_fields: dict[str, str] | None = None):
        # mapping-level runtime fields (index/mapper/
        # AbstractScriptFieldType.java): {name: expression source} — the
        # column is computed on demand per partition from stored doc
        # columns and then cached, so range/term FILTERS and sorts can
        # reference it like a stored field (parse-validated up front)
        if runtime_fields:
            from elasticsearch_ray.search.expressions import (
                compile_expression,
            )
            from elasticsearch_ray.search.painless import (
                compile_painless,
            )

            for _name, _src in runtime_fields.items():
                # fail fast on bad grammar, per language
                if isinstance(_src, dict):
                    if _src.get("lang") != "painless":
                        raise ValueError(
                            f"runtime field {_name!r}: dict form needs "
                            "lang='painless'")
                    compile_painless(_src["source"])
                else:
                    compile_expression(_src)
        self.runtime_fields = dict(runtime_fields or {})
        self.index_dir = index_dir
        self.__dict__.update(self._commit_state(state.snapshot(index_dir)))
        self.dtype = dtype
        self.parallel = parallel
        self._searchers: dict[int, PartitionSearcher] = {}
        self._df_cache: dict[str, int] = {}
        self._ttf_cache: dict[str, int] = {}
        self._blooms: dict[int, tuple] = {}
        self._lease = None
        self._view = None  # the pool view key (_open_view); None when local
        self._actors = None
        self._actor_pools = None
        self._num_actors = num_actors
        self._num_replicas = max(1, int(num_replicas))
        self._pool_rr = itertools.count()
        self._coords = None
        self._coord_rr = itertools.count()
        self._cpus = 1
        self._scorer_cache: dict = {}
        # where searches ran: "driver" (this process's readers), "fanout"
        # (the searcher actors) — one per _place decision — and
        # "coordinator" (handed off whole); bumped without a lock, so
        # concurrent searches may drop a count
        self.placements = {"driver": 0, "fanout": 0, "coordinator": 0}
        # searches in flight on this engine; a search's pinned copy records
        # whether it overlapped another (_search_unfrozen, _place)
        import threading

        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._overlap = False
        # x-pack frozen-indices: persisted flag → transient readers +
        # single-at-a-time searches (engine.freeze/unfreeze)
        self.frozen = self.snap.frozen
        self._frozen_lock = threading.Lock()
        # _field_usage/stats API (rest/action/admin/indices/
        # RestFieldUsageStatsAction, shards/FieldUsageStats.java):
        # coordinator-tracked per-field access counters, bumped on every
        # search — inverted_index for query terms (per analyzed field),
        # stored_fields for fetch columns, doc_values for sort/collapse
        self.field_usage: dict[str, dict[str, int]] = {}
        if parallel == "ray":
            self._init_actors(num_coordinators)

    @staticmethod
    def _commit_state(snap: "state.Snapshot") -> dict:
        """The engine attributes that follow one commit of the index: the
        snapshot and what derives from it, including each partition's
        manifest stamp (``reopen`` compares stamps to find changed
        partitions; readers open only the stamped commit)."""
        meta, spec = snap.meta, snap.spec
        return {
            "snap": snap,
            "meta": meta,
            "spec": spec,
            "params": BM25Params(k1=spec["k1"], b=spec["b"]),
            "similarity": spec.get("similarity", "BM25"),
            "analyzer_name": spec["analyzer"],
            "parts": snap.part_ids,
            "n_docs": meta["n_docs"],
            "avgdl": meta["sum_dl"] / max(meta["n_docs"], 1),
            "sum_dl_fields": meta.get("sum_dl_fields") or {},
            "_stamps": snap.stamps,
        }

    # -- local backend --
    def _searcher(self, part: int) -> PartitionSearcher:
        """The partition's searcher on this engine's commit; opening it
        raises ``state.StaleCommitError`` when the partition was rewritten
        or merged away since."""
        s = self._searchers.get(part)
        if s is None:
            s = self._searchers[part] = PartitionSearcher(
                SegmentReader(part_dir(self.index_dir, part), self._stamps.get(part)),
                part, self.spec, self.dtype, runtime_fields=self.runtime_fields)
        return s

    # -- ray actor backend --
    def _init_actors(self, num_coordinators: int = 0):
        """Lease warm searcher (and coordinator) actors from the process-level
        ``_POOL`` and open this engine's view on them. The lease ends at
        ``close()``, or when the engine is garbage-collected; the pool's
        last lease kills its actors."""
        self._num_coordinators = num_coordinators
        self._lease = _POOL.lease()
        self._finalizer = weakref.finalize(self, _POOL.release, self._lease)
        self._finalizer.atexit = False  # process exit ends the actors anyway
        self.__dict__.update(self._open_view(vars(self)))

    def _open_view(self, commit: dict) -> dict:
        """Open a new view of ``commit`` (``_commit_state``) on the
        leased actors; returns the engine attributes that address it. Each
        searcher actor gets one blocking ``reopen`` for its partition group,
        so no call under the new view key can overtake it on the threaded
        actor.

        num_replicas > 1 = the reference's replica-shard model: R actor sets,
        each covering EVERY partition, with queries round-robined across
        them (_qpool). Each query then fans out to one set's (narrower)
        actors, so concurrent queries neither contend on actors nor
        multiply per-query RPC width. The sets are disjoint slices of the
        pool. Memory cost is bounded: postings are memmapped (page cache
        shared across replicas); only term-dict / doc-column arrays
        duplicate. Pool 0 serves the stats / suggest / vocab gathers, which
        SUM over partitions and must see every partition exactly once."""
        import ray

        parts, stamps = commit["parts"], commit["_stamps"]
        R = self._num_replicas
        cpus = lanes.cpus()
        n_total = self._num_actors or max(1, min(len(parts) * R, cpus))
        per_pool = max(1, min(n_total // R, len(parts)))
        groups: list[list[int]] = [[] for _ in range(per_pool)]
        for i, p in enumerate(parts):
            groups[i % per_pool].append(p)
        groups = [g for g in groups if g]
        searchers, coords = _POOL.actors(R * len(groups), self._num_coordinators)
        pools = [searchers[r * len(groups):(r + 1) * len(groups)] for r in range(R)]
        key = self._lease.new_key()
        ray.get([a.reopen.remote(key, self.index_dir, {p: stamps[p] for p in g},
                                 commit["spec"], self.dtype, self.runtime_fields)
                 for pool in pools for a, g in zip(pool, groups)])
        if coords:
            ray.get([c.reopen.remote(key, self.index_dir, self.dtype, pools[i % R],
                                     cpus, self.runtime_fields)
                     for i, c in enumerate(coords)])
        # a pool is (view key, its actors' ``call``): a search that picked
        # a pool fans out to the readers of that view even if the engine
        # reopens meanwhile
        actor_pools = [(key, [a.call.remote for a in pool])
                       for pool in pools] if groups else None
        return {
            "_view": key,
            "_actor_pools": actor_pools,
            "_actors": actor_pools[0] if actor_pools else None,
            "_coords": [c.search.remote for c in coords] or None,
            "_cpus": cpus,
        }

    def reopen(self) -> dict:
        """Near-real-time refresh (the reference reopens its readers in place,
        ``IndexSettings.java:252``): take a new ``state.snapshot``, reopen
        only the partitions whose manifest stamp changed, drop removed ones and
        keep the readers of the rest, on the driver and on the leased
        actors (one blocking ``reopen`` per actor, under a new view key).
        Then swap the engine's commit state, view key and actor pools in
        one step; the swap puts in new dicts and never mutates the old
        ones, which searches in flight still read (``_pinned``). The
        previous view stays open on the actors until the next reopen or
        close, so such a search also takes its top-k from the actor readers
        it started with. Returns the partition counts."""
        commit = self._commit_state(state.snapshot(self.index_dir))
        old, new = self._stamps, commit["_stamps"]
        keep = {p for p in commit["parts"] if old.get(p) == new[p]}
        commit.update(
            _searchers={p: s for p, s in self._searchers.items() if p in keep},
            _blooms={p: b for p, b in self._blooms.items() if p in keep},
            _df_cache={}, _ttf_cache={}, _scorer_cache={}, _vocab_total=None,
            _rankfeat_stats_cache={})
        lease = self._lease
        pooled = lease is not None and not lease.released
        if pooled:
            commit.update(self._open_view(commit))
        self.__dict__.update(commit)
        if pooled:
            _POOL.forget(lease.retire(), wait=True)
        return {"parts": len(new), "reopened": len(new) - len(keep),
                "removed": len(set(old) - set(new))}

    def _qpool(self):
        """Searcher pool for one query: round-robin over replica pools
        (benign data race on the counter — any pool is correct)."""
        pools = self._actor_pools
        if not pools or len(pools) == 1:
            return self._actors
        return pools[next(self._pool_rr) % len(pools)]

    def _pinned(self) -> "QueryEngine":
        """This engine as of now, for one search, profile or async search: a
        shallow copy of its attributes. ``reopen`` swaps in new commit state
        (parts, readers, blooms, DFS caches, actor view) and never mutates
        the old dicts, so the copy's prepare, can_match, DFS, top-k and fetch
        (``_gather``) all read one commit (``snap``) however long the search
        takes. A Bloom filter it loads lazily takes its size from that
        commit's manifest, and a reader it opens lazily opens that commit's
        segment or raises ``state.StaleCommitError`` when a merge that
        landed meanwhile rewrote or removed the partition (serving the old
        segment needs its files kept past the merge). Counters and caches
        shared by reference (placements, round-robin counters, field usage,
        the frozen-index lock) keep counting for the engine."""
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__)
        return copy

    def stats(self) -> pa.Table:
        """_stats/_segments analog: per-partition docs, terms, postings bytes,
        sum_dl, merged-chunk counts and postings re-encoded by the merge —
        straight from the commit manifests."""
        return pa.Table.from_pylist([
            {"part": ps.part,
             **{k: ps.manifest[k] for k in ("n_docs", "n_terms", "postings_bytes", "sum_dl")},
             **{k: ps.manifest.get(k, 0)
                for k in ("runs_merged", "multi_chunk_terms", "reencoded_postings")}}
            for ps in self.snap.parts])

    def close(self):
        """Release this engine's views and its lease on the actor pool (the
        pool's last lease kills the actors); later searches run on the
        driver's own readers."""
        if self._lease is not None and self._finalizer.detach():
            _POOL.release(self._lease, wait=True)
        self._actor_pools = self._actors = self._coords = None

    def _prepare(self, q: "Query | str") -> Query:
        """The front door of every read API: a string becomes a
        ``MatchQuery``, then the query is rewritten once (``_rewrite``), so
        DFS term sets, can_match, scorers and partition eval all see the
        same tree."""
        return self._rewrite(MatchQuery(q) if isinstance(q, str) else q)

    def _rewrite(self, q: Query) -> Query:
        """Rewrite the whole tree once, on the coordinator (Lucene rewrites
        until nothing changes): each node goes through ``_rewrite_node``
        again until it stays the same, then its compound children are
        rewritten; a node is rebuilt only when a child changed, preserving
        object identity for the scorer cache."""
        nq = self._rewrite_node(q)
        if nq is not q:
            return self._rewrite(nq)
        changed = {}
        for a in COMPOUND_CHILDREN.get(type(q), ()):
            v = getattr(q, a)
            if isinstance(v, tuple):
                nv = tuple(self._rewrite(s) for s in v)
                if any(x is not y for x, y in zip(nv, v)):
                    changed[a] = nv
            elif v is not None:
                nv = self._rewrite(v)
                if nv is not v:
                    changed[a] = nv
        return dataclasses.replace(q, **changed) if changed else q

    def _rewrite_node(self, q: Query) -> Query:
        """One node's engine-level rewrite: fielded match/phrase queries take
        the spec's per-field analyzer (TextFieldMapper: each field analyzes
        queries with its own chain); rewrites needing GLOBAL stats run once
        here, e.g. more_like_this selects its top tf·idf terms (so every
        partition scores the same disjunction), mirroring the
        coordinator-side rewrite of MoreLikeThisQueryBuilder. Returns ``q``
        itself when nothing changes."""
        if isinstance(q, (MatchQuery, MatchPhraseQuery)):
            an = (self.spec.get("field_analyzers") or {}).get(q.field)
            return q if an is None or q.analyzer is not None else \
                dataclasses.replace(q, analyzer=an)
        if isinstance(q, (WeightedTokensQuery, SparseVectorQuery)) or (
                isinstance(q, RankFeatureQuery) and "." in q.field):
            # a rank_features field scores only from a sidecar recorded as
            # complete for this commit: a build that writes a part drops the
            # record, and the parts it kept still hold their old files
            field = q.field.split(".", 1)[0] if isinstance(q, RankFeatureQuery) else q.field
            if not self.snap.sidecar_recorded("rankfeat", field):
                raise ValueError(
                    f"rank_features field {field!r}: no complete sidecar in this "
                    f"commit of the index (build_rank_features builds it)")
        if isinstance(q, RankFeatureQuery) and q.pivot is None:
            # Lucene FeatureField.newSaturationQuery with no pivot:
            # computePivotFeatureValue = decode(sumTotalTermFreq / docFreq)
            # of the feature — resolved ONCE here so every partition scores
            # the same constant (only rank_features sidecar features carry
            # the needed freq stats; plain doc columns require an explicit
            # pivot, like pre-FeatureField Lucene)
            if q.function != "saturation":
                raise ValueError(
                    f"rank_feature {q.function} requires an explicit pivot")
            if "." not in q.field:
                raise ValueError(
                    "rank_feature auto-pivot needs a rank_features "
                    "field.feature (explicit pivot required for doc columns)")
            from elasticsearch_ray.index.rank_features import (
                decode_feature,
                feature_stats_bulk,
            )

            head, feat = q.field.split(".", 1)
            sum_freq, df = feature_stats_bulk(self.snap, head, [feat])[0][feat]
            pivot = (float(decode_feature(
                np.array([sum_freq // df], dtype=np.uint32))[0])
                if df else 1.0)
            return dataclasses.replace(q, pivot=pivot)
        if isinstance(q, SparseVectorQuery):
            # SparseVectorQueryBuilder#doRewrite: resolve the inference
            # expansion + token pruning ONCE against global field stats,
            # then every partition scores the same WeightedTokensQuery
            from elasticsearch_ray.index.rank_features import (
                feature_stats_bulk,
            )
            from elasticsearch_ray.search.sparse_vector import (
                expansion_model,
                prune_tokens,
            )

            toks = list(q.tokens)
            if not toks:
                if not q.inference_id or q.query is None:
                    raise ValueError(
                        "sparse_vector needs query_vector tokens or "
                        "inference_id + query")
                toks = sorted(expansion_model(q.inference_id)
                              (q.query).items())
            if q.prune:
                # ONE sidecar pass for all query tokens + field totals,
                # cached per (field, token) like the df/ttf gathers
                # (review r5 #7: N+1 sweeps per query, uncached)
                cache = getattr(self, "_rankfeat_stats_cache", None)
                if cache is None:
                    cache = self._rankfeat_stats_cache = {}
                fkey = ("__field__", q.field)
                missing = [t for t, _w in toks
                           if (q.field, t) not in cache]
                if missing or fkey not in cache:
                    bulk, total, nuniq = feature_stats_bulk(
                        self.snap, q.field, [t for t, _w in toks])
                    cache[fkey] = (total, nuniq)
                    for t, sf_df in bulk.items():
                        cache[(q.field, t)] = sf_df
                total, nuniq = cache[fkey]
                avg = total / nuniq if nuniq else 0.0
                # doc freq, not the encoded-weight sum: the [1] slot
                freqs = {t: cache[(q.field, t)][1] for t, _w in toks}
                toks = prune_tokens(
                    toks, avg, freqs,
                    ratio_threshold=q.tokens_freq_ratio_threshold,
                    weight_threshold=q.tokens_weight_threshold,
                    only_score_pruned=q.only_score_pruned_tokens)
            if not toks:
                return MatchNoneQuery()
            return WeightedTokensQuery(
                field=q.field,
                tokens=tuple((str(t), float(w)) for t, w in toks),
                boost=q.boost)
        if isinstance(q, MoreLikeThisQuery):
            from collections import Counter

            from elasticsearch_ray.search.bm25 import idf as idf_fn

            like = q.like or ""
            if q.like_ids:
                # like-DOCUMENT items: fetch each doc's text from the
                # _source lineage (the TermVectorsService path MLT uses)
                from elasticsearch_ray.search.termvectors import _source_text

                src_col = self.spec.get("text_column", "text")
                texts = [_source_text(self, d, src_col)[0]
                         for d in q.like_ids]
                like = " ".join([like] + texts).strip()
            an = get_analyzer(q.analyzer or self.analyzer_name)
            tf = Counter(an(like)[0])
            cand = [t for t, c in tf.items() if c >= q.min_term_freq]
            df = self._global_stats(cand) if cand else {}
            cand = [t for t in cand if df.get(t, 0) >= q.min_doc_freq]
            ranked = sorted(cand, key=lambda t: (-tf[t] * idf_fn(df[t], self.n_docs), t))
            sel = ranked[: q.max_query_terms]
            return BoolQuery(should=tuple(TermQuery(t) for t in sel), boost=q.boost)
        if isinstance(q, MultiMatchQuery):
            boosts = dict(q.boosts)
            if q.type == "phrase":
                # MultiMatchQueryBuilder Type.PHRASE: dis_max of per-field
                # phrase queries (namespaced positions make fielded phrases
                # exact)
                subs = tuple(MatchPhraseQuery(q.text, field=f,
                                              boost=boosts.get(f, 1.0))
                             for f in q.fields)
                return DisMaxQuery(queries=subs, tie_breaker=q.tie_breaker,
                                   boost=q.boost)
            if q.type == "cross_fields":
                # Type.CROSS_FIELDS: term-centric blended stats across
                # fields — executed through the combined_fields scorer (the
                # reference's documented successor of cross_fields; blended
                # df = max over fields, weighted dl/avgdl)
                return CombinedFieldsQuery(
                    text=q.text, fields=q.fields,
                    weights=tuple(boosts.get(f, 1.0) for f in q.fields),
                    operator=q.operator, boost=q.boost)
            if q.type == "phrase_prefix":
                # Type.PHRASE_PREFIX: default field only (the engine's
                # match_phrase_prefix expansion is default-field scoped)
                subs = tuple(MatchPhrasePrefixQuery(q.text, boost=boosts.get(f, 1.0))
                             for f in q.fields if f is None)
                if not subs:
                    raise ValueError("multi_match phrase_prefix needs the default field")
                return DisMaxQuery(queries=subs, tie_breaker=q.tie_breaker, boost=q.boost)
            subs = tuple(
                MatchQuery(q.text, operator=q.operator, field=f, boost=boosts.get(f, 1.0))
                for f in q.fields
            )
            if q.type == "most_fields":
                return BoolQuery(should=subs, boost=q.boost)
            return DisMaxQuery(queries=subs, tie_breaker=q.tie_breaker, boost=q.boost)
        if isinstance(q, QueryStringQuery):
            return parse_query_string(q.query, q.default_field, q.default_operator)
        if isinstance(q, TermsLookupQuery):
            # resolve the lookup doc ONCE on the coordinator (broadcast
            # small-side; the reference fetches the list with a GET)
            part, local = self._locate(q.doc_id)
            src_tbl = self.fetch_source(part, [local], columns=[q.text_column])
            text = src_tbl[q.text_column][0].as_py() or ""
            an = get_analyzer(self.analyzer_name)
            terms = tuple(dict.fromkeys(an(text)[0]))
            return TermsQuery(terms=terms, boost=q.boost)
        return q

    def _locate(self, doc_id: int) -> tuple[int, int]:
        """Global doc_id → (part, local) via the contiguous part bases.
        Out-of-range ids raise a clear ValueError instead of mapping into
        a bogus local row of the last partition (which surfaced as an
        opaque Arrow take IndexError downstream — ADVICE r4)."""
        parts = self.snap.parts
        n = parts[-1].base + parts[-1].n_docs if parts else 0
        if doc_id < 0 or doc_id >= n:
            raise ValueError(f"doc_id {doc_id} outside [0, {n})")
        i = int(np.searchsorted([p.base for p in parts], doc_id, side="right") - 1)
        return parts[i].part, int(doc_id - parts[i].base)

    def _bloom(self, part: int):
        """Per-partition term Bloom filter, loaded from the segment dir
        WITHOUT opening the segment (can_match pre-filter state). Its size
        comes from this engine's commit: a filter a merge rewrote since
        fails the length check and reads as absent (always match)."""
        b = self._blooms.get(part)
        if b is None:
            bits = (self.snap.part(part).manifest or {}).get("bloom_bits")
            data = read_term_bloom(part_dir(self.index_dir, part), bits) if bits else None
            b = (data, bits)
            self._blooms[part] = b
        return b

    def can_match_parts(self, terms: list[str]) -> list[int]:
        """CanMatchPreFilterSearchPhase analog: partitions that MIGHT contain
        at least one of the terms (bloom-missing partitions always match)."""
        if not terms:
            return list(self.parts)
        out = []
        for p in self.parts:
            data, bits = self._bloom(p)
            if data is None or any(bloom_might_contain(data, bits, t) for t in terms):
                out.append(p)
        return out

    def _candidate_parts(self, q: Query) -> list[int]:
        """Partitions a search for ``q`` visits: for purely term-scored
        query types, those whose bloom admits a query term (can_match);
        every partition otherwise. search, count and the profiler all
        prune through here."""
        if isinstance(q, _CAN_MATCH_TYPES):
            return self.can_match_parts(query_terms(q, self.analyzer_name))
        return list(self.parts)

    def _fanout(self, method: str, *args, parts=None, pool=None) -> list:
        """``PartitionSearcher.<method>(*args)`` on each of ``parts``
        (default: all) → ``[(part, result), ...]``: a driver loop over the
        cached local searchers, or ONE ray.get over an actor pool (view
        key, actor calls). ``topk`` instead runs one scoring pass per
        process that holds some of ``parts``, entered through the ``topk``
        of its first candidate searcher → ``[(parts, locals, scores),
        ...]``, one pass for the driver, or one per such actor. Each call
        ships one request tuple: Ray serializes
        every positional argument on its own, measured at ≈50 µs per
        argument of a searcher call on one pinned CPU (raw, host factor
        ≈2). ``pool`` defaults to pool 0 (every partition
        exactly once); a search passes the pool ``_place`` picked, which
        spreads load over replica pools, or the empty pool ``()`` to score
        on this engine's own readers."""
        parts = self.parts if parts is None else parts
        pool = self._actors if pool is None else pool
        if not pool:
            segs = [self._searcher(p) for p in parts]
            if method == "topk":
                return [segs[0].topk(*args, segs[1:])] if segs else []
            return [(s.part, getattr(s, method)(*args)) for s in segs]
        import ray

        key, calls = pool
        req = (key, method, parts, args)
        groups = ray.get([call(req) for call in calls])
        return [r for g in groups for r in g]

    def raw_stats(self, terms: list[str]) -> dict[str, tuple[int, int]]:
        """DFS gather: THIS index's (df, ttf) per term, summed over the
        partitions whose bloom admits some term (the rest are never
        opened). Runs on this engine's own readers on every backend: the
        term-dict lookup is cheaper than a searcher round trip, and the
        fetch phase opens the same readers anyway. Always gathers —
        MultiIndexEngine combines these raw per-index numbers across
        indices — and refreshes both DFS caches (ttf matters for the LM
        similarity family, where P(w|C) must come from the collection)."""
        stats = {t: (0, 0) for t in terms}
        if not terms:
            return stats
        for p in self.can_match_parts(terms):
            for t, (d, tt) in self._searcher(p).local_stats(terms).items():
                pd, pt = stats[t]
                stats[t] = (pd + d, pt + tt)
        self._df_cache.update((t, d) for t, (d, _tt) in stats.items())
        self._ttf_cache.update((t, tt) for t, (_d, tt) in stats.items())
        return stats

    def raw_df(self, terms: list[str]) -> dict[str, int]:
        """THIS index's df per term (raw_stats projection)."""
        return {t: d for t, (d, _tt) in self.raw_stats(terms).items()}

    def _global_stats(self, terms: list[str]) -> dict[str, int]:
        """DFS phase: global df per term; cached — term stats are immutable
        per index, so repeat queries skip the gather round entirely."""
        missing = [t for t in terms if t not in self._df_cache]
        if missing:
            self.raw_stats(missing)
        return {t: self._df_cache[t] for t in terms}

    def _global_ttf(self, terms: list[str]) -> dict[str, int]:
        """Global total term frequency per term (cached like _global_stats,
        filled by the same gather) — the unigram counts of the
        phrase-suggester language model."""
        missing = [t for t in terms if t not in self._ttf_cache]
        if missing:
            self.raw_stats(missing)
        return {t: self._ttf_cache[t] for t in terms}

    def _global_bigram_freqs(self, pairs: list) -> dict:
        """Global adjacent-occurrence counts for candidate word pairs: one
        fan-out carrying ALL pairs (not one call per pair), summed on the
        driver — the phrase-suggester shingle statistics."""
        out = dict.fromkeys(pairs, 0)
        if pairs:
            for _p, d in self._fanout("bigram_freqs", pairs):
                for k, v in d.items():
                    out[k] += v
        return out

    def _vocab_size(self) -> int:
        v = getattr(self, "_vocab_total", None)
        if v is None:
            v = self._vocab_total = sum(n for _p, n in self._fanout("vocab_size"))
        return v

    def avgdl_for(self, field: str | None) -> float:
        """Per-field average doc length (BM25 normalizes each field against
        its own length distribution, FieldMapper per-field norms)."""
        if field is None:
            return self.avgdl
        return self.sum_dl_fields.get(field, 0) / max(self.n_docs, 1)

    def _scorers(self, q: Query, boost_map=None):
        terms = query_terms(q, self.analyzer_name)
        df = self._global_stats(terms)
        # collection LM stats only for the similarities that need them
        # (the gather is cached like the df gather)
        ttf = (self._global_ttf(terms)
               if isinstance(self.similarity, dict)  # scripted: full stats
               or self.similarity in ("LMDirichlet", "LMJelinekMercer",
                                      "DFI")
               else {})

        def tokens_for(field):
            if field is None:
                return self.meta["sum_dl"]
            return self.sum_dl_fields.get(field, 0)

        scorers = {
            t: make_scorer(self.similarity, df[t], self.n_docs,
                           self.avgdl_for(field_of_term(t)), self.params,
                           dtype=self.dtype, ttf=ttf.get(t, 0),
                           total_tokens=tokens_for(field_of_term(t)))
            for t in terms
        }
        # phrase/span scorers: Lucene PhraseQuery (and SpanWeight's
        # buildSimWeight over clause terms) uses the SUM of member idfs
        from elasticsearch_ray.search.bm25 import idf as idf_fn

        def reg(pterms: tuple, boost: float):
            if self.similarity == "match_only_text":
                # ConstantScoreQuery wrap (MatchOnlyTextFieldMapper.java:187):
                # a source-confirmed phrase scores exactly the boost
                scorers[("__phrase__",) + pterms] = BooleanScorer(
                    boost, self.dtype)
                return
            sc = BM25Scorer(1, self.n_docs, self.avgdl, self.params, dtype=self.dtype)
            if self.dtype == "float32":
                idf_sum = np.float32(0.0)
                for t in pterms:
                    idf_sum = np.float32(idf_sum + np.float32(idf_fn(df.get(t, 0), self.n_docs)))
                sc.weight = np.float32(
                    np.float32(boost) * np.float32(np.float32(self.params.k1) + np.float32(1.0)) * idf_sum
                )
            else:
                sc.weight = boost * (self.params.k1 + 1.0) * sum(
                    idf_fn(df.get(t, 0), self.n_docs) for t in pterms
                )
            scorers[("__phrase__",) + pterms] = sc

        def add_phrase(qq):
            if isinstance(qq, MatchPhraseQuery):
                an = get_analyzer(qq.analyzer or self.analyzer_name)
                reg(tuple(fkey(qq.field, t) for t in an(qq.text)[0]), qq.boost)
            elif isinstance(qq, SpanNearQuery):
                reg(tuple(dict.fromkeys(qq.clauses)), qq.boost)
            elif isinstance(qq, IntervalsQuery):
                reg(tuple(dict.fromkeys(intervals_terms(qq.source, self.analyzer_name))),
                    qq.boost)
            elif isinstance(qq, SpanFirstQuery):
                reg((qq.term,), qq.boost)
            elif isinstance(qq, SpanOrQuery):
                reg(tuple(dict.fromkeys(qq.clauses)), qq.boost)
            elif isinstance(qq, SpanNotQuery):
                reg((qq.include,), qq.boost)
            elif isinstance(qq, (SpanWithinQuery, SpanContainingQuery)):
                reg(tuple(dict.fromkeys((qq.little, *qq.big))), qq.boost)
            elif isinstance(qq, CombinedFieldsQuery):
                an2 = get_analyzer(self.analyzer_name)
                weights = dict(zip(qq.fields, qq.weights)) if qq.weights else {}
                avgdl_cf = sum(weights.get(f, 1.0) * self.avgdl_for(f) for f in qq.fields)
                for t in an2(qq.text)[0]:
                    df_cf = max(df.get(fkey(f, t), 0) for f in qq.fields)
                    w = qq.boost * (self.params.k1 + 1.0) * idf_fn(df_cf, self.n_docs)
                    scorers[("__cf__", t, qq.fields, tuple(qq.weights))] = _CombinedScorer(
                        w, self.params.k1, self.params.b, avgdl_cf, self.dtype
                    )
            else:
                for sub in subqueries(qq):
                    add_phrase(sub)

        add_phrase(q)
        return scorers

    def _scorers_cached(self, q: Query):
        """Scorers for ``q``, cached per query: segments are immutable, so
        term stats and scorer weights never change and repeated queries
        skip the DFS and scorer construction. On the actor backend the
        dict ships inline in each searcher task's arguments (a few KB for
        a few BM25 scorers): an object-store put per distinct query cost
        ≈5.8 ms, more than the rest of the query phase."""
        try:
            scorers = self._scorer_cache.get(q)
        except TypeError:  # unhashable query (shouldn't happen; all frozen)
            return self._scorers(q)
        if scorers is None:
            scorers = self._scorers(q)
            if len(self._scorer_cache) >= 512:
                self._scorer_cache.clear()
            self._scorer_cache[q] = scorers
        return scorers

    def freeze(self) -> None:
        """Freeze this index (x-pack frozen-indices
        ``TransportFreezeIndexAction`` / ``FrozenEngine``): readers become
        TRANSIENT — every search reopens partition searchers and releases
        them when it finishes, so a frozen index holds ~no heap between
        queries — and searches run ONE at a time (the reference's
        dedicated single-thread ``search_throttled`` pool). The per-term
        Bloom can_match metadata stays resident: frozen indices lean on
        the can_match phase to skip untouched shards cheaply. The flag
        persists with the index (``state.commit_frozen``).

        Scope: ``search()`` and ``count()`` honor the frozen contract;
        auxiliary read paths (suggesters, terms_enum, completion,
        termvectors) still warm caches — acceptable for the freeze use
        case (rarely-queried archive indices) and documented here."""
        if self.parallel == "ray":
            raise ValueError(
                "freeze() applies to the task/local backend; pooled searcher "
                "views ARE warm state — close() the engine to release them "
                "instead")
        state.commit_frozen(self.index_dir, True)
        self.frozen = True
        self._release_transient()

    def unfreeze(self) -> None:
        state.commit_frozen(self.index_dir, False)
        self.frozen = False

    def _release_transient(self) -> None:
        """Drop per-partition readers + derived caches (the FrozenEngine
        reader-release analog). Kept: Blooms (can_match) and the tiny
        global df/ttf stat caches."""
        self._searchers.clear()
        self._scorer_cache.clear()

    def _read_gate(self, read, *args):
        """The gate of ``search``, ``count``, ``scan``, ``scan_dataset``,
        ``explain``, ``mget`` and ``inner_hits``: refuse a closed index or a
        read block (``check_read``, mtime-cached, one os.stat), then run
        ``read(*args)``; on a frozen index one read at a time (the
        ``search_throttled`` pool), dropping the readers after it."""
        from elasticsearch_ray.index import admin as _admin

        _admin.check_read(self.index_dir)
        if not self.frozen:
            return read(*args)
        with self._frozen_lock:
            try:
                return read(*args)
            finally:
                self._release_transient()

    def search(self, q: Query | str, k: int = 10, mode: str = "bmw",
               fetch: tuple = ("url", "doc_id"), sort: list | None = None,
               search_after: tuple | None = None, collapse: str | None = None,
               rescore: tuple | None = None, min_score: float | None = None,
               post_filter: Query | None = None,
               terminate_after: int | None = None) -> pa.Table:
        return self._read_gate(
            self._search_unfrozen, q, k, mode, fetch, sort, search_after, collapse,
            rescore, min_score, post_filter, terminate_after)

    def _search_unfrozen(self, q: Query | str, k: int = 10,
               mode: str = "bmw",
               fetch: tuple = ("url", "doc_id"), sort: list | None = None,
               search_after: tuple | None = None, collapse: str | None = None,
               rescore: tuple | None = None, min_score: float | None = None,
               post_filter: Query | None = None,
               terminate_after: int | None = None) -> pa.Table:
        """Top-k search → Table(rank, score, part, local, + fetched columns).

        Default order: (score desc, part asc, doc asc) — the reference's
        TopDocs.merge tie-break. Options (SURVEY §2.8):
          sort: [(column|'_score', 'asc'|'desc'), ...] field sort
                (FieldSortBuilder); implies per-part top-k on the sort key.
          search_after: cursor of sort-key values (+ (part, local) tiebreak)
                — strictly-after filtering (SearchAfterBuilder.java:40).
          collapse: doc-column name — one best hit per distinct value
                (SinglePassGroupingCollector analog).
          rescore: (query, window_size, query_weight, rescore_weight) —
                re-rank the top window with a second query (QueryRescorer).
          min_score: drop hits below this score (QueryPhase min_score).
          post_filter: non-scoring filter applied to HITS after scoring
                (SearchSourceBuilder#postFilter — scores unchanged, an agg
                collector would see the unfiltered stream).
          terminate_after: per-shard collection cut after N matching docs in
                doc order (QueryPhase terminate_after; counts become lower
                bounds, like the reference's terminated_early response).

        Every option runs the one query phase (``_query_phase``), placed by
        ``_place``, or, when the search overlaps another in flight on an
        engine with coordinators, on a coordinator, which gets the options
        in one dict. The whole search reads one commit (``_pinned``), also
        across a concurrent reopen.
        """
        from elasticsearch_ray.index import admin as _admin

        # dynamic settings override wins over the build-time spec value
        mrw = _admin.effective_max_result_window(self.index_dir, self.spec)
        if mrw is not None and k > int(mrw):
            # IndexSettings.MAX_RESULT_WINDOW_SETTING guard (default
            # 10000 in the reference; OPT-IN here via the spec key since
            # this engine's k is also the internal deep-fetch vehicle)
            raise ValueError(
                f"Result window is too large, from + size must be less "
                f"than or equal to: [{int(mrw)}] but was [{k}]. See the "
                f"scroll api for a more efficient way to request large "
                f"data sets.")
        if (post_filter is not None or terminate_after is not None) and (
                sort or collapse or rescore or search_after):
            raise ValueError("post_filter/terminate_after cannot be combined "
                             "with sort/collapse/rescore/search_after")
        if rescore is not None and sort and list(sort) != [("_score", "desc")]:
            # QueryRescorer rejects explicit sort + rescore (the rescorer
            # would silently re-order the sorted window by _score).
            raise ValueError("Cannot use [sort] option in conjunction with [rescore]")
        eng = self._pinned()
        q = eng._prepare(q)
        eng._track_field_usage(q, fetch, sort, collapse)
        req = coordinator_request(
            eng._view, q, k, mode, sort=sort, search_after=search_after,
            collapse=collapse, rescore=rescore, min_score=min_score,
            post_filter=post_filter, terminate_after=terminate_after)
        # a search that overlaps another in flight on this engine goes to a
        # coordinator if there is one, else its query phase fans out
        # (_place); see CoordinatorActor for the measurements behind both
        # switches
        with self._inflight_lock:
            eng._overlap = self._inflight > 0
            self._inflight += 1
        try:
            if eng._overlap and eng._coords:
                import ray

                self.placements["coordinator"] += 1
                coord = eng._coords[next(self._coord_rr) % len(eng._coords)]
                hits = ray.get(coord(req))
            else:
                hits = eng._query_phase(*req[1:])
            return eng._attach_fetch(hits, fetch)
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    def _query_phase(self, q: Query, k: int, mode: str, opts: dict,
                     lap=_no_lap) -> pa.Table:
        """The query phase of every search, run by this engine (the driver,
        or a coordinator's inner engine): DFS scorers → can_match → ONE
        fan-out of a collector, placed by ``_place`` (this engine's own
        readers, or the searcher actors) → one merge → optional rescore of
        the top window. Hits without fetch. ``topk`` (BMW) collects when the
        options (``opts``, as built by ``coordinator_request``) need no full
        candidate set — none, or only min_score and rescore: one scoring
        pass per process over all of its candidate partitions
        (``PartitionSearcher.topk``), whose top-k is already in merge order,
        so a search placed on this engine's readers sorts nothing more and
        the passes of a fan-out meet in one ``_merge_hits`` (``_pass_table``).
        ``extended_candidates`` collects per partition for sort,
        search_after, collapse, post_filter and terminate_after, merged by
        ``_merge_hits``. ``lap(phase, *info)`` marks the end of each phase
        for the profiler: "create_weight", "can_match", "query" (with the
        candidate parts, the placement and the fan-out's results) and
        "merge" (merge and rescore)."""
        scorers = self._scorers_cached(q)
        lap("create_weight")
        parts = self._candidate_parts(q)
        lap("can_match")
        pool = self._place(parts)
        rescore = opts.get("rescore")
        n = k if rescore is None else max(k, rescore[1])
        if opts.keys() <= {"min_score", "rescore"}:
            results = self._fanout("topk", q, scorers, n, mode, parts=parts, pool=pool)
            lap("query", parts, pool, results)
            hits = _pass_table(results, n, opts.get("min_score"))
        else:
            sort = opts.get("sort") or [("_score", "desc")]
            copts = {**opts, "sort": sort}
            copts.pop("rescore", None)
            if "post_filter" in opts:
                # the filter may be any query (ES postFilter accepts the full
                # DSL): it needs its OWN scorers for analyzed/phrase members
                pf = self._prepare(opts["post_filter"])
                copts["post_filter"] = (pf, self._scorers_cached(pf))
            # index-sorting early termination (Lucene sorted-index search):
            # only when the requested sort IS the index sort (field and
            # direction) and nothing needs scores or full candidate sets
            sf = self.spec.get("sort_field")
            copts["index_sorted"] = bool(
                sf and list(sort) == [(sf, self.spec.get("sort_order", "asc"))]
                and not opts.keys() & {"rescore", "collapse", "min_score"})
            results = self._fanout("extended_candidates", q, scorers, n, copts,
                                   parts=parts, pool=pool)
            lap("query", parts, pool, results)
            keys = [("score" if col == "_score" else f"key{i}", d)
                    for i, (col, d) in enumerate(sort)]
            names = [c for c, _ in keys if c != "score"] + ["collapse"] * ("collapse" in opts)
            hits = _merge_hits(_hits_table(results, names), n, keys,
                               ("collapse", 1) if "collapse" in opts else None)
        if rescore is not None:
            hits = self._rescore(hits, rescore, pool)
        lap("merge")
        return hits.select(["rank", "score", "part", "local"]).slice(0, k)

    def _rescore(self, hits: pa.Table, rescore: tuple, pool) -> pa.Table:
        """QueryRescorer over the top ``window`` hits: score·query_weight +
        rescore score·rescore_weight (a hit the rescore query misses keeps
        score·query_weight), re-merged; the hits below the window keep their
        order. Each partition scores only its own window rows
        (``window_scores``) on the query phase's pool."""
        rq, window, qw, rw = rescore
        top = hits.slice(0, window)
        if not len(top):
            return hits
        rq = self._prepare(rq)
        parts, locs = top["part"].to_numpy(), top["local"].to_numpy()
        want = {int(p): locs[parts == p] for p in np.unique(parts)}
        extra = np.full(len(top), np.nan)
        for p, sc in self._fanout("window_scores", rq, self._scorers_cached(rq), want,
                                  parts=list(want), pool=pool):
            extra[parts == p] = sc
        base = top["score"].to_numpy() * qw
        top = top.set_column(top.column_names.index("score"), "score",
                             pa.array(np.where(np.isnan(extra), base, base + extra * rw)))
        return pa.concat_tables([_merge_hits(top), hits.slice(window)])

    def _place(self, parts):
        """Where one search's collector (and rescore pass) over candidate
        ``parts`` runs: the actor pool to fan out to, or the empty pool
        ``()`` for this engine's own readers (which the DFS just opened).
        Either way each process scores its candidate partitions in one
        top-k pass (``_fanout``). P
        is the number of actors that hold candidate partitions, capped by
        the cluster's CPUs. At P ≤ 1 a fan-out buys no parallelism, only the actor round trip: on one
        pinned CPU (4 partitions of perfbench's Zipf pages, 1200 distinct
        stream queries, raw) the top-k's p50 was 2.7 ms in-process against
        5.2 ms through the actors. At P > 1 it fans out, as every search
        did before; where staying in-process would still win there has not
        been measured on a multi-CPU host. A search that overlaps another
        on this engine always fans out: in-process, it would share this
        process's GIL with the first. Counted in ``placements``."""
        pool = self._qpool()
        if pool is not None:
            width = min(len(self._actor_shares(parts, pool)), self._cpus)
            if self._overlap or width > 1:
                self.placements["fanout"] += 1
                return pool
        self.placements["driver"] += 1
        return ()

    def _actor_shares(self, parts, pool) -> dict:
        """{actor index in ``pool``: its candidate ``parts``}, for the actors
        that hold any (``_open_view`` deals the commit's parts round-robin
        over a pool's actors), in actor order."""
        n, cand = len(pool[1]), set(parts)
        shares = {a: [p for p in self.parts[a::n] if p in cand] for a in range(n)}
        return {a: ps for a, ps in shares.items() if ps}

    def analyze(self, text: str, analyzer: str | None = None,
                explain: bool = False):
        """The `_analyze` API (AnalyzeAction): run text through a named
        analyzer (default: this index's) and return the token stream as
        [{token, position}] — the standard debugging surface for chains.
        ``explain=True`` returns the per-step detail response
        (charfiltered text, tokenizer output, tokens after every filter)
        for custom chains, or the final tokens under a single analyzer
        node otherwise (TransportAnalyzeAction detail shape)."""
        an = get_analyzer(analyzer or self.analyzer_name)
        if explain:
            if hasattr(an, "explain"):
                return an.explain(text)
            terms, pos = an(text)
            return {"analyzer": {
                "name": analyzer or self.analyzer_name,
                "tokens": [{"token": t, "position": int(p)}
                           for t, p in zip(terms, pos)]}}
        terms, pos = an(text)
        return [{"token": t, "position": int(p)} for t, p in zip(terms, pos)]

    def terms_enum(self, prefix: str, size: int = 10) -> list[str]:
        """The `_terms_enum` API (TermsEnumAction): up to ``size`` index
        terms starting with ``prefix``, sorted — per-partition sorted-dict
        prefix cuts (field-scoped keys excluded BEFORE the cut limit),
        gathered from the warm actor pool when one exists, merged on the
        driver (the reference's per-shard terms enum + coordinator merge)."""
        out = {t for _p, terms in self._fanout("terms_with_prefix", prefix, size)
               for t in terms}
        return sorted(out)[:size]

    def inner_hits(self, q: "Query | str", collapse: str, values,
                   size: int = 3, fetch: tuple = ("doc_id",)) -> pa.Table:
        """Field-collapsing inner_hits (CollapseBuilder#setInnerHits /
        ExpandSearchPhase): for each collapsed group value in ``values``
        (normally the collapsed top-k's winners), the top ``size`` hits in
        the default order (score desc, part, local). Each partition
        pre-cuts to ≤ size candidates per value, so the driver merge is
        |values|·size·P rows — the reference's expand phase runs one
        multi-search the same way."""
        return self._read_gate(self._inner_hits, q, collapse, values, size, fetch)

    def _inner_hits(self, q, collapse, values, size, fetch) -> pa.Table:
        q = self._prepare(q)
        scorers = self._scorers_cached(q)
        got = self._fanout("inner_hits_candidates", q, scorers, collapse, list(values), size)
        hits = _merge_hits(_hits_table(got, [collapse]), None,
                           ((collapse, "asc"), ("score", "desc")), (collapse, size))
        # global rank over (group, inner_rank)
        inner_rank = _rank_within(hits[collapse].to_numpy()) + 1
        return self._attach_fetch(
            hits.select([collapse, "score", "part", "local"])
            .append_column("inner_rank", pa.array(inner_rank, pa.int64()))
            .append_column("rank", hits["rank"]), fetch)

    def termvectors(self, doc_id: int | None = None, doc: str | None = None,
                    **kw) -> dict:
        """_termvectors API (TermVectorsRequest.java) — see
        search/termvectors.py for the re-analysis + index-stats model."""
        from elasticsearch_ray.search.termvectors import termvectors

        return termvectors(self, doc_id=doc_id, doc=doc, **kw)

    def mtermvectors(self, doc_ids, **kw) -> list[dict]:
        """_mtermvectors API (MultiTermVectorsRequest.java)."""
        from elasticsearch_ray.search.termvectors import mtermvectors

        return mtermvectors(self, doc_ids, **kw)

    def mget(self, doc_ids, columns: tuple = ("doc_id",),
             source_columns: tuple = ()) -> pa.Table:
        """_mget API analog (TransportMultiGetAction): fetch docs by id,
        in request order. ``columns`` come from the stored docs table;
        ``source_columns`` additionally read from the _source lineage via
        the row-group-pushdown fetch (one read per touched partition/row
        group, grouped like the fetch phase)."""
        return self._read_gate(self._mget, doc_ids, columns, source_columns)

    def _mget(self, doc_ids, columns, source_columns) -> pa.Table:
        ids = [int(d) for d in doc_ids]
        if not ids:
            return pa.table({})
        # unknown ids (outside this index's own partitions) become
        # found=false rows with null fields — the reference's per-doc
        # MultiGetItemResponse shape — instead of an opaque Arrow IndexError
        # (ADVICE r4). The snapshot's own count, not ``n_docs``, bounds the
        # ids: a MultiIndexEngine member's ``n_docs`` is the combined count.
        n_own = self.snap.n_docs
        known = np.array([0 <= d < n_own for d in ids], bool)
        located = np.array([self._locate(d) for d, ok in zip(ids, known) if ok],
                           np.int64).reshape(-1, 2)

        def read(s, locs):
            t = s.r.doc_fields(locs, columns)
            if source_columns:
                src = _fetch_source_rows(s.r.manifest, locs, list(source_columns))
                for c in src.column_names:
                    if c not in t.column_names:
                        t = t.append_column(c, src[c])
            return t

        tbl = self._gather(located[:, 0], located[:, 1], read)
        # request order; an unknown slot takes a null index (a null row)
        out = tbl.take(pa.array(np.cumsum(known) - 1, mask=~known))
        if "doc_id" in out.column_names:
            # echo the REQUESTED id on not-found rows (the reference
            # returns the _id with found=false)
            out = out.set_column(out.column_names.index("doc_id"), "doc_id",
                                 pa.array(ids, pa.int64()))
        return out.append_column("found", pa.array(known))

    def segments(self) -> list[dict]:
        """_segments API analog (IndicesSegmentsAction): per-partition
        segment metadata straight from manifests + on-disk file sizes —
        no segment is opened."""
        out = []
        for ps in self.snap.parts:
            pdir = part_dir(self.index_dir, ps.part)
            m = ps.manifest or {}
            files = {}
            for f in sorted(os.listdir(pdir)):
                fp = os.path.join(pdir, f)
                if os.path.isfile(fp):
                    files[f] = os.path.getsize(fp)
            out.append({
                "partition": ps.part,
                "n_docs": m.get("n_docs"),
                "sum_dl": m.get("sum_dl"),
                "format": m.get("format"),
                "size_in_bytes": sum(files.values()),
                "files": files,
            })
        return out

    def search_shards(self, q=None) -> dict:
        """_search_shards API analog (TransportSearchShardsAction): one
        entry per partition ("shard") from manifests only, plus — when a
        query is given — the coordinator's can_match Bloom decision per
        shard (SearchService.canMatch), so callers can see which shards a
        search would skip before running it."""
        matching = None if q is None else set(self._candidate_parts(self._prepare(q)))
        shards = []
        for ps in self.snap.parts:
            shards.append({
                "index": os.path.basename(self.index_dir),
                "shard": ps.part,
                "state": "STARTED",
                "n_docs": (ps.manifest or {}).get("n_docs"),
                "can_match": True if matching is None else ps.part in matching,
            })
        skipped = 0 if matching is None else len(self.parts) - len(matching)
        return {"total": len(self.parts),
                "skipped": skipped,
                "shards": shards}

    def disk_usage(self) -> dict:
        """_disk_usage API analog (AnalyzeIndexDiskUsageAction): total and
        per-structure byte accounting (postings/positions/term dict/stored
        fields/blooms), summed across partitions."""
        kinds = {"postings.bin": "postings", "positions.bin": "positions",
                 "terms.parquet": "term_dictionary",
                 "docs.parquet": "stored_fields",
                 "termbloom.bin": "bloom_filters"}
        agg: dict[str, int] = {v: 0 for v in kinds.values()}
        agg["other"] = 0
        total = 0
        for seg in self.segments():
            for f, sz in seg["files"].items():
                agg[kinds.get(f, "other")] += sz
                total += sz
        return {"total_in_bytes": total, "num_partitions": len(self.parts),
                "n_docs": self.n_docs, "breakdown": agg}

    def _track_field_usage(self, q, fetch, sort, collapse) -> None:
        def bump(field: str, kind: str) -> None:
            self.field_usage.setdefault(field, {})
            self.field_usage[field][kind] = \
                self.field_usage[field].get(kind, 0) + 1

        try:
            for t in query_terms(q, self.analyzer_name):
                bump(field_of_term(t) or self.spec["text_column"],
                     "inverted_index")
        except Exception:
            bump(self.spec["text_column"], "inverted_index")
        for col in fetch or ():
            bump(col, "stored_fields")
        for key, _dir in sort or ():
            if key != "_score":
                bump(key, "doc_values")
        if collapse:
            bump(collapse, "doc_values")

    def field_usage_stats(self) -> dict:
        """_field_usage_stats analog: {field: {section: count}} counters
        accumulated since this engine was opened."""
        return {f: dict(kinds) for f, kinds in
                sorted(self.field_usage.items())}

    def field_caps(self) -> dict:
        """The `_field_caps` API (FieldCapabilitiesRequest): per-field type
        and searchability over this index — the analyzed text field(s),
        extra indexed fields (their own postings namespaces), and the stored
        doc columns (filter/sort/agg-able), with Arrow types read from the
        docs schema."""
        import pyarrow.parquet as _pq

        caps: dict[str, dict] = {}
        text_col = self.spec.get("text_column", "text")
        caps[text_col] = {"type": "text", "searchable": True,
                          "aggregatable": False,
                          "analyzer": self.analyzer_name}
        for f, an in (self.spec.get("field_analyzers") or {}).items():
            caps[f] = {"type": "text", "searchable": True,
                       "aggregatable": False, "analyzer": an}
        p0 = self.parts[0]
        schema = _pq.read_schema(
            os.path.join(part_dir(self.index_dir, p0), "docs.parquet"))
        for name, typ in zip(schema.names, schema.types):
            if name not in caps:
                caps[name] = {"type": str(typ), "searchable": True,
                              "aggregatable": True}
        return caps

    def validate_query(self, body) -> dict:
        """The `_validate/query?explain` API (ValidateQueryRequest): parse
        the JSON DSL without executing. Returns {valid, explanation|error} —
        the explanation is the round-tripped canonical DSL."""
        from elasticsearch_ray.search.dsl import DslError, parse_dsl, to_dsl

        try:
            q = parse_dsl(body) if not isinstance(body, Query) else body
        except (DslError, KeyError, TypeError, ValueError) as e:
            return {"valid": False, "error": f"{type(e).__name__}: {e}"}
        try:
            expl = to_dsl(q)
        except Exception:
            expl = repr(q)
        return {"valid": True, "explanation": expl}

    def count(self, q: "Query | str") -> int:
        """The `_count` API (TransportCountAction): total matching docs.
        Per-partition match-set SIZES sum on the driver — no top-k merge,
        no score sort, no fetch, and from actors only an int per pool
        member crosses the wire. Frozen indices throttle it like search."""
        return self._read_gate(self._count_unfrozen, q)

    def _count_unfrozen(self, q: "Query | str") -> int:
        q = self._prepare(q)
        return int(sum(n for _p, n in self._fanout(
            "count", q, self._scorers_cached(q), parts=self._candidate_parts(q),
            pool=self._qpool())))

    def msearch(self, queries: list, k: int = 10, **kw) -> list:
        """The `_msearch` bulk API: execute several searches in one call.
        With coordinator/replica pools the requests overlap through driver
        threads (the search path is ray.get-bound); otherwise sequential."""
        if not queries:
            return []
        if self._coords or self._actors:
            import concurrent.futures as _fut

            with _fut.ThreadPoolExecutor(min(8, len(queries))) as ex:
                return list(ex.map(lambda q: self.search(q, k=k, **kw), queries))
        return [self.search(q, k=k, **kw) for q in queries]

    def scan(self, q: Query | str, batch_size: int = 1000, fetch: tuple = ("doc_id",)):
        """Scroll analog (search/Scroll.java semantics): iterate ALL hits in
        (part, doc) order as pyarrow tables — server-held-cursor pagination
        becomes a generator over immutable segments (point-in-time for free).
        The index gate runs at the call, before the first batch."""
        return self._scan_batches(self._read_gate(self._prepare, q), batch_size, fetch)

    def _scan_batches(self, q, batch_size: int, fetch: tuple):
        scorers = self._scorers_cached(q)
        for p in self.parts:
            s = self._searcher(p)
            docs, scores = s._eval_scoring(q, scorers, k=None, mode="exhaustive")
            for lo in range(0, len(docs), batch_size):
                sl = docs[lo : lo + batch_size]
                tbl = s.r.doc_fields(sl, fetch) if fetch else pa.table({})
                tbl = tbl.append_column("part", pa.array(np.full(len(sl), p, np.int64)))
                tbl = tbl.append_column("local", pa.array(sl))
                tbl = tbl.append_column(
                    "score", pa.array(np.asarray(scores[lo : lo + batch_size], np.float64))
                )
                yield tbl

    def suggest(self, text: str, size: int = 5, suggest_mode: str = "missing",
                max_edits: int = 2, prefix_length: int = 1) -> dict[str, list[dict]]:
        """Term suggester (search/suggest TermSuggester semantics): per input
        token, candidate dictionary terms within ``max_edits`` Damerau-
        Levenshtein edits, ranked by (fewer edits, higher df, term asc).
        suggest_mode='missing' only suggests for tokens absent from the
        index. Candidates are gathered PER PARTITION (warm actors when
        enabled) with sorted-dict prefix + length pruning; the driver merges
        small df maps."""
        an = get_analyzer(self.analyzer_name)
        tokens = an(text)[0]
        out: dict[str, list[dict]] = {}
        for tok in tokens:
            df_tok = self._global_stats([tok])[tok]
            if suggest_mode == "missing" and df_tok > 0:
                out[tok] = []
                continue
            ranked = self._suggest_ranked(tok, max_edits, prefix_length)[:size]
            out[tok] = [
                {"text": t, "freq": df, "distance": _true_distance(tok, t, max_edits)}
                for t, df in ranked
            ]
        return out

    def _suggest_ranked(self, tok: str, max_edits: int, prefix_length: int) -> list:
        """Term-suggester candidates for ``tok`` with their summed df,
        ranked by (fewer edits, higher df, term asc)."""
        cand: dict[str, int] = {}
        for _p, d in self._fanout("suggest_candidates", tok, max_edits, prefix_length):
            for t, df in d.items():
                cand[t] = cand.get(t, 0) + df
        return sorted(cand.items(),
                      key=lambda kv: (_true_distance(tok, kv[0], max_edits), -kv[1], kv[0]))

    def complete(self, prefix: str, size: int = 5) -> list[dict]:
        """Completion suggester analog (search/suggest/completion — the FST
        prefix automaton is our sorted term dict): terms with the prefix,
        ranked by (df desc, term asc), merged across partitions."""
        merged: dict[str, int] = {}
        for _p, d in self._fanout("completion_candidates", prefix.lower()):
            for t, df in d.items():
                merged[t] = merged.get(t, 0) + df
        ranked = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))[:size]
        return [{"text": t, "freq": df} for t, df in ranked]

    def complete_ctx(self, prefix: str, contexts: dict, size: int = 5,
                     limit: int = 200) -> list[dict]:
        """Completion suggester with CATEGORY CONTEXTS
        (``ContextMappings.java`` + ``CategoryQueryContext``): ``contexts``
        is ``{field: [{"context": value, "boost": b}, ...]}`` — bare values
        mean boost 1. A suggestion must match at least one requested
        context value (filter semantics); its score is
        ``sum over matched contexts of df_in_context * boost`` (the
        reference multiplies the suggestion weight by the context boost —
        weight here IS the within-context df), ties broken by term asc.
        One context field per query (the common CategoryContextMapping
        shape)."""
        if len(contexts) != 1:
            raise ValueError("complete_ctx takes exactly one context field")
        (field, specs), = contexts.items()
        boosts: dict = {}
        for s in specs:
            if isinstance(s, dict):
                boosts[s["context"]] = float(s.get("boost", 1.0))
            else:
                boosts[s] = 1.0
        merged: dict[str, dict] = {}
        for _p, d in self._fanout("completion_candidates_ctx", prefix.lower(), field,
                                  list(boosts), limit):
            for t, per in d.items():
                agg = merged.setdefault(t, {})
                for v, n in per.items():
                    agg[v] = agg.get(v, 0) + n
        scored = [
            (t, sum(n * boosts[v] for v, n in per.items()), per)
            for t, per in merged.items()
        ]
        scored.sort(key=lambda x: (-x[1], x[0]))
        return [{"text": t, "score": sc,
                 "contexts": dict(sorted(per.items()))}
                for t, sc, per in scored[:size]]

    def complete_fuzzy(self, prefix: str, size: int = 5, fuzziness: int = 1,
                       prefix_length: int = 1, min_length: int = 3) -> list[dict]:
        """Fuzzy completion suggester (FuzzyCompletionSuggestion): prefix
        typos within ``fuzziness`` Damerau edits still complete. Ranking
        mirrors Lucene's exact-first boosting deterministically: (edits
        asc, df desc, term asc) — an exact-prefix completion always beats
        a fuzzy one regardless of frequency."""
        merged: dict[str, list] = {}
        for _p, d in self._fanout("fuzzy_completion_candidates", prefix.lower(),
                                  fuzziness, prefix_length, min_length):
            for t, (df, e) in d.items():
                cur = merged.get(t)
                if cur is None:
                    merged[t] = [df, e]
                else:
                    cur[0] += df
                    cur[1] = min(cur[1], e)
        ranked = sorted(merged.items(),
                        key=lambda kv: (kv[1][1], -kv[1][0], kv[0]))[:size]
        return [{"text": t, "freq": df, "edits": e} for t, (df, e) in ranked]

    def suggest_phrase(self, text: str, size: int = 3, max_edits: int = 2,
                       candidates_per_token: int = 3,
                       edit_penalty: float = 4.0, alpha: float = 0.5,
                       smoothing: str = "laplace",
                       discount: float = 0.4,
                       bigram_lambda: float = 0.7,
                       collate: dict | None = None) -> list[dict]:
        """Phrase suggester (search/suggest/phrase PhraseSuggester): per-
        token candidate generation (term-suggester pruning), then a BEAM
        over corrections scored by a BIGRAM language model over the
        index's stored positions — the reference's shingle field
        re-expressed over positions.bin (no separate shingle index).

        The full reference smoothing family (WordScorer subclasses):
        - ``laplace`` (LaplaceScorer, our default):
          P(w₂|w₁) = (c(w₁w₂) + α) / (c(w₁) + α·V)
        - ``stupid_backoff`` (StupidBackoffScorer — the REFERENCE default):
          c(w₁w₂)/c(w₁) when the bigram was seen, else discount·P(w₂)
        - ``linear_interpolation`` (LinearInterpolatingScorer, collapsed
          to the bigram order this model has):
          λ·c(w₁w₂)/c(w₁) + (1-λ)·P(w₂)
        The candidate generator's edit distance stays as a log-space prior
        (the reference's channel score). Bigram counts come from ONE
        distributed gather over all adjacent candidate pairs; V is the
        summed per-partition dictionary size (an upper bound that only
        shifts smoothing mass).

        ``collate`` (PhraseSuggester.java:120-151): ``{"query": <mustache
        template or dict with {{suggestion}}>, "prune": bool}`` — each
        correction's rendered query is existence-checked against the
        index; prune=False DROPS non-matching corrections, prune=True
        keeps them annotated with ``collate_match``."""
        if smoothing not in ("laplace", "stupid_backoff",
                             "linear_interpolation"):
            raise ValueError(f"unknown smoothing {smoothing!r}")
        collate_check = None
        if collate is not None:
            from elasticsearch_ray.search.dsl import parse_dsl
            from elasticsearch_ray.search.templates import render_template

            c_src = collate["query"]
            c_prune = bool(collate.get("prune", False))

            def collate_check(phrase: str) -> bool:
                body = render_template(c_src, {"suggestion": phrase})
                return self.count(parse_dsl(body)) > 0
        an = get_analyzer(self.analyzer_name)
        tokens = an(text)[0]
        if not tokens:
            return []
        per_token: list[list[tuple[str, float]]] = []
        for tok in tokens:
            opts = [(tok, 0.0)]
            for t, _df in self._suggest_ranked(tok, max_edits, 1)[:candidates_per_token]:
                opts.append((t, -edit_penalty * _true_distance(tok, t, max_edits) / 10.0))
            per_token.append(opts)
        # one distributed gather for every model statistic the beam needs
        unis = sorted({w for opts in per_token for w, _ in opts})
        ttf = self._global_ttf(unis)
        pairs = sorted({(w1, w2) for i in range(1, len(per_token))
                        for w1, _ in per_token[i - 1] for w2, _ in per_token[i]})
        big = self._global_bigram_freqs(pairs)
        V = max(self._vocab_size(), 1)
        T = max(float(self.meta.get("sum_dl", self.n_docs)), 1.0)

        def uni_lp(w: str) -> float:
            # unigram stays add-α in every mode (a pure-MLE zero would
            # -inf the whole beam path; the reference's scorers guard
            # unseen unigrams the same way via frequency plus-one-ing)
            return float(np.log((ttf.get(w, 0) + alpha) / (T + alpha * V)))

        def bi_lp(w1: str, w2: str) -> float:
            c12 = big.get((w1, w2), 0)
            c1 = ttf.get(w1, 0)
            if smoothing == "laplace":
                return float(np.log((c12 + alpha) / (c1 + alpha * V)))
            if smoothing == "stupid_backoff":
                if c12 > 0 and c1 > 0:
                    return float(np.log(c12 / c1))
                return float(np.log(discount)) + uni_lp(w2)
            # linear_interpolation (bigram order)
            mle = c12 / c1 if c1 > 0 else 0.0
            mix = (bigram_lambda * mle
                   + (1.0 - bigram_lambda) * np.exp(uni_lp(w2)))
            return float(np.log(mix))

        # beam over per-token options (bigram scores depend on the previous
        # word, so scoring happens during expansion, not per option)
        beam: list[tuple[float, list[str]]] = [(0.0, [])]
        for i, opts in enumerate(per_token):
            beam = sorted(
                ((s + prior + (uni_lp(w) if i == 0 else bi_lp(words[-1], w)),
                  words + [w])
                 for s, words in beam for w, prior in opts),
                key=lambda x: -x[0],
            )[: max(size * 4, 8)]
        out = []
        seen = set()
        for s, words in beam:
            phrase = " ".join(words)
            if phrase in seen:
                continue
            seen.add(phrase)
            opt = {"text": phrase, "score": round(float(s), 6)}
            if collate_check is not None:
                match = collate_check(phrase)
                if not match and not c_prune:
                    continue  # collateMatch==false && !prune → skipped
                if c_prune:
                    opt["collate_match"] = match
            out.append(opt)
            if len(out) >= size:
                break
        return out

    def _gather(self, parts, locals_, read) -> pa.Table:
        """The one per-partition gather of the fetch phase and its subphases:
        ``read(searcher, locals)`` once per partition in ``parts``, with that
        partition's hits in input order, then one ``take`` puts the rows back
        in input order. With no hits, one empty read of the first partition
        gives the schema."""
        order = np.argsort(parts, kind="stable")
        ps, starts = np.unique(parts[order], return_index=True)
        got = pa.concat_tables(
            [read(self._searcher(int(p)), locs) for p, locs in
             zip(ps if len(ps) else self.parts[:1], np.split(locals_[order], starts[1:]))],
            promote_options="default")
        pos = np.empty(len(order), np.int64)
        pos[order] = np.arange(len(order))
        return got.take(pos)

    def _attach_fetch(self, tbl, fetch):
        """Fetch phase: append the ``fetch`` doc columns of each hit of a
        hits table, read per partition by ``_gather`` (an empty table gets
        the columns too)."""
        if not fetch:
            return tbl
        fetched = self._gather(tbl["part"].to_numpy(), tbl["local"].to_numpy(),
                               lambda s, locs: s.r.doc_fields(locs, fetch))
        for name in fetched.column_names:
            tbl = tbl.append_column(name, fetched[name])
        return tbl

    def fetch_source(self, part: int, locals_: np.ndarray, columns=None) -> pa.Table:
        """_source fetch via lineage: read the original input rows for hits
        (FetchPhase analog — our _source is the input parquet row)."""
        return _fetch_source_rows(self._searcher(int(part)).r.manifest, locals_, columns)

    def highlight_hits(self, q: Query | str, hits: pa.Table, text_column: str = "text",
                       pre_tag: str = "<em>", post_tag: str = "</em>") -> list[str]:
        """Highlight a whole hits table (rank/part/local) in one pass: the
        sources are read per partition (``_gather``, one read per touched
        input file), then the term-wrap runs per hit — no per-hit file
        reads."""
        terms = frozenset(query_terms(self._prepare(q), self.analyzer_name))
        src = self._gather(hits["part"].to_numpy(), hits["local"].to_numpy(),
                           lambda s, locs: _fetch_source_rows(s.r.manifest, locs, [text_column]))
        return [_wrap_terms(t, terms, pre_tag, post_tag) for t in src[text_column].to_pylist()]

    def matched_queries(self, named: dict[str, Query], hits: pa.Table) -> list[list[str]]:
        """matched_queries fetch subphase (MatchedQueriesPhase analog): for
        each hit row (part, local), the sorted list of ``_name``-tagged
        clauses that match it. Each named clause is evaluated ONCE per
        touched partition as a non-scoring filter, and each hit is looked up
        in that doc set."""
        if not named or not len(hits):
            return [[] for _ in range(len(hits))]
        qs = {name: self._prepare(named[name]) for name in sorted(named)}
        scorers = {name: self._scorers_cached(q) for name, q in qs.items()}
        got = self._gather(hits["part"].to_numpy(), hits["local"].to_numpy(),
                           lambda s, locs: pa.table({
                               name: np.isin(locs, s._eval_filter(q, scorers[name]))
                               for name, q in qs.items()}))
        return [[name for name in qs if row[name]] for row in got.to_pylist()]

    def script_fields(self, hits: pa.Table, fields: dict,
                      source_columns: tuple = ()) -> pa.Table:
        """script_fields / runtime-field fetch subphase (FetchScriptFieldsPhase;
        Painless's role is played by Python callables): each callable receives
        the per-hit SOURCE table (requested ``source_columns``, rows in hit
        order) and returns a column (pa.Array / numpy / list) appended under
        its field name. Source reads are batched per partition/input file."""
        # painless script objects declare their doc[...] columns — union
        # them into the source read so callers don't have to repeat them
        extra: list = []
        for fn in fields.values():
            if isinstance(fn, dict) and fn.get("lang", "painless") == \
                    "painless" and "source" in fn:
                from elasticsearch_ray.search.painless import (
                    painless_doc_fields,
                )

                for f in painless_doc_fields(fn["source"]):
                    if f not in source_columns and f not in extra:
                        extra.append(f)
        if extra:
            source_columns = tuple(source_columns) + tuple(extra)
        src = self._gather(hits["part"].to_numpy(), hits["local"].to_numpy(),
                           lambda s, locs: _fetch_source_rows(s.r.manifest, locs,
                                                              list(source_columns)))
        out = hits
        for name, fn in fields.items():
            if isinstance(fn, dict):
                # {"lang": "painless"|"expression", "source": ...,
                #  "params": ...} — the reference's script object form
                lang = fn.get("lang", "painless")
                if lang == "painless":
                    from elasticsearch_ray.search.painless import (
                        painless_script_field,
                    )

                    fn = painless_script_field(fn["source"],
                                               fn.get("params"))
                elif lang == "expression":
                    fn = fn["source"]  # falls into the str branch below
                else:
                    raise ValueError(f"unknown script lang {lang!r}")
            if isinstance(fn, str):
                # expression-language script (lang-expression analog):
                # compile the sandboxed arithmetic source once per call
                from elasticsearch_ray.search.expressions import (
                    expression_script_field,
                )

                fn = expression_script_field(fn)
            col = fn(src)
            if not isinstance(col, (pa.Array, pa.ChunkedArray)):
                col = pa.array(col)
            out = out.append_column(name, col)
        return out

    def explain(self, q: Query | str, doc_id: int) -> dict:
        """_explain API analog (RestExplainAction / Lucene Explanation tree):
        per-doc score breakdown as nested {value, description, details, match}.

        The top-level value is the ACTUAL engine score for the doc (same
        evaluation path as search, so it is bit-identical, float32 narrowing
        included); the detail tree decomposes it per clause/term with the
        BM25 components (boost, idf(n,N), tf/dl/avgdl fraction)."""
        return self._read_gate(self._explain, q, doc_id)

    def _explain(self, q: Query | str, doc_id: int) -> dict:
        q = self._prepare(q)
        scorers = self._scorers_cached(q)
        part, local = self._locate(int(doc_id))
        s = self._searcher(part)
        docs, scores = s._eval_scoring(q, scorers, k=None, mode="exhaustive")
        i = int(np.searchsorted(docs, local))
        if i >= len(docs) or docs[i] != local:
            return {"match": False, "value": 0.0,
                    "description": f"no matching clauses for doc {doc_id}", "details": []}
        node = self._explain_node(q, scorers, s, local)
        node["value"] = float(scores[i])  # authoritative: the search-path score
        node["match"] = True
        return node

    def _explain_term(self, term: str, scorers, s, local: int, freq=None) -> dict:
        """Leaf explanation for one term (or a phrase pseudo-term when
        ``freq`` is pre-computed): Lucene BM25Similarity.explain shape."""
        sc = scorers.get(term if freq is None else ("__phrase__",) + tuple(term))
        if freq is None:
            row = s.r.lookup([term])[0]
            if row < 0:
                return {"match": False, "value": 0.0,
                        "description": f"no occurrences of {term!r}", "details": []}
            from elasticsearch_ray.index.postings import decode_postings

            d, tfs = decode_postings(s.r.blob(int(row)))
            j = int(np.searchsorted(d, local))
            if j >= len(d) or d[j] != local:
                return {"match": False, "value": 0.0,
                        "description": f"term {term!r} absent from doc", "details": []}
            tf = int(tfs[j])
            fld = field_of_term(term)
            label = f"weight({term!r} in doc) [BM25Similarity]"
        else:
            tf = int(freq)
            fld = None
            label = f"phrase({'/'.join(term)}) freq-scored [BM25Similarity]"
        nl = s.r.norms if fld is None else s.r.norms_for(fld)
        nb = int(nl[local]) & 0xFF
        val = float(sc.score(np.array([tf]), np.array([nb]))[0])
        df_map = self._global_stats([term]) if freq is None else {}
        n = int(df_map.get(term, 0))
        from elasticsearch_ray.index.norms import LENGTH_TABLE
        from elasticsearch_ray.search.bm25 import idf as idf_fn

        details = [
            {"value": float(sc.weight), "description":
                "query weight = boost * (k1 + 1) * idf", "details": (
                [{"value": idf_fn(n, self.n_docs),
                  "description": "idf, computed as ln(1 + (N - n + 0.5) / (n + 0.5))",
                  "details": [
                      {"value": n, "description": "n, number of documents containing term",
                       "details": []},
                      {"value": self.n_docs, "description":
                          "N, total number of documents", "details": []}]}]
                if freq is None else [])},
            {"value": val / float(sc.weight) if sc.weight else 0.0,
             "description": "tf fraction, computed as freq / (freq + k1 * "
                            "(1 - b + b * dl / avgdl))",
             "details": [
                 {"value": tf, "description": "freq, occurrences of term within document",
                  "details": []},
                 {"value": self.params.k1, "description": "k1, term saturation parameter",
                  "details": []},
                 {"value": self.params.b, "description": "b, length normalization parameter",
                  "details": []},
                 {"value": float(LENGTH_TABLE[nb]), "description":
                     "dl, length of field (SmallFloat-lossy)", "details": []},
                 {"value": float(self.avgdl_for(fld)), "description":
                     "avgdl, average length of field", "details": []}]},
        ]
        return {"match": True, "value": val, "description": label, "details": details}

    def _explain_node(self, q: Query, scorers, s, local: int) -> dict:
        """Structural decomposition; unknown types fall back to a single
        opaque node whose value the caller overwrites with the real score."""
        an_name = self.analyzer_name
        if isinstance(q, TermQuery):
            return self._explain_term(fkey(q.field, q.term), scorers, s, local)
        if isinstance(q, (MatchQuery, TermsQuery)):
            if isinstance(q, MatchQuery):
                terms = [fkey(q.field, t)
                         for t in get_analyzer(q.analyzer or an_name)(q.text)[0]]
            else:
                terms = list(q.terms)
            details = [self._explain_term(t, scorers, s, local) for t in terms]
            matched = [d for d in details if d["match"]]
            return {"match": bool(matched), "value": float(sum(d["value"] for d in matched)),
                    "description": "sum of:", "details": details}
        if isinstance(q, MatchPhraseQuery):
            terms = [fkey(q.field, t)
                     for t in get_analyzer(q.analyzer or an_name)(q.text)[0]]
            docs, freqs = s._phrase_docs(terms, slop=q.slop)
            j = int(np.searchsorted(docs, local))
            if j >= len(docs) or docs[j] != local:
                return {"match": False, "value": 0.0,
                        "description": "phrase absent from doc", "details": []}
            return self._explain_term(tuple(terms), scorers, s, local, freq=int(freqs[j]))
        if isinstance(q, BoolQuery):
            details = []
            for group, subs in (("must", q.must), ("should", q.should)):
                for sub in subs:
                    d = self._explain_node(sub, scorers, s, local)
                    d["description"] = f"{group}: " + d["description"]
                    details.append(d)
            for sub in q.filter:
                details.append({"match": True, "value": 0.0,
                                "description": f"filter: {type(sub).__name__} "
                                               "(non-scoring)", "details": []})
            matched = [d for d in details if d["match"]]
            return {"match": bool(matched), "value": float(sum(d["value"] for d in matched)),
                    "description": "sum of:", "details": details}
        if isinstance(q, ConstantScoreQuery):
            return {"match": True, "value": float(q.boost),
                    "description": "ConstantScore, query boost", "details": []}
        if isinstance(q, DisMaxQuery):
            details = [self._explain_node(sub, scorers, s, local) for sub in q.queries]
            vals = [d["value"] for d in details if d["match"]]
            best = max(vals) if vals else 0.0
            val = best + q.tie_breaker * (sum(vals) - best)
            return {"match": bool(vals), "value": float(val),
                    "description": f"max plus {q.tie_breaker} times others of:",
                    "details": details}
        return {"match": True, "value": 0.0,
                "description": f"{type(q).__name__} score (evaluated by the "
                               "search path; no further decomposition)", "details": []}

    def significant_text(self, q: Query | str, size: int = 10,
                         text_column: str = "text",
                         sample_per_partition: int | None = None,
                         field: str | None = None,
                         heuristic: str = "jlh",
                         include_negatives: bool = True):
        """significant_text agg (SignificantTextAggregationBuilder + JLH
        heuristic): terms over-represented in the query's hit docs vs the
        corpus background. DISTRIBUTED: one task per partition re-analyzes
        its hit docs' source (distinct-per-doc counting, like the
        reference's _source analysis) and returns a vocab-bounded
        (term, df_fg) partial; the BACKGROUND doc frequencies come from the
        index's own term dictionary — no second corpus pass.
        ``sample_per_partition`` mirrors the reference's shard sampling
        (None = all hits). ``field`` selects which indexed field's stats
        back the background (None = default field; its per-field analyzer is
        applied to the re-analysis so fg and bg tokenize identically)."""
        import pandas as pd

        an_name = (self.spec.get("field_analyzers") or {}).get(
            field, self.analyzer_name) if field else self.analyzer_name
        rows = self._all_hits_ds(q, _sigtext_hits, text_column=text_column,
                                 sample=sample_per_partition, an_name=an_name).to_pandas()
        n_fg = int(rows.loc[rows["term"] == _SIGTEXT_COUNT, "df"].sum())
        fg = (rows[rows["term"] != _SIGTEXT_COUNT]
              .groupby("term", as_index=False)["df"].sum())
        if n_fg == 0 or len(fg) == 0:
            return pd.DataFrame({"term": [], "fg_count": [], "bg_count": [],
                                 "score": []})
        terms = sorted(fg["term"])
        bg = self._global_stats([fkey(field, t) for t in terms])
        fg_map = dict(zip(fg["term"], fg["df"]))
        from elasticsearch_ray.ops.sig_heuristics import sig_score

        fgc = np.array([int(fg_map[t]) for t in terms], np.int64)
        bgc = np.array([int(bg.get(fkey(field, t), 0)) for t in terms],
                       np.int64)
        # contingency-table heuristics need fg ⊆ bg; clamp the rare case
        # of a re-analyzed fg df exceeding the index df. jlh/percentage
        # use the raw ratios (keeps the established oracle exact).
        pf = bgc if heuristic in ("jlh", "percentage") else np.maximum(bgc, fgc)
        scores = np.round(sig_score(heuristic, fgc, n_fg, pf, self.n_docs,
                                    include_negatives=include_negatives), 9)
        out = pd.DataFrame({"term": terms, "fg_count": fgc,
                            "bg_count": bgc, "score": scores})
        out = out.sort_values(["score", "term"],
                              ascending=[False, True]).reset_index(drop=True)
        return out.head(size)

    def highlight_scan(self, q: Query | str, text_column: str = "text",
                       pre_tag: str = "<em>", post_tag: str = "</em>",
                       fetch: tuple = ("doc_id",)):
        """Distributed highlight over ALL hits, as a streaming Ray Dataset.

        The scan/fetch/highlight phases all run inside one map_batches task
        per partition (query eval, pruned source read and term-wrap are
        partition-local — no shuffle), so highlighting an arbitrarily large
        result set streams block-by-block instead of looping on the driver
        the way ``highlight_hits`` does for a small top-k page. Scorers are
        built once on the driver from global stats and ship once per task.
        """
        return self._all_hits_ds(q, _scan_hits, fetch=tuple(fetch), source_columns=(),
                                 highlight=(text_column, pre_tag, post_tag))

    def scan_dataset(self, q: Query | str, fetch: tuple = ("doc_id",),
                     source_columns: tuple = ()):
        """Sliced-scroll analog (SliceBuilder / parallel scroll): ALL hits of
        a query as a streaming Ray Dataset — one map_batches task per
        partition evaluates locally and attaches doc fields plus requested
        ``_source`` columns (pruned reads from the partition's input files).
        The natural head of a reindex/export pipeline: compose with
        map_batches / write_parquet downstream."""
        return self._read_gate(lambda: self._all_hits_ds(
            q, _scan_hits, fetch=tuple(fetch), source_columns=tuple(source_columns),
            highlight=None))

    def _all_hits_ds(self, q, fn, **cfg):
        """The one Ray Data pass over ALL hits of ``q`` (scan_dataset,
        highlight_scan, significant_text, delete/update_by_query): one task
        per partition opens it through its worker's searcher cache
        (``_all_hits_fn``), evaluates the prepared query exhaustively with
        the driver's global-stats scorers, and returns the table ``fn(searcher,
        docs, scores, cfg)``; ``fn`` is a module-level function and ``cfg``
        carries its settings."""
        import ray.data

        q = self._prepare(q)
        cfg.update(fn=fn, q=q, scorers=self._scorers_cached(q), index_dir=self.index_dir,
                   stamps={p: self._stamps.get(p) for p in self.parts},
                   reader=(self.spec, self.dtype, self.runtime_fields))
        ds = ray.data.from_items([{"part": int(p)} for p in self.parts],
                                 override_num_blocks=len(self.parts))
        return ds.map_batches(_all_hits_fn, fn_args=(cfg,), batch_format="pyarrow",
                              batch_size=None)

    def highlight(self, q: Query, part: int, local: int, text_column: str = "text",
                  pre_tag: str = "<em>", post_tag: str = "</em>") -> str:
        """Unified-highlighter-style: wrap query-term occurrences in the
        source text (search/fetch/subphase/highlight analog)."""
        terms = frozenset(query_terms(self._prepare(q), self.analyzer_name))
        src = self.fetch_source(part, [local], columns=[text_column])
        return _wrap_terms(src[text_column][0].as_py() or "", terms, pre_tag, post_tag)

    def highlight_fragments(self, q: Query, part: int, local: int,
                            text_column: str = "text",
                            pre_tag: str = "<em>", post_tag: str = "</em>",
                            fragment_size: int = 100,
                            number_of_fragments: int = 3) -> list[str]:
        """Fragmenting highlighter (HighlightBuilder fragment_size /
        number_of_fragments): top passages around match runs, document
        order, words never split — see _fragment_highlights."""
        terms = frozenset(query_terms(self._prepare(q), self.analyzer_name))
        # unified-highlighter PassageScorer weights: (k1+1) * BM25 idf from
        # the cached DFS stats (keyed by BARE term — fielded query terms
        # match by their bare form in the text)
        df = self._global_stats(list(terms))
        n = max(self.n_docs, 1)
        weights = {}
        for t, d in df.items():
            bare_t = t.rsplit("\x1f", 1)[-1]
            w = 2.2 * float(np.log(1.0 + (n - d + 0.5) / (d + 0.5)))
            weights[bare_t] = max(weights.get(bare_t, 0.0), w)
        src = self.fetch_source(part, [local], columns=[text_column])
        return _fragment_highlights(src[text_column][0].as_py() or "", terms,
                                    pre_tag, post_tag, fragment_size,
                                    number_of_fragments,
                                    term_weights=weights)


def _fetch_source_rows(manifest: dict, locals_: np.ndarray, columns=None) -> pa.Table:
    """Pruned _source read for one partition: group hit locals by input file
    (the manifest's lineage), ONE read per touched file, rows reassembled in
    the original hit order."""
    paths = manifest["input_path"]
    if isinstance(paths, str):
        paths = [paths]
    import pyarrow.parquet as pq

    bases = []
    acc = 0
    for pth in paths:
        n = pq.read_metadata(pth).num_rows
        bases.append(acc)
        acc += n
    locs = np.asarray(locals_, dtype=np.int64)
    if len(locs) == 0:
        schema = pq.read_schema(paths[0])
        if columns:
            schema = pa.schema([schema.field(c) for c in columns])
        return schema.empty_table()
    fis = np.searchsorted(bases, locs, side="right") - 1
    pieces = {}
    for fi in np.unique(fis):
        rel = locs[fis == fi] - bases[int(fi)]
        # row-group pushdown: read ONLY the row groups covering the hits
        # (multi-GB inputs would otherwise be fully decoded for a handful
        # of rows), then remap hit offsets into the concatenated selection
        pf = pq.ParquetFile(paths[int(fi)])
        md = pf.metadata
        rg_rows = np.asarray(
            [md.row_group(g).num_rows for g in range(md.num_row_groups)],
            dtype=np.int64,
        )
        rg_starts = np.concatenate(([0], np.cumsum(rg_rows)[:-1]))
        gis = np.searchsorted(rg_starts, rel, side="right") - 1
        need = np.unique(gis)
        t = pf.read_row_groups(need.tolist(), columns=columns)
        sel_starts = np.concatenate(([0], np.cumsum(rg_rows[need])[:-1]))
        gpos = np.searchsorted(need, gis)
        pieces[int(fi)] = t.take(pa.array(sel_starts[gpos] + rel - rg_starts[gis]))
    # reassemble in the original hit order WITHOUT a per-row slice loop:
    # concat the per-file pieces (grouped order), then one argsort-take back
    # to hit order — O(n log n), not n 1-row tables
    cat = pa.concat_tables([pieces[int(fi)] for fi in np.unique(fis)])
    grouped_pos = np.argsort(fis, kind="stable")  # hit idx -> position grouped
    inv = np.empty(len(fis), dtype=np.int64)
    inv[grouped_pos] = np.arange(len(fis))
    return cat.take(pa.array(inv))


def _hl_ctx(text: str, terms: frozenset):
    """(bare terms, token pattern) for highlighting — field-namespaced
    query terms ("<field>\\x1f<term>") match by their bare term (\\x1f
    never survives tokenization), and the token pattern follows the
    text's script needs. One computation shared by whole-text wrap and
    fragmenting."""
    from elasticsearch_ray.analysis.tokenizer import (TOKEN_FULL_RE, TOKEN_RE,
                                                      needs_full)

    bare = frozenset(t.rsplit("\x1f", 1)[-1] if isinstance(t, str) else t
                     for t in terms)
    pat = TOKEN_RE if (text.isascii() or not needs_full(text)) else TOKEN_FULL_RE
    return bare, pat


def _wrap_with(text: str, bare: frozenset, pat, pre_tag: str,
               post_tag: str) -> str:
    def repl(m):
        return (f"{pre_tag}{m.group(0)}{post_tag}"
                if m.group(0).lower() in bare else m.group(0))

    return pat.sub(repl, text)


def _wrap_terms(text: str, terms: frozenset, pre_tag: str, post_tag: str) -> str:
    """Unified-highlighter term wrap (case-insensitive on analyzed terms)."""
    text = text or ""
    bare, pat = _hl_ctx(text, terms)
    return _wrap_with(text, bare, pat, pre_tag, post_tag)


def _fragment_highlights(text: str, terms: frozenset, pre_tag: str,
                         post_tag: str, fragment_size: int = 100,
                         number_of_fragments: int = 3,
                         term_weights: dict | None = None,
                         k1: float = 1.2, b: float = 0.75,
                         pivot: int = 87) -> list[str]:
    """Fragmenting highlighter (the unified highlighter's default response
    shape: ``number_of_fragments`` passages of ~``fragment_size`` chars,
    ordered by passage score). Passages are centered windows around match
    runs, snapped OUT to whitespace so words never split. With
    ``term_weights`` (bare term → weight, from the engine's DFS idf
    cache), passages score like Lucene's ``PassageScorer``:
    ``sum over unique terms of w(t) * tf / (tf + k1*(1-b+b*len/pivot))``
    (k1/b/pivot defaults are Lucene's) — a rare term's passage outranks
    one stuffed with a common term. Without weights, score = raw matched
    occurrences (the standalone-helper fallback). Overlapping windows
    merge and returned fragments are DISJOINT like the reference's
    passages."""
    text = text or ""
    bare, pat = _hl_ctx(text, terms)
    hits = [(m.span(), m.group(0).lower()) for m in pat.finditer(text)
            if m.group(0).lower() in bare]
    if not hits:
        return []
    # windows centered on each hit, merged when overlapping; each window
    # carries its per-term occurrence counts for the passage scorer
    windows: list[list] = []
    for (s, e), t in hits:
        mid = (s + e) // 2
        lo = max(0, mid - fragment_size // 2)
        hi = min(len(text), lo + fragment_size)
        if windows and lo <= windows[-1][1]:
            windows[-1][1] = max(windows[-1][1], hi)
            tfs = windows[-1][2]
            tfs[t] = tfs.get(t, 0) + 1
        else:
            windows.append([lo, hi, {t: 1}])

    def passage_score(w) -> float:
        lo, hi, tfs = w
        if term_weights is None:
            return float(sum(tfs.values()))
        norm = k1 * (1 - b + b * (hi - lo) / pivot)
        return sum(term_weights.get(t, 1.0) * n / (n + norm)
                   for t, n in tfs.items())

    scored = sorted(windows, key=lambda w: (-passage_score(w), w[0])
                    )[:number_of_fragments]
    out = []
    snap_cap = max(16, fragment_size // 4)  # bounded: unspaced runs (CJK,
    # URLs, base64) would otherwise balloon a fragment to the whole doc
    prev_hi = 0
    for lo, hi, _n in sorted(scored, key=lambda w: w[0]):  # document order
        for _ in range(snap_cap):
            if lo <= 0 or text[lo - 1].isspace():
                break
            lo -= 1
        for _ in range(snap_cap):
            if hi >= len(text) or text[hi].isspace():
                break
            hi += 1
        lo = max(lo, prev_hi)  # disjoint passages, even after snapping
        if lo >= hi:
            continue
        prev_hi = hi
        out.append(_wrap_with(text[lo:hi], bare, pat, pre_tag, post_tag))
    return out


# per-worker-process searcher cache of the all-hits pass (the pattern of
# index.build._STAGE_CACHE: map_batches runs plain functions in long-lived
# worker processes, so warm readers are reused across tasks without a fixed
# actor pool): (index dir, part, reader config) → (manifest stamp, searcher),
# replaced when the engine's stamp for the partition changes
_TASK_SEARCHERS: dict = {}


def _all_hits_fn(batch: pa.Table, cfg: dict) -> pa.Table:
    """One task of ``QueryEngine._all_hits_ds``: for each partition of the
    batch, all hits of the (prepared) query, passed to ``cfg["fn"]``."""
    spec, dtype, runtime_fields = cfg["reader"]
    out = []
    for part in batch["part"].to_pylist():
        key = (cfg["index_dir"], part, json.dumps(cfg["reader"], sort_keys=True))
        stamp, s = _TASK_SEARCHERS.get(key, (None, None))
        if s is None or stamp != cfg["stamps"][part]:
            s = PartitionSearcher(SegmentReader(part_dir(cfg["index_dir"], part),
                                                cfg["stamps"][part]),
                                  part, spec, dtype, runtime_fields=runtime_fields)
            _TASK_SEARCHERS[key] = (cfg["stamps"][part], s)
        docs, scores = s._eval_scoring(cfg["q"], cfg["scorers"], k=None, mode="exhaustive")
        out.append(cfg["fn"](s, _as_np(docs), np.asarray(scores, np.float64), cfg))
    return pa.concat_tables(out)


def _scan_hits(s: PartitionSearcher, docs, scores, cfg: dict) -> pa.Table:
    """scan_dataset / highlight_scan rows of one partition: the ``fetch`` doc
    fields, the ``source_columns`` read from the partition's input files,
    part, local, score, and with ``highlight`` = (text column, pre tag, post
    tag) the term-wrapped text as ``hl``."""
    cols = {}
    if cfg["fetch"]:
        ft = s.r.doc_fields(docs, cfg["fetch"])
        cols = {c: ft[c] for c in ft.column_names}
    hl = cfg["highlight"]
    read = list(dict.fromkeys(cfg["source_columns"] + (hl[:1] if hl else ())))
    if read:
        src = _fetch_source_rows(s.r.manifest, docs, columns=read)
        cols.update((c, src[c]) for c in cfg["source_columns"])
    cols["part"] = pa.array(np.full(len(docs), s.part, np.int64))
    cols["local"] = pa.array(docs)
    cols["score"] = pa.array(scores)
    if hl:
        terms = frozenset(query_terms(cfg["q"], s.analyzer_name))
        cols["hl"] = pa.array([_wrap_terms(t, terms, hl[1], hl[2])
                               for t in src[hl[0]].to_pylist()], pa.string())
    return pa.table(cols)


_SIGTEXT_COUNT = "\x00__n_docs__\x00"  # sentinel row: partition hit count


def _sigtext_hits(s: PartitionSearcher, docs, scores, cfg: dict) -> pa.Table:
    """significant_text partial of one partition: (term, distinct-doc df)
    over the query's hit docs + one sentinel row carrying the hit count."""
    if cfg["sample"] is not None and len(docs) > cfg["sample"]:
        # shard sampling keeps the TOP-SCORING docs per partition (the
        # reference's sampler-agg wrapping), not the first by doc id
        docs = np.sort(docs[np.lexsort((docs, -scores))[: cfg["sample"]]])
    counts = {_SIGTEXT_COUNT: len(docs)}
    if len(docs):
        an = get_analyzer(cfg["an_name"])
        src = _fetch_source_rows(s.r.manifest, docs, columns=[cfg["text_column"]])
        for text in src[cfg["text_column"]].to_pylist():
            for t in set(an(text or "")[0]):
                counts[t] = counts.get(t, 0) + 1
    return pa.table({"term": pa.array(list(counts), pa.string()),
                     "df": pa.array(list(counts.values()), pa.int64())})


class SearcherActor:
    """Warm searcher process of the actor pool, shared by every ray-backed
    engine of the driver. Holds one view per (engine, reopen): view key →
    {part: PartitionSearcher}. Views share readers: a partition is opened
    once per (index dir, manifest stamp, spec, dtype, runtime fields) and
    freed when the last view holding it is released."""

    def __init__(self):
        import threading

        self.views: dict = {}  # view key → {part: searcher}
        self.readers: dict = {}
        self._lock = threading.Lock()  # reopen/release only, never call

    def reopen(self, key, index_dir, stamps, spec, dtype, runtime_fields=None):
        """Open view ``key`` over the partitions of ``stamps`` ({part:
        manifest stamp}), reusing every open reader whose stamp matches."""
        cfg = (index_dir, json.dumps([spec, dtype, runtime_fields or {}], sort_keys=True))
        with self._lock:
            view = {}
            for p, stamp in stamps.items():
                s = self.readers.get((cfg, p, stamp))
                if s is None:
                    s = self.readers[(cfg, p, stamp)] = PartitionSearcher(
                        SegmentReader(part_dir(index_dir, p), stamp), p, spec, dtype,
                        runtime_fields=runtime_fields)
                view[p] = s
            self.views[key] = view

    def release(self, keys):
        """Drop views ``keys`` and every reader no remaining view holds."""
        with self._lock:
            for k in keys:
                self.views.pop(k, None)
            live = {id(s) for v in self.views.values() for s in v.values()}
            self.readers = {rk: s for rk, s in self.readers.items() if id(s) in live}

    def held(self) -> dict:
        """{view key: [(index_dir, part), ...]} of the open views."""
        with self._lock:
            return {k: [(s.r.dir, p) for p, s in v.items()] for k, v in self.views.items()}

    def call(self, req):
        """``[(part, PartitionSearcher.<method>(*args)), ...]`` over the
        requested partitions of the view, for ``req`` = (view key, method,
        parts, args) (QueryEngine._fanout reduces). ``topk`` is one scoring
        pass over this actor's share of the partitions instead, entered
        through the first one's ``topk``: ``[(parts, locals, scores)]`` in
        merge order, or ``[]`` when the actor holds none of them."""
        key, method, parts, args = req
        view = self.views.get(key)
        if view is None:
            raise LookupError(f"searcher view {key} was released: its engine closed, "
                              "or reopened twice while this call was in flight")
        wanted = set(parts)
        segs = [s for p, s in view.items() if p in wanted]
        if method == "topk":
            return [segs[0].topk(*args, segs[1:])] if segs else []
        return [(s.part, getattr(s, method)(*args)) for s in segs]


class _CombinedScorer:
    """combined_fields pseudo-field scorer: BM25 over blended tf'/dl' with
    EXACT dl (the reference encodes blended dl through the lossy norm; exact
    is a documented upgrade, mirrored in the oracle)."""

    def __init__(self, weight, k1, b, avgdl, dtype):
        self.weight, self.k1, self.b, self.avgdl = float(weight), float(k1), float(b), float(avgdl)
        self.dtype = dtype

    def score_dl(self, tfs: np.ndarray, dls: np.ndarray) -> np.ndarray:
        norm = self.k1 * (1.0 - self.b + self.b * dls / self.avgdl)
        out = self.weight * (tfs / (tfs + norm))
        return out.astype(np.float32) if self.dtype == "float32" else out


class CoordinatorActor:
    """Coordinating-node analog (the reference's any-node-coordinates model)
    for OVERLAPPING searches: a search that starts while another is in
    flight on its engine hands its whole query phase (DFS stats on the
    coordinator's own readers, scorer construction/caching, can_match
    pruning, the top-k, the k·P merge) to a coordinator, so concurrent
    driver threads scale across coordinators instead of serializing on
    driver-side work; fetch stays on the driver. The inner engine places
    the top-k like the driver does (``QueryEngine._place``): a search that
    has the coordinator to itself, and whose candidate partitions sit on at
    most one CPU's worth of actors, scores on the coordinator's own readers,
    one hop in all; any other fans out to the SHARED searcher actors.
    With 8 client threads on one pinned CPU (query_zipf shape, distinct
    queries), scoring every coordinator search in-process cost a single
    coordinator 30% of its QPS (≈135 vs ≈200) while 4 coordinators gained;
    the overlap switch keeps both at or above fanning out every time. The
    handoff ships one request tuple whose search options travel in one
    dict (``coordinator_request``), so a search with any option is placed
    here like a plain one. A search with nothing
    else in flight runs the query phase on the driver. Measured on one
    pinned CPU before in-process placement, 4-partition Zipf index:
    sequential distinct queries p50 11.8 → 7.4 ms
    run direct; 8 client threads with 4 coordinators × 4 replica pools,
    this rule vs running every search direct: 297 vs 239 QPS (p50 25 vs
    32 ms) on distinct queries, 297 vs 251 QPS on repeated ones
    (1 coordinator: 211 vs 189 and 222 vs 197).

    Pooled like the searchers: one inner local engine per engine view,
    fanning out to that view on the searchers of one replica set
    (coordinator i serves set i % R)."""

    def __init__(self):
        import threading

        self.engines: dict = {}
        self._lock = threading.Lock()  # reopen/release only, never search

    def reopen(self, key, index_dir, dtype, searcher_actors, cpus, runtime_fields=None):
        """Open view ``key``: an inner engine on the index's current commit
        that keeps the open readers of any same-configured view whose
        manifest stamp still matches, and places top-k's over
        ``searcher_actors`` on a cluster of ``cpus`` CPUs."""
        eng = QueryEngine(index_dir, dtype=dtype, parallel="local",
                          runtime_fields=runtime_fields)
        eng._actors = (key, [a.call.remote for a in searcher_actors])
        eng._cpus = cpus
        cfg = (index_dir, dtype, eng.runtime_fields, eng.analyzer_name, eng.params)
        with self._lock:
            for other in self.engines.values():
                if (other.index_dir, other.dtype, other.runtime_fields,
                        other.analyzer_name, other.params) == cfg:
                    eng._searchers.update({p: s for p, s in list(other._searchers.items())
                                           if p in eng._stamps
                                           and other._stamps.get(p) == eng._stamps[p]})
            self.engines[key] = eng

    def release(self, keys):
        with self._lock:
            for k in keys:
                self.engines.pop(k, None)

    def held(self) -> dict:
        with self._lock:
            return {k: [(e.index_dir, p) for p in list(e._searchers)]
                    for k, e in self.engines.items()}

    def search(self, req):
        """Hits without fetch for ``req``, built by ``coordinator_request``.
        One argument, because Ray serializes each positional argument on
        its own (≈50 µs each)."""
        key, q, k, mode, opts = req
        return self.engines[key].search(q, k=k, mode=mode, fetch=(), **opts)


def coordinator_request(view, q, k: int = 10, mode: str = "bmw", **options) -> tuple:
    """The one argument of ``CoordinatorActor.search``: (view key, q, k,
    mode, options), where ``options`` is the dict of ``QueryEngine.search``
    keyword options that are set (sort, search_after, collapse, rescore,
    min_score, post_filter, terminate_after); a None value, an empty sort
    and an empty collapse are left out. ``QueryEngine._query_phase`` takes
    the same (q, k, mode, options)."""
    return (view, q, k, mode, {o: v for o, v in options.items()
                               if v is not None and (v or o not in ("sort", "collapse"))})


class _Lease:
    """One engine's hold on ``_POOL``: the pool session it was taken in and
    the view keys it has opened (newest last)."""

    def __init__(self, session):
        self.session = session
        self.keys: list[int] = []
        self.released = False

    def new_key(self) -> int:
        self.keys.append(next(_VIEW_KEYS))
        return self.keys[-1]

    def retire(self) -> list[int]:
        """The keys older than the previous view, which leave the lease."""
        old, self.keys = self.keys[:-2], self.keys[-2:]
        return old


_VIEW_KEYS = itertools.count(1)


class _ActorPool:
    """The driver's warm searcher and coordinator actors, shared by every
    ray-backed QueryEngine whatever its index directory, so opening or
    reopening an engine sends ``reopen`` calls to live processes instead of
    spawning new ones. Each engine sizes its own actor sets (num_actors /
    the CPU rule) and takes the first ones of the pool, which grows as
    needed. The last released lease kills the actors; a new Ray session
    starts an empty pool (``ray.shutdown`` ended the old actors)."""

    def __init__(self):
        import threading

        self._lock = threading.Lock()
        self._session = None
        self._searchers: list = []
        self._coords: list = []
        self._leases = 0

    def lease(self) -> _Lease:
        import ray

        with self._lock:
            session = ray.get_runtime_context().get_node_id()
            if session != self._session:
                self._session, self._searchers, self._coords, self._leases = (
                    session, [], [], 0)
            self._leases += 1
            return _Lease(session)

    def actors(self, n_searchers: int, n_coords: int) -> tuple[list, list]:
        """The first ``n_searchers`` searcher and ``n_coords`` coordinator
        actors, spawning the missing ones."""
        import ray

        with self._lock:
            if len(self._searchers) < n_searchers:
                # max_concurrency: concurrent queries share each warm actor
                # via threads (numpy kernels release the GIL), so driver-side
                # concurrent search does not serialize behind one task
                cls = ray.remote(max_concurrency=8)(SearcherActor)
                self._searchers += [cls.remote()
                                    for _ in range(n_searchers - len(self._searchers))]
            if len(self._coords) < n_coords:
                cls = ray.remote(max_concurrency=4)(CoordinatorActor)
                self._coords += [cls.remote() for _ in range(n_coords - len(self._coords))]
            return self._searchers[:n_searchers], self._coords[:n_coords]

    def forget(self, keys: list[int], wait: bool = False) -> None:
        """Release views ``keys`` on every actor of the pool."""
        if not keys:
            return
        import ray

        with self._lock:
            refs = [a.release.remote(keys) for a in self._searchers + self._coords]
        if wait:
            ray.get(refs)

    def release(self, lease: _Lease, wait: bool = False) -> None:
        """End ``lease``: free its views, or kill the actors if it was the
        last lease. ``wait`` blocks until the views are freed."""
        import ray

        with self._lock:
            if lease.released or lease.session != self._session or not ray.is_initialized():
                return
            lease.released = True
            self._leases -= 1
            last = self._leases == 0
            if last:
                doomed, self._searchers, self._coords = self._searchers + self._coords, [], []
        if last:
            for a in doomed:
                ray.kill(a)
        else:
            self.forget(lease.keys, wait)


_POOL = _ActorPool()


def filter_source_columns(table, includes=(), excludes=()):
    """FetchSourceContext analog (``search/fetch/subphase/
    FetchSourceContext.java``): glob-based ``_source`` filtering applied
    to a search/mget result's fetched columns — a column survives iff it
    matches an ``includes`` pattern (empty = all) and no ``excludes``
    pattern. Hit metadata (rank/score/part/local/found/_index) always
    passes, like the reference's always-present hit fields."""
    from elasticsearch_ray.search.security import _glob_match

    meta = {"rank", "score", "part", "local", "found", "_index"}

    def ok(col: str) -> bool:
        if col in meta:
            return True
        if includes and not any(_glob_match(p, col) for p in includes):
            return False
        return not any(_glob_match(p, col) for p in excludes)

    keep = [c for c in table.column_names if ok(c)]
    return table.select(keep)
