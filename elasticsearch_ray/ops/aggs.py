"""Aggregations — the reference's agg families re-expressed as Ray Data
groupby/aggregate pipelines (SURVEY §2.9; registry ``SearchModule.java:352-665``).

Shape notes:
  - metric + bucket aggs follow the reference's partial→final reduce contract
    (``QueryPhaseResultConsumer.java:95-115``) which is exactly Ray Data's
    map-side partial aggregation + small groupby;
  - our ``terms`` agg is EXACT (term-keyed shuffle) where the reference is
    shard-approximate with ``shard_size = 1.5*size+10`` and a doc-count error
    bound (``bucket/BucketUtils.java:25-33``) — documented semantic upgrade;
  - pipeline aggs (cumulative_sum, derivative, …) run as driver-side pandas
    over the (small) final bucket table, mirroring coordinator-side reduce.

All functions take/return Ray ``Dataset`` or small pandas frames and never
materialize the big side.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd
from ray.data import Dataset
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from elasticsearch_ray.ops.hll import HLL


def _mix64(v: np.ndarray) -> np.ndarray:
    """murmur3 fmix64 finalizer (BitMixer.mix64 — the reference's
    PartitionedLongFilter hash; public MurmurHash3 by Austin Appleby)."""
    h = v.astype(np.uint64)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(33)
    return h.astype(np.int64)


def _include_exclude_mask(vals: pd.Series, include, exclude,
                          partition) -> np.ndarray:
    """IncludeExclude.java acceptance over a batch's key column —
    evaluated per UNIQUE value then broadcast. ``include``/``exclude``
    are an anchored regex (Lucene RegExp matches the WHOLE term) or an
    exact-values collection; ``partition`` is ``(i, num_partitions)``:
    strings hash with murmur3_x86_32(utf8, seed=31)
    (StringHelper.murmurhash3_x86_32 + HASH_PARTITIONING_SEED,
    IncludeExclude.java:58,182), integers with the mix64 finalizer
    (PartitionedLongFilter, :141); both floorMod num_partitions."""
    import re

    from elasticsearch_ray.index.routing import murmur3_x86_32

    # a null key has no term: no include/exclude/partition ever admits it
    uniq = pd.Series(vals.dropna().unique())
    keep = np.ones(len(uniq), bool)
    if include is not None:
        if isinstance(include, str):
            rx = re.compile(include)
            keep &= np.array([rx.fullmatch(str(u)) is not None
                              for u in uniq])
        else:
            keep &= uniq.isin(list(include)).to_numpy()
    if exclude is not None:
        if isinstance(exclude, str):
            rx = re.compile(exclude)
            keep &= np.array([rx.fullmatch(str(u)) is None for u in uniq])
        else:
            keep &= ~uniq.isin(list(exclude)).to_numpy()
    if partition is not None:
        p, n = partition
        if pd.api.types.is_integer_dtype(uniq):
            h = _mix64(uniq.to_numpy(np.int64))
        else:
            h = np.array([murmur3_x86_32(str(u).encode("utf-8"), 31)
                          for u in uniq], np.int64)
        keep &= (np.mod(h, n) == p)  # np.mod is floorMod on signed ints
    accept = dict(zip(uniq, keep))
    return vals.map(accept).to_numpy(bool) & vals.notna().to_numpy()


def terms_agg(ds: Dataset, key: str, size: int | None = None,
              value_col: str | None = None, include=None, exclude=None,
              partition: tuple | None = None,
              order: tuple | None = None,
              min_doc_count: int = 1, missing=None):
    """terms bucket agg: doc_count (+ optional sum) per key, ordered by
    (count desc, key asc) like the reference's default ordering.

    ``include``/``exclude`` (anchored regex or exact values) and
    ``partition=(i, num_partitions)`` implement IncludeExclude.java —
    the partition form is the reference's paging device for
    high-cardinality fields (each request sees one stable hash slice of
    the key space). Filtering runs INSIDE the map stage before the
    groupby, so excluded keys never enter the shuffle.

    ``order=(path, "asc"|"desc")`` is the reference's BucketOrder
    (InternalOrder.java): ``"_count"`` (default desc), ``"_key"``, or a
    sub-metric column name (here ``"sum_<value_col>"``); the key is
    always the final tiebreak ascending, as in the reference's
    comparator chain."""
    aggs = [Count(alias_name="doc_count")]
    if value_col:
        aggs.append(Sum(value_col, alias_name=f"sum_{value_col}"))
    if missing is not None:
        # the reference's `missing` parameter: null keys join an
        # explicit bucket instead of being dropped (AggregationBuilder
        # missing semantics); substitution happens pre-shuffle
        def fill(batch: pa.Table, _k=key, _m=missing) -> pa.Table:
            import pyarrow.compute as pc

            col = batch[_k]
            if pa.types.is_null(col.type):
                # an all-null block carries Arrow's null type, which
                # fill_null rejects — cast to the missing value's type
                # first (review r5d #3)
                col = col.cast(pa.scalar(_m).type)
            if col.null_count:
                batch = batch.set_column(
                    batch.schema.get_field_index(_k), _k,
                    pc.fill_null(col, _m))
            return batch

        ds = ds.map_batches(fill, batch_format="pyarrow")
    if min_doc_count < 1:
        raise ValueError("min_doc_count must be >= 1 (0 would need the "
                         "whole key domain, which a stream cannot know)")
    if partition is not None:
        p, n = partition
        if not (isinstance(n, int) and isinstance(p, int) and 0 <= p < n):
            raise ValueError("partition must be (i, num_partitions) "
                             "with 0 <= i < num_partitions")
    if include is not None or exclude is not None or partition is not None:
        def keep(batch: pa.Table) -> pa.Table:
            m = _include_exclude_mask(batch[key].to_pandas(), include,
                                      exclude, partition)
            return batch.filter(pa.array(m))

        ds = ds.map_batches(keep, batch_format="pyarrow")
    out = ds.groupby(key).aggregate(*aggs).to_pandas()
    if not out.empty and key in out.columns and min_doc_count > 1:
        out = out[out["doc_count"] >= min_doc_count]
    if out.empty or key not in out.columns:
        # all keys filtered → hash groupby emits a zero-schema frame
        cols = {key: [], "doc_count": pd.Series([], dtype=np.int64)}
        if value_col:
            cols[f"sum_{value_col}"] = pd.Series([], dtype=np.float64)
        return pd.DataFrame(cols)
    if order is None:
        order = ("_count", "desc")
    path, direction = order
    if direction not in ("asc", "desc"):
        raise ValueError(f"order direction must be asc|desc, got "
                         f"{direction!r}")
    col = {"_count": "doc_count", "_key": key}.get(path, path)
    if col not in out.columns:
        raise ValueError(f"unknown order path {path!r} (have "
                         f"{list(out.columns)})")
    asc = direction == "asc"
    cols = [col] if col == key else [col, key]
    out = out.sort_values(cols, ascending=[asc] + [True] * (len(cols) - 1),
                          kind="stable").reset_index(drop=True)
    return out.head(size) if size else out


def stats_agg(ds: Dataset, key: str | list[str], value_col: str) -> pd.DataFrame:
    """stats metric agg per bucket: count/min/max/sum/avg
    (metrics/StatsAggregator semantics)."""
    out = (
        ds.groupby(key)
        .aggregate(
            Count(alias_name="count"),
            Min(value_col, alias_name="min"),
            Max(value_col, alias_name="max"),
            Sum(value_col, alias_name="sum"),
            Mean(value_col, alias_name="avg"),
        )
        .to_pandas()
    )
    keys = key if isinstance(key, list) else [key]
    return out.sort_values(keys).reset_index(drop=True)


def date_histogram(
    ds: Dataset, ts_col: str, interval: str = "day", value_col: str | None = None
) -> pd.DataFrame:
    """date_histogram bucket agg: truncate-to-interval key computed in a map
    stage, then grouped (DateHistogramAggregationBuilder semantics, UTC)."""
    unit = {"day": "D", "hour": "h", "month": "M", "minute": "m"}[interval]

    def add_bucket(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        if unit == "M":
            b = ts.astype("datetime64[M]").astype("datetime64[us]")
        else:
            b = ts.astype(f"datetime64[{unit}]").astype("datetime64[us]")
        return batch.append_column("bucket", pa.array(b))

    aggs = [Count(alias_name="doc_count")]
    if value_col:
        aggs.append(Sum(value_col, alias_name=f"sum_{value_col}"))
    out = (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(*aggs)
        .to_pandas()
    )
    return out.sort_values("bucket").reset_index(drop=True)


def range_agg(ds: Dataset, col: str, ranges: list[tuple]) -> pd.DataFrame:
    """range bucket agg: [(from, to), ...] with half-open [from, to) buckets
    like the reference (RangeAggregator); None = unbounded."""

    def bucketize(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        lab = np.full(len(v), "", dtype=object)
        for lo, hi in ranges:
            m = np.ones(len(v), dtype=bool)
            if lo is not None:
                m &= v >= lo
            if hi is not None:
                m &= v < hi
            name = f"{'*' if lo is None else lo}-{'*' if hi is None else hi}"
            lab = np.where(m, name, lab)  # ranges may overlap in ES; last wins here
        t = pa.table({"range_key": pa.array(lab.tolist(), pa.string())})
        return t

    out = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("range_key")
        .aggregate(Count(alias_name="doc_count"))
        .to_pandas()
    )
    out = out[out["range_key"] != ""]
    return out.sort_values("range_key").reset_index(drop=True)


def cardinality_exact(ds: Dataset, key: str | None, value_col: str) -> pd.DataFrame:
    """Exact distinct count per bucket (validation twin of cardinality_hll)."""

    def partial(batch: pa.Table) -> pa.Table:
        cols = [value_col] + ([key] if key else [])
        return batch.select(cols).group_by(cols).aggregate([])

    dedup = ds.map_batches(partial, batch_format="pyarrow")  # map-side partial dedup
    if key:
        out = (
            dedup.groupby([key, value_col])
            .aggregate(Count(alias_name="_c"))
            .groupby(key)
            .aggregate(Count(alias_name="cardinality"))
            .to_pandas()
        )
        return out.sort_values(key).reset_index(drop=True)
    return pd.DataFrame({"cardinality": [dedup.unique(value_col).__len__()]})


def cardinality_hll(ds: Dataset, key: str | None, value_col: str, p: int = 14) -> pd.DataFrame:
    """cardinality agg via HyperLogLog (the reference's HyperLogLogPlusPlus
    analog): one sketch per (batch, bucket) partial, registers OR-merged in a
    small final reduce — the canonical mergeable-sketch pattern."""

    def partial(batch: pa.Table) -> pa.Table:
        vals = batch[value_col].to_numpy(zero_copy_only=False)
        if key:
            keys = batch[key].to_numpy(zero_copy_only=False)
            rows_k, rows_s = [], []
            for k in pd.unique(keys):
                h = HLL(p).add(vals[keys == k])
                rows_k.append(k)
                rows_s.append(h.to_bytes())
            return pa.table({key: pa.array(rows_k), "sketch": pa.array(rows_s, pa.binary())})
        return pa.table({"sketch": pa.array([HLL(p).add(vals).to_bytes()], pa.binary())})

    partials = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if key:
        rows = []
        for k, grp in partials.groupby(key):
            h = HLL(p)
            for b in grp["sketch"]:
                h.merge(HLL.from_bytes(b))
            rows.append({key: k, "cardinality": h.cardinality()})
        return pd.DataFrame(rows).sort_values(key).reset_index(drop=True)
    h = HLL(p)
    for b in partials["sketch"]:
        h.merge(HLL.from_bytes(b))
    return pd.DataFrame({"cardinality": [h.cardinality()]})


def percentiles_agg(ds: Dataset, key: str | None, value_col: str,
                    percents=(25.0, 50.0, 75.0, 95.0, 99.0)) -> pd.DataFrame:
    """percentiles metric agg — exact linear-interpolation quantiles (matches
    DuckDB quantile_cont; the reference defaults to TDigest approximation,
    noted semantic difference)."""

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        vals = np.sort(g[value_col].to_numpy(dtype=np.float64))
        row = {f"p{float(p):g}": float(np.percentile(vals, p)) for p in percents}
        if key:
            row[key] = g[key].iloc[0]
        return pd.DataFrame([row])

    if key:
        out = ds.groupby(key).map_groups(per_group, batch_format="pandas").to_pandas()
        return out.sort_values(key).reset_index(drop=True)
    # global case: distributed sort + ONE streaming pass picking the
    # interpolation rows — exact, never materializes the column on the driver
    # (the t-digest twin remains the sketch alternative)
    n = ds.count()
    if n == 0:
        return pd.DataFrame([{f"p{float(p):g}": float("nan")
                              for p in percents}])
    # linear-interpolation positions (numpy 'linear' method)
    pos = [(p / 100.0) * (n - 1) for p in percents]
    need = sorted({int(np.floor(x)) for x in pos} | {int(np.ceil(x)) for x in pos})
    picked: dict[int, float] = {}
    seen = 0
    it = iter(need)
    want = next(it, None)
    for batch in ds.sort(value_col).select_columns([value_col]).iter_batches(
        batch_format="pyarrow"
    ):
        if want is None:
            break
        v = batch[value_col].to_numpy(zero_copy_only=False)
        hi = seen + len(v)
        while want is not None and want < hi:
            picked[want] = float(v[want - seen])
            want = next(it, None)
        seen = hi
    row = {}
    for p, x in zip(percents, pos):
        lo_i, hi_i = int(np.floor(x)), int(np.ceil(x))
        frac = x - lo_i
        val = picked[lo_i] * (1 - frac) + picked[hi_i] * frac
        row[f"p{float(p):g}"] = float(val)
    return pd.DataFrame([row])


def percentiles_tdigest(ds: Dataset, key: str | None, value_col: str,
                        percents=(25.0, 50.0, 75.0, 95.0, 99.0),
                        delta: float = 200.0) -> pd.DataFrame:
    """percentiles via the t-digest sketch — the reference's default
    (TDigestState): one digest per (batch, bucket) partial, merged in a tiny
    final reduce; approximation error concentrates away from the tails."""
    from elasticsearch_ray.ops.tdigest import TDigest

    def partial(batch: pa.Table) -> pa.Table:
        vals = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        if key:
            keys = batch[key].to_numpy(zero_copy_only=False)
            rows_k, rows_s = [], []
            for k in pd.unique(keys):
                rows_k.append(k)
                rows_s.append(TDigest(delta).add(vals[keys == k]).to_bytes())
            return pa.table({key: pa.array(rows_k), "sketch": pa.array(rows_s, pa.binary())})
        return pa.table({"sketch": pa.array([TDigest(delta).add(vals).to_bytes()], pa.binary())})

    partials = ds.map_batches(partial, batch_format="pyarrow").to_pandas()

    def finish(sketches) -> dict:
        d = TDigest(delta)
        for b in sketches:
            d.merge(TDigest.from_bytes(b))
        return {f"p{float(p):g}": round(d.quantile(p / 100.0), 6)
                for p in percents}

    if key:
        rows = []
        for k, grp in partials.groupby(key):
            rows.append({key: k, **finish(grp["sketch"])})
        return pd.DataFrame(rows).sort_values(key).reset_index(drop=True)
    return pd.DataFrame([finish(partials["sketch"])])


def percentiles_hdr(ds: Dataset, key: str | None, value_col: str,
                    percents=(25.0, 50.0, 75.0, 95.0, 99.0),
                    significant_digits: int = 3) -> pd.DataFrame:
    """percentiles via the HDR histogram — the reference's ``"hdr"``
    method option (InternalHDRPercentiles, fixed significant digits,
    losslessly mergeable counts). Same partial/final reduce shape as
    percentiles_tdigest: one sketch per (batch, bucket), count-merge in a
    tiny driver reduce."""
    from elasticsearch_ray.ops.hdr import HdrHistogram

    def partial(batch: pa.Table) -> pa.Table:
        vals = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        if key:
            keys = batch[key].to_numpy(zero_copy_only=False)
            rows_k, rows_s = [], []
            for k in pd.unique(keys):
                rows_k.append(k)
                rows_s.append(
                    HdrHistogram(significant_digits).add(vals[keys == k]).to_bytes())
            return pa.table({key: pa.array(rows_k),
                             "sketch": pa.array(rows_s, pa.binary())})
        return pa.table({"sketch": pa.array(
            [HdrHistogram(significant_digits).add(vals).to_bytes()], pa.binary())})

    partials = ds.map_batches(partial, batch_format="pyarrow").to_pandas()

    def finish(sketches) -> dict:
        h = HdrHistogram(significant_digits)
        for b in sketches:
            h.merge(HdrHistogram.from_bytes(b))
        return {f"p{float(p):g}": round(h.value_at_percentile(p), 6)
                for p in percents}

    if key:
        rows = []
        for k, grp in partials.groupby(key):
            rows.append({key: k, **finish(grp["sketch"])})
        return pd.DataFrame(rows).sort_values(key).reset_index(drop=True)
    return pd.DataFrame([finish(partials["sketch"])])


def percentile_ranks_hdr(ds: Dataset, value_col: str, values: list[float],
                         significant_digits: int = 3) -> pd.DataFrame:
    """percentile_ranks with the ``"hdr"`` method: one histogram per
    batch, count-merged, then getPercentileAtOrBelowValue per probe."""
    from elasticsearch_ray.ops.hdr import HdrHistogram

    def partial(batch: pa.Table) -> pa.Table:
        vals = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"sketch": pa.array(
            [HdrHistogram(significant_digits).add(vals).to_bytes()], pa.binary())})

    partials = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    h = HdrHistogram(significant_digits)
    for b in partials["sketch"]:
        h.merge(HdrHistogram.from_bytes(b))
    return pd.DataFrame({
        "value": [float(v) for v in values],
        "rank": [round(h.percentile_at_or_below(v), 6) for v in values],
    })


def top_hits_agg(ds: Dataset, key: str, sort_col: str, n: int = 3,
                 descending: bool = True, fetch: list[str] | None = None) -> pd.DataFrame:
    """top_hits metric agg: the n best docs per bucket by sort_col
    (tie-broken by the first fetch column for determinism)."""

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        tie = fetch[0] if fetch else sort_col
        g = g.sort_values([sort_col, tie], ascending=[not descending, True]).head(n)
        return g[[key] + (fetch or [sort_col])]

    out = ds.groupby(key).map_groups(per_group, batch_format="pandas").to_pandas()
    tie = fetch[0] if fetch else sort_col
    return out.sort_values([key, tie]).reset_index(drop=True)


def composite_agg(ds: Dataset, keys: list[str], after: tuple | None = None,
                  size: int = 10) -> pd.DataFrame:
    """composite bucket agg: paginated multi-source buckets ordered by the
    full key tuple (CompositeAggregationBuilder semantics)."""
    out = ds.groupby(keys).aggregate(Count(alias_name="doc_count")).to_pandas()
    out = out.sort_values(keys).reset_index(drop=True)
    if after is not None:
        mask = out.apply(lambda r: tuple(r[k] for k in keys) > tuple(after), axis=1)
        out = out[mask]
    return out.head(size).reset_index(drop=True)


def extended_stats_agg(ds: Dataset, key: str | list[str], value_col: str) -> pd.DataFrame:
    """extended_stats: stats + sum_of_squares, variance (population, like the
    reference's ExtendedStatsAggregator) and std_deviation. Built from
    mergeable partials (count, sum, sum2) only."""

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        df = batch.select([key] if isinstance(key, str) else list(key)).to_pandas()
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        df["_c"] = 1
        df["_s"] = v
        df["_s2"] = v * v
        g = df.groupby(key if isinstance(key, str) else list(key), as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key)
        .aggregate(
            Sum("_c", alias_name="count"),
            Sum("_s", alias_name="sum"),
            Sum("_s2", alias_name="sum_of_squares"),
        )
        .to_pandas()
    )
    p = partials
    p["avg"] = p["sum"] / p["count"]
    p["variance"] = p["sum_of_squares"] / p["count"] - p["avg"] ** 2
    p["std_deviation"] = np.sqrt(p["variance"].clip(lower=0))
    keys = [key] if isinstance(key, str) else list(key)
    return p.sort_values(keys).reset_index(drop=True)


def weighted_avg_agg(ds: Dataset, key: str, value_col: str, weight_col: str) -> pd.DataFrame:
    """weighted_avg metric agg: Σ(v·w)/Σw per bucket via partials."""

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key]).to_pandas()
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        w = batch[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        df["_vw"] = v * w
        df["_w"] = w
        return pa.Table.from_pandas(df.groupby(key, as_index=False).sum(), preserve_index=False)

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key)
        .aggregate(Sum("_vw", alias_name="vw"), Sum("_w", alias_name="w"))
        .to_pandas()
    )
    out["weighted_avg"] = out["vw"] / out["w"]
    return out[[key, "weighted_avg"]].sort_values(key).reset_index(drop=True)


def histogram_agg(ds: Dataset, col: str, interval: float) -> pd.DataFrame:
    """histogram bucket agg: floor(value/interval)*interval keys
    (HistogramAggregator semantics, empty buckets omitted)."""

    def bucketize(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        b = np.floor(v / interval) * interval
        return pa.table({"bucket": pa.array(b)})

    out = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Count(alias_name="doc_count"))
        .to_pandas()
    )
    return out.sort_values("bucket").reset_index(drop=True)


def filters_agg(ds: Dataset, filters: dict) -> pd.DataFrame:
    """filters bucket agg: named vectorized predicates → doc counts
    (FiltersAggregator; predicates are pyarrow-compute callables table→mask)."""

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        rows = []
        for name, pred in filters.items():
            mask = pred(batch)
            rows.append({"filter_key": name,
                         "n": int(pc.sum(pc.cast(mask, pa.int64())).as_py() or 0)})
        return pa.Table.from_pylist(rows)

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("filter_key")
        .aggregate(Sum("n", alias_name="doc_count"))
        .to_pandas()
    )
    return out.sort_values("filter_key").reset_index(drop=True)


def adjacency_matrix_agg(ds: Dataset, filters: dict) -> pd.DataFrame:
    """adjacency_matrix bucket agg (AdjacencyMatrixAggregator): doc counts
    for each named filter AND each pairwise intersection key 'a&b' (a<b),
    from vectorized per-batch predicate masks."""

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        names = sorted(filters)
        masks = {n: filters[n](batch).to_numpy(zero_copy_only=False) for n in names}
        rows = []
        for i, a in enumerate(names):
            rows.append({"key": a, "n": int(masks[a].sum())})
            for b in names[i + 1 :]:
                rows.append({"key": f"{a}&{b}", "n": int((masks[a] & masks[b]).sum())})
        return pa.Table.from_pylist(rows)

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("n", alias_name="doc_count"))
        .to_pandas()
    )
    out = out[out["doc_count"] > 0]
    return out.sort_values("key").reset_index(drop=True)


def rare_terms_agg(ds: Dataset, key: str, max_doc_count: int = 1) -> pd.DataFrame:
    """rare_terms bucket agg: buckets with doc_count <= max_doc_count
    (RareTermsAggregationBuilder; ours is exact, the reference uses a CuckooFilter
    approximation — documented semantic upgrade)."""
    out = ds.groupby(key).aggregate(Count(alias_name="doc_count")).to_pandas()
    out = out[out["doc_count"] <= max_doc_count]
    return out.sort_values([key]).reset_index(drop=True)


def significant_terms_agg(fg: Dataset, bg: Dataset, key: str, size: int | None = None,
                          heuristic: str = "jlh",
                          include_negatives: bool = True,
                          background_is_superset: bool | None = None,
                          background_filter=None) -> pd.DataFrame:
    """significant_terms: foreground vs background significance, with the
    reference's FULL heuristic family (bucket/terms/heuristic/): jlh
    (default), chi_square, mutual_information, gnd, percentage — see
    ops/sig_heuristics.py. Both sides reduce to small count tables before
    the driver-side score, so heuristic choice never re-reads data.

    ``background_filter`` (SignificantTermsAggregationBuilder#
    backgroundFilter): a per-batch pandas predicate restricting the
    BACKGROUND set — the reference's tool for "uncommonly common"
    comparisons against a narrower context than the whole index. With a
    filter, the background need not be a superset of the foreground, so
    the reference's frequency-capping superset adjustment is off unless
    explicitly re-enabled (the builder does the same)."""
    from elasticsearch_ray.ops.sig_heuristics import sig_score

    if background_is_superset is None:
        # a filtered background need not contain the foreground, so the
        # superset frequency adjustment defaults OFF exactly when a
        # filter is given (the builder's own behavior; review r5e #2) —
        # pass background_is_superset=True explicitly when the filter
        # provably keeps the foreground inside the background
        background_is_superset = background_filter is None
    if background_filter is not None:
        def bg_keep(df: pd.DataFrame) -> pd.DataFrame:
            return df[np.asarray(background_filter(df), bool)]
        bg = bg.map_batches(bg_keep, batch_format="pandas")
    f = fg.groupby(key).aggregate(Count(alias_name="fg_count")).to_pandas()
    b = bg.groupby(key).aggregate(Count(alias_name="bg_count")).to_pandas()
    if b.empty or key not in b.columns:  # filtered-to-empty background
        b = pd.DataFrame({key: pd.Series(dtype=f[key].dtype
                                         if key in f.columns else object),
                          "bg_count": pd.Series(dtype=np.int64)})
    fg_total = int(f["fg_count"].sum())
    bg_total = int(b["bg_count"].sum())
    m = f.merge(b, on=key, how="left").fillna({"bg_count": 0})
    m["score"] = np.round(
        sig_score(heuristic, m["fg_count"].to_numpy(), fg_total,
                  m["bg_count"].to_numpy(), bg_total,
                  include_negatives=include_negatives,
                  background_is_superset=background_is_superset), 9)
    m = m[m["fg_count"] > 0]
    m = m.sort_values(["score", key], ascending=[False, True]).reset_index(drop=True)
    m["bg_count"] = m["bg_count"].astype("int64")
    return m.head(size) if size else m


def sampler_agg(ds: Dataset, fraction: float, seed: int = 42) -> Dataset:
    """random_sampler agg analog: seeded Bernoulli sample as a Dataset (keep
    lazy — downstream aggs consume it)."""
    return ds.random_sample(fraction, seed=seed)


def multi_terms_agg(ds: Dataset, keys: list[str], size: int | None = None,
                    value_col: str | None = None) -> pd.DataFrame:
    """multi_terms bucket agg (x-pack MultiTermsAggregationBuilder): one
    bucket per distinct key TUPLE, default order (doc_count desc, keys asc).
    Same exactness note as terms_agg: the term-keyed shuffle makes this exact
    where the reference's shard_size cut is approximate."""
    aggs = [Count(alias_name="doc_count")]
    if value_col:
        aggs.append(Sum(value_col, alias_name=f"sum_{value_col}"))
    out = ds.groupby(list(keys)).aggregate(*aggs).to_pandas()
    out = out.sort_values(["doc_count", *keys],
                          ascending=[False] + [True] * len(keys)).reset_index(drop=True)
    return out.head(size) if size else out


def random_sampler_agg(ds: Dataset, id_col: str, probability: float) -> Dataset:
    """random_sampler bucket agg (x-pack RandomSamplerAggregationBuilder):
    probability-p inclusion decided per doc by a DETERMINISTIC multiplicative
    hash of the id column (Knuth 2654435761 mod 2^32) instead of a seeded
    RNG — the sample is reproducible across runs/parallelism AND expressible
    in the SQL oracle, unlike block-order-dependent random_sample. Stays a
    lazy Dataset; downstream aggs consume the sampled stream."""
    threshold = int(probability * 4294967296.0)

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (ids * np.uint64(2654435761)) % np.uint64(4294967296)
        return batch.filter(pa.array(h < np.uint64(threshold)))

    return ds.map_batches(keep, batch_format="pyarrow")


def top_shingles(ds: Dataset, text_col: str, n: int = 2, size: int = 20) -> pd.DataFrame:
    """Top word-n-grams via the shingle filter: per-batch shingle + partial
    counts → small groupby (significant_text-style surface over text)."""
    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for text in batch[text_col].to_pylist():
            toks = (text or "").split()
            c.update(" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1))
        return pa.table(
            {"shingle": pa.array(list(c.keys()), pa.string()),
             "n": pa.array(list(c.values()), pa.int64())}
        )

    from ray.data.aggregate import Sum

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("shingle")
        .aggregate(Sum("n", alias_name="doc_count"))
        .to_pandas()
    )
    out = out.sort_values(["doc_count", "shingle"], ascending=[False, True]).reset_index(drop=True)
    return out.head(size)


# ---- pipeline aggs (coordinator-side, small-table pandas) ----

def cumulative_sum(bucket_df: pd.DataFrame, col: str, out_col: str = "cumulative") -> pd.DataFrame:
    out = bucket_df.copy()
    out[out_col] = out[col].cumsum()
    return out


def derivative(bucket_df: pd.DataFrame, col: str, out_col: str = "derivative") -> pd.DataFrame:
    out = bucket_df.copy()
    out[out_col] = out[col].diff()
    return out


def moving_fn(bucket_df: pd.DataFrame, col: str, window: int, fn="mean",
              out_col: str = "moving") -> pd.DataFrame:
    out = bucket_df.copy()
    out[out_col] = getattr(out[col].rolling(window), fn)()
    return out


# ---- round-2 additions: missing/global/date_range/auto_date_histogram,
# median_absolute_deviation, percentile_ranks, and the pipeline-agg bank
# (SearchModule.java:352-829 registrations) ----


def missing_agg(ds: Dataset, col: str) -> pd.DataFrame:
    """missing bucket agg (MissingAggregator): docs with a null field.
    Map-side partial counts → one-row sum (no shuffle of data rows)."""

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([batch[col].null_count], pa.int64())})

    n = ds.map_batches(partial, batch_format="pyarrow").sum("n")
    return pd.DataFrame({"doc_count": [int(n or 0)]})


def global_stats_agg(ds: Dataset, value_col: str) -> pd.DataFrame:
    """global bucket + stats sub-agg (GlobalAggregator): the whole dataset as
    one bucket regardless of any query context."""
    out = ds.aggregate(
        Count(alias_name="count"),
        Min(value_col, alias_name="min"),
        Max(value_col, alias_name="max"),
        Sum(value_col, alias_name="sum"),
        Mean(value_col, alias_name="avg"),
    )
    return pd.DataFrame([out])


def date_range_agg(ds: Dataset, col: str, ranges: list[tuple]) -> pd.DataFrame:
    """date_range bucket agg: [from, to) buckets over a timestamp column;
    open ends via None. Counting is map-side partial per batch."""
    import numpy as np

    bounds = [
        (np.datetime64(f) if f else None, np.datetime64(t) if t else None) for f, t in ranges
    ]

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False)
        counts = []
        for f, t in bounds:
            m = np.ones(len(v), dtype=bool)
            if f is not None:
                m &= v >= f
            if t is not None:
                m &= v < t
            counts.append(int(m.sum()))
        return pa.table(
            {
                "bucket": pa.array(range(len(bounds)), pa.int64()),
                "doc_count": pa.array(counts, pa.int64()),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("doc_count", alias_name="doc_count"))
        .to_pandas()
        .sort_values("bucket")
        .reset_index(drop=True)
    )
    out["from"] = [str(f) if f is not None else None for f, _ in bounds]
    out["to"] = [str(t) if t is not None else None for _, t in bounds]
    return out[["bucket", "from", "to", "doc_count"]]


_AUTO_INTERVALS_SEC = [1, 5, 10, 30, 60, 300, 600, 1800, 3600, 3 * 3600, 12 * 3600,
                       86400, 7 * 86400, 30 * 86400, 90 * 86400, 365 * 86400]


def auto_date_histogram(ds: Dataset, col: str, target_buckets: int = 10) -> pd.DataFrame:
    """auto_date_histogram: pick the smallest ladder interval giving
    <= target_buckets buckets over [min, max], then a fixed-interval
    histogram (AutoDateHistogramAggregationBuilder's rounding ladder,
    fixed-interval approximation)."""
    import numpy as np

    mm = ds.aggregate(Min(col, alias_name="lo"), Max(col, alias_name="hi"))
    lo = np.datetime64(mm["lo"]).astype("datetime64[s]").astype(np.int64)
    hi = np.datetime64(mm["hi"]).astype("datetime64[s]").astype(np.int64)
    span = max(int(hi - lo), 1)
    interval = next(
        (s for s in _AUTO_INTERVALS_SEC if span // s + 1 <= target_buckets),
        _AUTO_INTERVALS_SEC[-1],
    )

    def bucketize(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype("datetime64[s]").astype(np.int64)
        b = (v // interval) * interval
        return pa.table({"key": pa.array(b.astype("datetime64[s]").astype("datetime64[us]"))})

    out = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Count(alias_name="doc_count"))
        .to_pandas()
        .sort_values("key")
        .reset_index(drop=True)
    )
    out["interval_sec"] = interval
    return out


def median_absolute_deviation_agg(ds: Dataset, key: str, value_col: str) -> pd.DataFrame:
    """median_absolute_deviation per bucket (exact: median of |x - median|;
    the reference estimates via TDigest — documented exact upgrade). Runs
    inside map_groups, so each group's values stay on its worker."""

    def mad(g: pd.DataFrame) -> pd.DataFrame:
        v = g[value_col].to_numpy(dtype=np.float64)
        m = float(np.median(v))
        return pd.DataFrame({key: [g[key].iloc[0]], "mad": [float(np.median(np.abs(v - m)))]})

    out = ds.groupby(key).map_groups(mad, batch_format="pandas").to_pandas()
    return out.sort_values(key).reset_index(drop=True)


def percentile_ranks_agg(ds: Dataset, value_col: str, values: list[float]) -> pd.DataFrame:
    """percentile_ranks (exact): for each v, 100 * fraction of docs <= v.
    Map-side partial (count per v, total) → one-row reduce."""

    def partial(batch: pa.Table) -> pa.Table:
        x = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "value": pa.array([float(v) for v in values], pa.float64()),
                "le": pa.array([int((x <= v).sum()) for v in values], pa.int64()),
                "total": pa.array([len(x)] * len(values), pa.int64()),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("value")
        .aggregate(Sum("le", alias_name="le"), Sum("total", alias_name="total"))
        .to_pandas()
        .sort_values("value")
        .reset_index(drop=True)
    )
    out["rank_pct"] = (100.0 * out["le"] / out["total"]).round(6)
    return out[["value", "rank_pct"]]


# ---- pipeline aggs: coordinator-side reduce over the (small) final bucket
# table (SearchModule.java:714-829 — x_bucket family, bucket_script/
# selector/sort, serial_diff) ----


def bucket_script(bucket_df: pd.DataFrame, fn, out_col: str = "value") -> pd.DataFrame:
    """bucket_script: per-bucket computed column from sibling metrics."""
    out = bucket_df.copy()
    out[out_col] = fn(out)
    return out


def bucket_selector(bucket_df: pd.DataFrame, pred) -> pd.DataFrame:
    """bucket_selector: keep buckets where pred(df) is True."""
    return bucket_df[pred(bucket_df)].reset_index(drop=True)


def bucket_sort(bucket_df: pd.DataFrame, by: list[tuple], size: int | None = None,
                from_: int = 0) -> pd.DataFrame:
    """bucket_sort: order buckets by sibling metrics + from/size window."""
    cols = [c for c, _ in by]
    asc = [d == "asc" for _, d in by]
    out = bucket_df.sort_values(cols, ascending=asc, kind="mergesort")
    out = out.iloc[from_ : from_ + size if size is not None else None]
    return out.reset_index(drop=True)


def serial_diff(bucket_df: pd.DataFrame, col: str, lag: int = 1,
                out_col: str = "diff") -> pd.DataFrame:
    out = bucket_df.copy()
    out[out_col] = out[col].diff(lag)
    return out


def max_bucket(bucket_df: pd.DataFrame, key: str, col: str) -> pd.DataFrame:
    i = bucket_df[col].idxmax()
    return pd.DataFrame({"key": [bucket_df[key][i]], "value": [bucket_df[col][i]]})


def min_bucket(bucket_df: pd.DataFrame, key: str, col: str) -> pd.DataFrame:
    i = bucket_df[col].idxmin()
    return pd.DataFrame({"key": [bucket_df[key][i]], "value": [bucket_df[col][i]]})


def avg_bucket(bucket_df: pd.DataFrame, col: str) -> pd.DataFrame:
    return pd.DataFrame({"value": [float(bucket_df[col].mean())]})


def sum_bucket(bucket_df: pd.DataFrame, col: str) -> pd.DataFrame:
    return pd.DataFrame({"value": [float(bucket_df[col].sum())]})


def stats_bucket(bucket_df: pd.DataFrame, col: str) -> pd.DataFrame:
    v = bucket_df[col]
    return pd.DataFrame(
        {
            "count": [int(v.count())],
            "min": [float(v.min())],
            "max": [float(v.max())],
            "sum": [float(v.sum())],
            "avg": [float(v.mean())],
        }
    )


def percentiles_bucket(bucket_df: pd.DataFrame, col: str,
                       pcts=(1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0)) -> pd.DataFrame:
    v = bucket_df[col].to_numpy(dtype=np.float64)
    return pd.DataFrame(
        {"pct": list(pcts), "value": [float(np.percentile(v, p)) for p in pcts]}
    )


def diversified_sampler_agg(ds: Dataset, key: str, max_docs_per_value: int,
                            sort_col: str | None = None) -> Dataset:
    """diversified_sampler bucket agg (DiversifiedAggregationBuilder): cap
    the number of docs sharing a key value — per-key head inside map_groups
    (deterministic by sort_col when given), so downstream aggs see a
    de-duplicated sample. Returns a Dataset (composable like sampler_agg)."""

    def cap(g: pd.DataFrame) -> pd.DataFrame:
        if sort_col is not None:
            g = g.sort_values(sort_col, kind="mergesort")
        return g.head(max_docs_per_value)

    return ds.groupby(key).map_groups(cap, batch_format="pandas")


def time_series_agg(ds: Dataset, dimensions: list[str], ts_col: str = "ts",
                    interval: str | None = None,
                    value_col: str | None = None) -> pd.DataFrame:
    """time_series bucket agg (TimeSeriesAggregationBuilder): one bucket per
    unique dimension combination — the _tsid analog of a TSDB index — with
    doc_count (+ optional value sum); with ``interval``, each series is
    downsampled into truncate-to-interval sub-buckets (the reference's
    downsampling rollup shape). One map-side-combined groupby either way."""
    keys = list(dimensions)
    if interval is not None:
        unit = {"day": "D", "hour": "h", "month": "M", "minute": "m"}[interval]

        def add_bucket(batch: pa.Table) -> pa.Table:
            ts = batch[ts_col].to_numpy(zero_copy_only=False).astype("datetime64[us]")
            b = ts.astype(f"datetime64[{unit}]").astype("datetime64[us]")
            return batch.append_column("ts_bucket", pa.array(b))

        ds = ds.map_batches(add_bucket, batch_format="pyarrow")
        keys = keys + ["ts_bucket"]
    aggs = [Count(alias_name="doc_count")]
    if value_col:
        aggs.append(Sum(value_col, alias_name=f"sum_{value_col}"))
    out = ds.groupby(keys).aggregate(*aggs).to_pandas()
    return out.sort_values(keys).reset_index(drop=True)


def variable_width_histogram(ds: Dataset, col: str, buckets: int = 10,
                             sample_n: int = 4096, seed: int = 5) -> pd.DataFrame:
    """variable_width_histogram (VariableWidthHistogramAggregationBuilder):
    1-D clustering into ~`buckets` variable-width buckets. Centroids come
    from a driver-side sample (quantile-seeded k-means, the aggregator's
    nearest-centroid collection); assignment is a broadcast map stage and the
    reduce is a tiny per-cluster groupby — no global sort."""
    import ray

    sample = []
    need = sample_n
    for batch in ds.select_columns([col]).iter_batches(batch_format="pyarrow"):
        sample.append(batch[col].to_numpy(zero_copy_only=False).astype(np.float64))
        need -= len(batch)
        if need <= 0:
            break
    s = np.concatenate(sample)[:sample_n]
    if len(s) == 0:
        return pd.DataFrame({"key": [], "min": [], "max": [], "doc_count": []})
    k = min(buckets, len(np.unique(s)))
    cent = np.quantile(np.unique(s), np.linspace(0, 1, k))
    for _ in range(8):
        assign = np.abs(s[:, None] - cent[None, :]).argmin(axis=1)
        for c in range(k):
            m = assign == c
            if m.any():
                cent[c] = s[m].mean()
        cent = np.sort(cent)
    cent_ref = ray.put(cent)

    def assign_batch(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        a = np.abs(v[:, None] - c[None, :]).argmin(axis=1).astype(np.int32)
        return pa.table({"cluster": pa.array(a), "v": pa.array(v)})

    out = (
        ds.map_batches(assign_batch, batch_format="pyarrow")
        .groupby("cluster")
        .aggregate(
            Count(alias_name="doc_count"),
            Min("v", alias_name="min"),
            Max("v", alias_name="max"),
            Mean("v", alias_name="key"),
        )
        .to_pandas()
        .sort_values("cluster")
        .reset_index(drop=True)
    )
    return out[["key", "min", "max", "doc_count"]]


def _pack_ipv4(ips) -> np.ndarray:
    """Dotted-quad strings → uint32 (vectorized split/cast)."""
    parts = pd.Series(ips, dtype=object).str.split(".", expand=True).astype(np.int64)
    return (
        (parts[0].to_numpy() << 24)
        | (parts[1].to_numpy() << 16)
        | (parts[2].to_numpy() << 8)
        | parts[3].to_numpy()
    ).astype(np.int64)


def _cidr_bounds(cidr: str) -> tuple[int, int]:
    import ipaddress

    net = ipaddress.ip_network(cidr)
    return int(net.network_address), int(net.broadcast_address) + 1


def ip_range_agg(ds: Dataset, col: str, ranges: list) -> pd.DataFrame:
    """ip_range bucket agg (IpRangeAggregationBuilder): buckets are CIDR
    masks or (from, to) dotted-quad pairs, half-open like date_range;
    counting is a map-side partial over packed uint32 addresses."""
    bounds = []
    for r in ranges:
        if isinstance(r, str):
            bounds.append(_cidr_bounds(r))
        else:
            f, t = r
            bounds.append((int(_pack_ipv4([f])[0]) if f else 0,
                           int(_pack_ipv4([t])[0]) if t else 1 << 32))

    def partial(batch: pa.Table) -> pa.Table:
        v = _pack_ipv4(batch[col].to_pylist())
        return pa.table(
            {
                "bucket": pa.array(range(len(bounds)), pa.int64()),
                "doc_count": pa.array(
                    [int(((v >= lo) & (v < hi)).sum()) for lo, hi in bounds], pa.int64()
                ),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("doc_count", alias_name="doc_count"))
        .to_pandas()
        .sort_values("bucket")
        .reset_index(drop=True)
    )
    return out


def ip_prefix_agg(ds: Dataset, col: str, prefix_length: int = 24) -> pd.DataFrame:
    """ip_prefix bucket agg: group by the /prefix_length network; the bucket
    key is the network address in dotted-quad form."""
    shift = 32 - prefix_length

    def partial(batch: pa.Table) -> pa.Table:
        v = _pack_ipv4(batch[col].to_pylist())
        net = (v >> shift) << shift
        return pa.table({"net": pa.array(net, pa.int64())})

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("net")
        .aggregate(Count(alias_name="doc_count"))
        .to_pandas()
        .sort_values("net")
        .reset_index(drop=True)
    )
    n = out["net"].to_numpy().astype(np.int64)
    out["prefix"] = [
        f"{(x >> 24) & 255}.{(x >> 16) & 255}.{(x >> 8) & 255}.{x & 255}/{prefix_length}"
        for x in n
    ]
    return out[["prefix", "doc_count"]]


def approx_terms_agg(ds: Dataset, key: str, size: int = 10,
                     shard_size: int | None = None) -> dict:
    """The reference's ACTUAL shard-approximate terms protocol, as an
    alternative to the exact ``terms_agg`` (which shuffles the key
    domain): each shard — here each BLOCK — contributes only its top
    ``shard_size`` buckets (default ``1.5·size + 10``,
    ``bucket/BucketUtils.java:25-33``), and the coordinator reduce
    reports the reference's error bookkeeping
    (``InternalTerms.java``):

    - per-bucket ``doc_count_error_upper_bound`` = Σ over shards that
      did NOT report the key of that shard's LAST-PLACE reported count
      (the key could have been just under the cut there);
    - ``sum_other_doc_count`` = total docs − Σ reported top counts;
    - when every shard's distinct-key count ≤ shard_size the result is
      exact and every bound is 0 (how the reference reports it too).

    Scale shape: the shuffle carries ≤ shard_size rows per block —
    independent of key cardinality; the driver reduce sees
    blocks × shard_size rows. Returns ``{"buckets": DataFrame(key,
    doc_count, doc_count_error_upper_bound),
    "sum_other_doc_count": int, "doc_count_error_upper_bound": int}``
    (the top-level bound = Σ per-shard last-place counts, the
    reference's aggregate bound)."""
    if shard_size is None:
        shard_size = int(1.5 * size + 10)
    if shard_size < size:
        raise ValueError("shard_size must be >= size")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # docs with no value for the field leave the agg entirely (the
        # reference's terms behavior; keeps sum_other consistent with
        # the exact sibling — review r5e #6)
        df = df.dropna(subset=[key])
        if len(df) == 0:
            return pd.DataFrame({key: pd.Series(dtype=object),
                                 "count": pd.Series(dtype=np.int64),
                                 "_block": pd.Series(dtype=object),
                                 "_last": pd.Series(dtype=np.int64),
                                 "_block_total": pd.Series(
                                     dtype=np.int64)})
        import uuid

        vc = df[key].value_counts()
        # deterministic cut: count desc, key asc
        vc = vc.reset_index()
        vc.columns = [key, "count"]
        vc = vc.sort_values(["count", key], ascending=[False, True],
                            kind="stable").head(shard_size)
        exhausted = len(vc) < shard_size  # block reported ALL its keys
        out = vc.copy()
        out["_block"] = uuid.uuid4().hex
        out["_last"] = np.int64(0 if exhausted
                                else int(vc["count"].iloc[-1]))
        out["_block_total"] = np.int64(len(df))
        return out

    parts = (ds.select_columns([key])
             .map_batches(partial, batch_format="pandas",
                          batch_size=None)
             .to_pandas())
    if parts.empty:
        return {"buckets": pd.DataFrame(
                    {key: [], "doc_count": [],
                     "doc_count_error_upper_bound": []}),
                "sum_other_doc_count": 0,
                "doc_count_error_upper_bound": 0}
    blocks = parts.drop_duplicates("_block")[["_block", "_last",
                                              "_block_total"]]
    total_docs = int(blocks["_block_total"].sum())
    total_bound = int(blocks["_last"].sum())
    counts = (parts.groupby(key, as_index=False)["count"].sum()
              .rename(columns={"count": "doc_count"}))
    # per-key bound: Σ _last of blocks that did not report the key
    reported = parts.groupby(key)["_block"].apply(set)
    last_by_block = dict(zip(blocks["_block"], blocks["_last"]))
    counts["doc_count_error_upper_bound"] = [
        int(sum(last_by_block[b] for b in last_by_block
                if b not in reported[k]))
        for k in counts[key]]
    counts = counts.sort_values(["doc_count", key],
                                ascending=[False, True],
                                kind="stable").head(size) \
        .reset_index(drop=True)
    return {"buckets": counts,
            "sum_other_doc_count":
                total_docs - int(counts["doc_count"].sum()),
            "doc_count_error_upper_bound": total_bound}
