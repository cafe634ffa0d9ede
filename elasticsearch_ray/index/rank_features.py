"""rank_features sidecar — the Lucene FeatureField storage model.

Reference semantics: ``modules/mapper-extras/src/main/java/org/elasticsearch/
index/mapper/extras/RankFeaturesFieldMapper.java`` — a ``rank_features``
field maps feature names to strictly-positive floats; each (feature, value)
pair is indexed as ``FeatureField(field, feature, value)``, with the value
INVERTED (1/v) at index time when ``positive_score_impact=false``. Duplicate
features within one doc are rejected (``parse``, "do not support indexing
multiple values").

Lucene ``FeatureField`` (public Lucene source) stores the float weight in the
postings TERM FREQUENCY slot with deliberate precision loss:

    freq  = floatToIntBits(v) >>> 15        (sign+exponent+top 8 mantissa bits)
    value = intBitsToFloat(freq << 15)

so only ~3 significant decimal digits survive. We reproduce that encoding
bit-exactly (vectorized via numpy float32 views).

Ray-Data shape: features arrive as a (doc_id, feature, weight) table/Dataset;
rows are range-assigned to the index's contiguous doc-id partitions (NO
shuffle — partition bases are known from the index snapshot, assignment is a
searchsorted) and each partition's slice is sorted by (feature, local) and
written as an atomic per-partition parquet sidecar next to the segment, the
per-segment FeatureField postings analog. Serving reads are lazy + cached in
the warm PartitionSearcher, and per-feature global stats (for Lucene's
``computePivotFeatureValue`` auto-pivot) come from sidecar footers only.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from elasticsearch_ray.index import state
from elasticsearch_ray.index.segments import atomic_write_table, part_dir


def encode_feature(values: np.ndarray) -> np.ndarray:
    """FeatureField.encodeFeatureValue: float32 bits >>> 15, as int32 freqs.

    Values must be strictly positive finite floats (the mapper rejects
    anything else), so the sign bit is 0 and the result fits in 16 bits.
    """
    v = np.asarray(values, dtype=np.float32)
    if not np.all(np.isfinite(v)) or np.any(v <= 0):
        raise ValueError("[rank_features] fields take hashes that map a "
                         "feature to a strictly positive float")
    bits = v.view(np.uint32)
    return (bits >> np.uint32(15)).astype(np.int32)


def decode_feature(freqs: np.ndarray) -> np.ndarray:
    """FeatureField.decodeFeatureValue: intBitsToFloat(freq << 15)."""
    f = np.asarray(freqs, dtype=np.uint32)
    return (f << np.uint32(15)).view(np.float32)


def sidecar_path(index_dir: str, part: int, field: str) -> str:
    return os.path.join(part_dir(index_dir, part), f"rankfeat-{field}.parquet")


def _write_part_sidecar(index_dir: str, field: str, part: int,
                        local: np.ndarray, feats: np.ndarray,
                        weights: np.ndarray,
                        positive_score_impact: bool) -> None:
    w = np.asarray(weights, dtype=np.float64)
    if not positive_score_impact:
        # RankFeaturesFieldMapper.parse: value = 1 / value at INDEX time
        w = 1.0 / w
    freqs = encode_feature(w)
    order = np.lexsort((local, feats))
    tbl = pa.table({
        "feature": pa.array(feats[order]).dictionary_encode(),
        "local": pa.array(local[order].astype(np.int32)),
        "freq": pa.array(freqs[order]),
    })
    atomic_write_table(tbl, sidecar_path(index_dir, part, field))


def build_rank_features(index_dir: str, field: str, features,
                        positive_score_impact: bool = True) -> dict:
    """Index a (doc_id, feature, weight) table as the ``field`` sidecar.

    ``features`` — pyarrow Table, pandas DataFrame, or ray.data.Dataset with
    columns (doc_id, feature, weight). Every partition gets a sidecar file
    (possibly empty) so "built" is distinguishable from "absent"; a feature
    appearing twice for one doc raises like the reference mapper.

    Returns {"n_rows": total, "parts": P}.
    """
    snap = state.snapshot(index_dir)
    parts, n_docs = snap.part_ids, snap.n_docs
    bases_np = np.asarray([p.base for p in snap.parts], dtype=np.int64)

    def _assign(tbl: pa.Table) -> dict[int, tuple]:
        d = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(d) and (d.min() < 0 or d.max() >= n_docs):
            raise ValueError(f"doc_id outside [0, {n_docs})")
        feats = tbl["feature"].to_numpy(zero_copy_only=False).astype(object)
        w = tbl["weight"].to_numpy(zero_copy_only=False).astype(np.float64)
        pi = np.searchsorted(bases_np, d, side="right") - 1
        out = {}
        for k in np.unique(pi):
            m = pi == k
            out[int(k)] = (d[m] - bases_np[int(k)], feats[m], w[m])
        return out

    if hasattr(features, "map_batches"):  # ray.data.Dataset
        # range assignment is embarrassingly parallel; the per-partition
        # regroup is one small shuffle keyed by partition id
        import pandas as _pd

        def tag(df: _pd.DataFrame) -> _pd.DataFrame:
            df = df.copy()
            df["_part_idx"] = (
                np.searchsorted(bases_np, df["doc_id"].to_numpy(np.int64),
                                side="right") - 1
            )
            return df

        tbl = pa.Table.from_pandas(
            features.map_batches(tag, batch_format="pandas").to_pandas(),
            preserve_index=False,
        )
    else:
        tbl = features if isinstance(features, pa.Table) else \
            pa.Table.from_pandas(features, preserve_index=False)

    groups = _assign(tbl)
    total = 0
    for idx, part in enumerate(parts):
        local, feats, w = groups.get(
            idx, (np.empty(0, np.int64), np.empty(0, object), np.empty(0)))
        # duplicate (doc, feature) check — reference parse() rejects these
        if len(local):
            key = np.char.add(feats.astype(str),
                              np.char.add("\x1f", local.astype(str)))
            if len(np.unique(key)) != len(key):
                raise ValueError(
                    "[rank_features] fields do not support indexing multiple "
                    "values for the same rank feature in the same document")
        _write_part_sidecar(index_dir, field, part, local,
                            feats.astype(str), w, positive_score_impact)
        total += len(local)
    state.commit_sidecar(index_dir, "rankfeat", field,
                         {"field": field, "n_rows": int(total),
                          "positive_score_impact": bool(positive_score_impact)})
    return {"n_rows": int(total), "parts": len(parts)}


def feature_stats(index_dir: str, field: str, feature: str) -> tuple[int, int]:
    """Global (sum_freq, doc_freq) of one feature — the inputs of Lucene's
    ``FeatureField.computePivotFeatureValue`` (pivot = decode(sumFreq/df));
    reads only the small sidecar files."""
    return feature_stats_bulk(state.snapshot(index_dir), field, [feature])[0][str(feature)]


def field_freq_stats(index_dir: str, field: str) -> tuple[int, int]:
    """Field-level (total_doc_freq, n_unique_features) across all
    partitions' sidecars — the inputs of the sparse_vector pruning
    ratio (TokenPruningConfig: a token is over-frequent when its
    frequency exceeds ``ratio_threshold ×`` the field's average token
    frequency). Frequency here is DOC freq: the FeatureField ``freq``
    lane stores the ENCODED WEIGHT, so summing it would conflate weight
    magnitude with how often a token occurs."""
    return feature_stats_bulk(state.snapshot(index_dir), field, ())[1:]


def feature_stats_bulk(snap: state.Snapshot, field: str,
                       features) -> tuple[dict, int, int]:
    """ONE pass over each partition's sidecar of commit ``snap``: {feature:
    (sum_freq, doc_freq)} for the requested feature set PLUS the field
    totals (total_doc_freq, n_unique_features). An N-token pruned
    sparse_vector query needs all of these — N+1 separate sweeps repeated
    per query was the review-flagged shape (r5 #7)."""
    want = pa.array(sorted(set(map(str, features))), pa.string())
    sums = np.zeros(len(want), np.int64)
    dfs = np.zeros(len(want), np.int64)
    total = 0
    uniq: set = set()
    for p in snap.parts:
        path = sidecar_path(snap.index_dir, p.part, field)
        t = state.read_committed(*os.path.split(path), p.stamp, columns=["feature", "freq"])
        if t is None:
            raise FileNotFoundError(f"rank_features sidecar missing: {path}")
        feats = t["feature"].cast(pa.string())
        total += len(t)
        uniq.update(pc.unique(feats).to_pylist())
        i = pc.fill_null(pc.index_in(feats, value_set=want), -1).to_numpy()
        hit = i >= 0
        sums += np.bincount(i[hit], t["freq"].to_numpy()[hit], len(want)).astype(np.int64)
        dfs += np.bincount(i[hit], minlength=len(want))
    return ({f: (int(sums[j]), int(dfs[j])) for j, f in enumerate(want.to_pylist())},
            total, len(uniq))
