"""rank_features sidecar (Lucene FeatureField model) + weighted_tokens.

Reference semantics: RankFeaturesFieldMapper.java (feature map → per-feature
FeatureField postings, 1/v inversion for positive_score_impact=false,
duplicate-feature rejection) and Lucene FeatureField (freq encoding
``floatToIntBits(v) >>> 15``, saturation/log/sigmoid/linear scoring,
computePivotFeatureValue auto-pivot = decode(sumFreq / df)).
"""

import struct

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from elasticsearch_ray.index.rank_features import (
    build_rank_features,
    decode_feature,
    encode_feature,
    feature_stats,
)
from elasticsearch_ray.index.spec import IndexSpec
from elasticsearch_ray.search.query import (
    BoolQuery,
    MatchQuery,
    RankFeatureQuery,
    WeightedTokensQuery,
)

SF_DIR = "/root/testdata/sf0.001"


def _java_encode(v: float) -> int:
    return struct.unpack("<I", struct.pack("<f", v))[0] >> 15


def test_feature_field_encoding_bit_exact():
    vals = [1.0, 0.5, 2.0, 1.2345678, 3.1415927, 1e-3, 1e4, 65504.0]
    enc = encode_feature(np.array(vals))
    assert enc.tolist() == [_java_encode(v) for v in vals]
    dec = decode_feature(enc)
    # decode(encode(v)) keeps only the top 8 mantissa bits
    for v, d in zip(vals, dec):
        bits = struct.unpack("<I", struct.pack("<f", v))[0]
        trunc = struct.unpack("<f", struct.pack("<I", (bits >> 15) << 15))[0]
        assert float(d) == trunc
    # dyadic values with <= 8 mantissa bits survive exactly
    for v in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.25, 10.0):
        assert float(decode_feature(encode_feature(np.array([v]))[0])) == v


def test_encode_rejects_nonpositive():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            encode_feature(np.array([bad]))


@pytest.fixture(scope="module")
def rf_engine(ray_session, tmp_path_factory):
    """Documents index + a rank_features sidecar ``tags`` with two sparse
    features: f_a on every doc (dyadic weights — exact under FeatureField
    truncation), f_b only on doc_id % 3 == 0."""
    import os

    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.search.engine import QueryEngine

    root = tmp_path_factory.mktemp("rfidx")
    corpus = str(root / "corpus")
    os.makedirs(corpus, exist_ok=True)
    t = pq.read_table(f"{SF_DIR}/documents.parquet")
    pq.write_table(t, f"{corpus}/docs.parquet")
    idx = str(root / "index")
    spec = IndexSpec(use_html=False, text_column="text",
                     doc_columns=("lang", "n_chars"))
    build_index(corpus, idx, spec, concurrency=2, file_pattern="docs.parquet")

    ids = np.asarray(t["doc_id"].to_pylist(), dtype=np.int64)
    rows = []
    wa = {}
    wb = {}
    for d in ids:
        w = (int(d) % 8 + 1) * 0.25
        rows.append((int(d), "f_a", w))
        wa[int(d)] = w
        if d % 3 == 0:
            w2 = (int(d) % 5 + 1) * 0.5
            rows.append((int(d), "f_b", w2))
            wb[int(d)] = w2
    feats = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "feature": pa.array([r[1] for r in rows]),
        "weight": pa.array([r[2] for r in rows], pa.float64()),
    })
    build_rank_features(idx, "tags", feats)
    eng = QueryEngine(idx, dtype="float64")
    return eng, wa, wb


def _scores(eng, q):
    tbl = eng.search(q, k=10**9, mode="exhaustive", fetch=("doc_id",))
    return {r["doc_id"]: r["score"] for r in tbl.to_pylist()}


def test_saturation_over_sidecar_feature(rf_engine):
    eng, wa, _ = rf_engine
    got = _scores(eng, RankFeatureQuery(field="tags.f_a", pivot=1.0,
                                        boost=2.0))
    assert set(got) == set(wa)
    for d, w in wa.items():
        assert got[d] == pytest.approx(2.0 * w / (w + 1.0), rel=1e-6)


def test_sparse_feature_matches_only_carriers(rf_engine):
    eng, _, wb = rf_engine
    got = _scores(eng, RankFeatureQuery(field="tags.f_b", function="linear"))
    assert set(got) == set(wb)
    for d, w in wb.items():
        assert got[d] == pytest.approx(w, rel=1e-6)


def test_log_and_sigmoid_functions(rf_engine):
    eng, wa, _ = rf_engine
    got = _scores(eng, RankFeatureQuery(field="tags.f_a", function="log",
                                        scaling_factor=2.0))
    for d, w in wa.items():
        assert got[d] == pytest.approx(np.log(2.0 + w), rel=1e-6)
    got = _scores(eng, RankFeatureQuery(field="tags.f_a", function="sigmoid",
                                        pivot=1.5, exponent=2.0))
    for d, w in wa.items():
        assert got[d] == pytest.approx(w**2 / (w**2 + 1.5**2), rel=1e-6)


def test_weighted_tokens_dot_product(rf_engine):
    eng, wa, wb = rf_engine
    q = WeightedTokensQuery(field="tags",
                            tokens=(("f_a", 0.5), ("f_b", 2.0),
                                    ("missing", 9.0)))
    got = _scores(eng, q)
    assert set(got) == set(wa)  # f_a covers every doc
    for d in got:
        want = 0.5 * wa[d] + 2.0 * wb.get(d, 0.0)
        assert got[d] == pytest.approx(want, rel=1e-6)


def test_weighted_tokens_equals_bool_of_linear(rf_engine):
    eng, _, _ = rf_engine
    toks = (("f_a", 0.75), ("f_b", 1.25))
    a = _scores(eng, WeightedTokensQuery(field="tags", tokens=toks))
    b = _scores(eng, BoolQuery(should=tuple(
        RankFeatureQuery(field=f"tags.{t}", function="linear", boost=w)
        for t, w in toks)))
    assert set(a) == set(b)
    for d in a:
        assert a[d] == pytest.approx(b[d], rel=1e-9)


def test_auto_pivot_matches_lucene_formula(rf_engine):
    eng, wa, _ = rf_engine
    sum_freq, df = feature_stats(eng.index_dir, "tags", "f_a")
    assert df == len(wa)
    expect_pivot = float(decode_feature(
        np.array([sum_freq // df], dtype=np.uint32))[0])
    got = _scores(eng, RankFeatureQuery(field="tags.f_a", pivot=None))
    for d, w in wa.items():
        assert got[d] == pytest.approx(w / (w + expect_pivot), rel=1e-6)


def test_auto_pivot_requires_sidecar_and_saturation(rf_engine):
    eng, _, _ = rf_engine
    with pytest.raises(ValueError, match="explicit pivot"):
        eng.search(RankFeatureQuery(field="n_chars", pivot=None), k=5)
    with pytest.raises(ValueError, match="explicit pivot"):
        eng.search(RankFeatureQuery(field="tags.f_a", function="sigmoid",
                                    pivot=None), k=5)


def test_positive_score_impact_false_inverts(rf_engine, tmp_path):
    eng, wa, _ = rf_engine
    feats = pa.table({
        "doc_id": pa.array(sorted(wa), pa.int64()),
        "feature": pa.array(["inv"] * len(wa)),
        "weight": pa.array([wa[d] for d in sorted(wa)], pa.float64()),
    })
    build_rank_features(eng.index_dir, "neg", feats,
                        positive_score_impact=False)
    got = _scores(eng, RankFeatureQuery(field="neg.inv", function="linear"))
    for d, w in wa.items():
        # 1/w for dyadic w is not always dyadic → FeatureField truncation
        assert got[d] == pytest.approx(1.0 / w, rel=1e-2)


def test_duplicate_feature_rejected(rf_engine):
    eng, _, _ = rf_engine
    feats = pa.table({
        "doc_id": pa.array([0, 0], pa.int64()),
        "feature": pa.array(["x", "x"]),
        "weight": pa.array([1.0, 2.0], pa.float64()),
    })
    with pytest.raises(ValueError, match="multiple values"):
        build_rank_features(eng.index_dir, "dup", feats)


def test_out_of_range_doc_rejected(rf_engine):
    eng, _, _ = rf_engine
    feats = pa.table({
        "doc_id": pa.array([eng.n_docs + 5], pa.int64()),
        "feature": pa.array(["x"]),
        "weight": pa.array([1.0], pa.float64()),
    })
    with pytest.raises(ValueError, match="outside"):
        build_rank_features(eng.index_dir, "oob", feats)


def test_bool_combination_with_bm25(rf_engine):
    eng, wa, _ = rf_engine
    base = MatchQuery("spark join")
    plain = _scores(eng, base)
    boosted = _scores(eng, BoolQuery(
        must=(base,),
        should=(RankFeatureQuery(field="tags.f_a", pivot=2.0),)))
    assert set(boosted) == set(plain)
    for d in plain:
        w = wa[d]
        assert boosted[d] == pytest.approx(plain[d] + w / (w + 2.0), rel=1e-6)


def test_dsl_roundtrip_weighted_tokens_and_linear(rf_engine):
    from elasticsearch_ray.search.dsl import parse_dsl, to_dsl

    q = parse_dsl({"weighted_tokens": {"tags": {"tokens": {"f_a": 1.5,
                                                           "f_b": 0.25}}}})
    assert isinstance(q, WeightedTokensQuery)
    assert dict(q.tokens) == {"f_a": 1.5, "f_b": 0.25}
    assert parse_dsl(to_dsl(q)) == q
    q2 = parse_dsl({"rank_feature": {"field": "tags.f_a", "linear": {}}})
    assert q2.function == "linear"
    assert parse_dsl(to_dsl(q2)) == q2
    q3 = parse_dsl({"rank_feature": {"field": "tags.f_a",
                                     "saturation": {}}})
    assert q3.pivot is None
    assert parse_dsl(to_dsl(q3)) == q3


def test_sidecar_complete_detects_orphaned_manifest(rf_engine):
    """A part rebuild wipes per-part sidecars but can leave the root
    manifest behind (round-5 regression: spec-field additions orphaned
    rankfeat-tags.json): completeness must check every part's file."""
    import shutil

    from elasticsearch_ray.index import state
    from elasticsearch_ray.index.rank_features import sidecar_path

    def sidecar_complete(index_dir, field):
        return state.snapshot(index_dir).sidecar_complete("rankfeat", field)

    eng, _wa, _wb = rf_engine
    assert sidecar_complete(eng.index_dir, "tags")
    assert not sidecar_complete(eng.index_dir, "nope")
    parts = eng.parts
    victim = sidecar_path(eng.index_dir, parts[0], "tags")
    backup = victim + ".bak"
    shutil.move(victim, backup)
    try:
        assert not sidecar_complete(eng.index_dir, "tags")
    finally:
        shutil.move(backup, victim)
    assert sidecar_complete(eng.index_dir, "tags")
