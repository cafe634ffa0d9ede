"""Gate: merged segments are score-identical to unmerged (SURVEY §7 M6)."""

import shutil

import numpy as np
import pytest

from elasticsearch_ray.index.spec import IndexSpec
from elasticsearch_ray.search.query import MatchPhraseQuery, MatchQuery, TermQuery


@pytest.fixture(scope="module")
def two_indexes(ray_session, tmp_path_factory):
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.sources.webpages import corpus_for_sf

    corpus = corpus_for_sf("/root/testdata/sf0.001", multiplier=1, num_files=6)
    base = tmp_path_factory.mktemp("merge")
    idx_a = str(base / "unmerged")
    idx_b = str(base / "merged")
    build_index(corpus, idx_a, IndexSpec(files_per_partition=1), concurrency=2)
    build_index(corpus, idx_b, IndexSpec(files_per_partition=1), concurrency=2)
    return idx_a, idx_b


def _results(idx, queries, dtype="float64"):
    from elasticsearch_ray.search.engine import QueryEngine

    eng = QueryEngine(idx, dtype=dtype)
    out = []
    for q in queries:
        t = eng.search(q, k=20, mode="exhaustive", fetch=("url", "doc_id"))
        out.append([(r["doc_id"], round(r["score"], 10), r["url"]) for r in t.to_pylist()])
    return out


QUERIES = [
    MatchQuery("spark join merge"),
    MatchQuery("the fast", operator="and"),
    TermQuery("window"),
    MatchPhraseQuery("batch batch"),
]


def test_force_merge_score_identical(two_indexes, ray_session):
    from elasticsearch_ray.index.merge import force_merge

    idx_a, idx_b = two_indexes
    before = _results(idx_b, QUERIES)
    meta = force_merge(idx_b, max_segments=2)
    assert meta["num_parts"] == 2
    assert _results(idx_b, QUERIES) == before == _results(idx_a, QUERIES)
    # BMW on merged index still equals exhaustive
    from elasticsearch_ray.search.engine import QueryEngine

    eng = QueryEngine(idx_b, dtype="float32")
    for q in QUERIES[:3]:
        a = eng.search(q, k=10, mode="bmw").to_pylist()
        b = eng.search(q, k=10, mode="exhaustive").to_pylist()
        assert [(r["doc_id"], r["score"]) for r in a] == [(r["doc_id"], r["score"]) for r in b]


def test_force_merge_single_segment(two_indexes, ray_session, tmp_path):
    import shutil

    from elasticsearch_ray.index.merge import force_merge

    idx_a, idx_b = two_indexes
    # merge a COPY: the module-scoped fixture is shared with the 6→2 merge
    # test, and mutating idx_b here would make the tests order-dependent
    idx_c = str(tmp_path / "copy")
    shutil.copytree(idx_b, idx_c)
    meta = force_merge(idx_c, max_segments=1)
    assert meta["num_parts"] == 1
    assert _results(idx_c, QUERIES) == _results(idx_a, QUERIES)


def test_plan_tiered_merges():
    from elasticsearch_ray.index.merge import plan_tiered_merges

    small = [{"part": i, "bytes": 1024} for i in range(25)]
    groups = plan_tiered_merges(small)
    assert all(len(g) <= 10 for g in groups)
    assert sum(len(g) for g in groups) >= 20  # below-floor segments merge eagerly
    big = [{"part": i, "bytes": 6 * 1024**3} for i in range(3)]
    assert plan_tiered_merges(big) == []


def test_tiered_merge_rounds(ray_session, tmp_path_factory):
    """tiered_merge: below-floor segments merge eagerly; scores unchanged."""
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.index.merge import tiered_merge
    from elasticsearch_ray.sources.webpages import corpus_for_sf

    corpus = corpus_for_sf("/root/testdata/sf0.001", multiplier=1, num_files=6)
    idx = str(tmp_path_factory.mktemp("tiered") / "index")
    build_index(corpus, idx, IndexSpec(files_per_partition=1), concurrency=2)
    before = _results(idx, QUERIES)
    meta = tiered_merge(idx)  # all 6 tiny segments are below the 2MB floor
    assert meta["num_parts"] < 6
    assert _results(idx, QUERIES) == before


def test_snapshot_create_restore_roundtrip(two_indexes, ray_session, tmp_path):
    """Snapshot → delete original → restore → identical query results;
    incomplete (.tmp) snapshots are invisible to list/restore."""
    import shutil

    from elasticsearch_ray.index.snapshot import (snapshot_create,
                                                  snapshot_delete,
                                                  snapshot_list,
                                                  snapshot_restore)

    idx_a, _ = two_indexes
    repo = str(tmp_path / "repo")
    before = _results(idx_a, QUERIES)
    man = snapshot_create(idx_a, repo, "snap1")
    assert man["files"] > 0 and man["bytes"] > 0
    assert [m["snapshot"] for m in snapshot_list(repo)] == ["snap1"]
    import pytest as _pt

    with _pt.raises(ValueError):
        snapshot_create(idx_a, repo, "snap1")  # immutable
    restored = str(tmp_path / "restored")
    snapshot_restore(repo, "snap1", restored)
    assert _results(restored, QUERIES) == before
    # a killed snapshot (.tmp leftover) is invisible
    import os

    os.makedirs(os.path.join(repo, "dead.tmp"))
    assert [m["snapshot"] for m in snapshot_list(repo)] == ["snap1"]
    with _pt.raises(FileNotFoundError):
        snapshot_restore(repo, "dead", str(tmp_path / "x"))
    snapshot_delete(repo, "snap1")
    assert snapshot_list(repo) == []


def test_snapshot_name_validation(tmp_path):
    import pytest as _pt

    from elasticsearch_ray.index.snapshot import snapshot_create, snapshot_delete

    for bad in ("", "..", "a/b", "x.tmp", "../../evil"):
        with _pt.raises(ValueError):
            snapshot_create("/nonexistent", str(tmp_path), bad)
        with _pt.raises(ValueError):
            snapshot_delete(str(tmp_path), bad)


def test_merged_partition_fetches_source(two_indexes, ray_session, tmp_path):
    """_source fetch and highlighting read a merged partition's input files
    from its manifest lineage: after a 6→1 force_merge they must return what
    the unmerged index returns for the same doc_ids."""
    import json

    from elasticsearch_ray.index.merge import force_merge
    from elasticsearch_ray.search.engine import QueryEngine

    idx_a, _ = two_indexes
    idx_m = str(tmp_path / "merged")
    shutil.copytree(idx_a, idx_m)
    force_merge(idx_m, max_segments=1)
    q = MatchQuery("spark join merge")
    ea, em = QueryEngine(idx_a, dtype="float64"), QueryEngine(idx_m, dtype="float64")
    ha = ea.search(q, k=20, mode="exhaustive", fetch=("doc_id",))
    hm = em.search(q, k=20, mode="exhaustive", fetch=("doc_id",))
    assert ha["doc_id"].to_pylist() == hm["doc_id"].to_pylist()
    assert set(hm["part"].to_pylist()) == {0}
    assert ea.highlight_hits(q, ha) == em.highlight_hits(q, hm)
    for a, m in zip(ha.to_pylist(), hm.to_pylist()):
        assert (ea.fetch_source(a["part"], [a["local"]]).to_pylist()
                == em.fetch_source(m["part"], [m["local"]]).to_pylist())
    # the merged manifest carries the build manifest's keys, input_path flat
    with open(f"{idx_a}/parts/part=00000/manifest.json") as f:
        built_keys = set(json.load(f))
    with open(f"{idx_m}/parts/part=00000/manifest.json") as f:
        merged = json.load(f)
    assert set(merged) == built_keys | {"merged_from"}
    assert all(isinstance(p, str) for p in merged["input_path"])


def _assert_same_segment(idx_a, idx_b):
    """Partition 0 of both indexes: segment files byte-identical, docs equal."""
    import os

    import pyarrow.parquet as pq

    da, db = (os.path.join(i, "parts", "part=00000") for i in (idx_a, idx_b))
    for fname in ("postings.bin", "terms.parquet", "positions.bin"):
        with open(os.path.join(da, fname), "rb") as a, open(os.path.join(db, fname), "rb") as b:
            assert a.read() == b.read(), fname
    assert pq.read_table(os.path.join(da, "docs.parquet")).equals(
        pq.read_table(os.path.join(db, "docs.parquet")))


@pytest.fixture(scope="module")
def fresh_single_partition(ray_session, tmp_path_factory):
    """The two_indexes corpus built straight into one partition."""
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.sources.webpages import corpus_for_sf

    corpus = corpus_for_sf("/root/testdata/sf0.001", multiplier=1, num_files=6)
    idx = str(tmp_path_factory.mktemp("fresh") / "index")
    build_index(corpus, idx, IndexSpec(files_per_partition=6), concurrency=2)
    return idx


@pytest.mark.parametrize("batch_rows", [None, 3])
def test_merge_output_equals_fresh_build(two_indexes, fresh_single_partition,
                                         ray_session, tmp_path, monkeypatch, batch_rows):
    """Merging six one-file partitions into one writes the same bytes as
    building the six files into one partition. With ``batch_rows`` the
    kernel reads 3 rows at a time; that run merges through shrink_index,
    which calls the kernel in this process so the patched constant applies
    (force_merge runs it in a Ray task)."""
    from elasticsearch_ray.index import merge as merge_mod
    from elasticsearch_ray.index.resize import shrink_index

    idx_a, _ = two_indexes
    out = str(tmp_path / "merged")
    if batch_rows is None:
        shutil.copytree(idx_a, out)
        merge_mod.force_merge(out, max_segments=1)
    else:
        monkeypatch.setattr(merge_mod, "MERGE_BATCH_ROWS", batch_rows)
        shrink_index(idx_a, out, 1)
    _assert_same_segment(out, fresh_single_partition)


def test_merge_batches_straddle_sources(ray_session, tmp_path, monkeypatch):
    """Partitions with shifted vocabularies reach each term at different
    batches of each source: with 3-row batches the kernel must still emit
    every term once, exactly as a fresh one-partition build writes it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from elasticsearch_ray.index import merge as merge_mod
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.index.resize import shrink_index

    src = tmp_path / "src"
    src.mkdir()
    for f in range(3):
        words = [f"w{i:02d}" for i in range(10 * f, 10 * f + 25)]
        texts = [" ".join(words[j::4]) for j in range(4)] * 5
        pq.write_table(pa.table({"url": [f"u{f}-{i}" for i in range(len(texts))],
                                 "text": texts}), str(src / f"f{f}.parquet"))
    spec = dict(use_html=False, text_column="text", doc_columns=("url",))
    parts, fresh = str(tmp_path / "parts"), str(tmp_path / "fresh")
    build_index(str(src), parts, IndexSpec(files_per_partition=1, **spec), concurrency=2)
    build_index(str(src), fresh, IndexSpec(files_per_partition=3, **spec), concurrency=2)
    monkeypatch.setattr(merge_mod, "MERGE_BATCH_ROWS", 3)
    shrink_index(parts, str(tmp_path / "merged"), 1)
    _assert_same_segment(str(tmp_path / "merged"), fresh)


def test_merge_bulk_reencode_budget(two_indexes, fresh_single_partition, ray_session,
                                    tmp_path, monkeypatch):
    """A per-call posting budget of 5 splits every step's bulk re-encode into
    many kernel calls (a term with more postings gets one alone); the merged
    segment must still equal a fresh one-partition build byte for byte."""
    from elasticsearch_ray.index import postings
    from elasticsearch_ray.index.resize import shrink_index

    idx_a, _ = two_indexes
    monkeypatch.setattr(postings, "MAX_POSTINGS_PER_CALL", 5)
    shrink_index(idx_a, str(tmp_path / "merged"), 1)
    _assert_same_segment(str(tmp_path / "merged"), fresh_single_partition)


def test_merge_records_reencoded_postings(two_indexes, ray_session, tmp_path):
    """The manifest and the engine's segments view report how many postings
    the merge re-encoded: the summed df of every term found in more than
    one merged partition."""
    from collections import Counter

    import pyarrow.parquet as pq

    from elasticsearch_ray.index.merge import force_merge
    from elasticsearch_ray.search.engine import QueryEngine

    idx_a, _ = two_indexes
    parts, df = Counter(), Counter()
    for p in range(6):
        t = pq.read_table(f"{idx_a}/parts/part={p:05d}/terms.parquet", columns=["term", "df"])
        for term, d in zip(t["term"].to_pylist(), t["df"].to_pylist()):
            parts[term] += 1
            df[term] += d
    shared = [term for term, n in parts.items() if n > 1]
    idx_m = str(tmp_path / "merged")
    shutil.copytree(idx_a, idx_m)
    force_merge(idx_m, max_segments=1)
    row = QueryEngine(idx_m).stats().to_pylist()[0]
    assert row["multi_chunk_terms"] == len(shared)
    assert row["reencoded_postings"] == sum(df[term] for term in shared) > 0


def test_merge_reencode_calls_are_bounded(two_indexes, fresh_single_partition, ray_session,
                                          tmp_path, monkeypatch):
    """Every ``reencode_many`` call of a merge step gets at most
    MAX_POSTINGS_PER_CALL postings (a longer list alone), so its block table
    is bounded per call, and the merged segment still equals a fresh
    one-partition build byte for byte."""
    from elasticsearch_ray.index import merge, postings
    from elasticsearch_ray.index.merge import merge_group

    idx_a, _ = two_indexes
    budget = 40
    monkeypatch.setattr(postings, "MAX_POSTINGS_PER_CALL", budget)
    sizes = []
    orig = merge.reencode_many

    def counted(raw, at, group_starts, *a, **kw):
        enc, eoff = orig(raw, at, group_starts, *a, **kw)
        per_group = np.diff(np.append(np.asarray(group_starts), len(at)))
        sizes.append((len(per_group), int(postings.decode_many(raw, at)[2].sum())))
        return enc, eoff

    monkeypatch.setattr(merge, "reencode_many", counted)
    idx_m = str(tmp_path / "merged")
    shutil.copytree(idx_a, idx_m)
    merge_group(idx_m, list(range(6)))
    assert len(sizes) > 1
    assert all(n <= budget or groups == 1 for groups, n in sizes), sizes
    _assert_same_segment(idx_m, fresh_single_partition)
