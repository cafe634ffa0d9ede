"""Incremental ingestion: appending input files to a corpus and re-running
build_index tokenizes only the new files — they go into new partitions or
fold into the committed tail partition — the append-only data-stream/
rollover analog, falling out of planning from the committed lineage and
contiguous doc-id planning. A refreshed index's segment files are those of
a fresh build of the same files."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from elasticsearch_ray.index.spec import IndexSpec
from elasticsearch_ray.search.query import MatchQuery


def _write_file(src, name, words, n=40, base=0):
    pq.write_table(
        pa.Table.from_pandas(
            pd.DataFrame({"id": range(base, base + n), "text": [words] * n}),
            preserve_index=False,
        ),
        src / name,
    )


def test_incremental_append(ray_session, tmp_path):
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.search.engine import QueryEngine

    src = tmp_path / "src"
    src.mkdir()
    for i, words in enumerate(["alpha beta", "beta gamma", "gamma delta", "delta alpha"]):
        _write_file(src, f"f-{i:02d}.parquet", words, base=i * 40)
    idx = str(tmp_path / "idx")
    spec = IndexSpec(use_html=False, text_column="text", doc_columns=("id",),
                     files_per_partition=2)
    meta1 = build_index(str(src), idx, spec, concurrency=2)
    assert meta1["num_parts"] == 2 and meta1["n_docs"] == 160
    mtime0 = os.path.getmtime(os.path.join(idx, "parts", "part=00000", "postings.bin"))

    eng1 = QueryEngine(idx, dtype="float64")
    n_beta_1 = eng1.search(MatchQuery("beta"), k=1000).num_rows

    # append two files (sort AFTER the existing ones → stable planning)
    _write_file(src, f"f-04.parquet", "epsilon beta", base=160)
    _write_file(src, f"f-05.parquet", "zeta epsilon", base=200)
    meta2 = build_index(str(src), idx, spec, concurrency=2)
    assert meta2["num_parts"] == 3 and meta2["n_docs"] == 240

    # untouched partitions were NOT rebuilt
    assert os.path.getmtime(os.path.join(idx, "parts", "part=00000", "postings.bin")) == mtime0

    # fresh engine sees the union with updated global stats
    eng2 = QueryEngine(idx, dtype="float64")
    assert eng2.search(MatchQuery("beta"), k=1000).num_rows == n_beta_1 + 40
    assert eng2.search(MatchQuery("zeta"), k=1000).num_rows == 40
    assert eng2.n_docs == 240
    # global df for 'beta' must include the appended partition (dfs semantics)
    assert eng2._global_stats(["beta"])["beta"] == 120


def test_incremental_partial_boundary_partition(ray_session, tmp_path):
    """Appending into a partial trailing partition extends only it."""
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.search.engine import QueryEngine

    src = tmp_path / "src"
    src.mkdir()
    for i in range(3):  # fpp=2 → part0 full (2 files), part1 partial (1 file)
        _write_file(src, f"g-{i:02d}.parquet", f"word{i} shared", base=i * 40)
    idx = str(tmp_path / "idx")
    spec = IndexSpec(use_html=False, text_column="text", doc_columns=("id",),
                     files_per_partition=2)
    build_index(str(src), idx, spec, concurrency=2)
    m0 = os.path.getmtime(os.path.join(idx, "parts", "part=00000", "postings.bin"))
    m1 = os.path.getmtime(os.path.join(idx, "parts", "part=00001", "postings.bin"))
    import hashlib as _hl

    h1 = _hl.md5(open(os.path.join(idx, "parts", "part=00001", "postings.bin"),
                      "rb").read()).hexdigest()

    _write_file(src, "g-03.parquet", "word3 shared", base=120)
    meta = build_index(str(src), idx, spec, concurrency=2)
    assert meta["num_parts"] == 2 and meta["n_docs"] == 160
    # part 0 untouched; part 1 (its file list grew) extended — mtime can tie
    # on coarse-granularity filesystems, so the rewrite is proven by CONTENT
    assert os.path.getmtime(os.path.join(idx, "parts", "part=00000", "postings.bin")) == m0
    h1b = _hl.md5(open(os.path.join(idx, "parts", "part=00001", "postings.bin"),
                       "rb").read()).hexdigest()
    assert h1b != h1, "part 1 postings must change (new docs merged in)"
    eng = QueryEngine(idx, dtype="float64")
    assert eng.search(MatchQuery("shared"), k=1000).num_rows == 160
    assert eng.search(MatchQuery("word3"), k=1000).num_rows == 40


# ---------------------------------------------------------------- refresh == fresh build

_WORDS = ("alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi "
          "omicron pi rho sigma tau upsilon phi chi psi omega").split()


def _write_random(src, name, seed, n=20, base=0):
    """``n`` docs of seeded random text (varied lengths, so scores differ)
    and a short ``title``."""
    import numpy as np

    rng = np.random.default_rng(seed)
    pq.write_table(pa.table({
        "id": list(range(base, base + n)),
        "text": [" ".join(rng.choice(_WORDS, rng.integers(3, 16))) for _ in range(n)],
        "title": [" ".join(rng.choice(_WORDS[:8], rng.integers(1, 4))) for _ in range(n)],
    }), src / name)


def _segments(idx):
    """{part: {file: bytes}} of the segment files, and {part: docs rows}."""
    from elasticsearch_ray.index import state

    snap = state.snapshot(idx)
    files, docs = {}, {}
    for p in snap.part_ids:
        pdir = os.path.join(idx, "parts", f"part={p:05d}")
        files[p] = {f: open(os.path.join(pdir, f), "rb").read()
                    for f in ("postings.bin", "positions.bin", "terms.parquet")
                    if os.path.exists(os.path.join(pdir, f))}
        docs[p] = pq.read_table(os.path.join(pdir, "docs.parquet")).to_pylist()
    return files, docs


def _top(idx, text, mode, k=15):
    from elasticsearch_ray.search.engine import QueryEngine

    eng = QueryEngine(idx, dtype="float64")
    return [(r["doc_id"], r["score"]) for r in
            eng.search(MatchQuery(text), k=k, mode=mode, fetch=("doc_id",)).to_pylist()]


def _tokenized(monkeypatch):
    """The file names TokenizeShard reads, recorded per build."""
    from elasticsearch_ray.index import build

    seen = []
    orig = build.TokenizeShard._one_shard
    monkeypatch.setattr(build.TokenizeShard, "_one_shard",
                        lambda self, shard: seen.append(os.path.basename(shard["path"]))
                        or orig(self, shard))
    return seen


def _assert_fresh_equal(src, idx, spec, tmp_path):
    """``idx`` has the part ids, segment bytes and docs of a fresh build of
    ``src``; returns the fresh index."""
    from elasticsearch_ray.index import state
    from elasticsearch_ray.index.build import build_index

    fresh = str(tmp_path / f"fresh-{len(os.listdir(src))}")
    build_index(str(src), fresh, spec, concurrency=1)
    assert state.snapshot(idx).part_ids == state.snapshot(fresh).part_ids
    assert state.snapshot(idx).n_docs == state.snapshot(fresh).n_docs
    assert _segments(idx) == _segments(fresh)
    return fresh


@pytest.mark.parametrize("fpp", [8, 3, 1])
@pytest.mark.parametrize("variant", ["positions", "no_positions", "multi_field"])
def test_refresh_equals_fresh_build(ray_session, tmp_path, monkeypatch, fpp, variant):
    """Files appended one at a time, each followed by a build: every build
    tokenizes only the appended file, and the index has the part ids, the
    byte-identical postings/positions/terms and the docs rows of a fresh
    build of the same files — whether the file folds into the committed
    tail part (its norms and, multi-field, its norm_*/doclen_* columns
    concatenate) or opens a new part."""
    from elasticsearch_ray.index.build import build_index

    spec = IndexSpec(use_html=False, text_column="text", doc_columns=("id",),
                     files_per_partition=fpp, store_positions=variant != "no_positions",
                     fields={"title": "title"} if variant == "multi_field" else None)
    src = tmp_path / "src"
    src.mkdir()
    for i in range(2):
        _write_random(src, f"f-{i:02d}.parquet", seed=i, base=20 * i)
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, spec, concurrency=1)
    seen = _tokenized(monkeypatch)
    for i in range(2, 7):
        _write_random(src, f"f-{i:02d}.parquet", seed=i, base=20 * i)
        build_index(str(src), idx, spec, concurrency=1)
        assert seen == [f"f-{i:02d}.parquet"], i
        fresh = _assert_fresh_equal(src, idx, spec, tmp_path)
        seen.clear()
    for mode in ("bmw", "exhaustive"):
        assert _top(idx, "alpha omega", mode) == _top(fresh, "alpha omega", mode)


def test_append_after_merge_keeps_the_merged_part(ray_session, tmp_path):
    """A tiered_merge joins one-file parts; later appends plan from the
    committed lineage, so the merged part (whose lineage is its inputs'
    concatenation) is kept and each appended file is its own new part —
    not, as a positional plan would have it, a rebuild of every part."""
    from elasticsearch_ray.index import state
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.index.merge import tiered_merge

    spec = IndexSpec(use_html=False, text_column="text", doc_columns=("id",),
                     files_per_partition=1)
    src = tmp_path / "src"
    src.mkdir()
    for i in range(4):
        _write_random(src, f"f-{i:02d}.parquet", seed=10 + i, base=20 * i)
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, spec, concurrency=1)
    tiered_merge(idx)
    merged = state.snapshot(idx)
    assert merged.part_ids == [0]
    for i in (4, 5):
        _write_random(src, f"f-{i:02d}.parquet", seed=10 + i, base=20 * i)
        build_index(str(src), idx, spec, concurrency=1)
    snap = state.snapshot(idx)
    assert snap.part_ids == [0, 1, 2] and snap.n_docs == 120
    assert snap.part(0).stamp == merged.part(0).stamp
    for p, i in ((1, 4), (2, 5)):
        assert snap.part(p).manifest["input_path"] == [str(src / f"f-{i:02d}.parquet")]
    fresh = str(tmp_path / "fresh")
    build_index(str(src), fresh, spec, concurrency=1)
    for mode in ("bmw", "exhaustive"):
        for text in ("alpha omega", "beta gamma delta", "psi"):
            assert _top(idx, text, mode, k=30) == _top(fresh, text, mode, k=30), (mode, text)


def test_crashed_fold_rebuilds_the_tail_from_its_files(ray_session, tmp_path, monkeypatch):
    """A fold that dies inside write_segment — the tail's manifest retracted
    and its postings.bin already replaced — leaves the tail uncommitted; the
    next build re-plans it from its files and the index equals a fresh
    build."""
    from elasticsearch_ray.index import merge, state
    from elasticsearch_ray.index.build import build_index

    spec = IndexSpec(use_html=False, text_column="text", doc_columns=("id",),
                     files_per_partition=3)
    src = tmp_path / "src"
    src.mkdir()
    for i in range(4):  # part 0: three files, part 1 (the tail): one
        _write_random(src, f"f-{i:02d}.parquet", seed=20 + i, base=20 * i)
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, spec, concurrency=1)
    _write_random(src, "f-04.parquet", seed=24, base=80)

    real = merge.atomic_write_table

    def crash(tbl, path, **kw):
        if path.endswith("terms.parquet"):
            raise RuntimeError("crash mid-fold")
        return real(tbl, path, **kw)

    with monkeypatch.context() as m:
        m.setattr(merge, "atomic_write_table", crash)
        with pytest.raises(RuntimeError, match="crash mid-fold"):
            build_index(str(src), idx, spec, concurrency=1)
    snap = state.snapshot(idx)
    assert snap.part_ids == [0, 1] and snap.part(1).manifest is None
    seen = _tokenized(monkeypatch)
    build_index(str(src), idx, spec, concurrency=1)
    assert seen == ["f-03.parquet", "f-04.parquet"]
    fresh = _assert_fresh_equal(src, idx, spec, tmp_path)
    assert _top(idx, "alpha omega", "bmw") == _top(fresh, "alpha omega", "bmw")


def test_crashed_fresh_build_resumes_part_by_part(ray_session, tmp_path, monkeypatch):
    """A fresh build that dies before its first commit of the index meta
    plans positionally on the re-run: the parts it committed are kept and
    only the rest is tokenized."""
    from elasticsearch_ray.index import build, state

    spec = IndexSpec(use_html=False, text_column="text", doc_columns=("id",),
                     files_per_partition=1)
    src = tmp_path / "src"
    src.mkdir()
    for i in range(3):
        _write_random(src, f"f-{i:02d}.parquet", seed=50 + i, base=20 * i)
    idx = str(tmp_path / "idx")
    real = build._merge_fn

    def crash(index_dir, spec_dict, part, *a):
        if part == 2:
            raise RuntimeError("crash before the meta commit")
        return real(index_dir, spec_dict, part, *a)

    with monkeypatch.context() as m:
        m.setattr(build, "_merge_fn", crash)
        with pytest.raises(RuntimeError, match="crash before"):
            build.build_index(str(src), idx, spec, concurrency=1)
    assert not state.exists(idx)
    stamps = [state.load_manifest(os.path.join(idx, "parts", f"part={p:05d}"))[1]
              for p in (0, 1)]
    seen = _tokenized(monkeypatch)
    build.build_index(str(src), idx, spec, concurrency=1)
    assert seen == ["f-02.parquet"]
    assert [state.snapshot(idx).part(p).stamp for p in (0, 1)] == stamps
    _assert_fresh_equal(src, idx, spec, tmp_path)


@pytest.mark.parametrize("change", ["rewrite", "insert_middle", "insert_first", "remove"])
def test_changed_inputs_replan_from_the_first_mismatch(ray_session, tmp_path, change):
    """A covered file rewritten with other bytes (and rows), a file whose
    name sorts before covered ones, or a removed file: the parts before the
    first mismatch keep their commit, the rest are re-planned, n_docs and
    the doc ids stay contiguous, and hits equal a fresh build."""
    import numpy as np

    from elasticsearch_ray.index import state
    from elasticsearch_ray.index.build import build_index

    spec = IndexSpec(use_html=False, text_column="text", doc_columns=("id",),
                     files_per_partition=1)
    src = tmp_path / "src"
    src.mkdir()
    for i in range(4):
        _write_random(src, f"f-{2 * i:02d}.parquet", seed=30 + i, base=20 * i)
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, spec, concurrency=1)
    before = state.snapshot(idx).stamps
    if change == "rewrite":  # f-02 is part 1's file; 25 rows moves later bases
        _write_random(src, "f-02.parquet", seed=99, n=25)
        first = 1
    elif change == "insert_middle":
        _write_random(src, "f-03.parquet", seed=98)
        first = 2
    elif change == "insert_first":
        _write_random(src, "a-00.parquet", seed=97)
        first = 0
    else:
        os.remove(src / "f-02.parquet")
        first = 1
    build_index(str(src), idx, spec, concurrency=1)
    snap = state.snapshot(idx)
    kept = {p for p, st in snap.stamps.items() if before.get(p) == st}
    assert kept == set(range(first)), kept
    assert sorted(os.listdir(os.path.join(idx, "parts"))) == [
        f"part={p:05d}" for p in snap.part_ids]
    n = sum(pq.read_metadata(str(src / f)).num_rows for f in os.listdir(src))
    assert snap.n_docs == n
    ids = np.concatenate([pq.read_table(os.path.join(idx, "parts", f"part={p:05d}",
                                                     "docs.parquet"))["doc_id"].to_numpy()
                          for p in snap.part_ids])
    assert ids.tolist() == list(range(n))
    fresh = _assert_fresh_equal(src, idx, spec, tmp_path)
    for mode in ("bmw", "exhaustive"):
        assert _top(idx, "alpha omega", mode, k=30) == _top(fresh, "alpha omega", mode, k=30)


def test_fold_drops_sidecars_until_rebuilt(ray_session, tmp_path):
    """A fold rewrites the tail part, so the rank_features and wildcard
    sidecars read as incomplete (their records dropped, the tail's files
    gone) until rebuilt; rebuilt, they answer as on a fresh index."""
    import numpy as np

    from elasticsearch_ray.index import state
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.index.rank_features import build_rank_features
    from elasticsearch_ray.index.wildcard import build_wildcard_field, wildcard_field_search
    from elasticsearch_ray.search.engine import QueryEngine
    from elasticsearch_ray.search.query import RankFeatureQuery

    def sidecars(idx):
        n = state.snapshot(idx).n_docs
        ids = np.arange(n, dtype=np.int64)
        build_rank_features(idx, "tags", pa.table({
            "doc_id": ids, "feature": ["f_a"] * n, "weight": 1.0 + (ids % 5) * 0.5}))
        build_wildcard_field(idx, "u", values=pa.table({
            "doc_id": ids, "value": [f"/docs/{i % 7}/page-{i}.html" for i in range(n)]}))

    def hits(idx):
        q = RankFeatureQuery(field="tags.f_a")
        tbl = QueryEngine(idx, dtype="float64").search(q, k=1000, mode="exhaustive",
                                                      fetch=("doc_id",))
        return ([(r["doc_id"], r["score"]) for r in tbl.to_pylist()],
                wildcard_field_search(idx, "u", "/docs/3/*1?.html").tolist())

    spec = IndexSpec(use_html=False, text_column="text", doc_columns=("id",),
                     files_per_partition=2)
    src = tmp_path / "src"
    src.mkdir()
    for i in range(3):
        _write_random(src, f"f-{i:02d}.parquet", seed=40 + i, base=20 * i)
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, spec, concurrency=1)
    sidecars(idx)
    assert state.snapshot(idx).sidecar_complete("rankfeat", "tags")
    _write_random(src, "f-03.parquet", seed=43, base=60)
    build_index(str(src), idx, spec, concurrency=1)  # folds f-03 into part 1
    snap = state.snapshot(idx)
    assert snap.part(1).manifest["input_path"][-1].endswith("f-03.parquet")
    assert not snap.sidecar_complete("rankfeat", "tags")
    assert not snap.sidecar_complete("wildcard", "u")
    assert not any(f.startswith(("rankfeat-", "wildcard"))
                   for f in os.listdir(os.path.join(idx, "parts", "part=00001")))
    sidecars(idx)
    fresh = str(tmp_path / "fresh")
    build_index(str(src), fresh, spec, concurrency=1)
    sidecars(fresh)
    assert hits(idx) == hits(fresh) and len(hits(idx)[0]) == 80


def test_rank_features_refuse_a_sidecar_the_commit_does_not_record(ray_session, tmp_path):
    """An append drops the rank_features record while the kept parts still
    hold their sidecar files: a sidecar-scored query names the field in a
    ValueError instead of scoring the kept parts' files (or failing in the
    new part); rebuilt, it answers over every part, also on an engine opened
    before the rebuild."""
    import numpy as np

    from elasticsearch_ray.index import state
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.index.rank_features import build_rank_features
    from elasticsearch_ray.search.engine import QueryEngine
    from elasticsearch_ray.search.query import (RankFeatureQuery, SparseVectorQuery,
                                                WeightedTokensQuery)

    def sidecar(idx):
        ids = np.arange(state.snapshot(idx).n_docs, dtype=np.int64)
        build_rank_features(idx, "tags", pa.table({
            "doc_id": ids, "feature": ["f"] * len(ids), "weight": 1.0 + (ids % 3) * 0.5}))

    queries = (RankFeatureQuery("tags.f", pivot=1.0), RankFeatureQuery("tags.f"),
               WeightedTokensQuery(field="tags", tokens=(("f", 1.0),)),
               SparseVectorQuery(field="tags", tokens=(("f", 1.0),), prune=True))
    spec = IndexSpec(use_html=False, text_column="text", doc_columns=("id",),
                     files_per_partition=1)
    src = tmp_path / "src"
    src.mkdir()
    for i in range(2):
        _write_random(src, f"f-{i:02d}.parquet", seed=60 + i, base=20 * i)
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, spec, concurrency=1)
    sidecar(idx)
    assert len(QueryEngine(idx).search(queries[0], k=100)) == 40
    _write_random(src, "f-02.parquet", seed=62, base=40)
    build_index(str(src), idx, spec, concurrency=1)  # opens part 2
    eng = QueryEngine(idx)
    assert eng.parts == [0, 1, 2]
    for q in queries:
        with pytest.raises(ValueError, match="rank_features field 'tags'"):
            eng.search(q, k=100)
        with pytest.raises(ValueError, match="rank_features field 'tags'"):
            eng.count(q)
    sidecar(idx)  # the engine opened before the rebuild sees it: same part commits
    for q in queries:
        hits = eng.search(q, k=100)
        assert len(hits) == 60 and set(hits["part"].to_pylist()) == {0, 1, 2}
