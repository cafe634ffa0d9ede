"""The build's two executors: a one-lane build runs its stages inline in the
calling process, a wider one through Ray Data. Both must write the same
segment bytes, and the driver-side head-term sketch must pick the same
heads whether the analyzer batches or not."""

import json
import os
from collections import Counter

import pyarrow.parquet as pq
import pytest

from elasticsearch_ray.analysis.analyzers import get_analyzer
from elasticsearch_ray.index import build
from elasticsearch_ray.index.build import build_index, sketch_head_terms
from elasticsearch_ray.index.spec import IndexSpec
from elasticsearch_ray.sources.webpages import corpus_for_sf, corpus_files, plan_shards
from test_pit import SF_DIR  # the sf0.001 corpus (TESTDATA.md)

# forced head-term salting, positions (the default), html input, and two
# files per partition
SPEC = IndexSpec(use_html=True, files_per_partition=2, salt_docs=16, head_df_ratio=0.01)
DATA_FILES = ("docs.parquet", "positions.bin", "postings.bin", "termbloom.bin",
              "terms.parquet")


def _segments(idx: str) -> tuple[dict, dict]:
    """{(partition, file): bytes} for every segment data file, and
    {partition: manifest without elapsed_sec and runs_merged}."""
    files, manifests = {}, {}
    parts = os.path.join(idx, "parts")
    for p in sorted(os.listdir(parts)):
        for f in DATA_FILES:
            with open(os.path.join(parts, p, f), "rb") as fh:
                files[(p, f)] = fh.read()
        with open(os.path.join(parts, p, "manifest.json")) as fh:
            m = json.load(fh)
        manifests[p] = {k: v for k, v in m.items() if k not in ("elapsed_sec", "runs_merged")}
    return files, manifests


def test_inline_and_ray_data_builds_write_identical_segments(ray_session, tmp_path):
    files = corpus_files(corpus_for_sf(SF_DIR, multiplier=1, num_files=5))
    src = tmp_path / "src"
    src.mkdir()
    for f in files[:3]:
        os.symlink(f, src / os.path.basename(f))
    inline, ray_data = str(tmp_path / "inline"), str(tmp_path / "ray_data")
    # fresh: parts {0: files 0-1, 1: file 2}; append: file 3 folds into
    # part 1 and file 4 opens part 2 — only those two files are tokenized
    # (two tokenize blocks under concurrency=2)
    for step in ("fresh", "append"):
        if step == "append":
            for f in files[3:5]:
                os.symlink(f, src / os.path.basename(f))
        build_index(str(src), inline, SPEC, concurrency=1)
        assert build.LAST_BUILD_STATS["executor"] == "inline", step
        build_index(str(src), ray_data, SPEC, concurrency=2)
        assert build.LAST_BUILD_STATS["executor"] == "ray_data", step
        a_files, a_manifests = _segments(inline)
        b_files, b_manifests = _segments(ray_data)
        assert a_files.keys() == b_files.keys()
        assert len(a_files) == len(a_manifests) * len(DATA_FILES)
        for key in a_files:
            assert a_files[key] == b_files[key], (step, key)
        assert a_manifests == b_manifests, step
        assert sum(m["multi_chunk_terms"] for m in a_manifests.values()) > 0, step
        assert [len(m["input_path"]) for m in a_manifests.values()] == \
            ([2, 1] if step == "fresh" else [2, 2, 1])


def _counter_heads(shards, spec, analyzer: str) -> set:
    """Per-doc reference: every doc of every shard (the sample covers them
    all here), its distinct terms counted once."""
    an = get_analyzer(analyzer)
    df, n = Counter(), 0
    for sh in shards:
        for text in pq.read_table(sh["path"], columns=["text"])["text"].to_pylist():
            df.update(set(an(text or "")[0]))
            n += 1
    return {t for t, c in df.items() if c / n >= spec.head_df_ratio}


@pytest.mark.parametrize("analyzer", ["standard", "stop"])
def test_sketch_head_terms_matches_a_per_doc_counter(analyzer):
    """``standard`` takes the batched ``analyze_block`` path; ``stop``
    declines to batch (stopword position gaps) and analyzes per doc."""
    shards = plan_shards(corpus_for_sf(SF_DIR, multiplier=1, num_files=3))
    spec = IndexSpec(analyzer=analyzer, head_df_ratio=0.2, sample_docs=100_000)
    assert spec.sample_docs // len(shards) >= max(s["rows"] for s in shards)
    assert (get_analyzer(analyzer).analyze_block(["a b"]) is None) == (analyzer == "stop")
    got = sketch_head_terms(shards, spec)
    assert got == _counter_heads(shards, spec, analyzer)
    assert 0 < len(got) < len(_counter_heads(shards, IndexSpec(head_df_ratio=0.0), analyzer))
