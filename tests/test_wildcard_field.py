"""wildcard field type — n-gram approximation + confirmed verification.

Reference semantics: WildcardFieldMapper.java (3-gram index over the
lowercased punctuation-folded anchored value; query patterns become gram
MUST clauses capped at 10; every candidate confirmed against the original
value — BinaryDvConfirmedAutomatonQuery). Ground truth here is always the
brute-force pattern match over the raw values.
"""

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from elasticsearch_ray.index.spec import IndexSpec
from elasticsearch_ray.index.wildcard import (
    _candidates,
    _cached_postings,
    _fragment_tokens,
    _pattern_clauses,
    _regex_required_runs,
    _wildcard_regex,
    build_wildcard_field,
    range_field_search,
    regexp_field_search,
    sidecar_path,
    wildcard_field_search,
)

VALUES = [
    "https://web.example.com/en/page-0-1.html",
    "https://wiki.example.com/de/page-17-2.html",
    "C:/Program Files/app/readme.TXT",
    "c:/program files/app/README.txt",
    "/var/log/syslog.1",
    "/var/log/SysLog.2",
    "short",
    "",
    "a*b?c\\d",                      # wildcard metachars IN the value
    "Ünïcøde-Pfad/übung.html",
    "x" * 300,
    "https://web.example.com/fr/page-99-1.html",
]


def _brute_wildcard(pattern):
    rx = _wildcard_regex(pattern)
    return sorted(i for i, v in enumerate(VALUES) if rx.fullmatch(v))


@pytest.fixture(scope="module")
def wc_index(ray_session, tmp_path_factory):
    from elasticsearch_ray.index.build import build_index

    root = tmp_path_factory.mktemp("wcidx")
    corpus = str(root / "corpus")
    os.makedirs(corpus, exist_ok=True)
    n = len(VALUES)
    t = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array([f"doc {i} body words" for i in range(n)]),
        "lang": pa.array(["en"] * n),
        "url": pa.array(VALUES),
    })
    pq.write_table(t, f"{corpus}/docs.parquet")
    idx = str(root / "index")
    spec = IndexSpec(use_html=False, text_column="text",
                     doc_columns=("lang", "url"))
    build_index(corpus, idx, spec, concurrency=2,
                file_pattern="docs.parquet")
    build_wildcard_field(idx, "url", column="url")
    return idx


WILDCARD_CASES = [
    "*page-17*",
    "https://w*.example.com/*.html",
    "*.html",
    "*readme*",            # case-sensitive: only the lowercase doc
    "*README*",
    "/var/log/?ys?og.?",
    "short",
    "*",
    "?????",               # pure length query
    "?*",
    "*og.1",
    "a\\*b?c*",            # escaped * is literal
    "*üb*",
    "*example*page*1*",
    "nomatch-zzz*",
    "",
]


@pytest.mark.parametrize("pattern", WILDCARD_CASES)
def test_wildcard_matches_brute_force(wc_index, pattern):
    got = wildcard_field_search(wc_index, "url", pattern).tolist()
    assert got == _brute_wildcard(pattern)


def test_wildcard_approximation_prunes(wc_index):
    """Evidence the gram index actually narrows: a selective pattern's
    clause set intersects to exactly the true doc before verification."""
    clauses, _, _ = _pattern_clauses("*page-17*")
    assert any(c[0] == "term" for c in clauses)
    grams, locals_ = _cached_postings(sidecar_path(wc_index, 0, "url"))
    n = pq.ParquetFile(
        os.path.join(os.path.dirname(sidecar_path(wc_index, 0, "url")),
                     "wildcarddv-url.parquet")).metadata.num_rows
    cand = _candidates(grams, locals_, clauses, n)
    assert len(cand) < n  # pruned before the confirm pass


def test_fragment_tokens_and_clauses():
    # short fragment placeholder → prefix clause; markers skipped
    assert _fragment_tokens("\x00") == []
    assert _fragment_tokens("\x00\x00") == []
    assert _fragment_tokens("\x00ab") == ["\x00ab"]
    toks = _fragment_tokens("\x00AbC.d")
    # normalized: lowercase + punctuation folded to '/'
    assert toks[0] == "\x00ab" and "abc" in toks and "c/d" in toks
    # clause cap (WildcardFieldMapper.java:91)
    clauses, _, _ = _pattern_clauses("abcdefghijklmnopqrstuvwxyz")
    assert len(clauses) == 10


REGEX_CASES = [
    r"https://w.*\.example\.com/.*\.html",
    r".*page-[0-9]+-1\.html",
    r"/var/log/.*",
    r".*(readme|README).*",        # alternation → no acceleration, verified
    r"short",
    r".*üb.ng.*",
    r"x{200,}",
    r".*page-17.*|short",
    r"[a-z]+://wiki.*",
]


@pytest.mark.parametrize("pattern", REGEX_CASES)
def test_regexp_matches_brute_force(wc_index, pattern):
    rx = re.compile(pattern, re.DOTALL)
    want = sorted(i for i, v in enumerate(VALUES) if rx.fullmatch(v))
    got = regexp_field_search(wc_index, "url", pattern).tolist()
    assert got == want


def test_regex_required_runs_conservative():
    assert _regex_required_runs("a|b") is None
    # optional atom dropped from the run, required tail anchored
    runs = _regex_required_runs("ab*c")
    assert any(r.startswith("\x00a") for r in runs)
    assert any(r.endswith("c\x00\x00") for r in runs)
    # group contents skipped, alternation inside a group doesn't poison
    runs = _regex_required_runs("pre(foo|bar)post")
    assert any("pre" in r for r in runs) and any("post" in r for r in runs)
    assert not any("foo" in r for r in runs)
    # x{0,2} optional → dropped; x{2} required → kept
    assert any("a" in r for r in _regex_required_runs("za{2}"))


def test_range_matches_brute_force(wc_index):
    lo, hi = "/var/log/a", "/var/log/z"
    want = sorted(i for i, v in enumerate(VALUES) if lo <= v <= hi)
    got = range_field_search(wc_index, "url", gte=lo, lte=hi).tolist()
    assert got == want
    # exclusive bounds
    want = sorted(i for i, v in enumerate(VALUES)
                  if "https://web" < v < "https://wil")
    got = range_field_search(wc_index, "url", gt="https://web",
                             lt="https://wil").tolist()
    assert got == want
    # one-sided (no acceleration — full confirm scan)
    want = sorted(i for i, v in enumerate(VALUES) if v >= "short")
    assert range_field_search(wc_index, "url", gte="short").tolist() == want


def test_missing_sidecar_raises(wc_index):
    with pytest.raises(FileNotFoundError):
        wildcard_field_search(wc_index, "nope", "*x*")


def test_trailing_backslash_is_literal(ray_session, tmp_path_factory):
    """review r5 #8: a trailing backslash must not escape the end anchor —
    the approximation and the verify regex must agree it is a literal."""
    from elasticsearch_ray.index.build import build_index

    root = tmp_path_factory.mktemp("wcbs")
    corpus = str(root / "corpus")
    os.makedirs(corpus, exist_ok=True)
    vals = ["abc\\", "abc", "abcd"]
    t = pa.table({
        "doc_id": pa.array(np.arange(3, dtype=np.int64)),
        "text": pa.array(["x y z"] * 3),
        "lang": pa.array(["en"] * 3),
        "url": pa.array(vals),
    })
    pq.write_table(t, f"{corpus}/docs.parquet")
    idx = str(root / "index")
    build_index(corpus, idx,
                IndexSpec(use_html=False, text_column="text",
                          doc_columns=("lang", "url")),
                concurrency=1, file_pattern="docs.parquet")
    build_wildcard_field(idx, "url", column="url")
    assert wildcard_field_search(idx, "url", "abc\\").tolist() == [0]
    assert wildcard_field_search(idx, "url", "abc").tolist() == [1]


def test_range_handles_null_values(ray_session, tmp_path_factory):
    """review r5 #4: nulls never match a range and must not crash the
    one-sided (no-acceleration) confirm scan."""
    from elasticsearch_ray.index.build import build_index

    root = tmp_path_factory.mktemp("wcnull")
    corpus = str(root / "corpus")
    os.makedirs(corpus, exist_ok=True)
    t = pa.table({
        "doc_id": pa.array(np.arange(3, dtype=np.int64)),
        "text": pa.array(["x"] * 3),
        "lang": pa.array(["en"] * 3),
        "url": pa.array(["alpha", None, "zeta"]),
    })
    pq.write_table(t, f"{corpus}/docs.parquet")
    idx = str(root / "index")
    build_index(corpus, idx,
                IndexSpec(use_html=False, text_column="text",
                          doc_columns=("lang", "url")),
                concurrency=1, file_pattern="docs.parquet")
    build_wildcard_field(idx, "url", column="url")
    assert range_field_search(idx, "url", gte="a").tolist() == [0, 2]
    assert range_field_search(idx, "url", gte="alpha",
                              lte="zeta").tolist() == [0, 2]


def test_merge_between_snapshot_and_part_jobs_is_stale(tmp_path, monkeypatch):
    """A merge that lands after the search took its snapshot and before the
    part jobs read their sidecars: each job checks its part's snapshot
    stamp after reading, so the search raises ``StaleCommitError`` instead
    of adding the old bases to the merged slot's ids, or a bare
    ``FileNotFoundError`` for a merged-away part."""
    from types import SimpleNamespace

    from elasticsearch_ray.index import lanes, state, wildcard
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.index.merge import force_merge

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for f in range(3):
        ids = np.arange(4 * f, 4 * f + 4)
        pq.write_table(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(["x y z"] * 4),
            "lang": pa.array(["en"] * 4),
            "url": pa.array([VALUES[i] for i in ids]),
        }), str(corpus / f"docs{f}.parquet"))
    idx = str(tmp_path / "index")
    build_index(str(corpus), idx,
                IndexSpec(use_html=False, text_column="text", doc_columns=("lang", "url"),
                          files_per_partition=1),
                concurrency=1, file_pattern="docs*.parquet")
    build_wildcard_field(idx, "url", column="url")
    assert len(state.snapshot(idx).parts) == 3
    assert wildcard_field_search(idx, "url", "*.html").tolist() == _brute_wildcard("*.html")

    def merge_first(fn, jobs, width=None):
        force_merge(idx, 1)  # lands between _run_parts' snapshot and its jobs
        return lanes.run(fn, jobs, width)

    monkeypatch.setattr(wildcard, "lanes", SimpleNamespace(run=merge_first))
    with pytest.raises(state.StaleCommitError):
        wildcard_field_search(idx, "url", "*.html")
    monkeypatch.undo()
    assert len(state.snapshot(idx).parts) == 1
    assert wildcard_field_search(idx, "url", "*.html").tolist() == _brute_wildcard("*.html")
