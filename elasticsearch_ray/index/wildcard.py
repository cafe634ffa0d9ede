"""``wildcard`` field type — n-gram-accelerated pattern matching.

Reference semantics: ``x-pack/plugin/wildcard/src/main/java/org/elasticsearch/
xpack/wildcard/mapper/WildcardFieldMapper.java`` — a keyword-like field built
for efficient ``wildcard`` / ``regexp`` / ``range`` queries over
machine-generated values (paths, URLs). The mapper indexes:

1. an **n-gram approximation index**: the value is lowercased with every
   non-letter/digit codepoint folded to ``/`` (``PunctuationFoldingFilter``,
   WildcardFieldMapper.java:115-163), anchored with a start marker ``\\x00``
   and end marker ``\\x00\\x00`` (``addLineEndChars``, :246-248), and split
   into 3-grams (``NGRAM_SIZE = 3``, :92);
2. **binary doc values** holding the original bytes, used by
   ``BinaryDvConfirmedAutomatonQuery`` to verify every approximation hit
   against the real pattern automaton.

Query time (``wildcardQuery``, :280-346): the *pattern* is anchored the same
way, split into concrete fragments at ``*`` / ``?`` (honouring ``\\``
escapes), each fragment is 3-grammed with the same analyzer, and up to
``MAX_CLAUSES_IN_APPROXIMATION_QUERY = 10`` (:91) grams become MUST clauses —
full grams as term clauses, shorter leftovers as gram-PREFIX clauses
(``addClause``, :610-628). Candidates are then confirmed against the original
value. ``rangeQuery`` (:631-695) accelerates with the grams of the bounds'
common prefix; ``regexpQuery`` (:352-394) with required literals extracted
from the pattern.

Ray-Data shape
--------------
Build is one job per existing index partition (NO shuffle): each job
reads its own partition's ``docs.parquet`` column (or its slice of a supplied
(doc_id, value) table), computes deduped 3-gram keys vectorized (codepoints
via ``utf-32-le`` views, grams packed into ONE uint64: 21 bits per codepoint,
so gram-prefix queries are contiguous key ranges), and writes two atomic
per-partition sidecars: ``wildcard-<field>.parquet`` (gram:uint64,
local:int32, sorted) — the postings analog — and ``wildcarddv-<field>.parquet``
(the original values in local-docid order, small row groups) — the binary
doc-values analog. Serving is one job per partition against a warm
module-level cache (the ``_VPART_CACHE`` model of ``index/vectors.py``):
searchsorted gram ranges → rarest-first sorted intersection → candidate rows
fetched with row-group pushdown → vectorized regex confirmation; ``index.lanes``
places both. Scale story: the scan side touches only gram-key ranges (never
values) and the expensive confirm pass reads exactly the candidate row groups.

Deliberate divergence (documented): the reference returns an *unverified*
``DocValuesFieldExistsQuery`` for patterns with no concrete grams but a
``*`` (so ``?*`` can false-positive on an empty value); we always confirm
candidates against the pattern, which is never less exact.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from elasticsearch_ray.index import lanes, state
from elasticsearch_ray.index.segments import atomic_write_table, part_dir

NGRAM = 3
MAX_APPROX_CLAUSES = 10  # WildcardFieldMapper.java:91
_TOKEN_START = "\x00"          # TOKEN_START_STRING (:247)
_TOKEN_END = "\x00\x00"        # TOKEN_END_STRING (:248)
# PunctuationFoldingFilter.normalize: keep \x00 markers, fold every
# non-letter/digit to '/', lowercase the rest (:155-163). \w == unicode
# letters+digits+underscore, so fold underscore explicitly.
_FOLD = re.compile(r"[^\w\x00]|_", re.UNICODE)
_SHIFT1 = np.uint64(42)
_SHIFT2 = np.uint64(21)


def _normalize(s: str) -> str:
    return _FOLD.sub("/", s.lower())


def _gram_keys(anchored: str) -> np.ndarray:
    """All 3-gram keys of an anchored string, deduped, as sorted uint64."""
    cp = np.frombuffer(anchored.encode("utf-32-le"),
                       dtype=np.uint32).astype(np.uint64)
    k = (cp[:-2] << _SHIFT1) | (cp[1:-1] << _SHIFT2) | cp[2:]
    return np.unique(k)


def _pack3(g: str) -> int:
    a, b, c = (ord(g[0]), ord(g[1]), ord(g[2]))
    return (a << 42) | (b << 21) | c


def _prefix_range(g: str) -> tuple[int, int]:
    """Contiguous uint64 key range of grams starting with a 1/2-char prefix."""
    if len(g) == 2:
        a, b = ord(g[0]), ord(g[1])
        lo = (a << 42) | (b << 21)
        return lo, lo + (1 << 21)
    lo = ord(g[0]) << 42
    return lo, lo + (1 << 42)


def sidecar_path(index_dir: str, part: int, field: str) -> str:
    return os.path.join(part_dir(index_dir, part),
                        f"wildcard-{field}.parquet")


def dv_path(index_dir: str, part: int, field: str) -> str:
    return os.path.join(part_dir(index_dir, part),
                        f"wildcarddv-{field}.parquet")


def _write_part(index_dir: str, field: str, part: int,
                values: list[str]) -> int:
    grams, owners = [], []
    for i, v in enumerate(values):
        k = _gram_keys(_TOKEN_START + _normalize(v or "") + _TOKEN_END)
        grams.append(k)
        owners.append(np.full(len(k), i, dtype=np.int32))
    g = np.concatenate(grams) if grams else np.empty(0, np.uint64)
    o = np.concatenate(owners) if owners else np.empty(0, np.int32)
    order = np.lexsort((o, g))
    tbl = pa.table({"gram": pa.array(g[order]),
                    "local": pa.array(o[order])})
    atomic_write_table(tbl, sidecar_path(index_dir, part, field))
    atomic_write_table(pa.table({"value": pa.array(values, pa.string())}),
                       dv_path(index_dir, part, field), row_group_size=8192)
    return len(values)


def _build_part(index_dir: str, field: str, part: int, column: str) -> int:
    t = pq.read_table(os.path.join(part_dir(index_dir, part), "docs.parquet"),
                      columns=[column])
    return _write_part(index_dir, field, part,
                       t[column].to_pylist())


def build_wildcard_field(index_dir: str, field: str,
                         column: str | None = None,
                         values=None) -> dict:
    """Build the per-partition wildcard sidecars for ``field``.

    ``column`` — a column already carried in each partition's docs.parquet
    (the scale path: one ``lanes.run`` job per partition, zero shuffle).
    ``values`` — alternatively a (doc_id, value) pyarrow Table / pandas
    DataFrame covering every doc (small-side path, mirrors
    ``build_rank_features``).
    """
    snap = state.snapshot(index_dir)
    parts, n_docs = snap.part_ids, snap.n_docs
    if (column is None) == (values is None):
        raise ValueError("pass exactly one of column= / values=")
    if column is not None:
        totals = lanes.run(_build_part, [(index_dir, field, p, column) for p in parts])
    else:
        tbl = values if isinstance(values, pa.Table) else \
            pa.Table.from_pandas(values, preserve_index=False)
        d = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = np.asarray(tbl["value"].to_pylist(), dtype=object)
        if len(d) != n_docs or len(np.unique(d)) != n_docs:
            raise ValueError("values must cover every doc exactly once")
        order = np.argsort(d, kind="stable")
        v = v[order]
        totals = [_write_part(index_dir, field, p.part, list(v[p.base:p.base + p.n_docs]))
                  for p in snap.parts]
    state.commit_sidecar(index_dir, "wildcard", field,
                         {"field": field, "n_docs": int(sum(totals))})
    return {"n_docs": int(sum(totals)), "parts": len(parts)}


# ------------------------------------------------------------ query side


def _pattern_clauses(pattern: str) -> tuple[list, int, int]:
    """wildcardQuery pattern walk (WildcardFieldMapper.java:282-330):
    anchor, split into concrete fragments at unescaped * / ?, 3-gram each
    fragment; returns ([clauses], n_wildcard_chars, n_wildcard_strings)
    where a clause is ("term", key) | ("prefix", lo, hi) | ("all",)."""
    # walk the RAW pattern (escapes must not consume the anchors — a
    # trailing backslash is a literal, exactly as _wildcard_regex treats
    # it) and attach the start/end markers structurally: the first
    # fragment is start-anchored iff no wildcard precedes it, the last
    # end-anchored iff none follows it
    frags: list[str] = []
    cur: list[str] = []
    nq = ns = 0
    first_starts_at_zero = False
    ends_concrete = False
    i = 0
    while i < len(pattern):
        c = pattern[i]
        if c in "*?":
            if cur:
                frags.append("".join(cur))
                cur = []
            if c == "*":
                ns += 1
            else:
                nq += 1
            ends_concrete = False
        else:
            if not cur and not frags and ns == 0 and nq == 0:
                first_starts_at_zero = True
            if c == "\\" and i + 1 < len(pattern):
                cur.append(pattern[i + 1])
                i += 1
            else:
                cur.append(c)
            ends_concrete = True
        i += 1
    if cur:
        frags.append("".join(cur))
    if frags and first_starts_at_zero:
        frags[0] = _TOKEN_START + frags[0]
    if frags and ends_concrete:
        frags[-1] = frags[-1] + _TOKEN_END
    if not frags and ns == 0 and nq == 0:
        frags = [_TOKEN_START + _TOKEN_END]  # empty pattern == empty value

    tokens: dict[str, None] = {}
    for frag in frags:
        for t in _fragment_tokens(frag):
            tokens.setdefault(t, None)
    clauses = []
    for t in list(tokens)[:MAX_APPROX_CLAUSES]:
        clauses.append(_token_clause(t))
    return clauses, nq, ns


def _fragment_tokens(frag: str) -> list[str]:
    """getNgramTokens (:577-608): skip bare markers; 3-grams of the
    normalized fragment, or the whole short fragment as a placeholder."""
    if frag in (_TOKEN_START, _TOKEN_END):
        return []
    norm = _normalize(frag)
    if len(norm) >= NGRAM:
        return list(dict.fromkeys(
            norm[j:j + NGRAM] for j in range(len(norm) - NGRAM + 1)))
    return [norm]


def _token_clause(token: str):
    """addClause (:610-628): <2 chars or the end marker → match-all
    (verification-only); ==3 → exact gram; ==2 → gram prefix."""
    if len(token) < 2 or token == _TOKEN_END:
        return ("all",)
    if len(token) == NGRAM:
        return ("term", _pack3(token))
    lo, hi = _prefix_range(token)
    return ("prefix", lo, hi)


def _wildcard_regex(pattern: str) -> re.Pattern:
    out, i = [], 0
    while i < len(pattern):
        c = pattern[i]
        if c == "\\" and i + 1 < len(pattern):
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if c == "*":
            out.append(".*")
        elif c == "?":
            out.append(".")
        else:
            out.append(re.escape(c))
        i += 1
    return re.compile("".join(out) + r"\Z", re.DOTALL)


# --- regexp required-literal extraction (regexpQuery :352-394 approximates
# the automaton; we extract literal runs that MUST occur, the classic
# trigram-acceleration trick, conservatively: bail to match-all on
# alternation) ---

_REGEX_CLASS_ESCAPES = set("dDsSwWbBAZ")


def _regex_required_runs(pattern: str) -> list[str] | None:
    """Literal runs every match must contain; None → no acceleration.
    Runs touching the pattern's absolute start/end carry anchors."""
    runs: list[tuple[str, int]] = []  # (run, start_index)
    cur: list[str] = []
    cur_start = -1
    i, n = 0, len(pattern)
    depth = 0

    def flush(drop_last: bool = False) -> None:
        nonlocal cur, cur_start
        if cur and drop_last:
            cur.pop()
        if cur:
            runs.append(("".join(cur), cur_start))
        cur, cur_start = [], -1

    while i < n:
        c = pattern[i]
        if c == "|":
            return None  # a top-level/any alternation voids "required"
        if c == "\\" and i + 1 < n:
            nxt = pattern[i + 1]
            if nxt in _REGEX_CLASS_ESCAPES:
                flush()
            else:
                if not cur:
                    cur_start = i
                cur.append(nxt)
            i += 2
            continue
        if c in "*?":
            flush(drop_last=True)  # preceding atom is optional
        elif c == "{":
            j = pattern.find("}", i)
            if j < 0:
                return None
            body = pattern[i + 1:j]
            if body.split(",")[0].strip().isdigit() and \
                    int(body.split(",")[0]) >= 1:
                flush()  # x{2,}: the atom occurs, but repeats break grams
            else:
                flush(drop_last=True)
            i = j
        elif c == "+":
            flush()  # at least one occurrence: keep the run as-is
        elif c in ".[":
            if c == "[":
                j = i + 1
                if j < n and pattern[j] == "^":
                    j += 1
                j = pattern.find("]", j + 1)
                if j < 0:
                    return None
                i = j
            flush()
        elif c in "()^$":
            if c == "(":
                depth += 1
                # groups may hold alternations/optionals; skip contents
                j, d = i + 1, 1
                while j < n and d:
                    if pattern[j] == "\\":
                        j += 1
                    elif pattern[j] == "(":
                        d += 1
                    elif pattern[j] == ")":
                        d -= 1
                    j += 1
                i = j - 1
                depth -= 1
            flush()
        else:
            if not cur:
                cur_start = i
            cur.append(c)
        i += 1
    flush()

    out = []
    for run, start in runs:
        s = run
        if start == 0:
            s = _TOKEN_START + s
        if start >= 0 and start + len(run) == n:
            s = s + _TOKEN_END
        out.append(s)
    return out


# ------------------------------------------------- per-partition serving

_WC_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _cached_postings(path: str) -> tuple[np.ndarray, np.ndarray]:
    key = (path, os.path.getmtime(path))
    hit = _WC_CACHE.get(key)
    if hit is None:
        if len(_WC_CACHE) > 64:
            _WC_CACHE.clear()
        t = pq.read_table(path)
        hit = _WC_CACHE[key] = (
            t["gram"].to_numpy(zero_copy_only=False).astype(np.uint64),
            t["local"].to_numpy(zero_copy_only=False).astype(np.int64))
    return hit


def _candidates(grams: np.ndarray, locals_: np.ndarray,
                clauses: list, n_docs: int) -> np.ndarray:
    lists = []
    for cl in clauses:
        if cl[0] == "all":
            continue
        if cl[0] == "term":
            lo = np.searchsorted(grams, np.uint64(cl[1]), side="left")
            hi = np.searchsorted(grams, np.uint64(cl[1]), side="right")
            lists.append(locals_[lo:hi])
        else:
            lo = np.searchsorted(grams, np.uint64(cl[1]), side="left")
            hi = np.searchsorted(grams, np.uint64(cl[2]), side="left")
            lists.append(np.unique(locals_[lo:hi]))
    if not lists:
        return np.arange(n_docs, dtype=np.int64)
    lists.sort(key=len)
    out = lists[0]
    for nxt in lists[1:]:
        if not len(out):
            break
        out = np.intersect1d(out, nxt, assume_unique=True)
    return out


def _fetch_values(dvp: str, rows: np.ndarray, n_docs: int) -> pd.Series:
    pf = pq.ParquetFile(dvp)
    if len(rows) >= n_docs or pf.metadata.num_row_groups <= 1:
        vals = pf.read(columns=["value"])["value"].to_pandas()
        return vals.iloc[rows].reset_index(drop=True)
    # row-group pushdown: read only groups holding candidate rows
    sizes = [pf.metadata.row_group(i).num_rows
             for i in range(pf.metadata.num_row_groups)]
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    gidx = np.searchsorted(starts, rows, side="right") - 1
    need = np.unique(gidx)
    tbl = pf.read_row_groups(list(need), columns=["value"])
    # map global rows into the concatenated selected-group frame
    offset_of = {int(g): int(o) for g, o in zip(
        need, np.concatenate([[0], np.cumsum([sizes[g] for g in need])[:-1]]))}
    local = np.array([offset_of[int(g)] + int(r - starts[g])
                      for g, r in zip(gidx, rows)], dtype=np.int64)
    return tbl["value"].to_pandas().iloc[local].reset_index(drop=True)


def _part_search(index_dir: str, field: str, part: int, base: int,
                 clauses: list, verify_regex: str | None,
                 bounds: tuple | None = None) -> np.ndarray:
    sp = sidecar_path(index_dir, part, field)
    grams, locals_ = _cached_postings(sp)
    pf_meta = pq.ParquetFile(dv_path(index_dir, part, field)).metadata
    n_docs = pf_meta.num_rows
    cand = _candidates(grams, locals_, clauses, n_docs)
    if not len(cand):
        return np.empty(0, np.int64)
    vals = _fetch_values(dv_path(index_dir, part, field), cand, n_docs)
    if verify_regex is not None:
        rx = re.compile(verify_regex, re.DOTALL)
        keep = vals.map(lambda s: s is not None
                        and rx.fullmatch(s) is not None).to_numpy()
    else:
        gte, gt, lte, lt = bounds
        v = vals.to_numpy(dtype=object)
        # nulls never match a range (TermRangeQuery over absent dv)
        keep = np.array([x is not None for x in v], dtype=bool)
        present = np.flatnonzero(keep)
        pv = v[present]
        m = np.ones(len(pv), dtype=bool)
        if gte is not None:
            m &= pv >= gte
        if gt is not None:
            m &= pv > gt
        if lte is not None:
            m &= pv <= lte
        if lt is not None:
            m &= pv < lt
        keep[present] = m
    return cand[keep] + base


def _run_parts(index_dir: str, field: str, clauses: list,
               verify_regex: str | None,
               bounds: tuple | None = None) -> np.ndarray:
    snap = state.snapshot(index_dir)
    if ("wildcard", field) not in snap.sidecars:
        raise FileNotFoundError(
            f"no wildcard sidecar for field {field!r} in {index_dir}")
    out = [r for r in lanes.run(_part_search, [(index_dir, field, p.part, p.base, clauses,
                                                verify_regex, bounds) for p in snap.parts])
           if len(r)]
    return np.sort(np.concatenate(out)) if out else np.empty(0, np.int64)


def wildcard_field_search(index_dir: str, field: str,
                          pattern: str) -> np.ndarray:
    """Global doc ids whose ``field`` value matches the ``*``/``?`` pattern
    (case-sensitive over the original value, like the reference's
    ``BinaryDvConfirmedAutomatonQuery``)."""
    clauses, _nq, _ns = _pattern_clauses(pattern)
    return _run_parts(index_dir, field, clauses,
                      _wildcard_regex(pattern).pattern)


def regexp_field_search(index_dir: str, field: str,
                        pattern: str) -> np.ndarray:
    """Full-match regexp (python syntax, Lucene-style implicit anchors),
    accelerated by required-literal grams when extractable."""
    runs = _regex_required_runs(pattern)
    clauses = []
    if runs is not None:
        tokens: dict[str, None] = {}
        for r in runs:
            for t in _fragment_tokens(r):
                tokens.setdefault(t, None)
        clauses = [_token_clause(t)
                   for t in list(tokens)[:MAX_APPROX_CLAUSES]]
    return _run_parts(index_dir, field, clauses, pattern)


def range_field_search(index_dir: str, field: str, gte=None, gt=None,
                       lte=None, lt=None) -> np.ndarray:
    """rangeQuery (:631-695): common-prefix gram acceleration + bound
    confirmation on the original values."""
    lower = gte if gte is not None else gt
    upper = lte if lte is not None else lt
    clauses: list = []
    if lower is not None and upper is not None:
        lo_s = _TOKEN_START + str(lower) + _TOKEN_END
        up_s = _TOKEN_START + str(upper) + _TOKEN_END
        common = []
        for a, b in zip(lo_s, up_s):
            if a != b:
                break
            common.append(a)
        prefix = "".join(common)
        if prefix and prefix not in (_TOKEN_START, _TOKEN_END):
            for t in _fragment_tokens(prefix):
                cl = _token_clause(t)
                if cl[0] != "all":  # :670-672: short tokens just skipped
                    clauses.append(cl)
            clauses = clauses[:MAX_APPROX_CLAUSES]
    return _run_parts(index_dir, field, clauses, None,
                      bounds=(gte, gt, lte, lt))

