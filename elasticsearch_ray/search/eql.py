"""EQL ``sequence`` queries over an event table (SURVEY: x-pack/plugin/eql —
``execution/sequence/SequenceGroup.java``, ``KeyToSequences.java``,
``plan/logical/Sequence.java``; public EQL docs for the matching contract).

``sequence by <key> [q1] [q2] ... until [uq] with maxspan=...``:

- events are processed in ``(ts, tiebreak)`` order per key;
- a ``q1`` match opens a partial sequence; a ``q_{i+1}`` match advances the
  MOST RECENTLY advanced partial waiting at stage ``i`` whose sort key is
  strictly earlier (Elastic's ``SequenceGroup#before`` — nested /
  non-crossing matching), consuming it (sequences never share events);
- ``maxspan`` bounds ``last.ts - first.ts``; expired partials are pruned;
- ``until`` cancels every pending partial for the key.

Ray-native shape — the scale story is predicate pushdown, not the shuffle:
a vectorized ``map_batches`` pre-filter reduces the stream to CANDIDATE
rows only (rows matching any stage or the until clause), carrying a small
stage bitmask; only that candidate sliver is hash-grouped by key
(``groupby(by).map_groups``) and walked by the per-key state machine.
Matched sequences (tiny relative to input) are collected on the driver.

Two modes:

- ``mode="eql"`` — the reference state machine above (not expressible in
  ANSI SQL; driver entry is rows-only, pytest carries the semantics).
- ``mode="asof"`` — the 2-stage sharing variant: each ``q2`` event pairs
  with the LATEST preceding ``q1`` event within ``maxspan`` (sharing
  allowed), invalid if an ``until`` event falls strictly between. This is
  DuckDB's ``ASOF JOIN`` + ``NOT EXISTS`` — the oracle-checkable twin —
  and doubles as the engine's as-of-join primitive.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd


def _mask(pred, df: pd.DataFrame) -> np.ndarray:
    """Stage predicate → boolean mask. Dict = ANDed term equalities
    (the EQL ``event_type == "x" and f == v`` subset); callable = df→mask."""
    if callable(pred):
        return np.asarray(pred(df), bool)
    m = np.ones(len(df), bool)
    for col, val in pred.items():
        if isinstance(val, (list, tuple, set)):
            m &= df[col].isin(list(val)).to_numpy()
        else:
            m &= (df[col] == val).to_numpy()
    return m


def _pred_columns(preds) -> set[str]:
    cols: set[str] = set()
    for p in preds:
        if isinstance(p, dict):
            cols |= set(p.keys())
    return cols


def _seq_state_machine(ts: np.ndarray, tb: np.ndarray, bits: np.ndarray,
                       stage_bit: list[int], until_bit: int,
                       maxspan, has_until: bool) -> list[tuple]:
    """Per-key walk (rows already (ts, tb)-sorted). Partials are
    ``(first_ts, ids, tss, last_pos)``; ``pending[i]`` is ordered by
    recency so ``before()`` = pop from the tail (SequenceGroup.java).
    ``stage_bit[i]`` maps stage ``i`` to its PREDICATE bit — ``with
    runs=N`` repeats a predicate across stages (LogicalPlanBuilder.java
    runs expansion), so the candidate bitmask stays one bit per unique
    predicate and the reference's 256-stage cap fits in an int64."""
    n_stages = len(stage_bit)
    pending: list[list] = [[] for _ in range(n_stages)]
    out: list[tuple] = []
    for pos in range(len(ts)):
        b = int(bits[pos])
        if has_until and b & until_bit:
            for p in pending:
                p.clear()
        t = ts[pos]
        # highest stage first so one event can advance a partial AND then
        # open a new one, but never advance the partial it just extended
        for i in range(n_stages - 1, 0, -1):
            if not b & (1 << stage_bit[i]):
                continue
            prev = pending[i - 1]
            # most recent partial strictly before this event; expired
            # partials (t - first_ts > maxspan) are pruned as encountered
            # — recency order is last-advanced order, NOT first_ts order,
            # so each candidate's span is checked individually
            while prev:
                first_ts, ids, tss, last_pos = prev[-1]
                if last_pos >= pos:
                    break
                prev.pop()
                if maxspan is not None and t - first_ts > maxspan:
                    continue  # expired — try the next most recent
                ids2, tss2 = ids + (tb[pos],), tss + (t,)
                if i == n_stages - 1:
                    out.append((first_ts, ids2, tss2))
                else:
                    pending[i].append((first_ts, ids2, tss2, pos))
                break
        if b & (1 << stage_bit[0]):
            pending[0].append((t, (tb[pos],), (t,), pos))
    return out


class _SeqGroupFn:
    """map_groups callable: state machine per key group."""

    def __init__(self, by_cols, ts_col, tb_col, stage_bit, until_bit,
                 maxspan, has_until, mode):
        self.by_cols, self.ts_col, self.tb_col = by_cols, ts_col, tb_col
        self.stage_bit, self.until_bit = stage_bit, until_bit
        self.n = len(stage_bit)
        self.maxspan, self.has_until = maxspan, has_until
        self.mode = mode

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([self.ts_col, self.tb_col], kind="mergesort")
        ts = df[self.ts_col].to_numpy()
        tb = df[self.tb_col].to_numpy()
        bits = df["_stage_bits"].to_numpy()
        if self.mode == "asof":
            rows = self._asof(ts, tb, bits)
        else:
            rows = [(ids, tss) for _f, ids, tss in _seq_state_machine(
                ts, tb, bits, self.stage_bit, self.until_bit,
                self.maxspan, self.has_until)]
        if not rows:
            return self._empty(df)
        out = {c: [df[c].iloc[0]] * len(rows) for c in self.by_cols}
        for i in range(self.n):
            out[f"ts_{i}"] = [tss[i] for _ids, tss in rows]
            out[f"id_{i}"] = [ids[i] for ids, _tss in rows]
        return pd.DataFrame(out)

    def _asof(self, ts, tb, bits):
        m1 = (bits & (1 << self.stage_bit[0])).astype(bool)
        m2 = (bits & (1 << self.stage_bit[1])).astype(bool)
        t1, b1 = ts[m1], tb[m1]
        t2, b2 = ts[m2], tb[m2]
        if not len(t1) or not len(t2):
            return []
        idx = np.searchsorted(t1, t2, side="left") - 1
        ok = idx >= 0
        if self.maxspan is not None:
            # NEVER np.where(cond, timedelta, 0): the int 0 strips the
            # datetime64 unit and the comparison goes unit-blind
            span = t2 - t1[np.maximum(idx, 0)]
            ok &= span <= self.maxspan
        if self.has_until:
            mu = (bits & self.until_bit).astype(bool)
            tu = ts[mu]
            if len(tu):
                # an until event strictly between t1 and t2 voids the pair
                n_before2 = np.searchsorted(tu, t2, side="left")
                n_at_or_before1 = np.searchsorted(
                    tu, np.where(idx >= 0, t1[idx], t2), side="right")
                ok &= n_before2 <= n_at_or_before1
        rows = []
        for j in np.flatnonzero(ok):
            i = idx[j]
            rows.append(((b1[i], b2[j]), (t1[i], t2[j])))
        return rows

    def _empty(self, df):
        cols = {c: df[c].iloc[:0] for c in self.by_cols}
        for i in range(self.n):
            cols[f"ts_{i}"] = df[self.ts_col].iloc[:0]
            cols[f"id_{i}"] = df[self.tb_col].iloc[:0]
        return pd.DataFrame(cols)


def eql_sequence(ds, by, ts_col: str, stages: list,
                 maxspan=None, until=None, tiebreak: str = "event_id",
                 mode: str = "eql",
                 extra_columns: tuple = (),
                 runs: list | None = None) -> pd.DataFrame:
    """Run ``sequence by <by> [stages...] until [until] with maxspan`` over
    a Ray Dataset. Returns one row per matched sequence:
    ``(by..., ts_0..ts_{n-1}, id_0..id_{n-1})`` with ``id_i`` = the
    tiebreak column of the stage-``i`` event. See module docstring for
    modes.

    ``by`` may be a single column or a list (the reference's composite
    join keys — ``sequence by host, user``; LogicalPlanBuilder.java
    visitJoinKeys). ``runs[i]`` repeats stage ``i`` that many times
    (``[q] with runs=N`` — LogicalPlanBuilder.java:264-300): validation
    mirrors the reference (positive, ≤100 per stage, ≤256 expanded
    queries, ≥2 after expansion)."""
    if mode not in ("eql", "asof"):
        raise ValueError(f"unknown mode {mode!r}")
    by_cols = [by] if isinstance(by, str) else list(by)
    if runs is not None:
        if len(runs) != len(stages):
            raise ValueError("runs must align 1:1 with stages")
        for r in runs:
            if not isinstance(r, int) or isinstance(r, bool) or r < 1:
                raise ValueError(
                    f"A positive runs value is required; found [{r!r}]")
            if r > 100:
                raise ValueError("A query cannot be repeated more than "
                                 f"100 times; found [{r}]")
        if sum(runs) > 256:
            raise ValueError("Sequence cannot contain more than 256 "
                             f"queries; found [{sum(runs)}]")
    else:
        runs = [1] * len(stages)
    # stage i of the EXPANDED sequence matches predicate stage_bit[i] —
    # repeated stages share one candidate-bitmask bit
    stage_bit = [i for i, r in enumerate(runs) for _ in range(r)]
    n = len(stage_bit)
    if n < 2:
        raise ValueError("A sequence requires a minimum of 2 queries, "
                         f"found [{n}]")
    if mode == "asof" and n != 2:
        raise ValueError("asof mode is the 2-stage sharing variant")
    if maxspan is not None and not isinstance(maxspan, (int, float)):
        maxspan = pd.to_timedelta(maxspan).to_numpy()
    preds = list(stages) + ([until] if until is not None else [])
    until_bit = 1 << len(stages)
    needed = sorted(set(by_cols) | {ts_col, tiebreak}
                    | _pred_columns(preds) | set(extra_columns))

    def candidates(df: pd.DataFrame) -> pd.DataFrame:
        bits = np.zeros(len(df), np.int64)
        for i, p in enumerate(preds):
            bits |= _mask(p, df).astype(np.int64) << i
        keep = bits != 0
        out = df.loc[keep, by_cols + [ts_col, tiebreak]].copy()
        out["_stage_bits"] = bits[keep]
        return out

    fn = _SeqGroupFn(by_cols, ts_col, tiebreak, stage_bit, until_bit,
                     maxspan, until is not None, mode)

    def run_group(df: pd.DataFrame) -> pd.DataFrame:
        return fn(df)

    cand = (ds.select_columns(needed)
            .map_batches(candidates, batch_format="pandas"))
    gb_key = by_cols[0] if len(by_cols) == 1 else by_cols
    matched = cand.groupby(gb_key).map_groups(run_group,
                                              batch_format="pandas")
    out = matched.to_pandas()
    cols = by_cols + [c for i in range(n) for c in (f"ts_{i}", f"id_{i}")]
    if out.empty:
        # zero candidate rows → map_groups never ran and the frame is
        # SCHEMALESS; return the documented typed-empty shape so callers
        # selecting output columns don't KeyError (review r5 #7)
        return pd.DataFrame(columns=cols)
    out = (out.sort_values(by_cols + ["id_0", f"id_{n-1}"])
           .reset_index(drop=True))
    return out[cols]


# ---------------------------------------------------------------- pipes

#: LogicalPlanBuilder.java:67 — names the grammar accepts; only head/tail
#: are implemented (the reference's default arm raises "not supported")
SUPPORTED_PIPES = ("count", "filter", "head", "sort", "tail", "unique",
                   "unique_count")


def eql_pipes(frame: pd.DataFrame, pipes: list,
              ts_col: str = "ts_0", id_col: str = "id_0",
              order_cols: list | None = None) -> pd.DataFrame:
    """Apply EQL result pipes (LogicalPlanBuilder.java:369-395): results
    are taken in the implicit ascending (first-event ts, tiebreak) order;
    ``head n`` keeps the first n, ``tail n`` the last n; pipes chain
    left-to-right. Unrecognized names get the reference's did-you-mean
    message; recognized-but-unimplemented names its "not supported".

    ``order_cols`` overrides the implicit order — asof-mode results can
    tie on (ts_0, id_0) (one first event shared by several sequences),
    so a head/tail cut that must be deterministic end-to-end should
    include the last stage's id too (review r5 #5)."""
    import difflib

    cols = order_cols or [ts_col, id_col]
    out = frame.sort_values(cols, kind="stable").reset_index(drop=True) \
        if len(frame) else frame
    for name, arg in pipes:
        if name not in SUPPORTED_PIPES:
            close = difflib.get_close_matches(name, SUPPORTED_PIPES, n=3)
            msg = f"Unrecognized pipe [{name}]"
            if close:
                m = str(close)
                msg += ", did you mean " + (
                    m if len(close) == 1 else f"any of {m}") + "?"
            raise ValueError(msg)
        if name not in ("head", "tail"):
            raise ValueError(f"Pipe [{name}] is not supported")
        if not isinstance(arg, int) or isinstance(arg, bool) or arg <= 0:
            raise ValueError(
                f"Pipe [{name}] expects a positive integer but found "
                f"[{arg!r}]")
        out = out.head(arg) if name == "head" else out.tail(arg)
    return out.reset_index(drop=True)


def eql_sample(ds, by, stages: list, tiebreak: str = "event_id",
               extra_columns: tuple = ()) -> pd.DataFrame:
    """EQL ``sample by <key> [q1] [q2] ...`` (x-pack/plugin/eql —
    ``plan/logical/Sample.java``, LogicalPlanBuilder#visitSample): find
    join keys where EVERY filter has at least one matching event — no
    time ordering, no maxspan — and return one sample event per filter
    per key. The pick is deterministic: the minimum-``tiebreak`` match
    per (key, filter) (the reference returns an arbitrary in-shard
    match; the min makes runs and the SQL twin exact).

    Scale shape: per-block combiner (mask + block-local groupby min per
    filter) → one Ray groupby Min over (key, filter) partials → a tiny
    driver pivot of keys that matched all filters.
    """
    from ray.data.aggregate import Min

    by_cols = [by] if isinstance(by, str) else list(by)
    n = len(stages)
    if n < 2:
        raise ValueError("A sample requires a minimum of 2 queries, "
                         f"found [{n}]")
    needed = sorted(set(by_cols) | {tiebreak}
                    | _pred_columns(list(stages)) | set(extra_columns))

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for i, p in enumerate(stages):
            m = _mask(p, df)
            if not m.any():
                continue
            sub = df.loc[m, by_cols + [tiebreak]]
            g = sub.groupby(by_cols, as_index=False)[tiebreak].min()
            g["_stage"] = np.int64(i)
            outs.append(g)
        if not outs:
            return pd.DataFrame({c: pd.Series(dtype=df[c].dtype)
                                 for c in by_cols + [tiebreak]}
                                | {"_stage": pd.Series(dtype=np.int64)})
        return pd.concat(outs, ignore_index=True)

    mins = (ds.select_columns(needed)
            .map_batches(partials, batch_format="pandas")
            .groupby(by_cols + ["_stage"])
            .aggregate(Min(tiebreak, alias_name="_sample"))
            .to_pandas())
    if mins.empty or "_sample" not in mins.columns:
        return pd.DataFrame(columns=by_cols
                            + [f"id_{i}" for i in range(n)])
    # keep only keys that matched EVERY filter BEFORE pivoting, so the
    # pivot has no missing cells and the tiebreak dtype survives intact
    # — pivot_table's NaN padding coerced int64 ids through float64
    # (lossy above 2^53) and crashed on string tiebreaks (review r5c #7)
    counts = (mins.groupby(by_cols)["_stage"].nunique()
              .reset_index(name="_k"))
    good = counts[counts["_k"] == n][by_cols]
    sub = mins.merge(good, on=by_cols)
    if sub.empty:
        return pd.DataFrame(columns=by_cols
                            + [f"id_{i}" for i in range(n)])
    wide = sub.pivot(index=by_cols, columns="_stage", values="_sample")
    out = wide.reset_index()
    out.columns = by_cols + [f"id_{i}" for i in range(n)]
    return out.sort_values(by_cols, ignore_index=True)


def eql_sequence_missing(ds, by, ts_col: str, stages: list,
                         missing: dict | None = None,
                         maxspan=None, tiebreak: str = "event_id",
                         **kw) -> pd.DataFrame:
    """EQL missing-event sequences (8.x grammar: ``[q1] ![qm] [q2]`` —
    ``LogicalPlanBuilder`` missing-event support): positive stages must
    occur in order (the ordinary :func:`eql_sequence` machinery) and NO
    event matching the missing predicate may fall strictly BETWEEN the
    two surrounding positive stages of the same key.

    ``missing`` maps the gap index ``g`` (the missing stage sits between
    positive stages ``g`` and ``g+1``, counted before any ``runs``
    expansion, so it follows the last repeat of stage ``g``) to its
    predicate. Only INTERIOR missing stages are supported — the
    reference's leading/trailing forms add a timeout clock with no
    bounding events (documented out of scope).

    Shape: positive matching is the existing distributed state machine;
    the negative check is a post-filter — missing-candidate events
    reduce to a per-key SORTED timestamp array (only keys that actually
    matched, broadcast as a set), and each matched sequence does one
    ``searchsorted`` interval probe. Matched sequences are tiny by
    premise, so the filter is coordinator-sized."""
    n = len(stages)
    missing = dict(missing or {})
    for g in missing:
        if not 0 <= g < n - 1:
            raise ValueError(
                f"missing-event gap index {g} must sit between two "
                f"positive stages (0..{n - 2})")
    seq = eql_sequence(ds, by, ts_col, stages, maxspan=maxspan,
                       tiebreak=tiebreak, **kw)
    runs = kw.get("runs")
    if seq.empty or not missing:
        return seq
    by_cols = [by] if isinstance(by, str) else list(by)
    import ray

    keys_ref = ray.put(frozenset(
        map(tuple, seq[by_cols].itertuples(index=False, name=None))))

    def neg_events(df: pd.DataFrame, _g: int) -> pd.DataFrame:
        keys = ray.get(keys_ref)
        m = _mask(missing[_g], df)
        sub = df.loc[m, by_cols + [ts_col]]
        if len(sub):
            kt = list(map(tuple, sub[by_cols]
                          .itertuples(index=False, name=None)))
            sub = sub[[t in keys for t in kt]]
        return sub

    keep = np.ones(len(seq), bool)
    for g, _pred in missing.items():
        neg = (ds.select_columns(sorted(set(by_cols) | {ts_col}
                                        | _pred_columns([missing[g]])))
               .map_batches(lambda df, _g=g: neg_events(df, _g),
                            batch_format="pandas")
               .to_pandas())
        if neg.empty:
            continue
        per_key: dict = {}
        for t, ts in zip(map(tuple, neg[by_cols]
                             .itertuples(index=False, name=None)),
                         neg[ts_col].to_numpy()):
            per_key.setdefault(t, []).append(ts)
        per_key = {t: np.sort(np.asarray(v)) for t, v in per_key.items()}
        # gap g sits after the LAST repeat of positive stage g: map it
        # through the runs expansion to the sequence's ts columns
        after = sum(runs[:g + 1]) if runs else g + 1
        lo = seq[f"ts_{after - 1}"].to_numpy()
        hi = seq[f"ts_{after}"].to_numpy()
        for i, t in enumerate(map(tuple, seq[by_cols]
                                  .itertuples(index=False, name=None))):
            arr = per_key.get(t)
            if arr is None or not keep[i]:
                continue
            # strictly BETWEEN the surrounding positive events
            a = np.searchsorted(arr, lo[i], side="right")
            b = np.searchsorted(arr, hi[i], side="left")
            if b > a:
                keep[i] = False
    return seq[keep].reset_index(drop=True)
