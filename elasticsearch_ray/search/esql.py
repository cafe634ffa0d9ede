"""ES|QL subset — the reference's piped query language
(``x-pack/plugin/esql`` — ``EsqlParser.java`` / the published ES|QL
grammar) compiled onto Ray Dataset stages.

Supported pipeline::

    FROM <table>
    | WHERE <condition>            -> vectorized map_batches mask
    | EVAL name = <expr>, ...      -> expression column (compute-on-scan)
    | STATS [n =] AGG(col), ... [BY col, ...]
                                   -> Ray groupby-aggregate (map-side
                                      combined) / global ds.aggregate
    | SORT col [ASC|DESC], ...     -> ds.sort
    | LIMIT n                      -> ds.limit
    | KEEP col, ... / DROP col, ...-> column projection
    | RENAME old AS new, ...       -> projection with rename
    | DISSECT col \"pattern\"        -> ops.processors.DissectProcessor
    | GROK col \"pattern\"           -> ops.processors.GrokProcessor
    | ENRICH policy ON field [WITH f1, f2]
                                   -> broadcast lookup join
                                      (ops.processors.EnrichProcessor)
    | EVAL x = SPLIT(col, "sep")   -> multivalued (list) column
    | MV_EXPAND col                -> one row per value (row-local
                                      explode, a streaming transform)
    | INLINESTATS agg... [BY ...]  -> windowed aggregate: group stats
                                      attached to every row (broadcast
                                      of the small stats frame)
    | LOOKUP JOIN idx ON field     -> broadcast left join against a
                                      lookup-mode index
    | SAMPLE p [seed]              -> deterministic md5-band row
                                      sampling by the whole row's
                                      text (streaming)
    | CHANGE_POINT v [ON k] [AS t, p]
                                   -> change-point cascade over the
                                      (≤1000-value) series; annotates
                                      the change row

Aggregations: COUNT(*), COUNT(col), SUM, AVG, MIN, MAX,
COUNT_DISTINCT(col). WHERE predicates: ``== != > >= < <=`` against
literals or columns, ``IN (lit, ...)``, ``LIKE "wild*card"``,
``IS [NOT] NULL``, combined with AND/OR/NOT and parentheses — evaluated
as numpy/pandas masks per batch. Arithmetic belongs in EVAL (idiomatic
ES|QL), whose expressions ride the sandboxed lang-expression engine
(search/expressions.py).

Scale shape: everything before a STATS/SORT/LIMIT is a streaming
narrow transform; STATS is the one shuffle (map-side combined by Ray's
groupby); ENRICH is a broadcast join, never a shuffle. WHERE pushes
ahead of later stages simply by appearing earlier in the pipe — the
idiom the language itself encourages.
"""

from __future__ import annotations

import fnmatch
import re

import numpy as np
import pandas as pd

_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z0-9_.]*)
    | (?P<op>==|!=|<=|>=|\|\||&&|[|,()<>=*/%+\-])
    )""", re.VERBOSE)

_KEYWORDS = {
    "FROM", "WHERE", "EVAL", "STATS", "BY", "SORT", "LIMIT", "KEEP",
    "DROP", "RENAME", "AS", "ASC", "DESC", "AND", "OR", "NOT", "IN",
    "LIKE", "IS", "NULL", "ENRICH", "ON", "WITH", "DISSECT", "GROK",
    "MV_EXPAND", "ROW",
}

# SOFT keywords (review r5c #4): the newer command words are recognized
# contextually — as a command at stage start, or at their grammar
# position (JOIN after LOOKUP, METADATA in the FROM tail, RLIKE as a
# predicate operator) — so columns named "sample", "join", … keep
# working, as they did before these commands existed.
_SOFT_COMMANDS = {
    "INLINESTATS", "LOOKUP", "SAMPLE", "CHANGE_POINT", "FORK",
    "RERANK", "COMPLETION",
}


def _row_text(batch) -> list[str]:
    """Each row of the Arrow ``batch`` as the text SAMPLE hashes: its values
    in column order joined by U+001F, a float as ``%.17g``, a timestamp as
    ``%Y-%m-%d %H:%M:%S.%f``, a list or struct as Python's ``str``, a null
    (or NaN) as "", any other value as its Arrow string cast. The text follows the column's type, never the batch's
    contents, so a row prints alike in every batch (an int64 column keeps
    every digit, with or without nulls) and in SQL (DuckDB's ``CAST(x AS
    VARCHAR)``, ``printf('%.17g', x)`` and ``strftime``)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    cols = []
    for col in batch.itercolumns():
        if pa.types.is_floating(col.type):
            text = pa.array(np.char.mod("%.17g", col.to_numpy(zero_copy_only=False)))
        elif pa.types.is_timestamp(col.type):
            text = pa.array(col.to_pandas().dt.strftime("%Y-%m-%d %H:%M:%S.%f"), pa.string())
        elif pa.types.is_nested(col.type):  # no Arrow string cast: Python's text
            text = pa.array([str(v) for v in col.to_pylist()], pa.string())
        else:
            text = pc.cast(col, pa.string())
        cols.append(pc.if_else(pc.is_null(col, nan_is_null=True), "", text))
    return pc.binary_join_element_wise(*cols, "\x1f").to_pylist()


def _is_word(tok, word: str) -> bool:
    """True when ``tok`` is the given soft keyword (kw or bare name)."""
    return tok[0] in ("kw", "name") and tok[1].upper() == word

_AGG_FNS = {"COUNT", "SUM", "AVG", "MIN", "MAX", "COUNT_DISTINCT",
            "MEDIAN", "PERCENTILE"}

# EVAL's one string function: SPLIT(col, "sep") -> multivalued column
# (the ES|QL string function of the same name); pairs with MV_EXPAND.
_SPLIT_RE = re.compile(r'^SPLIT \( ([A-Za-z_][A-Za-z0-9_.]*) , "(.*)" \)$',
                       re.IGNORECASE)

# multivalue functions (the ES|QL MV_* family) over list columns —
# row-local reductions of a multivalued field. Grammar (post-token
# spacing): MV_FN ( col [ , extra ... ] )
_MV_FN_RE = re.compile(
    r'^(MV_[A-Z]+) \( ([A-Za-z_][A-Za-z0-9_.]*)( , .+)? \)$',
    re.IGNORECASE)


def _mv_items(v):
    """Null → None; scalar → single-element list (the ES|QL contract:
    a single value is a one-element multivalue). Nulls include pd.NA —
    what a null SPLIT source yields (review r5c #1)."""
    if isinstance(v, (list, tuple, np.ndarray)):
        return list(v)
    if v is None or pd.isna(v):
        return None
    return [v]


def _make_mv_fn(fn: str, extras: list):
    """Per-value callable for one MV_* function (None-propagating)."""
    fn = fn.upper()

    def reduce_num(op):
        return lambda it: None if not it else op(
            np.asarray(it, dtype=np.float64))

    if fn == "MV_COUNT":
        return lambda it: len(it)
    if fn == "MV_SUM":
        return reduce_num(lambda a: float(a.sum()))
    if fn == "MV_AVG":
        return reduce_num(lambda a: float(a.mean()))
    if fn == "MV_MEDIAN":
        return reduce_num(lambda a: float(np.median(a)))
    if fn in ("MV_MIN", "MV_MAX"):
        pick = min if fn == "MV_MIN" else max
        return lambda it: None if not it else pick(it)
    if fn == "MV_DEDUPE":
        # stable first-occurrence order (the reference guarantees no
        # order; stability makes runs deterministic)
        return lambda it: list(dict.fromkeys(it))
    if fn == "MV_SORT":
        desc = bool(extras) and str(extras[0]).upper() == "DESC"
        if extras and str(extras[0]).upper() not in ("ASC", "DESC"):
            raise EsqlError('MV_SORT order must be "ASC" or "DESC"')
        return lambda it: sorted(it, reverse=desc)
    if fn == "MV_FIRST":
        return lambda it: it[0] if it else None
    if fn == "MV_LAST":
        return lambda it: it[-1] if it else None
    if fn == "MV_CONCAT":
        if len(extras) != 1 or not isinstance(extras[0], str):
            raise EsqlError('MV_CONCAT takes (col, "delimiter")')
        sep = extras[0]
        return lambda it: sep.join(str(x) for x in it)
    if fn == "MV_SLICE":
        # inclusive start/end, negative counts from the end (the
        # published MV_SLICE contract); end defaults to start
        if not 1 <= len(extras) <= 2:
            raise EsqlError("MV_SLICE takes (col, start [, end])")
        try:
            s0, e0 = int(extras[0]), int(extras[-1])
        except (TypeError, ValueError):
            raise EsqlError("MV_SLICE bounds must be integers") from None

        def slc(it, s0=s0, e0=e0):
            n = len(it)
            s = s0 + n if s0 < 0 else s0
            e = e0 + n if e0 < 0 else e0
            out = it[max(s, 0):e + 1] if e >= 0 else []
            return out or None
        return slc
    raise EsqlError(f"unknown multivalue function {fn}")


def _mv_column(df, name, col, fn_v):
    if col not in df.columns:
        raise EsqlError(f"MV function column {col!r} missing")
    df = df.copy()
    df[name] = [None if (it := _mv_items(v)) is None else fn_v(it)
                for v in df[col]]
    return df


class EsqlError(ValueError):
    pass


def _tokens_to_src(toks) -> str:
    """Reassemble token source text (strings re-quoted) so a clause can be
    handed to the QL scalar-function layer's own parser."""
    parts = []
    for k, v in toks:
        if k == "string":
            parts.append('"' + v.replace("\\", "\\\\")
                         .replace('"', '\\"') + '"')
        else:
            parts.append(v)
    return " ".join(parts)


def _tokenize(src: str) -> list[tuple[str, str]]:
    out, pos = [], 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m or m.end() == pos:
            if src[pos:].strip():
                raise EsqlError(f"bad ES|QL syntax at {src[pos:pos+20]!r}")
            break
        pos = m.end()
        kind = m.lastgroup
        val = m.group(kind)
        if kind == "name" and val.upper() in _KEYWORDS:
            out.append(("kw", val.upper()))
        elif kind == "string":
            out.append(("string", val[1:-1].replace('\\"', '"')
                        .replace("\\\\", "\\")))
        else:
            out.append((kind, val))
    return out


def _comma_split(toks):
    """Split a token run on commas at paren depth 0."""
    out, cur, depth = [], [], 0
    for t in toks:
        if t == ("op", "("):
            depth += 1
        elif t == ("op", ")"):
            depth -= 1
        if t == ("op", ",") and depth == 0:
            out.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        out.append(cur)
    return out


def _split_pipes(toks):
    """Split stages on pipes at paren depth 0 (FORK branches carry
    whole sub-pipelines inside parentheses)."""
    stages, cur, depth = [], [], 0
    for t in toks:
        if t == ("op", "("):
            depth += 1
        elif t == ("op", ")"):
            depth -= 1
        if t == ("op", "|") and depth == 0:
            stages.append(cur)
            cur = []
        else:
            cur.append(t)
    stages.append(cur)
    return [s for s in stages if s]


# ---------------------------------------------------------------- WHERE

class _CondParser:
    """condition := or; or := and (OR and)*; and := unary (AND unary)*;
    unary := NOT unary | '(' or ')' | predicate"""

    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", "")

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def parse(self):
        node = self.or_()
        if self.peek()[0] != "eof":
            raise EsqlError(f"trailing tokens in WHERE: {self.peek()}")
        return node

    def or_(self):
        node = self.and_()
        while self.peek() == ("kw", "OR"):
            self.take()
            rhs = self.and_()
            node = (lambda l, r: lambda df: l(df) | r(df))(node, rhs)
        return node

    def and_(self):
        node = self.unary()
        while self.peek() == ("kw", "AND"):
            self.take()
            rhs = self.unary()
            node = (lambda l, r: lambda df: l(df) & r(df))(node, rhs)
        return node

    def unary(self):
        if self.peek() == ("kw", "NOT"):
            self.take()
            inner = self.unary()
            return lambda df, f=inner: ~f(df)
        if self.peek() == ("op", "("):
            self.take()
            node = self.or_()
            if self.take() != ("op", ")"):
                raise EsqlError("unclosed ( in WHERE")
            return node
        return self.predicate()

    def _operand(self):
        kind, val = self.take()
        if kind == "name":
            return ("col", val)
        if kind == "number":
            return ("lit", float(val) if "." in val or "e" in val.lower()
                    else int(val))
        if kind == "string":
            return ("lit", val)
        raise EsqlError(f"bad WHERE operand {val!r}")

    @staticmethod
    def _value(df, operand):
        kind, v = operand
        return df[v] if kind == "col" else v

    def predicate(self):
        left = self._operand()
        kind, val = self.peek()
        if (kind, val) == ("kw", "IS"):
            self.take()
            neg = self.peek() == ("kw", "NOT")
            if neg:
                self.take()
            if self.take() != ("kw", "NULL"):
                raise EsqlError("IS must be followed by [NOT] NULL")

            def isnull(df, l=left, neg=neg):
                s = self._value(df, l)
                m = s.isna() if hasattr(s, "isna") else pd.isna(s)
                return ~m if neg else m
            return isnull
        if (kind, val) == ("kw", "IN"):
            self.take()
            if self.take() != ("op", "("):
                raise EsqlError("IN needs (lit, ...)")
            lits = []
            while True:
                k, v = self.take()
                if k == "number":
                    lits.append(float(v) if "." in v or "e" in v.lower()
                                else int(v))
                elif k == "string":
                    lits.append(v)
                else:
                    raise EsqlError("IN list takes literals")
                k2 = self.take()
                if k2 == ("op", ")"):
                    break
                if k2 != ("op", ","):
                    raise EsqlError("bad IN list")
            return lambda df, l=left, ls=lits: self._value(df, l).isin(ls)
        if (kind, val) == ("kw", "LIKE"):
            self.take()
            k, pat = self.take()
            if k != "string":
                raise EsqlError("LIKE takes a string pattern")
            rx = re.compile(fnmatch.translate(pat))

            def like(df, l=left, rx=rx):
                s = self._value(df, l)
                # astype(str) stringifies nulls ("None"/"nan") — mask
                # them out: null never matches (review r5c #3)
                return (s.astype(str).str.match(rx).fillna(False)
                        & s.notna())
            return like
        if _is_word((kind, val), "RLIKE"):
            # regular-expression predicate — anchored over the WHOLE
            # string, the RLIKE contract (Lucene RegExp semantics)
            self.take()
            k, pat = self.take()
            if k != "string":
                raise EsqlError("RLIKE takes a string pattern")
            rx = re.compile(pat)

            def rlike(df, l=left, rx=rx):
                s = self._value(df, l)
                return (s.astype(str).str.fullmatch(rx).fillna(False)
                        & s.notna())
            return rlike
        if kind == "op" and val in ("==", "!=", "<", "<=", ">", ">="):
            self.take()
            right = self._operand()

            def cmp(df, l=left, r=right, op=val):
                a, b = self._value(df, l), self._value(df, r)
                return {"==": lambda: a == b, "!=": lambda: a != b,
                        "<": lambda: a < b, "<=": lambda: a <= b,
                        ">": lambda: a > b, ">=": lambda: a >= b}[op]()
            return cmp
        # bare column → truthy (non-zero / non-null boolean)
        return lambda df, l=left: self._value(df, l).astype(bool)


# ---------------------------------------------------------------- stages

def _parse_assignments(toks, what):
    """``name = <expr tokens>, ...`` → [(name, expr_src)] — expr passed
    textually to the expression engine."""
    out = []
    i = 0
    while i < len(toks):
        if toks[i][0] != "name":
            raise EsqlError(f"{what} expects name = expression")
        name = toks[i][1]
        if i + 1 >= len(toks) or toks[i + 1] != ("op", "="):
            raise EsqlError(f"{what} expects '=' after {name!r}")
        i += 2
        expr_toks = []
        depth = 0
        while i < len(toks):
            k, v = toks[i]
            if (k, v) == ("op", "(",):
                depth += 1
            elif (k, v) == ("op", ")"):
                depth -= 1
            elif (k, v) == ("op", ",") and depth == 0:
                i += 1
                break
            expr_toks.append((k, v))
            i += 1
        out.append((name, _tokens_to_src(expr_toks)))
    return out


def _parse_stats(toks):
    """STATS [name =] FN(col|*) [WHERE cond] , ...
    [BY col | name = expr, ...] — returns (aggs, by, pre, filters):
    ``pre`` carries BY grouping expressions (``BY b = BUCKET(v, 10)``)
    to evaluate before the shuffle; ``filters`` maps the POSITION of a
    filtered aggregate in ``aggs`` to its condition tokens (keyed by
    index, not name — two aggregates may share an output name,
    review r5d #5)."""
    by, pre, filters = [], [], {}
    if ("kw", "BY") in toks:
        bi = toks.index(("kw", "BY"))
        tail = toks[bi + 1:]
        toks = toks[:bi]
        for seg in _comma_split(tail):
            if len(seg) == 1 and seg[0][0] == "name":
                by.append(seg[0][1])
            elif (len(seg) >= 3 and seg[0][0] == "name"
                    and seg[1] == ("op", "=")):
                name = seg[0][1]
                by.append(name)
                pre.append((name, _tokens_to_src(seg[2:])))
            else:
                raise EsqlError("BY takes columns or name = expression")
    aggs = []
    i = 0
    while i < len(toks):
        name = None
        if (toks[i][0] == "name" and i + 1 < len(toks)
                and toks[i + 1] == ("op", "=")):
            name = toks[i][1]
            i += 2
        if toks[i][0] != "name" or toks[i][1].upper() not in _AGG_FNS:
            raise EsqlError(f"unknown aggregation at {toks[i][1]!r}")
        fn = toks[i][1].upper()
        if toks[i + 1] != ("op", "("):
            raise EsqlError(f"{fn} needs (col)")
        arg_tok = toks[i + 2]
        if arg_tok == ("op", "*"):
            arg = "*"
        elif arg_tok[0] == "name":
            arg = arg_tok[1]
        else:
            raise EsqlError(f"bad {fn} argument")
        if (fn == "PERCENTILE" and toks[i + 3] == ("op", ",")
                and toks[i + 4][0] == "number"
                and toks[i + 5] == ("op", ")")):
            arg = (arg, float(toks[i + 4][1]))
            i += 6
        elif toks[i + 3] != ("op", ")"):
            raise EsqlError(f"{fn} needs a single column"
                            + (" and a percent" if fn == "PERCENTILE"
                               else ""))
        else:
            if fn == "PERCENTILE":
                raise EsqlError("PERCENTILE needs (col, percent)")
            i += 4
        cond = None
        if i < len(toks) and toks[i] == ("kw", "WHERE"):
            # per-aggregate filter (`agg(x) WHERE cond` — the filtered-
            # aggregation grammar form): condition runs to the next
            # top-level comma
            i += 1
            cond, depth = [], 0
            while i < len(toks):
                t = toks[i]
                if t == ("op", "("):
                    depth += 1
                elif t == ("op", ")"):
                    depth -= 1
                if t == ("op", ",") and depth == 0:
                    break
                cond.append(t)
                i += 1
            if not cond:
                raise EsqlError("empty per-aggregate WHERE condition")
        if i < len(toks):
            if toks[i] != ("op", ","):
                raise EsqlError("aggregations are comma-separated")
            i += 1
        if name is None:
            base_arg = arg[0] if isinstance(arg, tuple) else arg
            name = (f"{fn.lower()}" if base_arg == "*"
                    else f"{fn.lower()}_{base_arg}".replace(".", "_"))
        if cond is not None:
            filters[len(aggs)] = cond
        aggs.append((name, fn, arg))
    if not aggs:
        raise EsqlError("STATS needs at least one aggregation")
    return aggs, by, pre, filters


def _apply_agg_filters(ds, aggs, filters):
    """Rewrite filtered aggregates onto masked helper columns: the
    filter evaluates pre-shuffle into ``_f_<name>`` (value where the
    condition holds, null otherwise — Ray's aggregators ignore nulls),
    COUNT forms become SUMs of 0/1 indicators. One map_batches per
    filtered aggregate; the groupby stays single."""
    if not filters:
        return ds, aggs
    out_aggs = []
    for ix, (name, fn, arg) in enumerate(aggs):
        cond = filters.get(ix)
        if cond is None:
            out_aggs.append((name, fn, arg))
            continue
        if fn in ("COUNT_DISTINCT", "MEDIAN", "PERCENTILE"):
            raise EsqlError(
                f"{fn} does not support a per-aggregate WHERE here")
        mask_fn = _CondParser(list(cond)).parse()
        helper = f"_f{ix}_{name}"  # index-qualified: names may repeat

        def add_helper(df, _m=mask_fn, _h=helper, _fn=fn, _a=arg):
            df = df.copy()
            m = np.asarray(_m(df), bool)
            if _fn == "COUNT":
                ok = m if _a == "*" else (m & df[_a].notna().to_numpy())
                df[_h] = ok.astype(np.int64)
            else:
                df[_h] = df[_a].where(pd.Series(m, index=df.index))
            return df
        ds = ds.map_batches(add_helper, batch_format="pandas")
        out_aggs.append((name, "SUM" if fn == "COUNT" else fn, helper))
    return ds, out_aggs


# grouping-expression fast paths: BUCKET(col, span) — numeric-span
# form (floor to span multiples) and date-span form
# (BUCKET(ts, "N unit"): fixed units floor the epoch by N·unit;
# calendar units week/month/year require N=1 and truncate like
# DATE_TRUNC)
_BUCKET_RE = re.compile(
    r'^BUCKET \( ([A-Za-z_][A-Za-z0-9_.]*) , (-?\d+(?:\.\d+)?) \)$',
    re.IGNORECASE)
_BUCKET_DATE_RE = re.compile(
    r'^BUCKET \( ([A-Za-z_][A-Za-z0-9_.]*) , '
    r'"(\d+) ?(second|minute|hour|day|week|month|year)s?" \)$',
    re.IGNORECASE)

_FIXED_NS = {"second": 1_000_000_000, "minute": 60_000_000_000,
             "hour": 3_600_000_000_000, "day": 86_400_000_000_000}


def _date_bucket_fn(name, col, count, unit):
    unit = unit.lower()
    if count < 1:
        # "0 hours" would floor by zero → all-NaT keys silently
        # dropped by the groupby (review r5d #4)
        raise EsqlError("BUCKET span count must be >= 1")
    if unit in _FIXED_NS:
        span = count * _FIXED_NS[unit]

        def fixed(df, _n=name, _c=col, _s=span):
            df = df.copy()
            # normalize to ns FIRST — pandas 2 keeps the parquet unit
            # (us), whose int64 view is not nanoseconds
            ns = (pd.to_datetime(df[_c]).astype("datetime64[ns]")
                  .astype("int64"))
            df[_n] = pd.to_datetime((ns // _s) * _s)
            return df
        return fixed
    if count != 1:
        raise EsqlError(
            f"BUCKET calendar unit {unit!r} supports only a count of 1")
    period = {"week": "W", "month": "M", "year": "Y"}[unit]

    def calendar(df, _n=name, _c=col, _p=period):
        df = df.copy()
        df[_n] = pd.to_datetime(df[_c]) \
            .dt.to_period(_p).dt.start_time
        return df
    return calendar


def _apply_by_evals(ds, pre):
    """Evaluate BY grouping expressions before the STATS shuffle."""
    for name, expr in pre:
        md = _BUCKET_DATE_RE.match(expr)
        if md:
            ds = ds.map_batches(
                _date_bucket_fn(name, md.group(1), int(md.group(2)),
                                md.group(3)),
                batch_format="pandas")
            continue
        m = _BUCKET_RE.match(expr)
        if m:
            col, span = m.group(1), float(m.group(2))
            if span <= 0:
                raise EsqlError("BUCKET span must be positive")

            def bucketer(df, _n=name, _c=col, _s=span):
                df = df.copy()
                df[_n] = np.floor(
                    df[_c].to_numpy(np.float64) / _s) * _s
                return df
            ds = ds.map_batches(bucketer, batch_format="pandas")
            continue
        from elasticsearch_ray.search.expressions import (
            add_expression_column,
        )
        from elasticsearch_ray.search.qlfuncs import (
            add_ql_column,
            has_ql_function,
        )

        ds = (add_ql_column(ds, name, expr) if has_ql_function(expr)
              else add_expression_column(ds, name, expr))
    return ds


def _comma_patterns(toks, what):
    """Column list where each item may be a wildcard pattern — adjacent
    name/``*`` tokens in one comma segment concatenate (``event_*``
    lexes as name + op)."""
    out = []
    for seg in _comma_split(list(toks)):
        parts = []
        for k, v in seg:
            if k == "name" or (k, v) == ("op", "*"):
                parts.append(v)
            else:
                raise EsqlError(f"{what} takes a column/pattern list")
        if not parts:
            raise EsqlError(f"empty {what} item")
        out.append("".join(parts))
    if not out:
        raise EsqlError(f"empty {what}")
    return out


def _comma_names(toks, what):
    out = []
    for k, v in toks:
        if k == "name":
            out.append(v)
        elif (k, v) != ("op", ","):
            raise EsqlError(f"{what} takes a column list")
    if not out:
        raise EsqlError(f"empty {what}")
    return out


def esql(query: str, tables, enrich_policies: dict | None = None):
    """Execute an ES|QL pipeline. ``tables`` maps source names to Ray
    Datasets (or a callable ``name -> Dataset``). Returns a Ray Dataset
    for row-preserving pipelines; STATS results come back as the
    (small) aggregated Dataset too — call ``.to_pandas()`` on either.
    ``enrich_policies`` maps policy names to
    :func:`ops.processors.execute_enrich_policy` outputs."""
    stages = _split_pipes(_tokenize(query))
    if stages and stages[0] and stages[0][0] == ("kw", "ROW"):
        # ROW a = 1, b = "x": a literal one-row source (RowCommand) —
        # the FROM-less entry point used for expression testing
        import pandas as pd
        import ray.data as _rd

        cols: dict = {}
        for seg in _comma_split(stages[0][1:]):
            # exactly name = literal — trailing tokens ("ROW a = 1 + 2")
            # must error, not silently truncate (review r5 #8)
            if len(seg) != 3 or seg[0][0] != "name" or seg[1] != ("op", "="):
                raise EsqlError("ROW takes name = literal assignments")
            kind, val = seg[2]
            if kind == "number":
                v = float(val) if "." in val or "e" in val.lower() \
                    else int(val)
            elif kind == "string":
                v = val
            else:
                raise EsqlError(f"ROW literal expected, got {val!r}")
            cols[seg[0][1]] = [v]
        if not cols:
            raise EsqlError("ROW needs at least one assignment")
        ds = _rd.from_pandas(pd.DataFrame(cols))
    else:
        if not stages or stages[0][0] != ("kw", "FROM"):
            raise EsqlError("query must start with FROM <table> or ROW")
        head = stages[0]
        if len(head) < 2 or head[1][0] != "name":
            raise EsqlError("FROM takes one table name")
        src = head[1][1]
        ds = tables(src) if callable(tables) else tables[src]
        if len(head) > 2:
            # FROM <table> METADATA _index: expose the source index
            # name as the _index metadata column (the one metadata
            # field a single-table source carries)
            if not _is_word(head[2], "METADATA"):
                raise EsqlError("FROM tail must be METADATA <fields>")
            meta = _comma_names(head[3:], "METADATA")
            if meta != ["_index"]:
                raise EsqlError(
                    f"unsupported METADATA fields {meta!r} "
                    "(only _index)")
            ds = ds.map_batches(
                lambda df, _s=src: df.assign(_index=_s),
                batch_format="pandas")

    def _apply(ds, stage):
        (k0, v0), rest = stage[0], stage[1:]
        if k0 == "name" and v0.upper() in _SOFT_COMMANDS:
            k0, v0 = "kw", v0.upper()
        if k0 != "kw":
            raise EsqlError(f"expected a command, got {v0!r}")
        if v0 == "WHERE":
            src = _tokens_to_src(rest)
            from elasticsearch_ray.search.qlfuncs import (
                has_ql_function,
                ql_where,
            )

            if has_ql_function(src):
                # scalar-function predicate (e.g. YEAR(ts) == 2024) rides
                # the QL function layer; plain column predicates keep the
                # pipe dialect's own condition parser (LIKE etc.)
                ds = ql_where(ds, src)
            else:
                cond = _CondParser(rest).parse()

                def where(df, cond=cond):
                    return df[np.asarray(cond(df), bool)]
                ds = ds.map_batches(where, batch_format="pandas")
        elif v0 == "EVAL":
            from elasticsearch_ray.search.expressions import (
                add_expression_column,
            )
            from elasticsearch_ray.search.qlfuncs import (
                add_ql_column,
                has_ql_function,
            )

            for name, expr in _parse_assignments(rest, "EVAL"):
                m = _SPLIT_RE.match(expr)
                if m:  # EVAL x = SPLIT(col, "sep") -> list column
                    # the separator comes from the TOKEN (re-lex of the
                    # escaped text), not the regex capture, so
                    # backslashes/quotes in it round-trip (review r5d #2)
                    toks2 = _tokenize(expr)
                    if (len(toks2) != 6 or toks2[2][0] != "name"
                            or toks2[4][0] != "string"):
                        raise EsqlError('SPLIT takes (col, "separator")')
                    col, sep = toks2[2][1], toks2[4][1]

                    def splitter(df, name=name, col=col, sep=sep):
                        df = df.copy()
                        # literal separator (regex=False — ES|QL SPLIT
                        # delimiters are strings, not patterns); string
                        # dtype keeps nulls null instead of "None"
                        df[name] = df[col].astype("string") \
                            .str.split(sep, regex=False)
                        return df
                    ds = ds.map_batches(splitter, batch_format="pandas")
                elif (mv := _MV_FN_RE.match(expr)):
                    # structure-parse the args from TOKENS (re-lex the
                    # escaped expr text) so delimiters containing ", "
                    # or quotes survive intact (review r5c #6)
                    fn = mv.group(1)
                    toks2 = _tokenize(expr)
                    if (len(toks2) < 4 or toks2[1] != ("op", "(")
                            or toks2[-1] != ("op", ")")):
                        raise EsqlError(f"bad {fn} call")
                    args = _comma_split(toks2[2:-1])
                    if not args or len(args[0]) != 1 \
                            or args[0][0][0] != "name":
                        raise EsqlError(f"{fn} takes a column first")
                    col = args[0][0][1]
                    extras = []
                    for seg in args[1:]:
                        if len(seg) != 1:
                            raise EsqlError(f"bad {fn} argument")
                        k2, v2 = seg[0]
                        if k2 == "string":
                            extras.append(v2)
                        elif k2 == "number":
                            extras.append(int(v2)
                                          if re.fullmatch(r"-?\d+", v2)
                                          else float(v2))
                        else:
                            extras.append(v2)
                    fn_v = _make_mv_fn(fn, extras)
                    ds = ds.map_batches(
                        lambda df, _n=name, _c=col, _f=fn_v:
                        _mv_column(df, _n, _c, _f),
                        batch_format="pandas")
                elif has_ql_function(expr):
                    # string/date/conditional scalar (the SQL function
                    # registry, search/qlfuncs.py)
                    ds = add_ql_column(ds, name, expr)
                else:
                    ds = add_expression_column(ds, name, expr)
        elif v0 == "STATS":
            aggs, by, pre, filters = _parse_stats(rest)
            ds, aggs = _apply_agg_filters(
                _apply_by_evals(ds, pre), aggs, filters)
            ds = _run_stats(ds, aggs, by)
        elif v0 == "INLINESTATS":
            # windowed aggregate: attach the per-group aggregates to
            # every row WITHOUT collapsing (the ES|QL INLINESTATS
            # contract). The big side never shuffles — the (small)
            # grouped stats frame is computed once, ray.put once, and
            # hash-joined into each batch; same-name columns are
            # replaced, as in the reference
            import ray as _ray

            aggs, by, pre, filters = _parse_stats(rest)
            ds = _apply_by_evals(ds, pre)
            sds, faggs = _apply_agg_filters(ds, aggs, filters)
            stats_df = _run_stats(sds, faggs, by).to_pandas()
            sref = _ray.put(stats_df)
            new_cols = [n for n, _f, _a in aggs]

            def attach(df, _by=list(by or []), _new=new_cols, _r=sref):
                import ray as _ray2

                s = _ray2.get(_r)
                df = df.drop(columns=[c for c in _new if c in df.columns])
                if _by:
                    return df.merge(s, on=_by, how="left")
                out = df.copy()
                for c in _new:
                    out[c] = s[c].iloc[0]
                return out

            ds = ds.map_batches(attach, batch_format="pandas")
        elif v0 == "SORT":
            keys, desc = [], []
            i = 0
            while i < len(rest):
                if rest[i][0] != "name":
                    raise EsqlError("SORT takes col [ASC|DESC], ...")
                keys.append(rest[i][1])
                i += 1
                d = False
                if i < len(rest) and rest[i] in (("kw", "ASC"), ("kw", "DESC")):
                    d = rest[i] == ("kw", "DESC")
                    i += 1
                desc.append(d)
                if i < len(rest):
                    if rest[i] != ("op", ","):
                        raise EsqlError("SORT keys are comma-separated")
                    i += 1
            if not keys:
                raise EsqlError("SORT needs at least one key")
            ds = ds.sort(keys, descending=desc)
        elif v0 == "LIMIT":
            if len(rest) != 1 or rest[0][0] != "number":
                raise EsqlError("LIMIT takes one number")
            ds = ds.limit(int(rest[0][1]))
        elif v0 == "MV_EXPAND":
            if len(rest) != 1 or rest[0][0] != "name":
                raise EsqlError("MV_EXPAND takes one column")
            col = rest[0][1]

            def expand(df, col=col):
                # row-local explode: one output row per value, null/empty
                # multivalues keep a single null row (ES|QL semantics)
                return df.explode(col, ignore_index=True)
            ds = ds.map_batches(expand, batch_format="pandas")
        elif v0 == "KEEP":
            names = _comma_patterns(rest, "KEEP")
            if any("*" in n for n in names):
                # wildcard projection (the grammar's qualified-name
                # patterns): expand per batch in KEEP order, first
                # match wins, non-matching patterns are ignored
                def keeper(df, _pats=tuple(names)):
                    cols = []
                    for p in _pats:
                        for c in df.columns:
                            if c not in cols and fnmatch.fnmatchcase(c, p):
                                cols.append(c)
                    return df[cols]
                ds = ds.map_batches(keeper, batch_format="pandas")
            else:
                ds = ds.select_columns(names)
        elif v0 == "DROP":
            drop = _comma_patterns(rest, "DROP")

            def dropper(df, _pats=tuple(drop)):
                gone = [c for c in df.columns
                        if any(fnmatch.fnmatchcase(c, p) for p in _pats)]
                return df.drop(columns=gone)
            ds = ds.map_batches(dropper, batch_format="pandas")
        elif v0 == "RENAME":
            pairs = {}
            i = 0
            while i < len(rest):
                if (i + 2 >= len(rest) or rest[i][0] != "name"
                        or rest[i + 1] != ("kw", "AS")
                        or rest[i + 2][0] != "name"):
                    raise EsqlError("RENAME takes old AS new, ...")
                pairs[rest[i][1]] = rest[i + 2][1]
                i += 3
                if i < len(rest):
                    if rest[i] != ("op", ","):
                        raise EsqlError("RENAME pairs are comma-separated")
                    i += 1

            def renamer(df, pairs=pairs):
                return df.rename(columns=pairs)
            ds = ds.map_batches(renamer, batch_format="pandas")
        elif v0 in ("DISSECT", "GROK"):
            if len(rest) != 2 or rest[0][0] != "name" or rest[1][0] != "string":
                raise EsqlError(f"{v0} takes: {v0} <col> \"pattern\"")
            from elasticsearch_ray.ops.processors import (
                DissectProcessor,
                GrokProcessor,
            )

            cls = DissectProcessor if v0 == "DISSECT" else GrokProcessor
            proc = cls(rest[0][1], rest[1][1])
            ds = ds.map_batches(lambda df, p=proc: p(df),
                                batch_format="pandas")
        elif v0 == "ENRICH":
            if not rest or rest[0][0] != "name":
                raise EsqlError("ENRICH takes: ENRICH <policy> ON <field>")
            policy_name = rest[0][1]
            if len(rest) < 3 or rest[1] != ("kw", "ON") or rest[2][0] != "name":
                raise EsqlError("ENRICH needs ON <field>")
            field = rest[2][1]
            with_cols = None
            if len(rest) > 3:
                if rest[3] != ("kw", "WITH"):
                    raise EsqlError("ENRICH tail must be WITH col, ...")
                with_cols = _comma_names(rest[4:], "WITH")
            if not enrich_policies or policy_name not in enrich_policies:
                raise EsqlError(f"unknown enrich policy {policy_name!r}")
            pol = enrich_policies[policy_name]
            if with_cols:
                pol = pol[[pol.columns[0]] + with_cols]
            from elasticsearch_ray.ops.processors import EnrichProcessor

            # ES|QL ENRICH lands bare enriched column names (no target
            # prefix) — target "" + strip the leading dot
            proc = EnrichProcessor(field, pol, target_field="")

            def enrich(df, p=proc):
                out = p(df)
                return out.rename(columns={
                    c: c[1:] for c in out.columns if c.startswith(".")})
            ds = ds.map_batches(enrich, batch_format="pandas")
        elif v0 == "LOOKUP":
            # LOOKUP JOIN <index> ON <field> (the lookup-join command;
            # join-lookup grammar of the published ES|QL spec): left
            # join against a lookup-MODE index. Lookup indices are
            # small by the mode's own contract (single shard), so the
            # lookup side is materialized once, ray.put once and
            # hash-merged into each batch — the big side never
            # shuffles. Same-named non-key columns take the lookup
            # side's values (reference precedence); several matching
            # lookup rows emit one output row per match.
            if (len(rest) != 4 or not _is_word(rest[0], "JOIN")
                    or rest[1][0] != "name" or rest[2] != ("kw", "ON")
                    or rest[3][0] != "name"):
                raise EsqlError(
                    "LOOKUP JOIN takes: LOOKUP JOIN <index> ON <field>")
            lk_name, field = rest[1][1], rest[3][1]
            lk_ds = tables(lk_name) if callable(tables) else tables[lk_name]
            lk = (lk_ds.to_pandas() if hasattr(lk_ds, "to_pandas")
                  else pd.DataFrame(lk_ds))
            if field not in lk.columns:
                raise EsqlError(
                    f"lookup index {lk_name!r} has no join field {field!r}")
            import ray as _ray

            lref = _ray.put(lk)

            def lookup_join(df, _f=field, _r=lref):
                import ray as _ray2

                s = _ray2.get(_r)
                over = [c for c in s.columns
                        if c != _f and c in df.columns]
                return df.drop(columns=over).merge(s, on=_f, how="left")
            ds = ds.map_batches(lookup_join, batch_format="pandas")
        elif v0 == "SAMPLE":
            # SAMPLE <probability> [<seed>] — row sampling. The
            # reference samples with an unseeded per-row RNG; this is
            # the reproducible equivalent: keep a row iff
            # md5(seed:row) mod 10000 < p*10000, a pure function of the
            # whole row (stable under repartition and re-runs, exactly
            # SQL-twin-able — same band rule as ops.llm_prep.hash_split).
            # The row's text is ``_row_text``: rows that share some
            # column's value still sample independently.
            import hashlib

            if not rest or rest[0][0] != "number":
                raise EsqlError("SAMPLE takes: SAMPLE <probability> [<seed>]")
            p = float(rest[0][1])
            if not 0.0 < p <= 1.0:
                raise EsqlError("SAMPLE probability must be in (0, 1]")
            if len(rest) > 2 or (len(rest) == 2 and rest[1][0] != "number"):
                raise EsqlError("SAMPLE seed must be a number")
            seed = rest[1][1] if len(rest) == 2 else ""
            cut = int(round(p * 10000))

            def sample(batch, _s=seed, _cut=cut):
                rows = _row_text(batch)
                bands = np.fromiter(
                    (int(hashlib.md5((_s + ":" + r).encode())
                         .hexdigest()[:8], 16) % 10000 for r in rows),
                    np.int64, len(rows))
                return batch.filter(bands < _cut)
            ds = ds.map_batches(sample, batch_format="pyarrow")
        elif v0 == "CHANGE_POINT":
            # CHANGE_POINT <value> [ON <key>] [AS <type>, <pvalue>]:
            # the change-point command — runs the full detection
            # cascade (ops/changepoint.py, the reference's ChangeType
            # family) over the value series ordered by the key and
            # annotates THE change-point row with type + p-value (all
            # other rows null; non-positional results — stationary /
            # trend — leave every row null). The command's own
            # contract caps the series at 1000 values, so the two-
            # column driver pull is bounded by construction.
            val_col = rest[0][1] if rest and rest[0][0] == "name" else None
            if val_col is None:
                raise EsqlError(
                    "CHANGE_POINT takes: CHANGE_POINT <value> [ON <key>] "
                    "[AS <type_name>, <pvalue_name>]")
            i = 1
            key = "@timestamp"
            type_name, pv_name = "type", "pvalue"
            if i < len(rest) and rest[i] == ("kw", "ON"):
                if i + 1 >= len(rest) or rest[i + 1][0] != "name":
                    raise EsqlError("CHANGE_POINT ON needs a column")
                key = rest[i + 1][1]
                i += 2
            if i < len(rest):
                if rest[i] != ("kw", "AS"):
                    raise EsqlError("CHANGE_POINT tail must be AS t, p")
                names = _comma_names(rest[i + 1:], "CHANGE_POINT AS")
                if len(names) != 2:
                    raise EsqlError(
                        "CHANGE_POINT AS takes exactly two names")
                type_name, pv_name = names
                i = len(rest)
            frame = ds.select_columns([key, val_col]).to_pandas()
            if len(frame) > 1000:
                raise EsqlError(
                    "CHANGE_POINT supports at most 1000 values; got "
                    f"{len(frame)} — aggregate first (STATS ... BY)")
            from elasticsearch_ray.ops.changepoint import change_point_agg

            res = change_point_agg(frame, key, val_col)
            bucket = res.get("bucket")
            ctype, pv = res["type"], float(res["p_value"])

            def attach_cp(df, _k=key, _b=bucket, _t=ctype, _p=pv,
                          _tn=type_name, _pn=pv_name):
                df = df.copy()
                df[_tn] = np.full(len(df), None, object)
                df[_pn] = np.nan
                if _b is not None:
                    m = (df[_k] == _b).to_numpy(bool)
                    df.loc[m, _tn] = _t
                    df.loc[m, _pn] = _p
                return df
            ds = ds.map_batches(attach_cp, batch_format="pandas")
        elif v0 == "RERANK":
            # RERANK "query" ON <field> [WITH <inference_id>]: run the
            # rerank model over (query, row-field) pairs and write the
            # relevance into _score (the inference rerank command of
            # the published grammar). The model registry's
            # deterministic bow expansion stands in for a neural
            # reranker exactly as in sparse_vector/semantic_text:
            # score = Σ_t qw(t) · (1 + ln tf_field(t)). Streaming
            # narrow transform — query weights broadcast once.
            if (len(rest) < 3 or rest[0][0] != "string"
                    or rest[1] != ("kw", "ON") or rest[2][0] != "name"):
                raise EsqlError(
                    'RERANK takes: RERANK "query" ON <field> '
                    "[WITH <inference_id>]")
            rq, field = rest[0][1], rest[2][1]
            inference_id = "bow"
            if len(rest) > 3:
                if (len(rest) != 5 or rest[3] != ("kw", "WITH")
                        or rest[4][0] != "name"):
                    raise EsqlError("RERANK tail must be WITH <model>")
                inference_id = rest[4][1]
            from elasticsearch_ray.search.sparse_vector import (
                expansion_model,
            )

            model = expansion_model(inference_id)
            qw = model(rq)

            def rerank(df, _f=field, _q=qw, _m=model):
                def one(t):
                    if not isinstance(t, str):
                        return 0.0
                    dw = _m(t)
                    return sum(w * dw.get(tok, 0.0)
                               for tok, w in _q.items())
                df = df.copy()
                df["_score"] = np.asarray([one(t) for t in df[_f]],
                                          np.float64)
                return df
            ds = ds.map_batches(rerank, batch_format="pandas")
        elif v0 == "COMPLETION":
            # COMPLETION <out> = <prompt_col> WITH <inference_id>: run
            # the completion model over each row's prompt and write the
            # generated text (the inference completion command). The
            # registry's deterministic extractive model stands in for a
            # generative endpoint. Streaming narrow transform.
            if (len(rest) != 5 or rest[0][0] != "name"
                    or rest[1] != ("op", "=") or rest[2][0] != "name"
                    or rest[3] != ("kw", "WITH") or rest[4][0] != "name"):
                raise EsqlError(
                    "COMPLETION takes: COMPLETION <out> = <prompt_col> "
                    "WITH <inference_id>")
            out_col, prompt_col, model_id = (rest[0][1], rest[2][1],
                                             rest[4][1])
            from elasticsearch_ray.search.sparse_vector import (
                completion_model,
            )

            cfn = completion_model(model_id)

            def complete(df, _o=out_col, _c=prompt_col, _f=cfn):
                df = df.copy()
                df[_o] = [None if not isinstance(t, str) else _f(t)
                          for t in df[_c]]
                return df
            ds = ds.map_batches(complete, batch_format="pandas")
        elif v0 == "FORK":
            # FORK (subpipe) (subpipe) ...: run each branch over the
            # SAME input Dataset (the plan is lazy — branches share the
            # upstream stages, nothing re-reads), tag rows with the
            # _fork discriminator (fork1, fork2, … in branch order) and
            # union. Branch column sets are aligned by null-padding to
            # the union of columns, the reference's own output contract.
            branches, cur, depth = [], [], 0
            for t in rest:
                if t == ("op", "("):
                    depth += 1
                    if depth == 1:
                        continue
                elif t == ("op", ")"):
                    depth -= 1
                    if depth == 0:
                        branches.append(cur)
                        cur = []
                        continue
                    if depth < 0:
                        raise EsqlError("unbalanced ) in FORK")
                if depth < 1:
                    raise EsqlError("FORK takes (subpipeline) groups")
                cur.append(t)
            if depth != 0 or cur:
                raise EsqlError("unbalanced ( in FORK")
            if not branches:
                raise EsqlError("FORK needs at least one branch")
            outs = []
            for bi, btoks in enumerate(branches, 1):
                sub = ds
                for s in _split_pipes(btoks):
                    sub = _apply(sub, s)
                tag = f"fork{bi}"
                outs.append(sub.map_batches(
                    lambda df, _t=tag: df.assign(_fork=_t),
                    batch_format="pandas"))
            # schema() is a BOUNDED probe, not full execution: Ray
            # resolves it with an internal limit-1 plan (verified: a
            # counted map_batches over 8 blocks runs once for the
            # first block only), so the union-of-columns costs one
            # first-block pass per branch (review r5c #9)
            col_sets = [list(o.schema().names) for o in outs]
            allcols: list = []
            for ns in col_sets:
                for c in ns:
                    if c not in allcols:
                        allcols.append(c)
            aligned = []
            for o, ns in zip(outs, col_sets):
                missing = tuple(c for c in allcols if c not in ns)

                def pad(df, _m=missing, _order=tuple(allcols)):
                    df = df.copy()
                    for c in _m:
                        df[c] = None
                    return df[list(_order)]
                aligned.append(o.map_batches(pad, batch_format="pandas"))
            ds = aligned[0].union(*aligned[1:]) if len(aligned) > 1 \
                else aligned[0]
        else:
            raise EsqlError(f"unsupported command {v0}")
        return ds

    for stage in stages[1:]:
        ds = _apply(ds, stage)
    return ds


def _run_stats(ds, aggs, by):
    from ray.data.aggregate import Count, Max, Mean, Min, Sum

    simple = {"SUM": Sum, "AVG": Mean, "MIN": Min, "MAX": Max}
    ray_aggs = []
    distincts = []
    quantiles = []  # exact per-group quantiles via map_groups
    for name, fn, arg in aggs:
        if fn == "COUNT":
            # COUNT(col) counts non-null values, COUNT(*) counts rows
            ray_aggs.append(Count(alias_name=name) if arg == "*"
                            else Count(arg, ignore_nulls=True,
                                       alias_name=name))
        elif fn == "COUNT_DISTINCT":
            distincts.append((name, arg))
        elif fn == "MEDIAN":
            quantiles.append((name, arg, 0.5))
        elif fn == "PERCENTILE":
            col, pct = arg
            if not 0.0 <= pct <= 100.0:
                raise EsqlError("PERCENTILE percent must be in [0, 100]")
            quantiles.append((name, col, pct / 100.0))
        else:
            ray_aggs.append(simple[fn](arg, alias_name=name))
    parts = []
    if ray_aggs:
        if by:
            parts.append(ds.groupby(by).aggregate(*ray_aggs).to_pandas())
        else:
            row = ds.aggregate(*ray_aggs)
            parts.append(pd.DataFrame([row]))
    for name, arg in distincts:
        # exact distinct via two map-side-combined groupbys: (by, arg)
        # first-dedup, then count per by — no driver-side id sets
        from ray.data.aggregate import Count as _C

        sub = (ds.groupby((by or []) + [arg])
               .aggregate(_C(alias_name="_one")))
        if by:
            parts.append(sub.groupby(by).aggregate(
                _C(alias_name=name)).to_pandas())
        else:
            parts.append(pd.DataFrame(
                [{name: sub.count()}]))
    if quantiles:
        # exact quantile (linear interpolation — DuckDB quantile_cont /
        # pandas default; the reference's t-digest is approximate, this
        # subset computes the exact value): per-group via ONE hash
        # shuffle (groupby.map_groups); global via a single-column pull
        # (bounded by the column, not the table)
        def q_group(df, _q=list(quantiles), _by=list(by or [])):
            out = {k: [df[k].iloc[0]] for k in _by}
            for name, col, q in _q:
                out[name] = [float(df[col].quantile(q))]
            return pd.DataFrame(out)

        if by:
            parts.append(ds.groupby(by).map_groups(
                q_group, batch_format="pandas").to_pandas())
        else:
            cols = sorted({c for _n, c, _q in quantiles})
            frame = ds.select_columns(cols).to_pandas()
            parts.append(pd.DataFrame([{
                name: float(frame[col].quantile(q))
                for name, col, q in quantiles}]))
    out = parts[0]
    for p in parts[1:]:
        out = out.merge(p, on=by) if by else pd.concat([out, p], axis=1)
    if by:
        out = out.sort_values(by).reset_index(drop=True)
    import ray.data as rd

    return rd.from_pandas(out)
