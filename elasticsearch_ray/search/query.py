"""Query AST — the subset of the reference's 51 registered query types that
executes over our postings (SURVEY §2.5; registry ``search/SearchModule.java:
1081-1170``). Construction mirrors the DSL builders in ``index/query/``."""

from __future__ import annotations

from dataclasses import dataclass, field

from elasticsearch_ray.index.spec import fkey


class Query:
    pass


@dataclass(frozen=True)
class TermQuery(Query):
    """Exact term, no analysis (index/query/TermQueryBuilder.java).
    ``field`` selects an extra indexed field (None = default text field)."""

    term: str
    boost: float = 1.0
    field: str | None = None


@dataclass(frozen=True)
class TermsQuery(Query):
    """Any-of terms, constant per-term scoring (TermsQueryBuilder.java)."""

    terms: tuple
    boost: float = 1.0


@dataclass(frozen=True)
class TermsLookupQuery(Query):
    """``terms`` lookup variant (``indices/TermsLookup.java:33``): the term
    set is fetched from another document — here the analyzed tokens of the
    source doc's text field, resolved ONCE at the engine (broadcast
    small-side lookup, no shuffle), then run as a constant-score TermsQuery."""

    doc_id: int = 0
    text_column: str = "text"
    boost: float = 1.0


@dataclass(frozen=True)
class MatchQuery(Query):
    """Analyze text → boolean of term queries (index/search/MatchQueryParser.java:
    58,197-243): operator 'or' → SHOULD clauses, 'and' → MUST clauses;
    minimum_should_match per Queries.calculateMinShouldMatch."""

    text: str
    operator: str = "or"
    minimum_should_match: int | str | None = None
    analyzer: str | None = None
    zero_terms_query: str = "none"  # "none" | "all" (MatchQueryParser zeroTermsQuery)
    boost: float = 1.0
    field: str | None = None


@dataclass(frozen=True)
class MatchPhraseQuery(Query):
    """Positions-based phrase (MatchPhraseQueryBuilder.java). slop=0 is exact
    consecutive positions; slop>0 uses the window interpretation: positions
    p_i exist with max(p_i - i) - min(p_i - i) <= slop (a documented
    simplification of Lucene's sloppy edit-distance semantics)."""

    text: str
    slop: int = 0
    analyzer: str | None = None
    boost: float = 1.0
    field: str | None = None


@dataclass(frozen=True)
class MatchPhrasePrefixQuery(Query):
    """Phrase whose LAST term is a prefix (MatchPhrasePrefixQueryBuilder):
    the prefix expands against the term dict (≤ max_expansions, like the
    reference's default 50) into a disjunction of exact phrases."""

    text: str
    max_expansions: int = 50
    analyzer: str | None = None
    boost: float = 1.0


@dataclass(frozen=True)
class MatchAllQuery(Query):
    boost: float = 1.0


@dataclass(frozen=True)
class MatchNoneQuery(Query):
    """match_none (MatchNoneQueryBuilder, SearchModule.java:1097): matches
    no documents."""

    boost: float = 1.0


@dataclass(frozen=True)
class PrefixQuery(Query):
    """Term-dict range scan → constant-score disjunction (PrefixQueryBuilder.java)."""

    prefix: str
    boost: float = 1.0


@dataclass(frozen=True)
class RangeFilter(Query):
    """Doc-values range filter on a docs.parquet column (RangeQueryBuilder.java
    semantics over our doc columns, e.g. warc_ts / lang). Non-scoring."""

    column: str
    gte: object = None
    lte: object = None
    gt: object = None
    lt: object = None


@dataclass(frozen=True)
class TermFilter(Query):
    """Non-scoring exact filter on a doc column (e.g. lang = 'en')."""

    column: str
    value: object = None


@dataclass(frozen=True)
class WildcardQuery(Query):
    """Term-dict scan with * / ? globs → constant-score disjunction
    (WildcardQueryBuilder.java; multi-term rewrite constant_score)."""

    pattern: str
    boost: float = 1.0


@dataclass(frozen=True)
class RegexpQuery(Query):
    """Term-dict regex scan (RegexpQueryBuilder.java); python re syntax,
    anchored like Lucene (the whole term must match)."""

    pattern: str
    boost: float = 1.0


@dataclass(frozen=True)
class FuzzyQuery(Query):
    """Terms within Damerau-Levenshtein distance <= fuzziness
    (FuzzyQueryBuilder.java; AUTO = 0/1/2 by term length)."""

    term: str
    fuzziness: int | str = "AUTO"
    prefix_length: int = 0
    boost: float = 1.0


@dataclass(frozen=True)
class ExistsQuery(Query):
    """Docs with at least one indexed token in the field
    (ExistsQueryBuilder.java) — here: doclen > 0 (per-field doclen for extra
    fields)."""

    boost: float = 1.0
    field: str | None = None


@dataclass(frozen=True)
class IdsQuery(Query):
    """Docs by global doc_id list (SearchModule.java:1156 ids query)."""

    ids: tuple
    boost: float = 1.0


@dataclass(frozen=True)
class ConstantScoreQuery(Query):
    """Wraps a filter; every match scores `boost`
    (ConstantScoreQueryBuilder.java)."""

    filter: Query = None
    boost: float = 1.0


@dataclass(frozen=True)
class DisMaxQuery(Query):
    """max of clause scores + tie_breaker * sum of the rest
    (DisMaxQueryBuilder.java)."""

    queries: tuple = ()
    tie_breaker: float = 0.0
    boost: float = 1.0


@dataclass(frozen=True)
class BoostingQuery(Query):
    """positive clause scores; docs also matching negative are multiplied by
    negative_boost (BoostingQueryBuilder.java)."""

    positive: Query = None
    negative: Query = None
    negative_boost: float = 0.5


@dataclass(frozen=True)
class ScoreFunction:
    """One entry of function_score's ``functions`` array
    (FunctionScoreQueryBuilder.FilterFunctionBuilder). ``kind``:

    - ``weight`` — constant ``weight`` for docs matching ``filter``;
    - ``field_value_factor`` — params ``field``/``factor``/``modifier``
      (none|log1p|sqrt), FieldValueFactorFunctionBuilder;
    - ``random_score`` — params ``seed`` (int) and ``field`` (default
      ``doc_id``); stable uniform [0, 1) via the same murmur3 used for
      routing (RandomScoreFunctionBuilder — the reference mixes seed and
      a per-doc value the same way, different mix constants);
    - ``gauss`` / ``exp`` / ``linear`` — numeric decay
      (DecayFunctionBuilder): params ``field``, ``origin``, ``scale``,
      ``offset`` (default 0), ``decay`` (default 0.5); value at distance
      ``scale`` beyond ``offset`` equals ``decay``.

    ``filter`` (None = match all docs of the base query) gates the
    function; ``weight`` multiplies its output (weight function: the
    weight IS the output)."""

    kind: str = "weight"
    params: tuple = ()  # sorted (key, value) pairs, hashable
    weight: float = 1.0
    filter: Query | None = None

    def param(self, key, default=None):
        return dict(self.params).get(key, default)


@dataclass(frozen=True)
class FunctionScoreQuery(Query):
    """function_score (FunctionScoreQueryBuilder): base query score
    combined with either the legacy single field_value_factor
    (``field``/``factor``/``modifier``), a script, or a ``functions``
    array of ScoreFunction entries combined per ``score_mode``
    (multiply|sum|avg|max|min|first over MATCHING functions; docs
    matching none keep factor 1), capped at ``max_boost``, then merged
    with the base score per ``boost_mode``
    (multiply|sum|avg|max|min|replace); hits below ``min_score`` drop.

    ``script`` set = ScriptScoreQueryBuilder semantics instead: the
    script REPLACES the score — it reads doc columns and ``_score``
    (the base query score); final score is weight · script.
    ``script_lang`` picks the engine: ``"expression"`` (the vectorized
    lang-expression analog, search/expressions.py — this engine's
    default) or ``"painless"`` (the sandboxed Painless subset,
    search/painless.py, with its own vector fast path);
    ``script_params`` is the Painless ``params`` map as sorted items."""

    query: Query = None
    field: str = None
    factor: float = 1.0
    modifier: str = "none"
    weight: float = 1.0
    boost_mode: str = "multiply"
    script: str | None = None
    script_lang: str = "expression"
    script_params: tuple = ()
    functions: tuple = ()
    score_mode: str = "multiply"
    max_boost: float = float("inf")
    min_score: float | None = None


@dataclass(frozen=True)
class MoreLikeThisQuery(Query):
    """more_like_this subset (MoreLikeThisQueryBuilder): from the LIKE text
    and/or LIKE documents (``like_ids`` — the reference's ``{"_id": ...}``
    items, whose text is fetched from the _source lineage like
    _termvectors does), keep terms passing min_term_freq/min_doc_freq,
    rank by tf·idf, take the top max_query_terms, run as a SHOULD
    disjunction."""

    like: str = ""
    max_query_terms: int = 25
    min_term_freq: int = 2
    min_doc_freq: int = 5
    analyzer: str | None = None
    boost: float = 1.0
    like_ids: tuple = ()


@dataclass(frozen=True)
class MultiMatchQuery(Query):
    """multi_match over the indexed fields (MultiMatchQueryBuilder.java):
    best_fields = dis_max of per-field match queries (+ tie_breaker);
    most_fields = bool-should sum of per-field matches. Rewritten at the
    coordinator into the corresponding compound query; per-field boosts via
    ``boosts`` (field → boost)."""

    text: str
    fields: tuple = (None,)  # None = default field
    # "best_fields" | "most_fields" | "phrase" | "phrase_prefix"
    type: str = "best_fields"
    tie_breaker: float = 0.0
    operator: str = "or"
    boosts: tuple = ()  # ((field, boost), ...)
    boost: float = 1.0


@dataclass(frozen=True)
class CombinedFieldsQuery(Query):
    """combined_fields (CombinedFieldQueryBuilder / Lucene
    CombinedFieldQuery, the BM25F simplification): fields are blended into
    ONE pseudo-field per term — tf' = Σ_f w_f·tf_f, dl' = Σ_f w_f·dl_f,
    avgdl' = Σ_f w_f·avgdl_f, df' = max_f df_f, idf from df' — then scored
    as ordinary BM25 over the pseudo-field. Exhaustive evaluation (per-field
    postings decode + blend; no BMW bound is defined for blended tf)."""

    text: str
    fields: tuple = (None,)
    weights: tuple = ()  # aligned with fields; default 1.0 each
    operator: str = "or"
    boost: float = 1.0


@dataclass(frozen=True)
class QueryStringQuery(Query):
    """query_string subset (QueryStringQueryBuilder.java / Lucene classic
    syntax): field:term, field:"phrase", AND / OR / NOT, +/- prefixes,
    parentheses, quoted phrases, trailing-* prefix terms. Parsed at the
    coordinator into the bool/phrase/prefix AST."""

    query: str
    default_field: str | None = None
    default_operator: str = "or"
    boost: float = 1.0


@dataclass(frozen=True)
class SpanNearQuery(Query):
    """span_near over span_term clauses (SpanNearQueryBuilder.java; registry
    SearchModule.java:1112-1128). A doc matches when an occurrence of every
    clause term exists with total intervening-token gap <= slop; in_order
    additionally requires occurrences in clause order (NearSpansOrdered
    semantics: chain each start through the earliest later occurrence of the
    next clause). Matches count as a sloppy freq and score like a phrase
    (BM25 over the clauses' combined idf)."""

    clauses: tuple = ()
    slop: int = 0
    in_order: bool = True
    boost: float = 1.0


@dataclass(frozen=True)
class SpanFirstQuery(Query):
    """span_first (SpanFirstQueryBuilder): the inner span_term must match
    within the first ``end`` positions (position < end)."""

    term: str
    end: int = 3
    boost: float = 1.0


@dataclass(frozen=True)
class SpanWithinQuery(Query):
    """span_within (SpanWithinQueryBuilder, SearchModule.java:1112-1128
    registry): occurrences of the ``little`` span_term lying inside a match
    of the ordered ``big`` span_near chain; scored on the little term's
    contained freq (Lucene SpanWithinQuery/SpanContainQuery semantics over
    term-leaf spans)."""

    little: str = ""
    big: tuple = ()  # ordered span_near clause terms
    big_slop: int = 0
    boost: float = 1.0


@dataclass(frozen=True)
class SpanContainingQuery(Query):
    """span_containing (SpanContainingQueryBuilder): matches of the ordered
    ``big`` span_near chain that contain at least one ``little`` occurrence;
    freq = number of such big spans per doc."""

    little: str = ""
    big: tuple = ()
    big_slop: int = 0
    boost: float = 1.0


@dataclass(frozen=True)
class SpanOrQuery(Query):
    """span_or (SpanOrQueryBuilder) over span_term clauses: spans are the
    union of the clause terms' occurrences; per-doc freq = total occurrence
    count, scored with the summed idf of the clause terms (SpanWeight's
    buildSimWeight over all clause terms)."""

    clauses: tuple = ()
    boost: float = 1.0


@dataclass(frozen=True)
class SpanNotQuery(Query):
    """span_not (SpanNotQueryBuilder) with span_term include/exclude: an
    include occurrence at position p is dropped when an exclude occurrence
    lies within [p - pre, p + post]; freq = surviving occurrences, scored
    with the include term's idf."""

    include: str = ""
    exclude: str = ""
    pre: int = 0
    post: int = 0
    boost: float = 1.0


@dataclass(frozen=True)
class PinnedQuery(Query):
    """pinned (x-pack PinnedQueryBuilder): the given doc ids rank above every
    organic hit, in the listed order (pinned scores descend from a constant
    far above any BM25 score); pinned docs are removed from the organic set."""

    ids: tuple = ()
    organic: Query | None = None
    boost: float = 1.0


@dataclass(frozen=True)
class RankFeatureQuery(Query):
    """rank_feature (RankFeatureQueryBuilder) over a numeric doc column OR a
    feature inside a ``rank_features`` sidecar (``field.feature`` — the
    reference's RankFeaturesFieldMapper / Lucene FeatureField model, weights
    freq-encoded with FeatureField's 9-bit-mantissa precision loss):
    saturation  S = x / (x + pivot)
    log         S = ln(scaling_factor + x)
    sigmoid     S = x^exp / (x^exp + pivot^exp)
    linear      S = x                (FeatureField.newLinearQuery)
    score = boost * S. Doc-column fields match every doc; sidecar features
    match only docs CARRYING the feature (FeatureField postings semantics).
    ``pivot=None`` on saturation = Lucene's computePivotFeatureValue
    auto-pivot (decode(sum_freq / df) for sidecar features, column mean for
    doc columns), resolved once at the coordinator rewrite."""

    field: str = ""
    function: str = "saturation"  # saturation | log | sigmoid | linear
    pivot: float | None = 1.0
    scaling_factor: float = 1.0
    exponent: float = 1.0
    boost: float = 1.0


@dataclass(frozen=True)
class WeightedTokensQuery(Query):
    """weighted_tokens / sparse-vector retrieval over a ``rank_features``
    sidecar field: score = Σ_t query_weight(t) · stored_weight(t, doc) — a
    single-pass disjunction of Lucene ``FeatureField.newLinearQuery`` clauses
    (the ELSER/text-expansion execution shape; the reference era exposes the
    same scoring as a bool-should of linear rank_feature queries over a
    RankFeaturesFieldMapper field). Docs matching no token don't match."""

    field: str = ""
    tokens: tuple = ()  # ((token, weight), ...)
    boost: float = 1.0


@dataclass(frozen=True)
class SparseVectorQuery(Query):
    """sparse_vector query (8.15 SparseVectorQueryBuilder; also serving
    the deprecated ``text_expansion`` form): either explicit
    ``query_vector`` token weights OR an ``inference_id`` + ``query``
    text expanded through a registered expansion model at the
    coordinator rewrite. Optional token PRUNING (TokenPruningConfig): a
    token is dropped when it is BOTH over-frequent (field freq >
    ``tokens_freq_ratio_threshold`` × the field's average token freq)
    and under-weighted (weight < ``tokens_weight_threshold``);
    ``only_score_pruned_tokens`` inverts the kept set (the rescore
    trick). Rewrites to WeightedTokensQuery over the rank_features
    sidecar."""

    field: str = ""
    tokens: tuple = ()  # ((token, weight), ...) — the query_vector form
    inference_id: str | None = None
    query: str | None = None
    prune: bool = False
    tokens_freq_ratio_threshold: float = 5.0
    tokens_weight_threshold: float = 0.4
    only_score_pruned_tokens: bool = False
    boost: float = 1.0


@dataclass(frozen=True)
class TermsSetQuery(Query):
    """terms_set (TermsSetQueryBuilder): docs matching at least
    minimum_should_match_field's PER-DOC value of the given terms; scores sum
    like a bool-should over the matching terms."""

    terms: tuple = ()
    minimum_should_match_field: str = ""
    boost: float = 1.0


@dataclass(frozen=True)
class DistanceFeatureQuery(Query):
    """distance_feature (DistanceFeatureQueryBuilder, numeric/date origin):
    score = boost · pivot / (pivot + |value − origin|) — a decaying boost by
    proximity on a doc column; docs missing the field don't match (here: all
    docs carry the column)."""

    field: str = ""
    origin: object = None
    pivot: object = None
    boost: float = 1.0


@dataclass(frozen=True)
class KnnQuery(Query):
    """knn vector search (x-pack ``KnnVectorQueryBuilder`` /
    ``KnnSearchBuilder``): top-``k`` by similarity over a dense-vector
    column. ``num_candidates`` caps per-shard graph exploration (our
    analog: per-partition HNSW ef; when num_candidates covers the whole
    table the route degrades to exact brute-force, matching the
    reference's exhaustive fallback). ``similarity`` is the optional raw
    cosine floor (hits below it are dropped). Score is the reference's
    cosine mapping (1 + cos) / 2, times boost."""

    field: str = "embedding"
    query_vector: tuple = ()
    k: int = 10
    num_candidates: int = 100
    similarity: float | None = None
    boost: float = 1.0
    # PRE-filter (KnnVectorQueryBuilder#filter: restricts candidates BEFORE
    # k selection, so k survivors always return when they exist): term
    # predicates over the vector table's columns, as ((column, value), ...)
    filter: tuple = ()


@dataclass(frozen=True)
class IntervalsQuery(Query):
    """intervals query subset (IntervalsQueryBuilder /
    IntervalsSourceProvider.java): supported sources —
      ("match", text, max_gaps, ordered)   analyzed text; max_gaps<0 = unbounded
      ("any_of", (source, ...))            union; freq = sum of branch freqs
      ("all_of", (term, ...), max_gaps, ordered)   over TERM leaves only
    all_of over non-term sub-sources (nested intervals) is out of scope —
    the term-leaf case reduces to span_near, which is what we execute."""

    source: tuple = ()
    boost: float = 1.0


@dataclass(frozen=True)
class BoolQuery(Query):
    """must / should / filter / must_not with minimum_should_match
    (index/query/BoolQueryBuilder.java): scores sum over scoring clauses;
    filter and must_not are non-scoring; should is optional when must/filter
    present (msm defaults to 0 then, else 1)."""

    must: tuple = ()
    should: tuple = ()
    filter: tuple = ()
    must_not: tuple = ()
    minimum_should_match: int | None = None
    boost: float = 1.0


# compound query types → the attributes holding their child queries (a
# query, a tuple of queries, or None), in clause order: the one description
# of the query tree that the rewrite, the scorer build and query_terms walk
COMPOUND_CHILDREN = {
    BoolQuery: ("must", "should", "filter", "must_not"),
    DisMaxQuery: ("queries",),
    ConstantScoreQuery: ("filter",),
    BoostingQuery: ("positive", "negative"),
    FunctionScoreQuery: ("query",),
    PinnedQuery: ("organic",),
}


def subqueries(q: Query):
    """The child queries of a compound query in clause order (none for a
    leaf)."""
    for a in COMPOUND_CHILDREN.get(type(q), ()):
        v = getattr(q, a)
        yield from v if isinstance(v, tuple) else () if v is None else (v,)


def parse_simple_query_string(text: str, default_operator: str = "or") -> Query:
    """``simple_query_string`` syntax subset (SimpleQueryStringBuilder /
    Lucene SimpleQueryParser; single text field):

        +foo     required clause (MUST)
        -foo     prohibited clause (MUST_NOT)
        "a b"    phrase
        foo*     prefix
        foo      optional clause (SHOULD; MUST when default_operator='and')

    Never raises on malformed input (the simple parser's contract)."""
    import re as _re

    toks = _re.findall(r'[+-]?"[^"]*"|\S+', text)
    must, should, must_not = [], [], []
    for tok in toks:
        bucket = should
        if tok.startswith("+"):
            bucket = must
            tok = tok[1:]
        elif tok.startswith("-"):
            bucket = must_not
            tok = tok[1:]
        if not tok:
            continue
        if tok.startswith('"') and tok.endswith('"') and len(tok) >= 2:
            inner = tok[1:-1]
            if inner.strip():
                bucket.append(MatchPhraseQuery(inner))
            continue
        if tok.endswith("*") and len(tok) > 1 and "*" not in tok[:-1]:
            bucket.append(PrefixQuery(tok[:-1].lower()))
            continue
        bucket.append(MatchQuery(tok))
    if default_operator == "and":
        must.extend(should)
        should = []
    return BoolQuery(must=tuple(must), should=tuple(should), must_not=tuple(must_not))


def parse_query_string(text: str, default_field: str | None = None,
                       default_operator: str = "or") -> Query:
    """Lucene classic query syntax subset (QueryStringQueryBuilder.java →
    Lucene's QueryParser), recursive descent over:

        expr     := clause (("AND"|"OR") clause)*     (AND binds per-pair)
        clause   := ["+"|"-"|"NOT"] atom
        atom     := "(" expr ")" | [field":"] ("\"...\"" | word["*"])

    Unqualified words search ``default_field``; AND/NOT produce must/must_not
    clauses, OR (and the default operator "or") produce should clauses."""
    import re as _re

    toks = _re.findall(r'\(|\)|[^\s()":]+:"[^"]*"|"[^"]*"|[^\s()]+', text)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def advance():
        if pos[0] >= len(toks):
            # trailing operator / dangling paren: a parse error, not an
            # IndexError (QueryParser raises ParseException here)
            raise ValueError(f"query_string syntax error: unexpected end of "
                             f"input in {text!r}")
        t = toks[pos[0]]
        pos[0] += 1
        return t

    def atom():
        t = peek()
        if t == "(":
            advance()
            q = expr()
            if peek() == ")":
                advance()
            return q
        t = advance()
        fld = default_field
        if ":" in t and not t.startswith('"'):
            fname, rest = t.split(":", 1)
            fld = fname or default_field
            t = rest if rest else (advance() if peek() else "")
        if t.startswith('"') and t.endswith('"') and len(t) >= 2:
            return MatchPhraseQuery(t[1:-1], field=fld)
        if t.endswith("*") and len(t) > 1 and "*" not in t[:-1]:
            if fld is not None:
                # fielded prefix: expand via the term dict with the field key
                return PrefixQuery(fkey(fld, t[:-1].lower()))
            return PrefixQuery(t[:-1].lower())
        return MatchQuery(t, field=fld)

    def clause():
        t = peek()
        neg = False
        req = False
        if t in ("NOT", "-"):
            advance()
            neg = True
        elif t == "+":
            advance()
            req = True
        elif t is not None and t.startswith("-") and len(t) > 1 and t != "-":
            toks[pos[0]] = t[1:]
            neg = True
        elif t is not None and t.startswith("+") and len(t) > 1 and t != "+":
            toks[pos[0]] = t[1:]
            req = True
        return neg, req, atom()

    def expr():
        must, should, must_not = [], [], []
        neg, req, q = clause()
        pending = [(neg, req, q)]
        ops = []
        while peek() is not None and peek() != ")":
            t = peek()
            if t in ("AND", "OR"):
                advance()
                ops.append(t)
                pending.append(clause())
            else:
                ops.append("OR" if default_operator == "or" else "AND")
                pending.append(clause())
        # AND joins its two operands as must; OR leaves them should
        buckets = ["should"] * len(pending)
        for i, op in enumerate(ops):
            if op == "AND":
                buckets[i] = "must"
                buckets[i + 1] = "must"
        for (neg, req, q), b in zip(pending, buckets):
            if neg:
                must_not.append(q)
            elif req or b == "must":
                must.append(q)
            else:
                should.append(q)
        if len(must) == 1 and not should and not must_not:
            return must[0]
        if len(should) == 1 and not must and not must_not:
            return should[0]
        return BoolQuery(must=tuple(must), should=tuple(should), must_not=tuple(must_not))

    return expr()


def intervals_terms(source: tuple, default_analyzer: str) -> list[str]:
    """All terms an intervals source needs postings for (walk order)."""
    from elasticsearch_ray.analysis.analyzers import get_analyzer

    kind = source[0]
    if kind == "match":
        return get_analyzer(default_analyzer)(source[1])[0]
    if kind == "any_of":
        out: list[str] = []
        for s in source[1]:
            out.extend(intervals_terms(s, default_analyzer))
        return out
    if kind == "all_of":
        return list(source[1])
    raise ValueError(f"unsupported intervals source {kind!r}")


def query_terms(q: Query, default_analyzer: str) -> list[str]:
    """All analyzed terms a query needs postings for (the DFS-phase term set,
    search/dfs/DfsPhase.java:29-75)."""
    from elasticsearch_ray.analysis.analyzers import get_analyzer

    out: list[str] = []

    def walk(q: Query):
        if isinstance(q, TermQuery):
            out.append(fkey(q.field, q.term))
        elif isinstance(q, TermsQuery):
            out.extend(q.terms)
        elif isinstance(q, (MatchQuery, MatchPhraseQuery)):
            an = get_analyzer(q.analyzer or default_analyzer)
            out.extend(fkey(q.field, t) for t in an(q.text)[0])
        elif isinstance(q, MultiMatchQuery):
            an = get_analyzer(default_analyzer)
            for f in q.fields:
                out.extend(fkey(f, t) for t in an(q.text)[0])
        elif isinstance(q, CombinedFieldsQuery):
            an = get_analyzer(default_analyzer)
            for f in q.fields:
                out.extend(fkey(f, t) for t in an(q.text)[0])
        elif isinstance(q, QueryStringQuery):
            walk(parse_query_string(q.query, q.default_field, q.default_operator))
        elif isinstance(q, SpanNearQuery):
            out.extend(q.clauses)
        elif isinstance(q, SpanFirstQuery):
            out.append(q.term)
        elif isinstance(q, SpanOrQuery):
            out.extend(q.clauses)
        elif isinstance(q, SpanNotQuery):
            out.extend((q.include, q.exclude))
        elif isinstance(q, (SpanWithinQuery, SpanContainingQuery)):
            out.append(q.little)
            out.extend(q.big)
        elif isinstance(q, TermsSetQuery):
            out.extend(q.terms)
        elif isinstance(q, IntervalsQuery):
            out.extend(intervals_terms(q.source, default_analyzer))
        else:
            for sub in subqueries(q):
                walk(sub)

    walk(q)
    seen = set()
    uniq = []
    for t in out:
        if t not in seen:
            seen.add(t)
            uniq.append(t)
    return uniq
