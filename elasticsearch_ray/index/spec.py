"""IndexSpec — the static schema/settings analog of the reference's mapping +
settings (``IndexMetadata.java:189``); no dynamic mapping is needed for the
fixed web-page input table (BASELINE input_hint)."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

# Extra-field terms are namespaced "<field>\x1f<term>" inside the shared term
# dict / postings stream; \x1f (unit separator) never survives tokenization.
FIELD_SEP = "\x1f"


def fkey(field_name: str | None, term: str) -> str:
    """Term-dict key of ``term`` in ``field_name`` (None = default field)."""
    return term if field_name is None else field_name + FIELD_SEP + term


def field_of_term(term: str) -> str | None:
    """None for the default field, else the field name."""
    i = term.find(FIELD_SEP)
    return None if i < 0 else term[:i]


@dataclass
class IndexSpec:
    analyzer: str = "standard"  # default analyzer (AnalysisRegistry.java:634-646)
    # per-language analyzer dispatch keyed by the lang column (the reference's
    # 36 language analyzers surface, SURVEY §2.3): {"en": "english", ...};
    # langs not listed fall back to `analyzer`. Loaded once per actor/worker.
    lang_analyzers: dict | None = None
    lang_column: str = "lang"
    # "BM25" | "boolean" (SimilarityService.java:43,58) | "DFR" | "DFI" |
    # "IB" | "LMDirichlet" | "LMJelinekMercer"
    # (SimilarityProviders.java:262-324 — the full alt-similarity family)
    similarity: str = "BM25"
    k1: float = 1.2  # BM25 defaults (SimilarityProviders.java:254-261)
    b: float = 0.75
    store_positions: bool = True  # text fields index DOCS_AND_FREQS_AND_POSITIONS
    # (TextFieldMapper.java:95-110)
    use_html: bool = True  # extract text from html column (else use text_column)
    text_column: str = "text"
    # extra indexed fields: {field_name: source_column}. Their terms share the
    # postings structure namespaced as "<field>\x1f<term>" (the reference's
    # per-field postings, FieldMapper.java); each gets its own doclen/norm
    # column and avgdl so BM25 is exact per field. The default field (the
    # text/html body) stays unprefixed.
    fields: dict | None = None
    # per-extra-field analyzer names: {field_name: analyzer}; fields not
    # listed use `analyzer`. Applied at index time AND auto-filled into
    # fielded queries at the coordinator (TextFieldMapper per-field
    # analyzers).
    field_analyzers: dict | None = None
    doc_columns: tuple = ("url", "warc_ts", "lang")  # carried into docs.parquet
    escaped_tags: tuple = ()
    # index-time synonym rules (Solr syntax; SynonymTokenFilterFactory —
    # applied to the default text field's analyzer output at build time;
    # see analysis/synonyms.IndexTimeSynonyms for the flatten semantics)
    index_synonyms: tuple = ()
    # char filters applied before the tokenizer, custom-analyzer style:
    # (("pattern_replace", (pattern, repl)), ("mapping", (("k","v"), ...))).
    # build_index folds these into a parametric "custom:{json}" analyzer name
    # so tokenize actors AND the query engine share the exact chain.
    char_filters: tuple = ()
    # token filters applied after the tokenizer (custom-analyzer assembly,
    # CommonAnalysisPlugin token-filter registry): ("lowercase",
    # ("stemmer", {"language": "light_italian"}), ...). Folded into the same
    # parametric "custom:{json}" analyzer name as char_filters; when set,
    # `analyzer` names the TOKENIZER stage ("standard"/"whitespace"/
    # "keyword") and the filters list owns lowercasing/stopwords/stemming.
    token_filters: tuple = ()
    # index sorting (index.sort.field / index.sort.order — IndexSettings +
    # Lucene IndexWriterConfig.setIndexSort): when set, the corpus is
    # range-shuffled into sort-field order in ONE staging pass before
    # tokenization (ray.data.Dataset.sort — the all-to-all the reference
    # pays at segment flush/merge instead), so local doc order within AND
    # across partitions IS the sort order. Queries sorted on exactly this
    # field early-terminate per partition (take the first k matches in
    # storage order instead of scoring+sorting every match).
    sort_field: str | None = None
    sort_order: str = "asc"  # "asc" | "desc"
    # IndexSettings.MAX_RESULT_WINDOW_SETTING: when set, search k above
    # this raises the reference's "Result window is too large" error
    # (opt-in here — None = unlimited — because internal deep fetches
    # also ride the k parameter; the reference default is 10000)
    max_result_window: int | None = None
    # mapper-size plugin (`plugins/mapper-size` SizeFieldMapper): when
    # enabled, every doc stores `_size` = the byte length of its _source
    # (html bytes, or the text column's UTF-8 length) as an ordinary doc
    # column — filterable/sortable/aggregatable with zero query-time I/O,
    # exactly why the reference computes it at index time.
    size_field: bool = False
    # head-term skew handling: terms whose sampled df ratio exceeds this are
    # salted into doc-range sub-keys of salt_docs docs each before the
    # term-keyed shuffle (SURVEY §4 skew row).
    head_df_ratio: float = 0.02
    salt_docs: int = 16384
    sample_docs: int = 2000
    # partition = this many contiguous input files (segment sizing; caps any
    # merge reducer's work and the per-partition memory footprint)
    files_per_partition: int = 8

    def to_dict(self) -> dict:
        d = asdict(self)
        d["escaped_tags"] = list(d["escaped_tags"])
        d["doc_columns"] = list(d["doc_columns"])
        d["index_synonyms"] = list(d["index_synonyms"])
        d["char_filters"] = [[k, [list(x) if isinstance(x, (list, tuple)) else x
                                  for x in a]] for k, a in d["char_filters"]]
        d["token_filters"] = [f if isinstance(f, str) else list(f)
                              for f in d["token_filters"]]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "IndexSpec":
        d = dict(d)
        # retired knob: specs saved before the merge kernel bounded every
        # merge by batch size still carry it
        d.pop("merge_spill_bytes", None)
        d["escaped_tags"] = tuple(d.get("escaped_tags", ()))
        d["doc_columns"] = tuple(d.get("doc_columns", ("url", "warc_ts", "lang")))
        d["index_synonyms"] = tuple(d.get("index_synonyms", ()))
        d["char_filters"] = tuple(
            (k, tuple(tuple(x) if isinstance(x, (list, tuple)) else x for x in a))
            for k, a in d.get("char_filters", ())
        )
        d["token_filters"] = tuple(
            f if isinstance(f, str) else tuple(f) for f in d.get("token_filters", ())
        )
        return cls(**d)
