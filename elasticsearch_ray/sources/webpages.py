"""Deterministic synthetic Common-Crawl-style web-page corpus.

BASELINE.json ``input_hint`` fixes the input shape:
    (url: string, warc_ts: timestamp[us], html: binary, text: string, lang: string)

We synthesize it from the driver's ``documents.parquet`` (doc_id, text, lang,
source, n_chars) — no external data. For every page we build an HTML rendering
plan (title, paragraphs, inline wraps, a script block, comments, entities) and
derive BOTH the html bytes and the expected extracted text from the same plan,
written per HTMLStripCharFilter semantics (block tags → "\n", inline tags
dropped, script/comment content dropped, entities decoded). That makes the
per-row invariant — ``strip_html(html) == text`` byte-identical per url —
a real, non-circular test.

``multiplier`` deterministically expands the corpus for benchmark scale by
emitting seeded word-shuffled variants of each document; everything is keyed
by (seed, doc_id, rep) so regeneration is byte-stable.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from elasticsearch_ray.index.segments import atomic_write_json, read_json

SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

_INLINE_TAGS = ["b", "em", "strong", "span", "code"]
_BLOCK_TAGS = ["p", "div", "li", "blockquote"]
# (html fragment, expected text fragment) — entity round-trips
_ENTITY_WORDS = [("&amp;", "&"), ("&lt;tag&gt;", "<tag>"), ("&#8212;", "—"), ("&quot;q&quot;", '"q"')]


# Per-language native-script vocab: a deterministic tail paragraph of these
# words makes non-English pages exercise the language analyzer chains
# (elision, umlauts, accents, CJK bigrams) while the body stays shared.
_LANG_WORDS = {
    "fr": ["l'étincelle", "jointures", "données", "requêtes", "fenêtres",
           "d'analyse", "résultats", "qu'elle", "rapides", "flux"],
    "de": ["zusammenführung", "abfragen", "fenster", "ergebnisse", "größe",
           "bäume", "ströme", "verteilte", "suche", "daten"],
    "es": ["consultas", "ventanas", "resultados", "uniones", "análisis",
           "número", "rápidas", "flujos", "búsqueda", "datos"],
    "zh": ["分布式搜索引擎", "数据处理", "查询窗口", "流式计算", "倒排索引",
           "批量合并", "相关性排序"],
}


def _render_page(words: list[str], rng: np.random.Generator,
                 lang: str = "en") -> tuple[str, str]:
    """Build (html, expected_text) from one plan. Independent of strip_html.
    All random draws are bulk-vectorized (one rng call each) for speed; the
    draw SHAPE depends only on len(words), keeping output deterministic."""
    nw = len(words)
    # bulk draws: para sizes, per-word choice, tag/entity picks, comments
    para_sizes = rng.integers(6, 14, size=nw // 6 + 2)
    word_r = rng.random(nw)
    tag_pick = rng.integers(0, len(_INLINE_TAGS), size=nw)
    ent_pick = rng.integers(0, len(_ENTITY_WORDS), size=nw)
    block_pick = rng.integers(0, len(_BLOCK_TAGS), size=len(para_sizes))
    comment_r = rng.random(len(para_sizes))
    script_r = rng.random()

    html_parts: list[str] = ["<html>"]
    text_parts: list[str] = ["\n"]
    title = words[: min(3, nw)]
    html_parts.append("<head><title>" + " ".join(title) + "</title></head>")
    text_parts.append("\n\n" + " ".join(title) + "\n\n")
    html_parts.append("<body>")
    text_parts.append("\n")
    if script_r < 0.3:
        html_parts.append("<script>var x = 1 < 2;</script>")
        text_parts.append("\n")
    i = min(3, nw)
    para = 0
    while i < nw:
        n = int(para_sizes[para])
        chunk_idx = range(i, min(i + n, nw))
        i += n
        rendered = []
        expected_words = []
        for wi in chunk_idx:
            w = words[wi]
            r = word_r[wi]
            if r < 0.08:
                tag = _INLINE_TAGS[tag_pick[wi]]
                rendered.append(f"<{tag}>{w}</{tag}>")
                expected_words.append(w)
            elif r < 0.10:
                ent_html, ent_text = _ENTITY_WORDS[ent_pick[wi]]
                rendered.append(f"{w} {ent_html}")
                expected_words.append(f"{w} {ent_text}")
            else:
                rendered.append(w)
                expected_words.append(w)
        block = _BLOCK_TAGS[block_pick[para]]
        html_parts.append(f"<{block}>{' '.join(rendered)}</{block}>")
        text_parts.append("\n" + " ".join(expected_words) + "\n")
        if comment_r[para] < 0.15:
            html_parts.append("<!-- chunk boundary -->")
        para += 1
    vocab = _LANG_WORDS.get(lang)
    if vocab:
        # deterministic native-script tail paragraph (size from one rng draw)
        n_extra = int(rng.integers(4, 9))
        picks = rng.integers(0, len(vocab), size=n_extra)
        extra = " ".join(vocab[int(j)] for j in picks)
        html_parts.append(f"<p>{extra}</p>")
        text_parts.append("\n" + extra + "\n")
    html_parts.append("</body></html>")
    text_parts.append("\n\n")
    return "".join(html_parts), "".join(text_parts)


def synthesize_webpages(
    documents_parquet: str,
    out_dir: str,
    multiplier: int = 1,
    num_files: int = 8,
    seed: int = 42,
    force: bool = False,
) -> str:
    """Write the web-page corpus as ``num_files`` parquet shards under out_dir.

    Idempotent: if ``out_dir/corpus_meta.json`` matches the parameters, the
    existing corpus is reused (byte-stable regeneration otherwise).
    """
    meta_path = os.path.join(out_dir, "corpus_meta.json")
    params = {
        "source": os.path.abspath(documents_parquet),
        "multiplier": multiplier,
        "num_files": num_files,
        "seed": seed,
        "version": 5,
    }
    if not force and read_json(meta_path, {}).get("params") == params:
        return out_dir
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)

    docs = pq.read_table(documents_parquet, columns=["doc_id", "text", "lang", "source"])
    n_docs = len(docs)
    n_total = n_docs * multiplier
    per_file = (n_total + num_files - 1) // num_files
    n_files = (n_total + per_file - 1) // per_file

    # One task per output file; page g (= rep*n_docs + j) is a pure function
    # of (seed, doc_id, rep), so output bytes are independent of parallelism.
    file_specs = [
        (fidx, fidx * per_file, min((fidx + 1) * per_file, n_total)) for fidx in range(n_files)
    ]
    try:
        import ray

        use_ray = ray.is_initialized() and n_total >= 20000
    except ImportError:
        use_ray = False
    if use_ray:
        docs_ref = ray.put(docs)

        @ray.remote
        def gen(spec):
            return _generate_file(ray.get(docs_ref), out_dir, spec, seed)

        file_rows = ray.get([gen.remote(s) for s in file_specs])
    else:
        file_rows = [_generate_file(docs, out_dir, s, seed) for s in file_specs]

    atomic_write_json(meta_path, {"params": params, "rows": n_total, "files": file_rows})
    return out_dir


def _generate_file(docs: pa.Table, out_dir: str, spec: tuple, seed: int) -> dict:
    fidx, g_lo, g_hi = spec
    doc_ids = docs["doc_id"].to_numpy()
    texts = docs["text"].to_pylist()
    langs = docs["lang"].to_pylist()
    sources = docs["source"].to_pylist()
    n_docs = len(texts)
    base_ts = np.datetime64("2024-01-01T00:00:00", "us")
    buf: dict[str, list] = {k: [] for k in ("url", "warc_ts", "html", "text", "lang")}
    for g in range(g_lo, g_hi):
        rep, j = divmod(g, n_docs)
        did, text, lang, src = int(doc_ids[j]), texts[j], langs[j], sources[j]
        rng = np.random.default_rng([seed, did, rep])
        words = text.split()
        if rep > 0:
            words = list(rng.permutation(words))
        html, expected = _render_page(words, rng, lang)
        ts = base_ts + np.timedelta64(int(rng.integers(0, 365 * 24 * 3600)), "s")
        buf["url"].append(f"https://{src}.example.com/{lang}/page-{did}-{rep}.html")
        buf["warc_ts"].append(ts.astype("datetime64[us]").item())
        buf["html"].append(html.encode("utf-8"))
        buf["text"].append(expected)
        buf["lang"].append(lang)
    tbl = pa.table(
        {
            "url": pa.array(buf["url"], pa.string()),
            "warc_ts": pa.array(buf["warc_ts"], pa.timestamp("us")),
            "html": pa.array(buf["html"], pa.binary()),
            "text": pa.array(buf["text"], pa.string()),
            "lang": pa.array(buf["lang"], pa.string()),
        },
        schema=SCHEMA,
    )
    path = os.path.join(out_dir, f"pages-{fidx:05d}.parquet")
    tmp = path + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)
    return {"path": path, "rows": len(tbl)}


def corpus_for_sf(sf_dir: str, multiplier: int = 1, num_files: int = 8, cache_root: str = "/tmp/esray_corpus") -> str:
    """Deterministic corpus cached under /tmp, keyed by sf dir + params."""
    key = f"{os.path.basename(os.path.normpath(sf_dir))}-m{multiplier}-f{num_files}"
    out = os.path.join(cache_root, key)
    return synthesize_webpages(
        os.path.join(sf_dir, "documents.parquet"), out, multiplier=multiplier, num_files=num_files
    )


def corpus_files(corpus_dir: str, pattern: str = "*.parquet") -> list[str]:
    import fnmatch

    return sorted(
        os.path.join(corpus_dir, f)
        for f in os.listdir(corpus_dir)
        if fnmatch.fnmatch(f, pattern)
    )


def plan_shards(corpus_dir: str, pattern: str = "*.parquet") -> list[dict]:
    """Driver-side input planning: one build partition per parquet file, with
    global doc_id base offsets from parquet metadata only (no data read).

    This is the lineage unit: partition i covers global doc_ids
    [base, base + rows). The reference analog is the shard split of an index
    (``cluster/routing/IndexRouting.java``); we use contiguous ranges rather
    than url-hash routing so partition-local docids stay dense (better delta
    compression) — hash routing is available via ``route_shard`` for parity.
    """
    files = corpus_files(corpus_dir, pattern)
    shards = []
    base = 0
    for i, path in enumerate(files):
        rows = pq.read_metadata(path).num_rows
        shards.append({"part": i, "path": path, "base": base, "rows": rows,
                       "bytes": os.path.getsize(path)})
        base += rows
    return shards
