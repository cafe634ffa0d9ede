"""Seeded Zipf web-page corpus for the benchmark.

Writes parquet files with the engine's input schema
``(url, warc_ts, html, text, lang)``. Body words are drawn from a ~50k-word
synthetic vocabulary under a bounded Zipf law (s = 1.07), so head terms
cross the build's ``head_df_ratio`` salting threshold and the long tail
gives every partition tens of thousands of distinct terms. Page length is
lognormal (mean ~250 tokens). A few ``needle`` terms are planted into a
seeded, known number of pages per file; the benchmark checks every build
against those counts.

Everything is drawn from ``numpy.random.default_rng`` keyed by
``(seed, file index)``: the same seed writes byte-identical files.
"""

from __future__ import annotations

import itertools
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

VOCAB_SIZE = 50_000
ZIPF_S = 1.07
MEAN_TOKENS = 250
LOGNORM_SIGMA = 0.6
NEEDLES = tuple(f"needle{i}" for i in range(6))
NEEDLE_MAX_DF = 12  # per needle per file, drawn in [0, NEEDLE_MAX_DF]
PARA_WORDS = 40
_BASE_TS_US = 1_700_000_000_000_000

_CONSONANTS = "bdfghklmnprstvz"
_VOWELS = "aeiou"


def vocabulary(seed: int) -> np.ndarray:
    """VOCAB_SIZE distinct lowercase words (2–3 consonant+vowel syllables),
    shuffled by ``seed`` so the Zipf rank → word mapping changes per seed.
    No word contains a digit, so none collides with a needle."""
    syl = [c + v for c, v in itertools.product(_CONSONANTS, _VOWELS)]
    two = ["".join(p) for p in itertools.product(syl, repeat=2)]
    rng = np.random.default_rng([seed, 0xC0])
    three_idx = rng.choice(len(syl) ** 3, size=VOCAB_SIZE - len(two), replace=False)
    n = len(syl)
    three = [syl[i // (n * n)] + syl[(i // n) % n] + syl[i % n] for i in three_idx.tolist()]
    words = np.array(two + three)
    rng.shuffle(words)
    return words


def _zipf_cdf() -> np.ndarray:
    w = 1.0 / np.arange(1, VOCAB_SIZE + 1, dtype=np.float64) ** ZIPF_S
    cdf = np.cumsum(w)
    return cdf / cdf[-1]


def _file_tables(seed: int, file_idx: int, n_pages: int, vocab: np.ndarray,
                 cdf: np.ndarray) -> tuple[pa.Table, dict[str, int]]:
    rng = np.random.default_rng([seed, file_idx])
    mu = np.log(MEAN_TOKENS) - LOGNORM_SIGMA**2 / 2
    lens = np.clip(rng.lognormal(mu, LOGNORM_SIGMA, n_pages), 20, 2000).astype(np.int64)
    ranks = np.searchsorted(cdf, rng.random(int(lens.sum())), side="right")
    words = vocab[np.minimum(ranks, VOCAB_SIZE - 1)].tolist()
    bold = rng.random(len(words)) < 0.05
    # needles: page set per needle, planted once at a seeded position
    planted: dict[str, int] = {}
    plant_at: dict[int, list[str]] = {}
    for nd in NEEDLES:
        df = int(rng.integers(0, NEEDLE_MAX_DF + 1))
        planted[nd] = df
        for p in rng.choice(n_pages, size=df, replace=False).tolist():
            plant_at.setdefault(p, []).append(nd)
    html_col, text_col = [], []
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    for p in range(n_pages):
        s, n = int(starts[p]), int(lens[p])
        page = words[s:s + n]
        for nd in plant_at.get(p, ()):
            page.insert(int(rng.integers(0, len(page) + 1)), nd)
        title, body = page[:3], page[3:]
        paras = [body[i:i + PARA_WORDS] for i in range(0, len(body), PARA_WORDS)]
        html = ["<html><head><title>", " ".join(title), "</title></head><body>"]
        if p % 7 == 0:
            html.append("<script>var cfg = {ads: 1};</script>")
        for i, para in enumerate(paras):
            if bold[s + i]:
                para = ["<b>" + para[0] + "</b>"] + para[1:]
            html.append("<p>" + " ".join(para) + "</p>")
        html.append("</body></html>")
        html_col.append("".join(html).encode())
        text_col.append(" ".join(title) + "\n" + "\n".join(" ".join(x) for x in paras))
    tbl = pa.table(
        {
            "url": [f"https://s{seed}.example/f{file_idx}/p{p}" for p in range(n_pages)],
            "warc_ts": pa.array(_BASE_TS_US + file_idx * 1_000_000_000
                                + np.arange(n_pages, dtype=np.int64) * 1000,
                                pa.timestamp("us")),
            "html": pa.array(html_col, pa.binary()),
            "text": text_col,
            "lang": ["en"] * n_pages,
        },
        schema=SCHEMA,
    )
    return tbl, planted


def write_file(out_dir: str, seed: int, file_idx: int, n_pages: int,
               vocab: np.ndarray) -> dict:
    """Write ``part-<file_idx>.parquet``; return {"path", "rows", "needles"}."""
    tbl, planted = _file_tables(seed, file_idx, n_pages, vocab, _zipf_cdf())
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"part-{file_idx:05d}.parquet")
    pq.write_table(tbl, path, row_group_size=4096)
    return {"path": path, "rows": n_pages, "needles": planted}


def write_corpus(out_dir: str, seed: int, n_files: int, pages_per_file: int,
                 first_file: int = 0) -> list[dict]:
    """Write files ``first_file .. first_file+n_files-1``; return their infos."""
    vocab = vocabulary(seed)
    return [write_file(out_dir, seed, first_file + i, pages_per_file, vocab)
            for i in range(n_files)]


def needle_totals(infos: list[dict]) -> dict[str, int]:
    """Planted df per needle summed over files."""
    return {nd: sum(f["needles"][nd] for f in infos) for nd in NEEDLES}

