"""Seeded query streams over the Zipf corpus.

Four query classes separate scoring-bound from overhead-bound queries:

  head_or   two head terms (Zipf rank < 50), OR — long posting lists, the
            case block-max pruning exists for;
  mixed_or  one head + one mid (rank 200–2000) + one rare (rank 5000–20000)
            term, OR — one long list beside short ones;
  mid_and   two mid terms, AND — short lists, mostly per-query overhead;
  phrase    a bigram copied from a generated page, so it has at least one
            hit — positions are read.

Queries come in round-robin class order and are pairwise distinct, so no
query in a stream reuses another's cached scorers.
"""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq

CLASSES = ("head_or", "mixed_or", "mid_and", "phrase")


def query_stream(vocab: np.ndarray, corpus_paths: list[str], seed: int, salt: int):
    """Endless stream of distinct (class, Query) pairs in class round-robin
    order. ``salt`` separates independent streams drawn from the same seed."""
    from elasticsearch_ray.search.query import MatchPhraseQuery, MatchQuery

    rng = np.random.default_rng([seed, 0x9E, salt])
    head, mid, rare = vocab[:50], vocab[200:2000], vocab[5000:20000]
    texts = [t for p in corpus_paths
             for t in pq.read_table(p, columns=["text"])["text"].to_pylist()]
    seen: set = set()
    while True:
        cls = CLASSES[len(seen) % len(CLASSES)]
        if cls == "head_or":
            q = MatchQuery(" ".join(rng.choice(head, 2, replace=False)))
        elif cls == "mixed_or":
            q = MatchQuery(f"{rng.choice(head)} {rng.choice(mid)} {rng.choice(rare)}")
        elif cls == "mid_and":
            q = MatchQuery(" ".join(rng.choice(mid, 2, replace=False)), operator="and")
        else:
            words = texts[int(rng.integers(len(texts)))].split()
            j = int(rng.integers(len(words) - 1))
            q = MatchPhraseQuery(f"{words[j]} {words[j + 1]}")
        if q not in seen:
            seen.add(q)
            yield cls, q
