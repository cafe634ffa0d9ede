from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elasticsearch_ray.index import postings
from elasticsearch_ray.index.postings import (
    decode_many,
    decode_postings,
    encode_many,
    encode_postings,
    read_headers,
    reencode_canonical,
    reencode_many,
)


def _random_postings(seed, n=5000, universe=1_000_000):
    rng = np.random.default_rng(seed)
    docs = np.unique(rng.integers(0, universe, n))
    tfs = rng.integers(1, 300, len(docs))
    norms = rng.integers(0, 256, len(docs)).astype(np.uint8)
    return docs, tfs, norms


def test_roundtrip():
    docs, tfs, norms = _random_postings(1)
    d, t = decode_postings(encode_postings(docs, tfs, norms))
    assert np.array_equal(d, docs) and np.array_equal(t, tfs)


def test_empty():
    d, t = decode_postings(encode_postings(np.empty(0), np.empty(0), np.empty(0)))
    assert len(d) == 0 and len(t) == 0


def test_headers_impacts():
    docs, tfs, norms = _random_postings(2)
    h = read_headers(encode_postings(docs, tfs, norms))
    assert len(h) == (len(docs) + 127) // 128
    # per-block invariants
    for bi in range(len(h)):
        lo, hi = bi * 128, min((bi + 1) * 128, len(docs))
        assert h["first_doc"][bi] == docs[lo]
        assert h["last_doc"][bi] == docs[hi - 1]
        assert h["max_tf"][bi] == tfs[lo:hi].max()
        assert h["min_norm"][bi] == norms[lo:hi].min()


def test_chunked_concat_equals_whole():
    docs, tfs, norms = _random_postings(3)
    whole = encode_postings(docs, tfs, norms)
    cut1, cut2 = len(docs) // 3, 2 * len(docs) // 3
    chunks = [
        encode_postings(docs[:cut1], tfs[:cut1], norms[:cut1]),
        encode_postings(docs[cut1:cut2], tfs[cut1:cut2], norms[cut1:cut2]),
        encode_postings(docs[cut2:], tfs[cut2:], norms[cut2:]),
    ]
    # canonical re-encode is byte-identical to direct encode (determinism)
    lookup = np.zeros(1_000_001, dtype=np.uint8)
    lookup[docs] = norms
    assert reencode_canonical(chunks, lookup) == whole


@settings(max_examples=30)
@given(st.integers(0, 10_000), st.integers(1, 400))
def test_property_roundtrip(seed, n):
    docs, tfs, norms = _random_postings(seed, n=n, universe=max(4 * n, 16))
    d, t = decode_postings(encode_postings(docs, tfs, norms))
    assert np.array_equal(d, docs) and np.array_equal(t, tfs)


def _random_lists(seed, sizes, gap_his=(1 << 8, 1 << 16, 1 << 22)):
    """Posting lists of the given sizes with gaps and tfs of every width."""
    rng = np.random.default_rng(seed)
    out = []
    for n in sizes:
        gap_hi, tf_hi = rng.choice(gap_his), rng.choice([1 << 8, 1 << 18])
        docs = np.cumsum(rng.integers(1, gap_hi, n)) + int(rng.integers(0, 1000))
        out.append((docs, rng.integers(1, tf_hi, n), rng.integers(0, 256, n).astype(np.uint8)))
    return out


def _flat(lists):
    sizes = np.array([len(d) for d, _, _ in lists], dtype=np.int64)
    cat = [np.concatenate([x[i] for x in lists]) for i in range(3)]
    return (*cat, np.cumsum(sizes) - sizes)


_BUDGETS = st.sampled_from([1 << 20, 128, 5])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 300), min_size=1, max_size=8), st.integers(0, 10_000), _BUDGETS)
def test_property_bulk_encode_matches_per_list(sizes, seed, budget):
    """Bulk-encoding k lists gives each list's own bytes, whatever the
    per-call posting budget, and bulk decode round-trips them."""
    lists = _random_lists(seed, sizes)
    docs, tfs, norms, starts = _flat(lists)
    with mock.patch.object(postings, "MAX_POSTINGS_PER_CALL", budget):
        raw, off = encode_many(docs, tfs, norms, starts)
        d, t, counts = decode_many(raw, off[:-1])
    assert len(off) == len(lists) + 1 and off[-1] == len(raw)
    for i, (ld, lt, ln) in enumerate(lists):
        assert raw[off[i]:off[i + 1]].tobytes() == encode_postings(ld, lt, ln)
    assert np.array_equal(d, docs) and np.array_equal(t, tfs)
    assert counts.tolist() == list(sizes)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 300), min_size=1, max_size=6), st.integers(0, 10_000), _BUDGETS)
def test_property_bulk_reencode_matches_per_list(sizes, seed, budget):
    """Re-encoding many groups of shuffled chunks at once gives, per group,
    the bytes of encoding its whole list directly."""
    rng = np.random.default_rng(seed)
    # gaps stay small enough for the docid → norm lookup arrays
    lists = _random_lists(seed, sizes, gap_his=(1 << 8, 1 << 16, 1 << 17))
    blobs, group_starts, lookups = [], [], []
    for docs, tfs, norms in lists:
        lookup = np.zeros(int(docs[-1]) + 1, dtype=np.uint8)
        lookup[docs] = norms
        cuts = np.unique(np.concatenate([[0, len(docs)], rng.integers(0, len(docs), 3)]))
        chunks = [encode_postings(docs[a:b], tfs[a:b], norms[a:b]) for a, b in zip(cuts, cuts[1:])]
        group_starts.append(len(blobs))
        blobs += [chunks[i] for i in rng.permutation(len(chunks))]
        lookups.append(lookup)
    raw = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    at = np.cumsum([0] + [len(b) for b in blobs[:-1]])
    with mock.patch.object(postings, "MAX_POSTINGS_PER_CALL", budget):
        enc, off = reencode_many(raw, at, group_starts, lookups, np.arange(len(lists)))
    for i, (docs, tfs, norms) in enumerate(lists):
        assert enc[off[i]:off[i + 1]].tobytes() == encode_postings(docs, tfs, norms)


def _sha(b) -> str:
    import hashlib

    return hashlib.sha256(bytes(b)).hexdigest()


def _golden_cases() -> dict:
    """Seeded codec inputs covering every header and payload shape."""
    rng = np.random.default_rng(20240505)
    cases = {}
    # doc gaps and tfs of every width (1, 2 and 4 bytes), changing per block
    gaps = np.concatenate([rng.integers(1, 1 << 8, 300), rng.integers(1 << 8, 1 << 16, 300),
                           rng.integers(1 << 16, 1 << 20, 300)])
    tfs = np.concatenate([rng.integers(1, 1 << 8, 300), rng.integers(1 << 8, 1 << 16, 300),
                          rng.integers(1 << 16, 1 << 24, 300)])
    order = rng.permutation(900)
    for name, g, t in (("widths", gaps, tfs), ("widths_mixed", gaps[order], tfs[order])):
        docs = np.cumsum(g) + 5
        cases[name] = encode_postings(docs, t, rng.integers(0, 256, len(docs)).astype(np.uint8))
    # max_tf is capped at 0xFFFF in the header, not in the payload
    docs = np.sort(rng.choice(10_000, 200, replace=False))
    t = rng.integers(1, 50, 200)
    t[[3, 130, 199]] = [0xFFFF + 1, 0x1FFFF, 0xFFFFFFFF]
    cases["tf_cap"] = encode_postings(docs, t, rng.integers(0, 256, 200).astype(np.uint8))
    for n in (1, 128, 129):
        docs = np.sort(rng.choice(50_000, n, replace=False))
        cases[f"n{n}"] = encode_postings(docs, rng.integers(1, 9, n),
                                         rng.integers(0, 256, n).astype(np.uint8))
    # multi-chunk re-encode: uneven cuts, chunks handed over out of order
    g = np.concatenate([rng.integers(1, 1 << 8, 700), rng.integers(1 << 8, 1 << 16, 280),
                        rng.integers(1 << 16, 1 << 17, 20)])
    docs = np.cumsum(g[rng.permutation(1000)])
    t = rng.integers(1, 400, 1000)
    lookup = rng.integers(0, 256, int(docs[-1]) + 1).astype(np.uint8)
    cuts = [0, 50, 300, 301, 700, 1000]
    chunks = [encode_postings(docs[a:b], t[a:b], lookup[docs[a:b]])
              for a, b in zip(cuts, cuts[1:])]
    cases["reencode"] = reencode_canonical([chunks[i] for i in (2, 0, 4, 1, 3)], lookup)
    return {k: _sha(v) for k, v in cases.items()}


def _segment_digests(idx) -> dict:
    import os

    import pyarrow.parquet as pq

    pdir = os.path.join(idx, "parts", "part=00000")
    out = {}
    for f in ("postings.bin", "positions.bin"):
        with open(os.path.join(pdir, f), "rb") as fh:
            out[f] = _sha(fh.read())
    terms = pq.read_table(os.path.join(pdir, "terms.parquet"))
    col_bytes = [("\x00".join(c.to_pylist()).encode() if c.type == "string"
                  else np.asarray(c.to_numpy(), "<i8").tobytes()) for c in terms.columns]
    out["terms.parquet"] = _sha(repr(terms.schema.names).encode() + b"".join(col_bytes))
    return out


# sha256 digests of format-v5 bytes, recorded by running this test's inputs
# through the codec and build of the commit before the bulk posting codec
# (per-list encode_postings / reencode_canonical). Any change to them is a
# format change and must bump segments.FORMAT_VERSION.
GOLDEN_V5 = {
    "n1": "8ce4835e01207c3dcb2890a6dfe6ecc8ec1a4bdb83c77ecbcfbd0d6c6da80452",
    "n128": "a6251abe46be1deb679d4fd043c007e4b24a0113873afa1a9654a23b86649c5c",
    "n129": "384c43e23058f6033c15777f3125fe33e4092c6fa1d7990f4cffdcc8dbfcc87a",
    "positions.bin": "cd54009851f7abdce586fa82605faedb90fd26f9a9c88a44bc3ae005e36bfd02",
    "postings.bin": "eb7af67f9193e33071db1727334c8dc567c0d3ae71cb7eeb8c8d9eafe671459d",
    "reencode": "0a3fae48ee4d8c32f9b210da7bd34fa49925e6208ee6e9ee19644707967e15ab",
    "terms.parquet": "4e3297abf0c2dedcc97311d3100174982c4ad2ef500ded078a9c3ac925e49239",
    "tf_cap": "39da236184846f42505640d5c5dca8d9c14234c02345b80edbe3f261ef47897e",
    "widths": "c18d70257e3074b4d3ee0a0f1271ece925a6be8979e60c8ef70359ab85f41aa0",
    "widths_mixed": "36e01c24abb0707f49f9f00c34b3daea05c3ce426d4354772b4b0423b5a7a461",
}


def test_format_v5_golden(ray_session, tmp_path):
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.index.segments import FORMAT_VERSION
    from elasticsearch_ray.index.spec import IndexSpec
    from elasticsearch_ray.sources.webpages import corpus_for_sf

    assert FORMAT_VERSION == 5
    got = _golden_cases()
    corpus = corpus_for_sf("/root/testdata/sf0.001", multiplier=1, num_files=6)
    idx = str(tmp_path / "index")
    build_index(corpus, idx, IndexSpec(files_per_partition=6), concurrency=2)
    got.update(_segment_digests(idx))
    assert got == GOLDEN_V5


def _per_term_bloom(terms, bits_per_term: int = 10) -> tuple[bytes, int]:
    """The per-term reference: two ``_bloom_hashes`` bits set per term."""
    from elasticsearch_ray.index.segments import _bloom_hashes

    m_bits = max(64, bits_per_term * max(len(terms), 1))
    m_bits = (m_bits + 7) // 8 * 8
    arr = np.zeros(m_bits // 8, dtype=np.uint8)
    for t in terms:
        for h in _bloom_hashes(t, m_bits):
            arr[h >> 3] |= 1 << (h & 7)
    return arr.tobytes(), m_bits


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=12), max_size=300),
       st.sampled_from([1, 3, 7, 10]))
def test_bulk_bloom_matches_per_term(terms, bits_per_term):
    """The bulk bloom builder sets exactly the per-term reference's bits, on
    random Unicode terms, the empty list, and sizes where m_bits rounds up
    to a whole byte (bits_per_term 1/3/7) or hits the 64-bit floor."""
    from elasticsearch_ray.index.segments import bloom_might_contain, build_term_bloom

    terms = [t.encode("utf-8", "surrogatepass").decode("utf-8", "replace") for t in terms]
    got = build_term_bloom(terms, bits_per_term)
    assert got == _per_term_bloom(terms, bits_per_term)
    data, m_bits = got
    assert all(bloom_might_contain(data, m_bits, t) for t in terms)


def test_bulk_bloom_edge_sizes():
    from elasticsearch_ray.index.segments import build_term_bloom

    assert build_term_bloom([]) == _per_term_bloom([]) == (bytes(8), 64)
    for n in (1, 6, 7, 9, 65, 1001):
        terms = [f"t{i}é中" for i in range(n)]
        for bpt in (1, 3, 10):
            assert build_term_bloom(terms, bpt) == _per_term_bloom(terms, bpt), (n, bpt)
