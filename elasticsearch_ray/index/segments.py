"""Segment format: one directory per build partition (the reference's shard /
Lucene-segment analog, SURVEY §1.3).

parts/part=NNNNN/
  docs.parquet       row i = partition-local docid i: url, doc_id (global),
                     doclen (exact int), norm (SmallFloat byte), warc_ts, lang
  terms.parquet      sorted term dictionary: term, df, total_tf, off, len
                     (byte range in postings.bin)
  postings.bin       concatenated per-term posting blobs (postings.py codec)
  positions.bin      concatenated per-term flat int32 position arrays in doc
                     order; terms.parquet carries (pos_off, pos_len) byte
                     ranges — memory-mapped and range-read per term, exactly
                     like postings.bin (per-doc counts are NOT stored: they
                     equal the decoded postings tfs). Replaces the v3
                     positions.parquet whole-table layout whose first-touch
                     read was O(segment), not O(term).
  manifest.json      completion marker + lineage + metrics (the commit-point
                     analog of InternalEngine.commitIndexWriter user data,
                     InternalEngine.java:2585-2602)

index_meta.json at the index root records the spec + per-part lineage +
global stats (N, sum_dl) once every partition completed.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

PART_FMT = "part={:05d}"
# Bump when the on-disk segment layout changes: resume logic treats
# manifests with a different format as incomplete (stale caches rebuilt).
FORMAT_VERSION = 5  # v5: full UAX#29 standard tokenizer (CJK single-char/run tokens)


# ---- per-partition term Bloom filter (coordinator-side can_match pruning,
# the CanMatchPreFilterSearchPhase.java:66,160-183 analog: skip partitions
# that definitely contain none of the query's terms without opening them) ----

def _bloom_hashes(term: str, m_bits: int) -> tuple[int, int]:
    import hashlib

    d = hashlib.md5(term.encode()).digest()
    h1 = int.from_bytes(d[:8], "little") % m_bits
    h2 = int.from_bytes(d[8:16], "little") % m_bits
    return h1, h2


def build_term_bloom(terms, bits_per_term: int = 10) -> tuple[bytes, int]:
    """Build a k=2 Bloom filter over the term dict (~1.2% fp at 10 bits/term).

    Bulk form of ``_bloom_hashes``: one md5 digest per term, both 64-bit
    halves reduced mod ``m_bits`` in one numpy pass, bit h set as bit
    h & 7 of byte h >> 3 (little bit order)."""
    import hashlib

    m_bits = max(64, bits_per_term * max(len(terms), 1))
    m_bits = (m_bits + 7) // 8 * 8
    bits = np.zeros(m_bits, dtype=bool)
    if len(terms):
        md5 = hashlib.md5
        digests = b"".join([md5(t.encode()).digest() for t in terms])
        bits[np.frombuffer(digests, "<u8").reshape(-1, 2) % np.uint64(m_bits)] = True
    return np.packbits(bits, bitorder="little").tobytes(), m_bits


def bloom_might_contain(bloom: bytes, m_bits: int, term: str) -> bool:
    for h in _bloom_hashes(term, m_bits):
        if not (bloom[h >> 3] >> (h & 7)) & 1:
            return False
    return True


def write_term_bloom(pdir: str, terms) -> int:
    data, m_bits = build_term_bloom(terms)
    atomic_write_bytes(data, os.path.join(pdir, "termbloom.bin"))
    return m_bits


def read_term_bloom(pdir: str, m_bits: int) -> bytes | None:
    """Load the partition's term Bloom filter; ``m_bits`` (from the
    manifest) gates a length consistency check — a truncated/stale file is
    treated as absent rather than indexed out of range."""
    p = os.path.join(pdir, "termbloom.bin")
    if not os.path.exists(p):
        return None
    with open(p, "rb") as f:
        data = f.read()
    if m_bits and len(data) * 8 != m_bits:
        return None
    return data


def part_dir(index_dir: str, part: int) -> str:
    return os.path.join(index_dir, "parts", PART_FMT.format(part))


def atomic_write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, default=str)
    os.replace(tmp, path)


def atomic_write_table(tbl: pa.Table, path: str) -> None:
    tmp = path + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)


def atomic_write_bytes(data: bytes, path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def manifest_path(index_dir: str, part: int) -> str:
    return os.path.join(part_dir(index_dir, part), "manifest.json")


def read_manifest(index_dir: str, part: int) -> dict | None:
    p = manifest_path(index_dir, part)
    try:
        with open(p) as f:
            m = json.load(f)
    except FileNotFoundError:  # never built, or a rebuild replacing the dir
        return None
    if m.get("format") != FORMAT_VERSION:
        return None  # stale layout → partition rebuilds
    return m


class SegmentReader:
    """Warm reader over one partition's segment — term dict + norms cached in
    memory, postings.bin memory-mapped (the 'warm query scorer' actor state,
    SURVEY §3.2)."""

    def __init__(self, pdir: str):
        self.dir = pdir
        with open(os.path.join(pdir, "manifest.json")) as f:
            self.manifest = json.load(f)
        t = pq.read_table(os.path.join(pdir, "terms.parquet"))
        self._terms = t["term"]
        self.df = t["df"].to_numpy()
        self.total_tf = t["total_tf"].to_numpy()
        self.off = t["off"].to_numpy()
        self.len = t["len"].to_numpy()
        pos_bin = os.path.join(pdir, "positions.bin")
        self.has_positions = "pos_off" in t.schema.names and os.path.exists(pos_bin)
        if self.has_positions:
            self.pos_off = t["pos_off"].to_numpy()
            self.pos_len = t["pos_len"].to_numpy()
            self.positions = (
                np.memmap(pos_bin, dtype="<i4", mode="r")
                if os.path.getsize(pos_bin)
                else np.empty(0, np.int32)
            )
        # docs.parquet stays mapped for the reader's life: its lazy column
        # reads (fetch, per-field norms, stored columns) keep working for a
        # search pinned to this reader after a merge removed the partition
        self._docs = pa.memory_map(os.path.join(pdir, "docs.parquet")).read_buffer()
        d = self.read_docs(["norm", "doclen"])
        self.norms = d["norm"].to_numpy()
        self.n_docs = len(self.norms)
        self.sum_dl = int(self.manifest["sum_dl"])
        pb = os.path.join(pdir, "postings.bin")
        self.postings = np.memmap(pb, dtype=np.uint8, mode="r") if os.path.getsize(pb) else b""
        self._docs_cols: dict[tuple, pa.Table] = {}
        self._field_norms: dict[str, np.ndarray] = {}
        self._lk: dict[str, int] = {}  # term→row memo (vocab is immutable)
        self._terms_np_cache: np.ndarray | None = None

    def read_docs(self, columns) -> pa.Table:
        """``columns`` of this segment's docs.parquet."""
        return pq.read_table(pa.BufferReader(self._docs), columns=columns)

    def norms_for(self, field: str | None) -> np.ndarray:
        """Per-field norm bytes (default field when None) — extra fields'
        norm_<field> columns load lazily from docs.parquet, cached."""
        if field is None:
            return self.norms
        a = self._field_norms.get(field)
        if a is None:
            a = self.read_docs([f"norm_{field}"])[f"norm_{field}"].to_numpy()
            self._field_norms[field] = a
        return a

    def lookup(self, terms: list[str]) -> np.ndarray:
        """Row index per term in the sorted term dict, -1 when absent.

        Binary search over the (sorted) dict with a per-term memo — the
        previous pa.compute.index_in rebuilt a hash set over the WHOLE
        vocabulary on every call, which showed up as ~10% of warm query
        latency in per-partition profiles."""
        if not terms:
            return np.empty(0, np.int64)
        lk = self._lk
        missing = [t for t in terms if t not in lk]
        if missing:
            tn = self._terms_np_cache
            if tn is None:
                tn = self._terms_np_cache = self._terms.to_numpy(zero_copy_only=False)
            n = len(tn)
            pos = np.searchsorted(tn, np.array(missing, dtype=object))
            for t, p in zip(missing, pos):
                p = int(p)
                lk[t] = p if p < n and tn[p] == t else -1
            if len(lk) > 1_000_000:  # unbounded-vocab safety valve
                self._lk = dict(zip(terms, (lk[t] for t in terms)))
                lk = self._lk
        return np.fromiter((lk[t] for t in terms), np.int64, count=len(terms))

    def blob(self, row: int) -> memoryview:
        o, ln = int(self.off[row]), int(self.len[row])
        return memoryview(self.postings)[o : o + ln]

    def positions_for(self, row: int) -> np.ndarray:
        """Flat int32 positions of term row, in doc order — an O(term-bytes)
        range view into the memmapped positions.bin (per-doc counts = the
        term's decoded postings tfs)."""
        if not self.has_positions:
            raise ValueError("index built without positions")
        o = int(self.pos_off[row]) // 4
        n = int(self.pos_len[row]) // 4
        return self.positions[o : o + n]

    def doc_fields(self, locals_: np.ndarray, columns=("url", "doc_id")) -> pa.Table:
        """Fetch-phase lookup of doc metadata for winning local ids; columns
        not stored in this index's docs table are silently skipped (doc_id is
        always present). Columns are cached per reader — a warm searcher must
        not re-read docs.parquet on every query."""
        key = tuple(columns)
        t = self._docs_cols.get(key)
        if t is None:
            avail = set(pq.read_schema(pa.BufferReader(self._docs)).names)
            cols = [c for c in columns if c in avail] or ["doc_id"]
            t = self.read_docs(cols)
            self._docs_cols[key] = t
        return t.take(pa.array(locals_))
