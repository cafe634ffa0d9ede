"""Posting-list codec: delta-encoded, byte-aligned-FOR-compressed blocks of 128
docs with per-block max-score (impact) metadata.

Semantics re-expressed from the reference's codec choice
(``server/.../index/codec/CodecService.java:37-41`` selects Lucene's
``Lucene91PostingsFormat``): docIDs are sorted per term, split into blocks of
128, delta-encoded, bit-packed, with skip data carrying per-block impacts
(max term-frequency / min norm) that drive Block-Max WAND pruning.

Our format (designed for numpy-vectorized encode/decode and for chunked,
salted shuffle assembly — NOT Lucene's wire format):

Every block is **self-contained** (no cross-block delta state), so posting
chunks produced by different shuffle reducers for the same (partition, term)
key — head-term salting splits a term by doc ranges — concatenate without
re-encoding, and moving a whole blob to another doc range rewrites only the
headers' first_doc/last_doc. The segment-merge kernel
(``index.merge.write_segment``) passes a term with one chunk through as is
and re-blocks a term with several chunks (from several run-file rows or
several merged segments) into full 128-doc blocks with
``reencode_canonical``, so segment bytes do not depend on how the postings
were chunked.

Term blob layout (little-endian):
    u32 n_blocks
    n_blocks × 16-byte headers:
        u16 count      docs in block (1..128)
        u8  dwidth     bytes per doc delta   (1, 2 or 4)
        u8  twidth     bytes per tf          (1, 2 or 4)
        u32 first_doc  absolute partition-local docid of first doc
        u32 last_doc   absolute partition-local docid of last doc
        u16 max_tf     max term frequency in block (capped at 0xFFFF)
        u8  min_norm   min norm byte in block (= smallest doc length, since
                       SmallFloat byte4 encoding is monotone)
        u8  pad
    n_blocks × payloads, each:
        count × dwidth  doc deltas (delta[0] = 0 relative to first_doc,
                        delta[i] = doc[i] - doc[i-1])
        count × twidth  term frequencies
"""

from __future__ import annotations

import numpy as np

BLOCK = 128
_HEADER_DTYPE = np.dtype(
    [
        ("count", "<u2"),
        ("dwidth", "u1"),
        ("twidth", "u1"),
        ("first_doc", "<u4"),
        ("last_doc", "<u4"),
        ("max_tf", "<u2"),
        ("min_norm", "u1"),
        ("pad", "u1"),
    ]
)
assert _HEADER_DTYPE.itemsize == 16


def _width_for(maxval: int) -> int:
    if maxval < 1 << 8:
        return 1
    if maxval < 1 << 16:
        return 2
    return 4


def encode_postings(docs: np.ndarray, tfs: np.ndarray, norms: np.ndarray) -> bytes:
    """Encode one term's postings (within one partition) to a blob.

    ``docs`` must be strictly increasing partition-local docids (uint32 range);
    ``tfs`` the term frequencies; ``norms`` the norm byte of each doc.
    """
    n = len(docs)
    if n == 0:
        return np.uint32(0).tobytes()
    docs = np.asarray(docs, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    norms = np.asarray(norms, dtype=np.uint8)
    n_blocks = (n + BLOCK - 1) // BLOCK
    headers = np.zeros(n_blocks, dtype=_HEADER_DTYPE)
    payloads: list[bytes] = []
    deltas = np.empty(n, dtype=np.int64)
    deltas[0] = 0
    np.subtract(docs[1:], docs[:-1], out=deltas[1:])
    for bi in range(n_blocks):
        lo = bi * BLOCK
        hi = min(lo + BLOCK, n)
        d = deltas[lo:hi].copy()
        d[0] = 0  # first delta is relative to first_doc (self-contained block)
        t = tfs[lo:hi]
        dwidth = _width_for(int(d.max()))
        twidth = _width_for(int(t.max()))
        h = headers[bi]
        h["count"] = hi - lo
        h["dwidth"] = dwidth
        h["twidth"] = twidth
        h["first_doc"] = docs[lo]
        h["last_doc"] = docs[hi - 1]
        h["max_tf"] = min(int(t.max()), 0xFFFF)
        h["min_norm"] = norms[lo:hi].min()
        payloads.append(d.astype(f"<u{dwidth}").tobytes())
        payloads.append(t.astype(f"<u{twidth}").tobytes())
    return b"".join([np.uint32(n_blocks).tobytes(), headers.tobytes(), *payloads])


def read_headers(blob: bytes | memoryview) -> np.ndarray:
    """Read only the block headers (for skipping / block-max metadata)."""
    n_blocks = int(np.frombuffer(blob, dtype="<u4", count=1)[0])
    return np.frombuffer(blob, dtype=_HEADER_DTYPE, count=n_blocks, offset=4)


def _payload_offsets(headers: np.ndarray) -> np.ndarray:
    """Byte offset of each block's payload, relative to end of header array."""
    sizes = headers["count"].astype(np.int64) * (
        headers["dwidth"].astype(np.int64) + headers["twidth"].astype(np.int64)
    )
    offs = np.zeros(len(headers) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offs[1:])
    return offs


def decode_block(blob: bytes | memoryview, headers: np.ndarray, offsets: np.ndarray, bi: int):
    """Decode one block → (docs:int64[], tfs:int64[])."""
    h = headers[bi]
    base = 4 + headers.nbytes + int(offsets[bi])
    count = int(h["count"])
    dwidth = int(h["dwidth"])
    twidth = int(h["twidth"])
    d = np.frombuffer(blob, dtype=f"<u{dwidth}", count=count, offset=base).astype(np.int64)
    t = np.frombuffer(
        blob, dtype=f"<u{twidth}", count=count, offset=base + count * dwidth
    ).astype(np.int64)
    docs = np.cumsum(d) + int(h["first_doc"])
    return docs, t


def decode_blocks_range(blob, headers: np.ndarray, offsets: np.ndarray, b0: int, b1: int):
    """Vectorized decode of blocks [b0, b1) → (docs, tfs).

    Consecutive blocks sharing (count, dwidth, twidth) — the overwhelmingly
    common case: every full 128-block of a dense term has dwidth 1 — decode
    as ONE strided numpy view + 2-D cumsum, no per-block Python."""
    if b1 <= b0:
        z = np.empty(0, dtype=np.int64)
        return z, z
    h = headers[b0:b1]
    hdr_end = 4 + headers.nbytes
    sig = (
        h["count"].astype(np.int64) * 100
        + h["dwidth"].astype(np.int64) * 10
        + h["twidth"].astype(np.int64)
    )
    change = np.empty(len(h), dtype=bool)
    change[0] = True
    change[1:] = sig[1:] != sig[:-1]
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], len(h))
    d_out, t_out = [], []
    for s, e in zip(starts, ends):
        c = int(h["count"][s])
        dwi = int(h["dwidth"][s])
        twi = int(h["twidth"][s])
        nb = e - s
        stride = c * (dwi + twi)
        start_byte = hdr_end + int(offsets[b0 + s])
        raw = np.frombuffer(blob, dtype=np.uint8, count=nb * stride, offset=start_byte)
        raw = raw.reshape(nb, stride)
        deltas = (
            np.ascontiguousarray(raw[:, : c * dwi]).view(f"<u{dwi}").astype(np.int64).reshape(nb, c)
        )
        tfs = (
            np.ascontiguousarray(raw[:, c * dwi :]).view(f"<u{twi}").astype(np.int64).reshape(nb, c)
        )
        deltas[:, 0] = 0
        docs = np.cumsum(deltas, axis=1)
        docs += h["first_doc"][s:e].astype(np.int64)[:, None]
        d_out.append(docs.ravel())
        t_out.append(tfs.ravel())
    if len(d_out) == 1:
        return d_out[0], t_out[0]
    return np.concatenate(d_out), np.concatenate(t_out)


def decode_postings(blob: bytes | memoryview):
    """Decode a full blob → (docs:int64[], tfs:int64[])."""
    headers = read_headers(blob)
    if len(headers) == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z
    offsets = _payload_offsets(headers)
    return decode_blocks_range(blob, headers, offsets, 0, len(headers))


def concat_blobs(blobs: list[bytes]) -> bytes:
    """Logically concatenate posting chunks of one term (doc ranges in order)
    WITHOUT re-encoding payload bytes — merges the header arrays.

    Used when head-term salting produced multiple chunks per (partition, term).
    """
    blobs = [b for b in blobs if b is not None]
    if len(blobs) == 1:
        return blobs[0]
    all_headers = []
    all_payloads = []
    for b in blobs:
        h = read_headers(b)
        if len(h) == 0:
            continue
        all_headers.append(h)
        start = 4 + h.nbytes
        all_payloads.append(bytes(memoryview(b)[start:]))
    if not all_headers:
        return np.uint32(0).tobytes()
    headers = np.concatenate(all_headers)
    return b"".join([np.uint32(len(headers)).tobytes(), headers.tobytes(), *all_payloads])


def reencode_canonical(blobs: list[bytes], norm_lookup: np.ndarray) -> bytes:
    """Decode chunks and re-encode into canonical full-size blocks.

    ``norm_lookup`` maps partition-local docid → norm byte (needed because
    chunk headers only carry per-block mins).  Produces byte-identical output
    for a given logical posting list regardless of how the build chunked it.
    """
    ds, ts = [], []
    for b in blobs:
        d, t = decode_postings(b)
        ds.append(d)
        ts.append(t)
    docs = np.concatenate(ds)
    tfs = np.concatenate(ts)
    order = np.argsort(docs, kind="stable")
    docs = docs[order]
    tfs = tfs[order]
    return encode_postings(docs, tfs, norm_lookup[docs])
