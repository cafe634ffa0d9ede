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
and re-blocks every term with several chunks (from several run-file rows or
several merged segments) into full 128-doc blocks with ``reencode_many``,
so segment bytes do not depend on how the postings were chunked.

The codec is one bulk kernel. ``encode_many`` encodes many posting lists
given as flat (docs, tfs, norms) arrays plus list starts; ``decode_many``
decodes many blobs, reading all their block headers with vectorized offset
arithmetic; ``reencode_many`` is the two back to back with one lexsort by
(list, doc) in between. Each pass is a few numpy operations over all
postings at once: block ids by repeat/arange, ``maximum``/``minimum``
``.reduceat`` for max_tf, min_norm and the byte widths, and width-1/2/4
byte scatters and gathers. The build's tokenize stage encodes a whole
shard's chunks in one ``encode_many``; ``encode_postings`` and
``reencode_canonical`` are its one-list forms. Memory is bounded by
``MAX_POSTINGS_PER_CALL``: lists are packed whole into kernel calls of at
most that many postings (a longer list is a call by itself). The query
path reads blocks lazily with ``read_headers``/``decode_blocks_range``.

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


# Postings per kernel call — the codec's memory bound. A call holds whole
# posting lists: lists are packed into calls up to this many postings, and a
# list longer than this is encoded alone (its own length is the bound then).
# A call's temporaries take ~150 B per posting (~2.5 MB here); larger calls
# measured no faster on a merge step of ~60k postings, only bigger.
MAX_POSTINGS_PER_CALL = 1 << 14


def _widths(maxval: np.ndarray) -> np.ndarray:
    """Bytes per value (1, 2 or 4) for each block's largest value."""
    return np.where(maxval < 1 << 8, 1, np.where(maxval < 1 << 16, 2, 4))


def _gather(raw: np.ndarray, at: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Little-endian unsigned value of ``width`` bytes at each byte offset."""
    out = np.empty(len(at), dtype=np.int64)
    for w in (1, 2, 4):
        m = width == w
        if m.any():
            out[m] = raw[at[m][:, None] + np.arange(w)].view(f"<u{w}").ravel()
    return out


def _scatter(raw: np.ndarray, at: np.ndarray, width: np.ndarray, vals: np.ndarray) -> None:
    """Write each value as ``width`` little-endian bytes at its byte offset."""
    for w in (1, 2, 4):
        m = width == w
        if m.any():
            raw[at[m][:, None] + np.arange(w)] = (
                vals[m].astype(f"<u{w}").view(np.uint8).reshape(-1, w))


def call_ranges(sizes: np.ndarray) -> list[tuple[int, int]]:
    """Split consecutive lists of ``sizes`` postings into [g0, g1) ranges of
    at most MAX_POSTINGS_PER_CALL postings (an oversized list alone)."""
    ends = np.cumsum(sizes)
    out, g0 = [], 0
    while g0 < len(sizes):
        limit = ends[g0] - sizes[g0] + MAX_POSTINGS_PER_CALL
        g1 = max(g0 + 1, int(np.searchsorted(ends, limit, side="right")))
        out.append((g0, g1))
        g0 = g1
    return out


def _encode(docs: np.ndarray, tfs: np.ndarray, norms: np.ndarray,
            starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One kernel call: encode the lists beginning at ``starts`` of the flat
    arrays. Returns (bytes, offsets): list g is bytes[offsets[g]:offsets[g+1]]."""
    n, ng = len(docs), len(starts)
    sizes = np.diff(np.append(starts, n))
    nb = (sizes + BLOCK - 1) // BLOCK
    nblk = int(nb.sum())
    b0 = np.cumsum(nb) - nb  # first block of each list
    grp = np.repeat(np.arange(ng), nb)
    k = np.arange(nblk) - b0[grp]  # block index within its list
    bstart = starts[grp] + BLOCK * k
    count = np.minimum(BLOCK, sizes[grp] - BLOCK * k)
    deltas = np.diff(docs, prepend=docs[:1])
    deltas[bstart] = 0  # self-contained blocks: delta[0] is relative to first_doc
    if nblk:
        maxd = np.maximum.reduceat(deltas, bstart)
        maxt = np.maximum.reduceat(tfs, bstart)
        minn = np.minimum.reduceat(norms, bstart)
    else:
        maxd = maxt = np.empty(0, np.int64)
        minn = np.empty(0, np.uint8)
    dw, tw = _widths(maxd), _widths(maxt)
    psize = count * (dw + tw)
    pcs = np.concatenate([[0], np.cumsum(psize)])
    lsize = 4 + 16 * nb + pcs[b0 + nb] - pcs[b0]
    offsets = np.concatenate([[0], np.cumsum(lsize)])
    raw = np.zeros(int(offsets[-1]), dtype=np.uint8)
    _scatter(raw, offsets[:-1], np.full(ng, 4), nb)
    headers = np.zeros(nblk, dtype=_HEADER_DTYPE)
    headers["count"] = count
    headers["dwidth"] = dw
    headers["twidth"] = tw
    headers["first_doc"] = docs[bstart]
    headers["last_doc"] = docs[bstart + count - 1]
    headers["max_tf"] = np.minimum(maxt, 0xFFFF)
    headers["min_norm"] = minn
    hpos = offsets[grp] + 4 + 16 * k
    raw[hpos[:, None] + np.arange(16)] = headers.view(np.uint8).reshape(nblk, 16)
    ppos = offsets[grp] + 4 + 16 * nb[grp] + pcs[:-1] - pcs[b0][grp]
    blk = np.repeat(np.arange(nblk), count)
    j = np.arange(n) - bstart[blk]
    dwp = dw[blk]
    _scatter(raw, ppos[blk] + j * dwp, dwp, deltas)
    _scatter(raw, ppos[blk] + count[blk] * dwp + j * tw[blk], tw[blk], tfs)
    return raw, offsets


def encode_many(docs, tfs, norms, starts) -> tuple[np.ndarray, np.ndarray]:
    """Encode many posting lists at once — the codec's one encoder.

    The flat ``docs``/``tfs``/``norms`` arrays hold the lists back to back;
    list g begins at ``starts[g]`` (``starts[0] == 0``, non-decreasing; an
    empty list encodes to a zero block count). Each list's docs must be
    strictly increasing partition-local docids (uint32 range). Returns
    (bytes: uint8[], offsets: int64[len(starts) + 1]); list g's blob is
    ``bytes[offsets[g]:offsets[g + 1]]``."""
    docs = np.asarray(docs, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    norms = np.asarray(norms, dtype=np.uint8)
    starts = np.asarray(starts, dtype=np.int64)
    bounds = np.append(starts, len(docs))
    parts = []
    for g0, g1 in call_ranges(np.diff(bounds)):
        lo, hi = bounds[g0], bounds[g1]
        parts.append(_encode(docs[lo:hi], tfs[lo:hi], norms[lo:hi], starts[g0:g1] - lo))
    return _joined(parts)


def _joined(parts: list) -> tuple[np.ndarray, np.ndarray]:
    """The (bytes, offsets) of consecutive kernel calls as one."""
    if len(parts) == 1:
        return parts[0]
    base = np.cumsum([0] + [len(raw) for raw, _ in parts])
    offsets = np.concatenate([[0]] + [off[1:] + b for (_, off), b in zip(parts, base)])
    return np.concatenate([raw for raw, _ in parts] or [np.empty(0, np.uint8)]), offsets


def encode_postings(docs: np.ndarray, tfs: np.ndarray, norms: np.ndarray) -> bytes:
    """Encode one term's postings (within one partition) to a blob.

    ``docs`` must be strictly increasing partition-local docids (uint32 range);
    ``tfs`` the term frequencies; ``norms`` the norm byte of each doc.
    """
    return encode_many(docs, tfs, norms, [0])[0].tobytes()


def _blocks(raw: np.ndarray, at: np.ndarray) -> dict:
    """Block table of the blobs beginning at byte offsets ``at`` of ``raw``:
    per block its blob, count, widths, first_doc and payload offset."""
    at = np.asarray(at, dtype=np.int64)
    nb = _gather(raw, at, np.full(len(at), 4))
    nblk = int(nb.sum())
    b0 = np.cumsum(nb) - nb
    row = np.repeat(np.arange(len(at)), nb)
    hpos = at[row] + 4 + 16 * (np.arange(nblk) - b0[row])
    count = _gather(raw, hpos, np.full(nblk, 2))
    dw = raw[hpos + 2].astype(np.int64)
    tw = raw[hpos + 3].astype(np.int64)
    pcs = np.concatenate([[0], np.cumsum(count * (dw + tw))])
    return {
        "row": row, "nb": nb, "b0": b0, "count": count, "dw": dw, "tw": tw,
        "first": _gather(raw, hpos + 4, np.full(nblk, 4)),
        "ppos": at[row] + 4 + 16 * nb[row] + pcs[:-1] - pcs[b0][row],
    }


def _decode(raw: np.ndarray, t: dict, b0: int, b1: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode blocks [b0, b1) of block table ``t`` → (docs, tfs)."""
    count = t["count"][b0:b1]
    n = int(count.sum())
    bstart = np.cumsum(count) - count
    blk = np.repeat(np.arange(b0, b1), count)
    j = np.arange(n) - np.repeat(bstart, count)
    dwp = t["dw"][blk]
    d = _gather(raw, t["ppos"][blk] + j * dwp, dwp)
    tfs = _gather(raw, t["ppos"][blk] + t["count"][blk] * dwp + j * t["tw"][blk], t["tw"][blk])
    d[bstart] = 0
    cs = np.cumsum(d)
    docs = cs + np.repeat(t["first"][b0:b1] - cs[bstart], count)
    return docs, tfs


def decode_many(raw, at) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode many blobs at once: the blobs begin at byte offsets ``at`` of
    the uint8 array ``raw``. Returns (docs, tfs, postings per blob), the
    blobs' postings back to back."""
    raw = np.asarray(raw, dtype=np.uint8)
    t = _blocks(raw, at)
    docs, tfs = _decode(raw, t, 0, len(t["count"]))
    return docs, tfs, np.bincount(t["row"], t["count"], minlength=len(t["nb"])).astype(np.int64)


def reencode_many(raw, at, group_starts, norm_lookups: list, lookup_of_group=None):
    """Re-encode groups of posting chunks into canonical full-size blocks.

    The chunk blobs begin at byte offsets ``at`` of ``raw``; group g is the
    chunks ``at[group_starts[g]:group_starts[g + 1]]``, one term's chunks in
    any order. ``norm_lookups[lookup_of_group[g]]`` (default: the first)
    maps a docid of group g to its norm byte, since chunk headers only keep
    per-block minimums. Output bytes depend only on each group's logical
    posting list, not on how it was chunked. Returns (bytes, offsets) as
    ``encode_many`` does; groups are decoded and encoded in kernel calls of
    at most MAX_POSTINGS_PER_CALL postings."""
    raw = np.asarray(raw, dtype=np.uint8)
    group_starts = np.asarray(group_starts, dtype=np.int64)
    ng = len(group_starts)
    lookups = (np.zeros(ng, np.int64) if lookup_of_group is None
               else np.asarray(lookup_of_group, dtype=np.int64))
    t = _blocks(raw, at)
    ccs = np.concatenate([[0], np.cumsum(t["count"])])
    row_first = np.append(t["b0"], len(t["count"]))  # first block of each row
    grp_rows = np.append(group_starts, len(t["nb"]))
    grp_blk = row_first[grp_rows]  # first block of each group (and the end)
    parts = []
    for g0, g1 in call_ranges(np.diff(ccs[grp_blk])):
        b0, b1 = int(grp_blk[g0]), int(grp_blk[g1])
        docs, tfs = _decode(raw, t, b0, b1)
        sizes = np.diff(ccs[grp_blk[g0:g1 + 1]])
        grp = np.repeat(np.arange(g0, g1), sizes)
        order = np.lexsort((docs, grp))
        docs, tfs = docs[order], tfs[order]
        norms = np.empty(len(docs), dtype=np.uint8)
        lk = lookups[grp]
        for li in np.unique(lk):
            m = lk == li
            norms[m] = norm_lookups[li][docs[m]]
        parts.append(_encode(docs, tfs, norms, np.cumsum(sizes) - sizes))
    return _joined(parts)


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


def reencode_canonical(blobs: list[bytes], norm_lookup: np.ndarray) -> bytes:
    """Re-encode one term's posting chunks into canonical full-size blocks
    (a one-group ``reencode_many``).

    ``norm_lookup`` maps partition-local docid → norm byte (needed because
    chunk headers only carry per-block mins).  Produces byte-identical output
    for a given logical posting list regardless of how the build chunked it.
    """
    parts = [np.frombuffer(b, dtype=np.uint8) for b in blobs]
    at = np.cumsum([0] + [len(p) for p in parts[:-1]])
    return reencode_many(np.concatenate(parts), at, [0], [norm_lookup])[0].tobytes()
