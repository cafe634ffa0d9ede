"""Segment merge: the one kernel that writes a segment, plus tiered merge
and force-merge.

``write_segment`` is a batched k-way merge over term-sorted sources: Arrow
tables ``(term, df, total_tf, first_doc, blob[, pos_flat])`` in the new
segment's doc space. A build run file is a source (``run_source``); so is a
finished segment (``segment_source``: zero-copy views over memory-mapped
postings.bin/positions.bin; a doc offset rewrites only the block headers'
first/last doc, as payloads hold deltas). Sources are read
``MERGE_BATCH_ROWS`` rows at a time; a step emits only terms below the
smallest last-buffered term of the sources still reading, since one term's
chunks may straddle a batch. Per step: df/total_tf sum vectorized per
term, a one-row group passes its blob through, all multi-row groups
re-encode canonically through ``postings.reencode_many`` in calls of at
most ``postings.MAX_POSTINGS_PER_CALL`` postings (sized from the df column),
and positions concatenate in (term, first_doc) = doc order. The manifest
records ``multi_chunk_terms`` and ``reencoded_postings``. Build
(``build._merge_fn``, also when it folds a refresh's new files into the
committed tail segment), tiered/force merge (``merge_group``) and shrink all
call it, so a segment's bytes do not depend on how it was produced.

Tiered policy: the reference's merge layer (``MergePolicyConfig.java:104-112``:
floor 2 MB, ≤10 merges at once, 10 segments per tier, 5 GB max merged
segment; force-merge ``InternalEngine.java:2106-2126``). A segment IS a
partition (contiguous global doc-id range), so a merge combines ADJACENT
partitions: local ids shift by base offset and global doc order, hence the
(score, part, doc) tie-break, is kept. ``index.lanes`` places the groups
(in the calling process on one lane, else one Ray task each); merged segments
score-identically to unmerged ones and are byte-identical to a fresh build
of the same files (tested)."""

from __future__ import annotations

import contextlib
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from elasticsearch_ray.index import lanes, state
from elasticsearch_ray.index.postings import call_ranges, reencode_many
from elasticsearch_ray.index.segments import (
    FORMAT_VERSION,
    atomic_write_table,
    part_dir,
    write_term_bloom,
)
from elasticsearch_ray.index.spec import FIELD_SEP

FLOOR_BYTES = 2 * 1024 * 1024  # MergePolicyConfig floor_segment
MAX_MERGE_AT_ONCE = 10
SEGMENTS_PER_TIER = 10
MAX_MERGED_BYTES = 5 * 1024**3


def plan_tiered_merges(parts: list[dict]) -> list[list[int]]:
    """Pick groups of ADJACENT partitions to merge, TieredMergePolicy-style:
    below-floor segments merge eagerly; above-floor segments are binned into
    logarithmic size tiers (tier = log2(bytes/floor)) and an over-budget
    tier (> SEGMENTS_PER_TIER members) merges adjacent same-tier runs.
    Input: [{part, bytes}] sorted by part id. Only consecutive part ids ever
    group (doc ranges must stay contiguous)."""
    import math

    groups: list[list[int]] = []
    cur: list[int] = []
    cur_bytes = 0
    for p in parts:
        b = p["bytes"]
        if cur and (
            len(cur) >= MAX_MERGE_AT_ONCE
            or cur_bytes + b > MAX_MERGED_BYTES
            or (b >= FLOOR_BYTES and cur_bytes >= FLOOR_BYTES)
        ):
            if len(cur) > 1:
                groups.append(cur)
            cur, cur_bytes = [], 0
        cur.append(p["part"])
        cur_bytes += b
    if len(cur) > 1:
        groups.append(cur)

    # tier pass: cap segments-per-size-tier for healthy (above-floor)
    # segments the floor pass left alone
    in_group = {p for g in groups for p in g}
    by_tier: dict[int, list[dict]] = {}
    for p in parts:
        if p["part"] in in_group or p["bytes"] < FLOOR_BYTES:
            continue
        t = int(math.log2(p["bytes"] / FLOOR_BYTES))
        by_tier.setdefault(t, []).append(p)
    for seg in by_tier.values():
        if len(seg) <= SEGMENTS_PER_TIER:
            continue
        run = [seg[0]]
        run_bytes = seg[0]["bytes"]
        for prev, nxt in zip(seg, seg[1:]):
            if (nxt["part"] == prev["part"] + 1 and len(run) < MAX_MERGE_AT_ONCE
                    and run_bytes + nxt["bytes"] <= MAX_MERGED_BYTES):
                run.append(nxt)
                run_bytes += nxt["bytes"]
            else:
                if len(run) > 1:
                    groups.append([x["part"] for x in run])
                run, run_bytes = [nxt], nxt["bytes"]
        if len(run) > 1:
            groups.append([x["part"] for x in run])
    return groups


# Rows read from a source per step — the merge's memory bound. A source
# buffers more only while one term's chunks fill its whole buffer.
MERGE_BATCH_ROWS = 16384


def run_source(path: str, with_pos: bool):
    """A build run file (chunk rows sorted by term, first_doc) as a source."""
    schema = pa.schema([("term", pa.string()), ("df", pa.int64()), ("total_tf", pa.int64()),
                        ("first_doc", pa.int64()), ("blob", pa.large_binary()),
                        ("pos_flat", pa.large_list(pa.int32()))][:6 if with_pos else 5])
    with pq.ParquetFile(path) as pf:
        for b in pf.iter_batches(batch_size=MERGE_BATCH_ROWS, columns=schema.names):
            yield pa.Table.from_batches([b]).select(schema.names).cast(schema)


def _u32_at(raw: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Little-endian u32 at each (unaligned) byte offset ``at`` of ``raw``."""
    return raw[at[:, None] + np.arange(4)].view("<u4").ravel()


def _shift_headers(raw: np.ndarray, starts: np.ndarray, offset: int) -> None:
    """Add ``offset`` to first_doc/last_doc of every block header of the
    blobs beginning at ``starts`` (postings.py layout), in place."""
    nb = _u32_at(raw, starts).astype(np.int64)
    hdr = np.repeat(starts + 4, nb) + 16 * (
        np.arange(int(nb.sum())) - np.repeat(np.cumsum(nb) - nb, nb))
    for field_at in (4, 8):  # first_doc, last_doc
        at = (hdr + field_at)[:, None] + np.arange(4)
        raw[at] = (raw[at].view("<u4") + np.uint32(offset)).view(np.uint8)


def segment_source(pdir: str, offset: int, with_pos: bool):
    """A finished segment as a source, its doc ids moved up by ``offset``.
    Files are opened here, before the kernel replaces any of them."""
    terms = pq.ParquetFile(os.path.join(pdir, "terms.parquet"))
    postings = pa.memory_map(os.path.join(pdir, "postings.bin")).read_buffer()
    positions = (pa.memory_map(os.path.join(pdir, "positions.bin")).read_buffer()
                 if with_pos else None)
    return _segment_batches(terms, postings, positions, offset)


def _segment_batches(terms, postings, positions, offset):
    cols = ["term", "df", "total_tf", "off", "len"]
    if positions is not None:
        cols += ["pos_off", "pos_len"]
    with terms:
        for b in terms.iter_batches(batch_size=MERGE_BATCH_ROWS, columns=cols):
            if b.num_rows:
                yield _segment_batch(b, postings, positions, offset)


def _segment_batch(b, postings, positions, offset) -> pa.Table:
    # a segment's blobs are contiguous in term order, so a batch's blobs are
    # one byte range of postings.bin (and its positions one of positions.bin)
    off = b.column("off").to_numpy()
    lo, hi = int(off[0]), int(off[-1] + b.column("len").to_numpy()[-1])
    starts = off - lo
    data = postings.slice(lo, hi - lo)
    raw = np.frombuffer(data, np.uint8)
    if offset:
        raw = raw.copy()
        _shift_headers(raw, starts, offset)
        data = pa.py_buffer(raw)
    out = {
        "term": b.column("term"),
        "df": b.column("df"),
        "total_tf": b.column("total_tf"),
        "first_doc": pa.array(_u32_at(raw, starts + 8).astype(np.int64)),
        "blob": pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), len(starts),
            [None, pa.py_buffer(np.append(starts, hi - lo)), data]),
    }
    if positions is not None:
        po = b.column("pos_off").to_numpy() // 4
        plo, phi = int(po[0]), int(po[-1] + b.column("pos_len").to_numpy()[-1] // 4)
        vals = pa.Array.from_buffers(pa.int32(), phi - plo,
                                     [None, positions.slice(plo * 4, (phi - plo) * 4)])
        out["pos_flat"] = pa.LargeListArray.from_arrays(
            pa.array(np.append(po - plo, phi - plo)), vals)
    return pa.table(out)


class _Cursor:
    """One source's read buffer."""

    def __init__(self, source):
        self.it = iter(source)
        self.buf = None
        self.done = False

    def fill(self) -> None:
        """Read until the buffer spans two terms or the source ends, so the
        buffer's last term bounds what may still arrive."""
        while not self.done and (not self.buf or self.buf["term"][0] == self.buf["term"][-1]):
            b = next(self.it, None)
            if b is None:
                self.done = True
            elif b.num_rows:
                self.buf = b if not self.buf else pa.concat_tables([self.buf, b])

    def take_below(self, bound: str | None) -> pa.Table:
        """Pop the buffered rows whose term sorts below ``bound`` (all when None)."""
        n = len(self.buf) if bound is None else int(
            pc.sum(pc.less(self.buf["term"], bound)).as_py() or 0)
        head, self.buf = self.buf.slice(0, n), self.buf.slice(n)
        return head


def _merged_steps(sources):
    """Term-sorted tables, each holding every row of the terms it covers."""
    cursors = [_Cursor(s) for s in sources]
    while True:
        for c in cursors:
            c.fill()
        lasts = [c.buf["term"][-1].as_py() for c in cursors if not c.done]
        bound = min(lasts) if lasts else None
        taken = [t for t in (c.take_below(bound) for c in cursors if c.buf) if len(t)]
        if taken:
            yield pa.concat_tables(taken).sort_by(
                [("term", "ascending"), ("first_doc", "ascending")])
        elif bound is None:
            return


def _write_blobs(blob, starts, ends, dfs, terms, norms, out):
    """Write one step's term blobs to ``out`` in term order and return the
    bytes per term. A one-row group passes its blob through; the multi-row
    groups re-encode canonically (``postings.reencode_many``) in calls of at
    most MAX_POSTINGS_PER_CALL postings, sized from their merged ``dfs``.
    Each call covers a run of terms starting at its first multi-row group,
    and builds its block table and its Arrow concat+take for that run only."""
    blob = blob.combine_chunks()
    multi = np.flatnonzero(ends - starts > 1)
    ranges = call_ranges(dfs[multi]) or [(0, 0)]
    cuts = [0] + [int(multi[g0]) for g0, _g1 in ranges[1:]] + [len(starts)]
    return np.concatenate([
        _write_run(blob, starts[a:b], ends[a:b], multi[g0:g1] - a, terms, norms, out)
        for (g0, g1), a, b in zip(ranges, cuts, cuts[1:])])


def _write_run(blob, starts, ends, multi, terms, norms, out):
    """``_write_blobs`` for one run of terms (rows ``starts[0]:ends[-1]`` of
    ``blob``) whose multi-row groups are ``multi``: one bulk re-encode, one
    take interleaving it with the passed-through blobs, one write."""
    r0 = int(starts[0])
    run = blob.slice(r0, int(ends[-1]) - r0)
    if len(multi):
        nrows = ends[multi] - starts[multi]
        first = np.cumsum(nrows) - nrows
        rows = np.repeat(starts[multi] - first, nrows) + np.arange(int(nrows.sum()))
        fields = list(norms)
        lookup = np.zeros(len(multi), np.int64)
        mterms = terms.take(pa.array(starts[multi]))
        for i, f in enumerate(fields):
            if f is not None:
                lookup[pc.starts_with(mterms, f + FIELD_SEP).to_numpy(zero_copy_only=False)] = i
        enc, eoff = reencode_many(np.frombuffer(blob.buffers()[2], np.uint8),
                                  _offsets_of(blob)[rows], first,
                                  [norms[f] for f in fields], lookup)
        pick = starts - r0
        pick[multi] = len(run) + np.arange(len(multi))
        encoded = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), len(multi), [None, pa.py_buffer(eoff), pa.py_buffer(enc)])
        run = pa.concat_arrays([run, encoded]).take(pa.array(pick))
    boff = _offsets_of(run)
    out.write(memoryview(run.buffers()[2])[int(boff[0]):int(boff[-1])])
    return np.diff(boff)


def _offsets_of(arr) -> np.ndarray:
    """The value offsets of a LargeBinaryArray, one per row plus the end."""
    return np.frombuffer(arr.buffers()[1], np.int64)[arr.offset:arr.offset + len(arr) + 1]


def write_segment(index_dir: str, part: int, sources: list, doc_paths: list[str],
                  with_pos: bool, lineage: dict, drop: tuple = (),
                  sidecars: dict | None = None) -> dict:
    """Merge ``sources`` into partition ``part``'s segment files — the only
    writer of a segment. ``doc_paths`` concatenate, in doc order, into
    docs.parquet; ``lineage`` (input_path, input_rows, input_bytes, spec_fp,
    base_doc_id, ...) goes into the manifest; ``sidecars`` ({file name:
    table, or None to remove it}) are written and ``drop`` dirs removed just
    before it. Crash order: the old manifest goes first and the new one is
    written last, so a partial rewrite never validates."""
    t0 = time.time()
    pdir = part_dir(index_dir, part)
    state.retract_part(index_dir, part)
    docs = pa.concat_tables([pq.read_table(p) for p in doc_paths])
    norms = {None: docs["norm"].to_numpy()}
    norms.update({n[5:]: docs[n].to_numpy()
                  for n in docs.schema.names if n.startswith("norm_")})
    sum_dl_fields = {n[7:]: int(np.asarray(docs[n].to_numpy()).sum())
                     for n in docs.schema.names if n.startswith("doclen_")}

    terms_l = [pa.array([], pa.string())]
    df_l, ttf_l, len_l, plen_l = ([np.empty(0, np.int64)] for _ in range(4))
    n_multi = n_reencoded = 0
    files = ["postings.bin"] + (["positions.bin"] if with_pos else [])
    with contextlib.ExitStack() as stack:
        outs = [stack.enter_context(open(os.path.join(pdir, f + ".tmp"), "wb"))
                for f in files]
        for step in _merged_steps(sources):
            terms = step["term"].combine_chunks()
            n = len(terms)
            first = np.ones(n, dtype=bool)
            first[1:] = pc.not_equal(terms.slice(1), terms.slice(0, n - 1)).to_numpy(
                zero_copy_only=False)
            starts = np.flatnonzero(first)
            ends = np.append(starts[1:], n)
            terms_l.append(terms.take(pa.array(starts)))
            df_l.append(np.add.reduceat(step["df"].to_numpy(), starts))
            ttf_l.append(np.add.reduceat(step["total_tf"].to_numpy(), starts))
            len_l.append(_write_blobs(step["blob"], starts, ends, df_l[-1], terms, norms,
                                       outs[0]))
            multi = ends - starts > 1
            n_multi += int(multi.sum())
            n_reencoded += int(df_l[-1][multi].sum())
            if with_pos:
                # rows are in (term, first_doc) = doc order within a term, so
                # the values in row order are each term's flat positions stream
                plist = step["pos_flat"].combine_chunks()
                el = plist.offsets.to_numpy()
                vals = plist.values.to_numpy(zero_copy_only=False)[int(el[0]):int(el[-1])]
                outs[1].write(np.ascontiguousarray(vals, dtype="<i4").tobytes())
                plen_l.append((el[ends] - el[starts]) * 4)
    for f in files:
        os.replace(os.path.join(pdir, f + ".tmp"), os.path.join(pdir, f))

    def _offsets(lens_list):
        lens = np.concatenate(lens_list)
        return pa.array(np.cumsum(lens) - lens), pa.array(lens)

    terms = pa.concat_arrays(terms_l)
    tcols = {"term": terms, "df": pa.array(np.concatenate(df_l)),
             "total_tf": pa.array(np.concatenate(ttf_l))}
    tcols["off"], tcols["len"] = _offsets(len_l)
    if with_pos:
        tcols["pos_off"], tcols["pos_len"] = _offsets(plen_l)
    atomic_write_table(pa.table(tcols), os.path.join(pdir, "terms.parquet"))
    atomic_write_table(docs, os.path.join(pdir, "docs.parquet"))
    bloom_bits = write_term_bloom(pdir, terms.to_pylist())
    manifest = {
        "format": FORMAT_VERSION,
        "part": part,
        **lineage,
        "n_docs": len(docs),
        "sum_dl": int(docs["doclen"].to_numpy().sum()),
        "sum_dl_fields": sum_dl_fields,
        "n_terms": len(terms),
        "bloom_bits": int(bloom_bits),
        "multi_chunk_terms": n_multi,
        "reencoded_postings": n_reencoded,
        "runs_merged": len(sources),
        "postings_bytes": int(os.path.getsize(os.path.join(pdir, "postings.bin"))),
        "elapsed_sec": round(time.time() - t0, 3),
    }
    for name, tbl in (sidecars or {}).items():
        path = os.path.join(pdir, name)
        if tbl is None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        else:  # small row groups: wildcard doc values are read by row group
            atomic_write_table(tbl, path, row_group_size=8192)
    for d in drop:
        shutil.rmtree(d, ignore_errors=True)
    state.commit_part(index_dir, part, manifest)
    return manifest


def _merged_sidecars(snap, group: list[int], shifts: list[int]) -> dict:
    """The merged slot's sidecar files: each file of a sidecar the snapshot
    records, concatenated over ``group`` in doc order — ``local`` shifted
    by each part's doc offset and rows re-sorted by (key, local), the order
    the sidecar builders write — or None (remove) when a part lacks it."""
    out = {}
    for name in snap.sidecar_files():
        paths = [os.path.join(part_dir(snap.index_dir, p), name) for p in group]
        if not all(os.path.exists(p) for p in paths):
            out[name] = None
            continue
        tables = []
        for path, shift in zip(paths, shifts):
            t = pq.read_table(path)
            if "local" in t.column_names:
                t = t.set_column(t.column_names.index("local"), "local",
                                 pc.add(t["local"], shift).cast(t.schema.field("local").type))
            tables.append(t)
        t = pa.concat_tables(tables)
        if "local" in t.column_names:
            key = t.column_names[0]
            typ = t.schema.field(key).type
            if pa.types.is_dictionary(typ):
                t = t.set_column(0, key, t[key].cast(typ.value_type))
            t = t.sort_by([(key, "ascending"), ("local", "ascending")])
            if pa.types.is_dictionary(typ):
                t = t.set_column(0, key, t[key].combine_chunks().dictionary_encode())
        out[name] = t
    return out


def merge_group(index_dir: str, group: list[int]) -> dict:
    """Merge the adjacent partitions in ``group`` into the first one's slot,
    with every sidecar the index records for them."""
    group = sorted(group)
    snap = state.snapshot(index_dir)
    pdirs = [part_dir(index_dir, p) for p in group]
    manifests = [snap.part(p).manifest for p in group]
    new_base = min(m["base_doc_id"] for m in manifests)
    shifts = [m["base_doc_id"] - new_base for m in manifests]
    with_pos = all(os.path.exists(os.path.join(pd, "positions.bin")) for pd in pdirs)
    sources = [segment_source(pd, shift, with_pos) for pd, shift in zip(pdirs, shifts)]
    lineage = {
        "input_path": [p for m in manifests for p in m["input_path"]],
        "input_rows": sum(m["input_rows"] for m in manifests),
        "input_bytes": sum(m.get("input_bytes", 0) for m in manifests),
        "spec_fp": manifests[0].get("spec_fp"),
        "base_doc_id": new_base,
        "merged_from": group,
    }
    manifest = write_segment(index_dir, group[0], sources,
                             [os.path.join(pd, "docs.parquet") for pd in pdirs],
                             with_pos, lineage,
                             sidecars=_merged_sidecars(snap, group, shifts))
    for p in group[1:]:
        shutil.rmtree(part_dir(index_dir, p), ignore_errors=True)
    return manifest


def merge_groups(index_dir: str, groups: list[list[int]]) -> dict:
    """Merge each group (``lanes.run``), then commit the part list, each
    merged manifest replacing the parts it was merged from; the index meta."""
    merged = lanes.run(merge_group, [(index_dir, g) for g in groups])
    snap = state.snapshot(index_dir)
    if not merged:
        return snap.meta
    replaced = {p for m in merged for p in m["merged_from"][1:]}
    return state.commit_parts(index_dir, [p for p in snap.part_ids if p not in replaced],
                              snap.spec)


def tiered_merge(index_dir: str) -> dict:
    """One round of tiered merging; returns the updated index meta."""
    snap = state.snapshot(index_dir)
    sizes = [{"part": p, "bytes": os.path.getsize(os.path.join(part_dir(index_dir, p),
                                                               "postings.bin"))}
             for p in sorted(snap.part_ids)]
    return merge_groups(index_dir, plan_tiered_merges(sizes))


def force_merge(index_dir: str, max_segments: int = 1) -> dict:
    """forceMerge(maxNumSegments): merge adjacent partitions down to ≤ N."""
    parts = sorted(state.snapshot(index_dir).part_ids)
    groups = np.array_split(np.array(parts), max_segments) if len(parts) > max_segments else []
    return merge_groups(index_dir, [g.tolist() for g in groups if len(g) > 1])
