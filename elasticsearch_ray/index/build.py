"""Distributed inverted-index build — the Ray-Data-native write path.

Pipeline (SURVEY §3.1, with an explicit map-side combine):

  plan_partitions (driver, parquet metadata and the committed snapshot)
    · input files → shards; keeps the longest prefix of committed parts
      whose lineage is exactly the next files, fills its last part, then
      ``files_per_partition`` shards per new partition (contiguous global
      doc ranges — the shard/segment analog)
    → from_items(uncovered shards) → map_batches(TokenizeShard, actor pool)
        · reads its file, html_strip, analyzer, SmallFloat norms
        · side-writes part=N/docruns/docs-<base>.parquet (lineage unit)
        · MAP-SIDE COMBINE: aggregates its docs' postings per term and emits
          one posting-CHUNK row per (shard, term): delta+FOR-encoded blob +
          positions + (df, total_tf) partials. The chunk table (with head-
          term salt cuts) is vectorized; one bulk ``encode_many`` call
          encodes every chunk of the shard.  This is the Lucene
          RAM-buffer→flush analog: the shuffle then moves compressed chunks,
          not (doc, term) tuples — ~2 orders of magnitude less exchange
          volume, which is what makes the wide step viable at 100 TB.
    → sort(part, term, salt, first_doc)      # the term-keyed shuffle
    → map_batches(RouteChunks): stream chunk rows into per-partition run
      files (sorted within each run)
    → per-partition merge (``_merge_fn``): the segment-merge kernel
      (index.merge.write_segment) k-way merges the run files in bounded
      batches (single-chunk blobs pass through; each step's multi-chunk
      terms re-encode canonically in one bulk call), concatenates doc runs
      → docs.parquet, writes terms.parquet / postings.bin / positions.bin /
      manifest.json (completion marker, last)
    → state.commit_parts: the part list + global stats (N, sum_dl)

Skew handling (north rule): a head term's postings arrive as bounded chunks
(one per input shard), and the explicit ``salt`` key — populated for terms
the driver-side sample sketch marks as heads — gives Ray's range partitioner
distinct sub-keys to split a hot term's chunk run across reducers (equal
keys cannot be split otherwise). Partition size itself is bounded by
``files_per_partition``, which caps any reducer's merge work.

Placement follows ``index.lanes``'s one lane rule
(``_build_runs_and_merge``): the per-partition merges go through
``lanes.run``, and the run-file pass runs through Ray Data (tokenize tasks,
a distributed sort, route tasks) unless its tokenize blocks are ONE lane
wide (a one-CPU cluster, or todo shards that fit one tokenize batch): then
the calling process runs the same stage objects inline, TokenizeShard →
Arrow ``sort_by(part, term, salt, first_doc)`` → RouteChunks per tokenize
batch. One lane gains nothing from the executor, which would only add task
dispatch and its polling loop (the reference likewise flushes a refresh's
segment inside the shard's own process). The inline pass holds one tokenize
batch's chunk table at a time — what one Ray Data tokenize task holds, and
less than the Ray Data sort, which materializes the whole table — so it
needs no byte bound. Its run files split differently, but ``write_segment``
re-encodes multi-chunk terms canonically, so both executors write byte-
identical segment files (tested).

Resumability and refresh: a build tokenizes only the files no committed
segment covers. The plan keeps every committed partition of the longest
intact prefix (the same files in the same order, equal rows, bytes and spec
fingerprint — a merged part's lineage is its inputs' concatenation), so an
append after a ``tiered_merge`` leaves the merged part alone. A kept tail
part that gains files is folded: ``_merge_fn`` merges its segment
(``segment_source``) and docs.parquet with the new files' runs into the same
slot, and ``write_segment``'s canonical re-encode makes its bytes those of a
fresh build of all its files (tested). ``state.resume`` retracts a folded
part and drops every other part of the plan whose manifest lacks its
lineage, so a crashed fold re-plans that part from its files, and a
changed, removed or earlier-sorting file re-plans from the first part that
no longer matches. With no committed meta the plan is positional, and a
crashed fresh build resumes part by part. Writes are atomic temp+rename;
run files are tracked by returned manifests, not directory listings.

Reference anchors: shard routing ``cluster/routing/IndexRouting.java:113``
(contiguous ranges by default; murmur3 parity in index/routing),
RAM-buffer flush ``indices/IndexingMemoryController.java:45-48``, commit
user data ``InternalEngine.java:2585-2602``.
"""

from __future__ import annotations

import os
import shutil
import time
import uuid
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from elasticsearch_ray.analysis.analyzers import get_analyzer
from elasticsearch_ray.analysis.html_strip import strip_html
from elasticsearch_ray.index import lanes, state
from elasticsearch_ray.index.norms import int_to_byte4
from elasticsearch_ray.index.merge import run_source, segment_source, write_segment
from elasticsearch_ray.index.postings import encode_many
from elasticsearch_ray.index.segments import (
    atomic_write_json,
    atomic_write_table,
    part_dir,
    read_json,
)
from elasticsearch_ray.index.spec import FIELD_SEP, IndexSpec
from elasticsearch_ray.sources.webpages import corpus_files, plan_shards


def spec_fingerprint(spec: IndexSpec) -> str:
    """Hash of the analysis-relevant spec fields — part of a partition's
    resume identity (changing analyzer/fields/similarity must rebuild;
    execution-only knobs must not)."""
    import hashlib

    return hashlib.md5(
        repr(
            sorted(
                (k, repr(v))
                for k, v in spec.to_dict().items()
                if k not in ("files_per_partition", "sample_docs",
                             "max_result_window")
            )
        ).encode()
    ).hexdigest()[:16]


def plan_partitions(corpus_dir: str, file_pattern: str, files_per_partition: int,
                    committed: tuple = (), spec_fp: str | None = None) -> list[dict]:
    """Group input file shards into partitions of contiguous doc ranges.

    ``committed`` (a snapshot's parts, in part order) seeds the plan: the
    longest prefix of them whose lineage under ``spec_fp`` is exactly that
    of the next input files is kept, its shards marked ``covered``. The
    files after it first fill the last kept part up to
    ``files_per_partition`` files, then go into new parts numbered on from
    it, ``files_per_partition`` at a time. With nothing kept, file i goes to
    partition i // ``files_per_partition``."""
    shards = plan_shards(corpus_dir, file_pattern)
    i, part, room = 0, -1, 0
    for p in committed:
        n = len(p.manifest["input_path"]) if p.manifest else 0
        if not 0 < n <= len(shards) - i or any(
                p.manifest.get(k) != v for k, v in _lineage(shards[i:i + n], spec_fp).items()):
            break
        for s in shards[i:i + n]:
            s.update(part=p.part, covered=True)
        i, part, room = i + n, p.part, max(0, files_per_partition - n)
    for j, s in enumerate(shards[i:]):
        s["part"] = part if j < room else part + 1 + (j - room) // files_per_partition
    part_base: dict[int, int] = {}
    for s in shards:
        part_base.setdefault(s["part"], s["base"])
        s["part_base"] = part_base[s["part"]]
    return shards


def sketch_head_terms(shards: list[dict], spec: IndexSpec) -> set[str]:
    """Driver-side sample sketch of head-term df ratios (SURVEY §4 skew row):
    the terms in at least ``head_df_ratio`` of the first docs of up to four
    spread-out shards (``sample_docs`` docs in all). With a batching analyzer
    (``analyze_block``, the default ``standard`` path) the sample is
    analyzed as one block and its distinct (doc, term) pairs counted in
    numpy; otherwise each doc is analyzed on its own."""
    if not shards:
        return set()
    analyzer = get_analyzer(spec.analyzer)
    # sample a few SPREAD-OUT shards, not just shard 0 — a head term
    # localized away from file 0 would otherwise escape salting
    n_sample_shards = min(4, len(shards))
    step = max(1, len(shards) // n_sample_shards)
    sample_shards = shards[::step][:n_sample_shards]
    per_shard = max(1, spec.sample_docs // len(sample_shards))
    texts: list[str] = []
    for sh in sample_shards:
        pf = pq.ParquetFile(sh["path"])
        tcol = spec.text_column if spec.text_column in pf.schema_arrow.names else "text"
        taken: list = []
        for batch in pf.iter_batches(batch_size=512, columns=[tcol]):
            taken += batch[tcol].to_pylist()
            if len(taken) >= per_shard:
                break
        texts += [t or "" for t in taken[:per_shard]]
    n = len(texts)
    blk = getattr(analyzer, "analyze_block", lambda _t: None)(texts) if n else None
    if blk is None:
        df: Counter = Counter()
        for text in texts:
            df.update(set(analyzer(text)[0]))
        return {t for t, c in df.items() if c / n >= spec.head_df_ratio}
    terms_arr, doclens = blk
    codes_arr = terms_arr.dictionary_encode()
    vocab = codes_arr.dictionary
    codes = codes_arr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    docs = np.repeat(np.arange(n, dtype=np.int64), doclens)
    pairs = np.unique(docs * len(vocab) + codes)
    df_arr = np.bincount(pairs % max(len(vocab), 1), minlength=len(vocab))
    return set(vocab.filter(pa.array(df_arr / n >= spec.head_df_ratio)).to_pylist())


CHUNK_SCHEMA = [
    ("part", pa.int32()),
    ("term", pa.string()),
    ("salt", pa.int32()),
    ("first_doc", pa.int64()),
    ("df", pa.int64()),
    ("total_tf", pa.int64()),
    ("blob", pa.binary()),
]
# the term-keyed shuffle's order, which every run file keeps
SORT_KEY = ["part", "term", "salt", "first_doc"]


class TokenizeShard:
    """Actor-pool stage: one call fully processes one input file shard.

    Analyzer resources load once per actor (__init__); the head-term set is
    baked into actor construction (broadcast once, not per batch)."""

    def __init__(self, index_dir: str, spec_dict: dict, head_terms):
        self.index_dir = index_dir
        self.spec = IndexSpec.from_dict(spec_dict)
        self.analyzer = get_analyzer(self.spec.analyzer)
        if self.spec.index_synonyms:
            from elasticsearch_ray.analysis.synonyms import IndexTimeSynonyms

            # rule parsing/compilation once per actor (actor-pool discipline)
            self.analyzer = IndexTimeSynonyms(
                self.analyzer, list(self.spec.index_synonyms), self.spec.analyzer
            )
        # per-language analyzer resources load ONCE per actor/worker — the
        # stateful actor-pool analyzer dispatch keyed by the lang column
        self.lang_analyzers = {
            lg: get_analyzer(name) for lg, name in (self.spec.lang_analyzers or {}).items()
        }
        self.field_analyzers = {
            f: get_analyzer(name) for f, name in (self.spec.field_analyzers or {}).items()
        }
        self.head_terms = head_terms or set()

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = [self._one_shard(row) for row in batch.to_pylist()]
        return pa.concat_tables(out) if out else self._empty()

    def _empty(self) -> pa.Table:
        fields = list(CHUNK_SCHEMA)
        if self.spec.store_positions:
            fields += [("pos_flat", pa.list_(pa.int32()))]
        return pa.table({k: pa.array([], t) for k, t in fields})

    def _one_shard(self, shard: dict) -> pa.Table:
        spec = self.spec
        part = int(shard["part"])
        local_base = int(shard["base"]) - int(shard["part_base"])
        avail = set(pq.read_schema(shard["path"]).names)
        doc_cols = [c for c in spec.doc_columns if c in avail]
        src_col = "html" if spec.use_html else spec.text_column
        extra_fields = {f: c for f, c in (spec.fields or {}).items() if c in avail}
        cols = list(dict.fromkeys(doc_cols + [src_col] + list(extra_fields.values())))
        if self.lang_analyzers and spec.lang_column in avail and spec.lang_column not in cols:
            cols.append(spec.lang_column)
        tbl = pq.read_table(shard["path"], columns=cols)
        if spec.use_html:
            texts = [
                strip_html(h.decode("utf-8"), spec.escaped_tags) if h is not None else ""
                for h in tbl["html"].to_pylist()
            ]
        else:
            texts = [t or "" for t in tbl[spec.text_column].to_pylist()]

        n_docs = len(texts)
        if self.lang_analyzers and spec.lang_column in avail:
            langs = tbl[spec.lang_column].to_pylist()
            analyzers = [self.lang_analyzers.get(lg, self.analyzer) for lg in langs]
        else:
            analyzers = None
        field_doclens = {f: np.zeros(n_docs, dtype=np.int64) for f in extra_fields}
        terms_arr = None  # batched path: flat pa.StringArray of analyzed terms
        blk = None
        if analyzers is None and not extra_fields:
            blk = getattr(self.analyzer, "analyze_block", lambda _t: None)(texts)
        if blk is not None:
            # vectorized hot path (default `standard` config): one Arrow
            # lowercase over the whole shard; locs/positions by repeat/arange
            terms_arr, doclens = blk
            total = int(doclens.sum())
            locs = np.repeat(local_base + np.arange(n_docs, dtype=np.int64), doclens)
            cum = np.cumsum(doclens) - doclens
            poss = (np.arange(total, dtype=np.int64) - np.repeat(cum, doclens)).astype(
                np.int32
            )
        else:
            all_terms: list[str] = []
            locs_l: list[np.ndarray] = []
            poss_l: list[np.ndarray] = []
            doclens = np.zeros(n_docs, dtype=np.int64)
            field_texts = {f: tbl[c].to_pylist() for f, c in extra_fields.items()}
            for i, text in enumerate(texts):
                terms, pos = (analyzers[i] if analyzers else self.analyzer)(text)
                doclens[i] = len(terms)
                if terms:
                    all_terms.extend(terms)
                    locs_l.append(np.full(len(terms), local_base + i, dtype=np.int64))
                    poss_l.append(np.asarray(pos, dtype=np.int32))
                for f in extra_fields:
                    fan = self.field_analyzers.get(f, self.analyzer)
                    fterms, fpos = fan(field_texts[f][i] or "")
                    field_doclens[f][i] = len(fterms)
                    if fterms:
                        all_terms.extend(f + FIELD_SEP + t for t in fterms)
                        locs_l.append(np.full(len(fterms), local_base + i, dtype=np.int64))
                        poss_l.append(np.asarray(fpos, dtype=np.int32))
        norms = int_to_byte4(doclens)
        field_norms = {f: int_to_byte4(dl) for f, dl in field_doclens.items()}

        # docrun side-write (atomic) — this shard's slice of docs.parquet
        dcols = {
            "doc_id": pa.array(int(shard["base"]) + np.arange(n_docs, dtype=np.int64)),
            "doclen": pa.array(doclens.astype(np.int32)),
            "norm": pa.array(norms),
        }
        for f in extra_fields:
            dcols[f"doclen_{f}"] = pa.array(field_doclens[f].astype(np.int32))
            dcols[f"norm_{f}"] = pa.array(field_norms[f])
        for c in doc_cols:
            if c not in dcols:
                dcols[c] = tbl[c]
        if spec.size_field:
            # mapper-size `_size`: byte length of the _source, computed at
            # INDEX time (SizeFieldMapper) so queries never touch sources
            if spec.use_html:
                dcols["_size"] = pa.array(
                    [len(h) if h is not None else 0
                     for h in tbl["html"].to_pylist()], pa.int64())
            else:
                dcols["_size"] = pc.fill_null(pc.cast(
                    pc.binary_length(tbl[spec.text_column]), pa.int64()), 0)
        ddir = os.path.join(part_dir(self.index_dir, part), "docruns")
        os.makedirs(ddir, exist_ok=True)
        atomic_write_table(pa.table(dcols), os.path.join(ddir, f"docs-{local_base:012d}.parquet"))

        if terms_arr is not None:
            if len(terms_arr) == 0:
                return self._empty()
            codes_arr = terms_arr.dictionary_encode()
        else:
            if not all_terms:
                return self._empty()
            locs = np.concatenate(locs_l)
            poss = np.concatenate(poss_l)
            codes_arr = pa.array(all_terms, pa.string()).dictionary_encode()
        codes = codes_arr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = codes_arr.dictionary

        # (doc, term) groups: stable sort by (code, local, pos) so each term's
        # docs are contiguous AND doc-ordered — the per-term chunk layout
        order = np.lexsort((poss, locs, codes))
        locs_s, codes_s, poss_s = locs[order], codes[order], poss[order]
        change = np.empty(len(locs_s), dtype=bool)
        change[0] = True
        np.logical_or(locs_s[1:] != locs_s[:-1], codes_s[1:] != codes_s[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], len(locs_s))
        tfs = (ends - starts).astype(np.int64)
        g_local = locs_s[starts]
        g_code = codes_s[starts]

        # chunk table over the (doc, term) groups: a chunk starts at each
        # term's first doc and, for a head term, wherever its docs cross a
        # salt_docs boundary. HEAD-TERM SALTING: each chunk ROW carries a
        # bounded payload, so the range partitioner can spread a hot term's
        # chunks across reducer blocks (equal keys are unsplittable otherwise).
        salt_docs = spec.salt_docs
        is_head = (pc.is_in(vocab, value_set=pa.array(list(self.head_terms), vocab.type))
                   .to_numpy(zero_copy_only=False) if self.head_terms
                   else np.zeros(len(vocab), dtype=bool))
        g_head = is_head[g_code]
        bucket = g_local // salt_docs
        cut = np.empty(len(starts), dtype=bool)
        cut[0] = True
        cut[1:] = (g_code[1:] != g_code[:-1]) | (g_head[1:] & (bucket[1:] != bucket[:-1]))
        cstarts = np.flatnonzero(cut)

        g_norms = norms[g_local - local_base]
        for f in extra_fields:
            in_f = pc.starts_with(vocab, f + FIELD_SEP).to_numpy(zero_copy_only=False)[g_code]
            g_norms[in_f] = field_norms[f][g_local[in_f] - local_base]
        blob, blob_off = encode_many(g_local, tfs, g_norms, cstarts)
        n_chunks = len(cstarts)
        data = {
            "part": pa.array(np.full(n_chunks, part, dtype=np.int32)),
            "term": vocab.take(pa.array(g_code[cstarts])).cast(pa.string()),
            "salt": pa.array(np.where(g_head[cstarts], bucket[cstarts], 0).astype(np.int32)),
            "first_doc": pa.array(g_local[cstarts]),
            "df": pa.array(np.diff(np.append(cstarts, len(starts)))),
            "total_tf": pa.array(np.add.reduceat(tfs, cstarts)),
            "blob": pa.BinaryArray.from_buffers(
                pa.binary(), n_chunks,
                [None, pa.py_buffer(blob_off.astype(np.int32)), pa.py_buffer(blob)]),
        }
        if spec.store_positions:
            # chunks are consecutive runs of the sorted (doc, term) groups, so
            # the sorted positions are every chunk's positions back to back
            data["pos_flat"] = pa.ListArray.from_arrays(
                pa.array(np.append(starts[cstarts], len(poss_s)).astype(np.int32)),
                pa.array(poss_s, pa.int32()))
        return pa.table(data)


class RouteChunks:
    """Post-shuffle routing: stream sorted chunk rows into per-partition run
    files. Pure I/O — chunks were encoded map-side."""

    def __init__(self, index_dir: str, spec_dict: dict):
        self.index_dir = index_dir
        self.spec = IndexSpec.from_dict(spec_dict)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table(
                {"part": pa.array([], pa.int32()), "run_path": pa.array([], pa.string())}
            )
        parts = batch["part"].to_numpy()
        change = np.empty(len(parts), dtype=bool)
        change[0] = True
        change[1:] = parts[1:] != parts[:-1]
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], len(parts))
        out_parts, out_paths = [], []
        drop = ["part", "salt"]
        for s, e in zip(starts, ends):
            p = int(parts[s])
            rdir = os.path.join(part_dir(self.index_dir, p), "runs")
            os.makedirs(rdir, exist_ok=True)
            path = os.path.join(rdir, f"run-{uuid.uuid4().hex}.parquet")
            pq.write_table(batch.slice(s, e - s).drop_columns(drop), path)
            out_parts.append(p)
            out_paths.append(path)
        return pa.table(
            {"part": pa.array(out_parts, pa.int32()), "run_path": pa.array(out_paths, pa.string())}
        )


def _lineage(shards: list[dict], spec_fp: str) -> dict:
    """A partition's resume identity: input paths + rows + BYTES (a
    regenerated corpus with identical row counts must invalidate) + the
    analysis-relevant spec fingerprint (changing analyzer/fields/positions
    must rebuild) + its first doc id (a file that changed its row count
    moves every later part's doc ids)."""
    return {"input_path": [s["path"] for s in shards],
            "input_rows": int(sum(s["rows"] for s in shards)),
            "input_bytes": int(sum(s.get("bytes", 0) for s in shards)),
            "spec_fp": spec_fp,
            "base_doc_id": int(shards[0]["base"])}


def _merge_fn(index_dir: str, spec_dict: dict, part: int, run_paths: list[str],
              shards: list[dict]) -> float:
    """Merge one partition's run files and doc runs into its segment
    (``index.merge.write_segment``) — when its first shards are ``covered``
    (a fold), into the segment already in its slot, which holds them;
    returns the merge's wall seconds."""
    t0 = time.perf_counter()
    pdir = part_dir(index_dir, part)
    ddir = os.path.join(pdir, "docruns")
    docruns = [os.path.join(ddir, f)
               for f in (sorted(os.listdir(ddir)) if os.path.isdir(ddir) else [])]
    spec = IndexSpec.from_dict(spec_dict)
    with_pos = spec.store_positions
    lineage = _lineage(shards, spec_fingerprint(spec))
    sources = [run_source(p, with_pos) for p in run_paths]
    if shards[0].get("covered"):
        sources.insert(0, segment_source(pdir, 0, with_pos))
        docruns.insert(0, os.path.join(pdir, "docs.parquet"))
    write_segment(index_dir, part, sources, docruns, with_pos, lineage,
                  drop=(os.path.join(pdir, "runs"), ddir))
    return time.perf_counter() - t0


# Worker-process-level stage cache: map_batches with a plain FUNCTION runs as
# stateless tasks on Ray's pre-started worker processes — no actor-pool spawn
# or ramp-up — while the module-level cache still amortizes stage state
# (compiled analyzers) across every task that lands on the same worker. The
# stage classes above are what both executors run: the Ray Data pipeline
# reaches them through this cache, the inline pass constructs them once per
# build in the calling process.
_STAGE_CACHE: dict = {}

# Stage reports of the most recent build_index call in this process, empty
# when it built nothing (every partition resumed): ``executor`` ("ray_data"
# or "inline"), ``chunks`` (tokenize/sort/route) in Ray Data's
# ``Dataset.stats()`` text (the inline pass writes the same shape) and
# ``merge`` in that shape, its wall time summed over the partitions — the
# review feedstock for BASELINE.md and the benchmark's traced build layers.
LAST_BUILD_STATS: dict = {}


def _cached_stage(cls, *args):
    key = (cls.__name__,) + tuple(
        hash(a) if isinstance(a, frozenset) else repr(a) for a in args
    )
    inst = _STAGE_CACHE.get(key)
    if inst is None:
        inst = cls(*args)
        _STAGE_CACHE[key] = inst
    return inst


def _tokenize_fn(batch, index_dir, spec_dict, head_terms):
    return _cached_stage(TokenizeShard, index_dir, spec_dict, head_terms)(batch)


def _route_fn(batch, index_dir, spec_dict):
    return _cached_stage(RouteChunks, index_dir, spec_dict)(batch)


def _stage_sorted_corpus(corpus_dir: str, staged_dir: str, spec: IndexSpec,
                         file_pattern: str) -> str:
    """Index-sorting staging pass (``index.sort.field`` / ``index.sort.order``
    — IndexSettings + Lucene ``setIndexSort``): range-shuffle the corpus
    into sort-field order ONCE (``Dataset.sort`` — the distributed
    all-to-all the reference pays at every segment flush/merge instead), so
    document storage order equals the sort order and sorted queries can
    early-terminate. Resumable: a marker records the input identity;
    unchanged inputs reuse the staged files (and with them the downstream
    per-partition manifests)."""
    files = corpus_files(corpus_dir, file_pattern)
    ident = {
        "files": [os.path.basename(f) for f in files],
        "bytes": int(sum(os.path.getsize(f) for f in files)),
        "sort": [spec.sort_field, spec.sort_order],
    }
    marker = os.path.join(staged_dir, "_staged.json")
    if read_json(marker) == ident:
        return staged_dir
    shutil.rmtree(staged_dir, ignore_errors=True)
    os.makedirs(staged_dir, exist_ok=True)
    ds = rd.read_parquet(files)
    ds = ds.sort(spec.sort_field, descending=(spec.sort_order == "desc"))
    ds.write_parquet(staged_dir)
    # marker written only after the data: a crashed staging run re-stages
    atomic_write_json(marker, ident)
    return staged_dir


def _build_runs_and_merge(index_dir, spec, spec_dict, shards, by_part,
                          todo_parts, concurrency):
    """Run the tokenize → sort → route run-file pass over the todo
    partitions' shards that no committed segment covers, inline when it is
    one lane wide, otherwise through Ray Data; then merge each partition
    through ``lanes.run``."""
    todo_shards = [s for s in shards if s["part"] in set(todo_parts) and not s.get("covered")]
    head = frozenset(sketch_head_terms(todo_shards, spec))
    ncpu = concurrency or lanes.cpus()
    # Task granularity: a few input files per tokenize task keeps task
    # count ≈ 2×cpus (amortizes per-task overhead, leaves room for work
    # stealing) and yields right-sized blocks for the sort — all-to-all
    # cost scales with block count, so no repartition pass is needed.
    tok_bs = max(1, min(spec.files_per_partition,
                        (len(todo_shards) + 2 * ncpu - 1) // (2 * ncpu)))
    n_blocks = (len(todo_shards) + tok_bs - 1) // tok_bs
    inline = lanes.width(n_blocks, ncpu) <= 1
    run_rows, chunks = (_runs_inline(index_dir, spec_dict, todo_shards, head, tok_bs) if inline
                        else _runs_ray_data(index_dir, spec_dict, todo_shards, head, tok_bs,
                                            n_blocks))
    jobs = [(index_dir, spec_dict, p, [r["run_path"] for r in run_rows if r["part"] == p],
             by_part[p]) for p in todo_parts]
    merge_s = sum(lanes.run(_merge_fn, jobs, ncpu))
    LAST_BUILD_STATS.update(executor="inline" if inline else "ray_data", chunks=chunks,
                            merge=_report([(f"MapBatches({_merge_fn.__name__})", merge_s, [])]))


def _runs_inline(index_dir, spec_dict, todo_shards, head, tok_bs):
    """The one-lane run-file pass: the Ray Data pipeline's stage objects
    called in this process. Each batch of ``tok_bs`` shards is tokenized,
    sorted and routed to its own run files before the next is read, so the
    process holds one tokenize task's chunk table at a time. Run files split
    differently than after Ray Data's global sort, which ``write_segment``'s
    canonical re-encode makes invisible in the segment bytes. Returns the
    run rows and the stage report."""
    tok = TokenizeShard(index_dir, spec_dict, head)
    route = RouteChunks(index_dir, spec_dict)
    wall = {"tokenize": 0.0, "sort": 0.0, "route": 0.0}
    rows = nbytes = 0
    run_rows = []
    for i in range(0, len(todo_shards), tok_bs):
        t0 = time.perf_counter()
        chunks = tok(pa.Table.from_pylist(todo_shards[i:i + tok_bs]))
        t1 = time.perf_counter()
        rows, nbytes = rows + chunks.num_rows, nbytes + chunks.nbytes
        chunks = chunks.sort_by([(c, "ascending") for c in SORT_KEY])
        t2 = time.perf_counter()
        run_rows += route(chunks).to_pylist()
        wall["tokenize"] += t1 - t0
        wall["sort"] += t2 - t1
        wall["route"] += time.perf_counter() - t2
    return run_rows, _report([
        (f"MapBatches({_tokenize_fn.__name__})", wall["tokenize"],
         [f"* Output num rows per block: {rows} total",
          f"* Output size bytes per block: {nbytes} total"]),
        ("Sort", wall["sort"], []),
        (f"MapBatches({_route_fn.__name__})", wall["route"], []),
    ])


def _report(ops: list) -> str:
    """Operator stats in ``Dataset.stats()``'s shape, for stages run outside
    Ray Data: an ``Operator N name:`` header per stage, its wall time as
    ``Remote wall time: … total`` and any further lines, so one parser reads
    every build report."""
    lines = []
    for i, (name, secs, extra) in enumerate(ops):
        lines += [f"Operator {i} {name}:", f"* Remote wall time: {secs:.6f}s total", *extra]
    return "\n".join(lines)


def _runs_ray_data(index_dir, spec_dict, todo_shards, head, tok_bs, n_blocks):
    """The streaming run-file pass: tokenize tasks → Ray Data sort → route
    tasks. Returns the run rows and Ray Data's stats."""
    import functools

    from ray.data import DataContext

    # The streaming executor's per-operator resource reservation (default
    # ratio 0.5) caps the tokenize stage at HALF the CPUs even though
    # downstream sort/route need almost none until it finishes — measured
    # 13.4 s → 9.8 s tokenize wall at 1.5M docs/32 cpus with it off. Safe
    # here: map → sort → map consumed by take_all has no concurrent-consumer
    # backpressure to protect. Restored afterwards.
    ctx = DataContext.get_current()
    prev_reserve = getattr(ctx, "op_resource_reservation_enabled", None)
    if prev_reserve is not None:
        ctx.op_resource_reservation_enabled = False
    try:
        chunks = (
            rd.from_items(todo_shards, override_num_blocks=n_blocks)
            .map_batches(
                functools.partial(
                    _tokenize_fn, index_dir=index_dir, spec_dict=spec_dict, head_terms=head
                ),
                batch_size=tok_bs,
                batch_format="pyarrow",
                num_cpus=1,
            )
            .sort(SORT_KEY)
            .map_batches(
                functools.partial(_route_fn, index_dir=index_dir, spec_dict=spec_dict),
                batch_format="pyarrow",
                num_cpus=1,
            )
        )
        return chunks.take_all(), chunks.stats()
    finally:
        if prev_reserve is not None:
            ctx.op_resource_reservation_enabled = prev_reserve


def build_index(
    corpus_dir: str,
    index_dir: str,
    spec: IndexSpec | None = None,
    concurrency: int | None = None,
    file_pattern: str = "*.parquet",
) -> dict:
    """Build (or resume) the inverted index. Returns the index meta dict."""
    from elasticsearch_ray.index import admin as _admin

    # closed index / write API block forbids (re)build + append — a
    # no-op for fresh directories (no admin state yet)
    _admin.check_write(index_dir)
    LAST_BUILD_STATS.clear()
    spec = spec or IndexSpec()
    if spec.char_filters or spec.token_filters:
        # fold char/token filters into a parametric analyzer NAME: every
        # consumer (tokenize actors, searcher actors, the coordinator's
        # query-text analysis) resolves the same chain locally from the
        # string alone
        import dataclasses
        import json as _json

        cfg_d = {"base": spec.analyzer,
                 "char_filters": [[k, [list(x) if isinstance(x, (list, tuple)) else x
                                       for x in a]] for k, a in spec.char_filters]}
        if spec.token_filters:
            cfg_d["filters"] = [f if isinstance(f, str) else list(f)
                                for f in spec.token_filters]
        cfg = _json.dumps(cfg_d, sort_keys=True)
        spec = dataclasses.replace(spec, analyzer="custom:" + cfg,
                                   char_filters=(), token_filters=())
    os.makedirs(index_dir, exist_ok=True)
    if spec.sort_field:
        corpus_dir = _stage_sorted_corpus(
            corpus_dir, os.path.join(index_dir, "sorted_corpus"), spec, file_pattern
        )
        file_pattern = "*.parquet"
    spec_fp = spec_fingerprint(spec)
    committed = state.snapshot(index_dir).parts if state.exists(index_dir) else ()
    shards = plan_partitions(corpus_dir, file_pattern, spec.files_per_partition,
                             committed, spec_fp)
    by_part: dict[int, list[dict]] = {}
    for s in shards:
        by_part.setdefault(s["part"], []).append(s)
    # a kept part that gained files: its new files fold into its segment
    extend = {p for p, plist in by_part.items()
              if plist[0].get("covered") and not plist[-1].get("covered")}
    todo_parts = state.resume(
        index_dir, {part: _lineage(plist, spec_fp) for part, plist in by_part.items()}, extend)
    if todo_parts:
        _build_runs_and_merge(index_dir, spec, spec.to_dict(), shards, by_part,
                              todo_parts, concurrency)
    return state.commit_parts(index_dir, sorted(by_part), spec.to_dict())
