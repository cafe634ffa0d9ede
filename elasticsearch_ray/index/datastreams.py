"""Data streams — append-only timestamped streams over rollover generations.

Reference semantics: ``server/src/main/java/org/elasticsearch/cluster/
metadata/DataStream.java`` + ``MetadataCreateDataStreamService.java`` —
a data stream owns an ordered list of backing indices named
``.ds-<name>-<generation>``; writes ALWAYS go to the newest generation (the
write index), searches span every backing index, rollover bumps the
generation, deleting the stream removes all backing indices. Documents
MUST carry the stream timestamp field (``@timestamp`` —
``DataStreamTimestampFieldMapper`` rejects docs without it).

Here each backing index is a rollover-alias generation directory
(``index/ilm.py`` — the RolloverAction machinery this reuses), ingest
stages arrow tables as parquet files into the write generation's corpus and
the incremental index build only tokenizes NEW partitions
(``files_per_partition=1`` keeps appends partition-aligned). Cross-
generation search rides the alias's DFS-combined engine.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

from elasticsearch_ray.index import state
from elasticsearch_ray.index.ilm import RolloverAlias
from elasticsearch_ray.index.segments import atomic_write_json, read_json
from elasticsearch_ray.index.spec import IndexSpec


class DataStreamService:
    def __init__(self, root_dir: str):
        self.root = root_dir
        os.makedirs(root_dir, exist_ok=True)

    def _dir(self, name: str) -> str:
        if not name or "/" in name or name.startswith("."):
            raise ValueError(f"invalid data stream name {name!r}")
        return os.path.join(self.root, f"ds-{name}")

    def _meta_path(self, name: str) -> str:
        return os.path.join(self._dir(name), "datastream.json")

    def _meta(self, name: str) -> dict:
        if (meta := read_json(self._meta_path(name))) is None:
            raise KeyError(f"data stream [{name}] not found")
        return meta

    # ---- CRUD ----
    def create(self, name: str, timestamp_field: str = "@timestamp",
               spec: IndexSpec | None = None) -> dict:
        d = self._dir(name)
        if os.path.exists(self._meta_path(name)):
            raise ValueError(f"data stream [{name}] already exists")
        os.makedirs(d, exist_ok=True)
        spec = spec or IndexSpec(use_html=False, text_column="text",
                                 doc_columns=(timestamp_field,),
                                 files_per_partition=1)
        meta = {"name": name, "timestamp_field": timestamp_field,
                "spec": spec.to_dict(), "seq": 0}
        atomic_write_json(self._meta_path(name), meta)
        RolloverAlias(os.path.join(d, "alias"))
        return meta

    def exists(self, name: str) -> bool:
        return os.path.exists(self._meta_path(name))

    def list_streams(self) -> list[str]:
        out = []
        for d in sorted(os.listdir(self.root)):
            if d.startswith("ds-") and os.path.exists(
                    os.path.join(self.root, d, "datastream.json")):
                out.append(d[3:])
        return out

    def delete(self, name: str) -> None:
        """Deleting the stream deletes every backing index (DataStream
        semantics — backing indices are owned, not shared)."""
        d = self._dir(name)
        if os.path.exists(d):
            shutil.rmtree(d)

    def get(self, name: str) -> dict:
        meta = self._meta(name)
        ra = RolloverAlias(os.path.join(self._dir(name), "alias"))
        gens = ra.generations()
        return {
            "name": name,
            "timestamp_field": meta["timestamp_field"],
            "generation": int(os.path.basename(ra.current())
                              .split("-")[-1]),
            "indices": [f".ds-{name}-{os.path.basename(g).split('-')[-1]}"
                        for g in gens],
        }

    # ---- write path ----
    def ingest(self, name: str, table: pa.Table, concurrency: int = 2) -> dict:
        from elasticsearch_ray.index.build import build_index

        meta = self._meta(name)
        tsf = meta["timestamp_field"]
        if tsf not in table.schema.names:
            # DataStreamTimestampFieldMapper: the timestamp field is
            # REQUIRED on every data stream document
            raise ValueError(
                f"data stream [{name}] requires a [{tsf}] field")
        if table[tsf].null_count:
            raise ValueError(f"[{tsf}] must be non-null on every doc")
        ra = RolloverAlias(os.path.join(self._dir(name), "alias"))
        gen_dir = ra.current()
        corpus = gen_dir + "-corpus"
        os.makedirs(corpus, exist_ok=True)
        meta["seq"] += 1
        atomic_write_json(self._meta_path(name), meta)
        fp = os.path.join(corpus, f"part-{meta['seq']:06d}.parquet")
        pq.write_table(table, fp + ".tmp")
        os.replace(fp + ".tmp", fp)
        spec = IndexSpec.from_dict(meta["spec"])
        build_index(corpus, gen_dir, spec, concurrency=concurrency,
                    file_pattern="part-*.parquet")
        return {"written": len(table), "backing_index": os.path.basename(
            os.path.dirname(gen_dir)) + "/" + os.path.basename(gen_dir)}

    def rollover(self, name: str, max_docs: int | None = None,
                 max_age_s: float | None = None, force: bool = False) -> bool:
        ra = RolloverAlias(os.path.join(self._dir(name), "alias"))
        if force:
            ra.force_rollover()
            return True
        return ra.rollover_if_needed(max_docs=max_docs, max_age_s=max_age_s)

    # ---- read path ----
    def engine(self, name: str, **kw):
        ra = RolloverAlias(os.path.join(self._dir(name), "alias"))
        return ra.engine(**kw)

    def stats(self, name: str) -> dict:
        ra = RolloverAlias(os.path.join(self._dir(name), "alias"))
        gens = ra.generations()
        n = sum(state.snapshot(g).n_docs for g in gens)
        return {"backing_indices": len(gens), "total_docs": n}
