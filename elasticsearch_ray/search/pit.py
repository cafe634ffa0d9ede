"""Point-in-time API (``server/.../action/search/OpenPointInTimeRequest``,
``ClosePointInTimeRequest``, reader-context retention in
``SearchService.java``).

The reference PIT pins the Lucene reader contexts so later writes and
refreshes don't change what a paged search sees. Here a PIT is a
SNAPSHOT OF THE META (``index_meta.json``) taken at open time:

- ``open_pit(index_dir, keep_alive)`` captures index_meta.json and
  returns an id;
- ``pit_engine(pit_id)`` returns a QueryEngine pinned to the captured
  partition list and corpus stats (df/avgdl/n_docs as of open time, so
  scores are stable too — the reference guarantee);
- ``close_pit(pit_id)`` / expiry releases it.

Caveat (documented, checked): a snapshot of partition directories is
only as stable as the directories. An incremental append adds
partitions, but it also rewrites IN PLACE the last partition when that
one still has room for input files (``files_per_partition`` > 1), and a
force/tiered merge DELETES source partition directories. A PIT whose
partition was rewritten (its current manifest lists other input files or
another doc count) or merged away raises a clear error instead of
serving other data. The reference holds refcounts that keep such
segments alive — a filesystem-retention discipline this engine leaves to
the snapshot API.
"""

from __future__ import annotations

import itertools
import json
import os
import time


class PitError(KeyError):
    pass


_PITS: dict[str, dict] = {}
_ids = itertools.count(1)


def open_pit(index_dir: str, keep_alive: float = 300.0) -> str:
    meta_path = os.path.join(index_dir, "index_meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    pit_id = f"pit_{next(_ids)}"
    _PITS[pit_id] = {"index_dir": os.path.abspath(index_dir),
                     "meta": meta,
                     "expires": time.time() + keep_alive}
    return pit_id


def close_pit(pit_id: str) -> None:
    if pit_id not in _PITS:
        raise PitError(f"unknown PIT {pit_id!r}")
    del _PITS[pit_id]


def _lookup(pit_id: str) -> dict:
    pit = _PITS.get(pit_id)
    if pit is None:
        raise PitError(f"unknown PIT {pit_id!r}")
    if time.time() > pit["expires"]:
        del _PITS[pit_id]
        raise PitError(f"PIT {pit_id!r} expired")
    return pit


def pit_engine(pit_id: str, dtype: str = "float64",
               keep_alive: float | None = None):
    """A QueryEngine pinned to the PIT's captured meta. Searches see the
    partition set AND corpus statistics as of open time."""
    from elasticsearch_ray.index.segments import read_manifest
    from elasticsearch_ray.search.engine import QueryEngine

    pit = _lookup(pit_id)
    if keep_alive is not None:
        pit["expires"] = time.time() + keep_alive
    meta = pit["meta"]
    for p in meta["parts"]:
        m = read_manifest(pit["index_dir"], p["part"]) or {}
        if (m.get("input_path"), m.get("n_docs")) != (p["input_path"], p["n_docs"]):
            raise PitError(
                f"PIT {pit_id!r} references partition {p['part']} which "
                f"was merged/deleted or rewritten after the PIT was opened")
    eng = QueryEngine(pit["index_dir"], dtype=dtype)
    # pin the captured snapshot: partition list + corpus-level stats
    eng.meta = meta
    eng.spec = meta["spec"]
    eng.parts = [p["part"] for p in meta["parts"]]
    eng.n_docs = meta["n_docs"]
    eng.avgdl = meta["sum_dl"] / max(meta["n_docs"], 1)
    eng.sum_dl_fields = meta.get("sum_dl_fields") or {}
    return eng
