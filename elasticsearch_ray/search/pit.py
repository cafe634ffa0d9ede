"""Point-in-time API (``server/.../action/search/OpenPointInTimeRequest``,
``ClosePointInTimeRequest``, reader-context retention in
``SearchService.java``).

The reference PIT pins the Lucene reader contexts so later writes and
refreshes don't change what a paged search sees. Here a PIT pins a
``state.Snapshot`` of the index taken at open time:

- ``open_pit(index_dir, keep_alive)`` takes the snapshot and returns an id;
- ``pit_engine(pit_id)`` returns a QueryEngine on that snapshot: its
  partition list and corpus stats (df/avgdl/n_docs as of open time, so
  scores are stable too — the reference guarantee);
- ``close_pit(pit_id)`` / expiry releases it.

Caveat (documented, checked): a snapshot pins each partition's manifest
stamp, not its files. An incremental append adds partitions, but it also
rewrites IN PLACE the last partition when that one still has room for input
files (``files_per_partition`` > 1), and a force/tiered merge DELETES source
partition directories. A PIT whose partition was rewritten or merged away
raises a clear error when its engine is made, and a reader of it opened
later raises ``state.StaleCommitError``, instead of serving other data. The
reference holds refcounts that keep such segments alive — a retention
discipline this engine leaves to the snapshot API.
"""

from __future__ import annotations

import itertools
import os
import time

from elasticsearch_ray.index import state


class PitError(KeyError):
    pass


_PITS: dict[str, dict] = {}
_ids = itertools.count(1)


def open_pit(index_dir: str, keep_alive: float = 300.0) -> str:
    snap = state.snapshot(os.path.abspath(index_dir))
    pit_id = f"pit_{next(_ids)}"
    _PITS[pit_id] = {"snap": snap, "expires": time.time() + keep_alive}
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
    """A QueryEngine pinned to the PIT's snapshot. Searches see the
    partition set AND corpus statistics as of open time."""
    from elasticsearch_ray.search.engine import QueryEngine

    pit = _lookup(pit_id)
    if keep_alive is not None:
        pit["expires"] = time.time() + keep_alive
    snap = pit["snap"]
    eng = QueryEngine(snap.index_dir, dtype=dtype)
    live = eng.snap.stamps
    for p in snap.parts:
        if live.get(p.part) != p.stamp or p.stamp is None:
            raise PitError(
                f"PIT {pit_id!r} references partition {p.part} which "
                f"was merged/deleted or rewritten after the PIT was opened")
    eng.__dict__.update(eng._commit_state(snap))
    return eng
