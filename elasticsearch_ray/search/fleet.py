"""x-pack fleet plugin: global-checkpoints polling and checkpoint-gated
search.

Reference surfaces (all public):

- ``x-pack/plugin/fleet/.../action/GetGlobalCheckpointsAction.java`` —
  ``GET <index>/_fleet/global_checkpoints``: returns the per-shard
  global checkpoints; with ``wait_for_advance`` waits until every
  shard's checkpoint advances PAST the provided values (default
  ``NO_OPS_PERFORMED`` = -1 per shard), responding ``timed_out=true``
  with the CURRENT checkpoints when the timeout lapses (not an error);
  ``wait_for_index`` additionally waits for the index to appear.
  Validations mirrored 1:1: ``wait_for_index`` requires
  ``wait_for_advance``; all checkpoints >= -1; checkpoint count must
  equal the shard count; ``wait_for_advance`` only supports one-shard
  indices (BAD_REQUEST otherwise).
- ``x-pack/plugin/fleet/.../rest/RestFleetSearchAction.java`` —
  ``_fleet/_fleet_search`` with ``wait_for_checkpoints``: the search
  runs only once each shard's checkpoint has reached the requested
  sequence number (after-refresh visibility for checkpoint-acknowledged
  writes), failing when the wait times out.

Mapping onto this engine: a "shard" is an index partition; the global
checkpoint of a partition is ``n_docs - 1`` from its commit manifest
(the seq_no of the last indexed doc; -1 on an empty partition, the
``SequenceNumbers.NO_OPS_PERFORMED`` analog). Manifests are re-read on
every poll, so checkpoints advance as incremental appends commit.
"""

from __future__ import annotations

import time

from elasticsearch_ray.index import state

NO_OPS_PERFORMED = -1


def current_checkpoints(index_dir: str) -> list[int]:
    """Per-shard global checkpoint = last committed seq_no (n_docs - 1)."""
    return [int(p.manifest["n_docs"]) - 1 if p.manifest else NO_OPS_PERFORMED
            for p in state.snapshot(index_dir).parts]


def global_checkpoints(index_dir: str,
                       wait_for_advance: bool = False,
                       wait_for_index: bool = False,
                       checkpoints: list[int] | None = None,
                       timeout: float = 30.0,
                       poll_interval: float = 0.05) -> dict:
    """GetGlobalCheckpointsAction analog. Returns
    ``{"global_checkpoints": [...], "timed_out": bool}``."""
    checkpoints = list(checkpoints or [])
    if wait_for_index and not wait_for_advance:
        raise ValueError(
            "If wait_for_index is set to true, wait_for_advance must "
            "also be set to true.")
    if any(c < -1 for c in checkpoints):
        raise ValueError(f"All checkpoints must be >= -1. "
                         f"Found: {checkpoints}")

    deadline = time.monotonic() + timeout

    while not state.exists(index_dir):
        if not wait_for_index:
            raise FileNotFoundError(f"no such index [{index_dir}]")
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"Primary shards were not active within timeout "
                f"[timeout={timeout}s, index={index_dir}]")
        time.sleep(poll_interval)

    n_shards = len(state.snapshot(index_dir).parts)
    if wait_for_advance and n_shards != 1:
        raise ValueError(
            "wait_for_advance only supports indices with one shard. "
            f"[shard count: {n_shards}]")
    if checkpoints and len(checkpoints) != n_shards:
        raise ValueError(
            "number of checkpoints must equal number of shards. "
            f"[shard count: {n_shards}, checkpoint count: "
            f"{len(checkpoints)}]")
    if not checkpoints:
        checkpoints = [NO_OPS_PERFORMED] * n_shards

    if not wait_for_advance:
        return {"global_checkpoints": current_checkpoints(index_dir),
                "timed_out": False}

    while True:
        cur = current_checkpoints(index_dir)
        if all(c > want for c, want in zip(cur, checkpoints)):
            return {"global_checkpoints": cur, "timed_out": False}
        if time.monotonic() >= deadline:
            # reference semantics: timeout is NOT an error — respond
            # with the current checkpoints and timed_out=true
            return {"global_checkpoints": cur, "timed_out": True}
        time.sleep(poll_interval)


def fleet_search(engine, query, wait_for_checkpoints: list[int],
                 timeout: float = 30.0, poll_interval: float = 0.05,
                 **search_kwargs):
    """_fleet_search: block until every shard's checkpoint has REACHED
    the requested seq_no (>=), then run the normal search; a lapsed wait
    is an error (unlike global_checkpoints' soft timeout)."""
    if wait_for_checkpoints:
        want = list(wait_for_checkpoints)
        deadline = time.monotonic() + timeout
        while True:
            cur = current_checkpoints(engine.index_dir)
            if len(want) != len(cur):
                raise ValueError(
                    "number of checkpoints must equal number of shards. "
                    f"[shard count: {len(cur)}, checkpoint count: "
                    f"{len(want)}]")
            if all(c >= w for c, w in zip(cur, want)):
                break
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"Checkpoints [{want}] did not advance within "
                    f"[{timeout}s]; current {cur}")
            time.sleep(poll_interval)
    return engine.search(query, **search_kwargs)
