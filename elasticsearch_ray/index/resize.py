"""_shrink / _split — the resize APIs
(``admin/indices/shrink/ResizeRequest.java``,
``TransportResizeAction.java``, ``MetadataCreateIndexService``
shard-count validations).

- ``shrink_index(src, dst, target_shards)``: the source partition count
  must be a MULTIPLE of the target (the reference's factor rule); the
  source is copied (a new index, source untouched — the reference
  hard-links into a new index) and contiguous groups merge down to the
  target count with the same merge kernel force_merge uses. Contiguous
  grouping preserves the global doc-id order, so results are identical
  to the source.

- ``split_index(src, dst, target_shards, corpus_dir, file_pattern)``:
  target must be a multiple of the source count, and each source
  partition's file group must split evenly (the reference requires the
  routing factor to divide evenly too). Splitting re-partitions the
  ORIGINAL input lineage (manifests carry it) with a proportionally
  smaller ``files_per_partition`` — the analog of the reference
  recomputing routing over the same documents.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

from elasticsearch_ray.index import state


class ResizeError(ValueError):
    pass


def _meta(index_dir: str) -> dict:
    return state.snapshot(index_dir).meta


def _copy_index(src_dir: str, dst_dir: str) -> str:
    """Copy the index to ``dst_dir``.tmp, less any follower marker; the
    caller renames the copy in."""
    from elasticsearch_ray.index.ccr import FOLLOW_MARKER

    if os.path.exists(dst_dir):
        raise ResizeError(f"resize target {dst_dir!r} already exists")
    tmp = dst_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.copytree(src_dir, tmp)
    marker = os.path.join(tmp, FOLLOW_MARKER)
    if os.path.exists(marker):
        os.remove(marker)
    return tmp


def shrink_index(src_dir: str, dst_dir: str, target_shards: int) -> dict:
    from elasticsearch_ray.index.merge import merge_groups

    parts = state.snapshot(src_dir).part_ids
    n = len(parts)
    if target_shards < 1 or n % target_shards != 0:
        raise ResizeError(
            f"cannot shrink {n} partitions to {target_shards}: the source "
            f"count must be a multiple of the target (reference factor "
            f"rule)")
    tmp = _copy_index(src_dir, dst_dir)
    groups = [g.tolist() for g in np.array_split(np.array(parts), target_shards)
              if len(g) > 1]
    merge_groups(tmp, groups)
    os.replace(tmp, dst_dir)
    return _meta(dst_dir)


def split_index(src_dir: str, dst_dir: str, target_shards: int,
                corpus_dir: str, file_pattern: str = "*.parquet") -> dict:
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.index.spec import IndexSpec

    meta = _meta(src_dir)
    n = len(meta["parts"])
    if target_shards <= n or target_shards % n != 0:
        raise ResizeError(
            f"cannot split {n} partitions to {target_shards}: the target "
            f"must be a larger multiple of the source count")
    factor = target_shards // n
    fpp = meta["spec"].get("files_per_partition", 8)
    if fpp % factor != 0:
        raise ResizeError(
            f"cannot split by {factor}: each partition holds {fpp} input "
            f"files, which does not divide evenly")
    if os.path.exists(dst_dir):
        raise ResizeError(f"resize target {dst_dir!r} already exists")
    spec = IndexSpec.from_dict({**meta["spec"], "files_per_partition": fpp // factor})
    out = build_index(corpus_dir, dst_dir, spec, file_pattern=file_pattern)
    if len(out["parts"]) != target_shards:
        raise ResizeError(
            f"split produced {len(out['parts'])} partitions, expected "
            f"{target_shards} (input lineage changed since the source "
            f"was built?)")
    return out


def clone_index(src_dir: str, dst_dir: str) -> dict:
    """_clone API (ResizeType.CLONE, TransportResizeAction): a new index
    with the SAME shard count — shrink's copy step without the merge.
    Source untouched; follower markers dropped; target must not exist."""
    os.replace(_copy_index(src_dir, dst_dir), dst_dir)
    return _meta(dst_dir)
