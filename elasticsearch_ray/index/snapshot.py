"""Snapshot repository — the blob-store repository surface
(``repositories/blobstore/BlobStoreRepository.java``,
``modules/repository-*``, coordinator ``SnapshotsService``):
point-in-time copies of an index into a repository directory,
listable, restorable, and INCREMENTAL — like the reference, repeated
snapshots of an index share unchanged segment files instead of
re-copying them.

Layout::

    repo/blobs/<sha256>        content-addressed file store (shared)
    repo/<name>/snapshot.json  manifest: relpath -> {hash, size}
    repo/.mounts/<name>/       hardlink views for searchable mounts

A snapshot is complete iff its manifest dir exists (atomic rename; a
killed snapshot leaves an invisible ``.tmp`` and possibly orphan blobs,
which the next delete's GC sweeps). Deleting a snapshot removes its
manifest then garbage-collects blobs no remaining snapshot references
(the reference's incremental-delete bookkeeping).
"""

from __future__ import annotations

import errno
import hashlib
import os
import shutil
import time

from elasticsearch_ray.index import state
from elasticsearch_ray.index.segments import atomic_write_json, read_json

_RESERVED = {"blobs"}
_MANIFEST = "snapshot.json"

# repositories-metering-api analog (x-pack repositories-metering-api
# RepositoriesMeteringResponse / RepositoryStatsSnapshot): per-repository
# blob-store request counters, keyed like the reference's request_counts
# map. Incremented by the snapshot functions as they touch blobs.
_METERING: dict[str, dict] = {}


def _meter(repo_dir: str, op: str, n: int = 1, bytes_: int = 0) -> None:
    m = _METERING.setdefault(os.path.abspath(repo_dir), {
        "GetObject": 0, "PutObject": 0, "ListObjects": 0,
        "DeleteObjects": 0, "bytes_read": 0, "bytes_written": 0})
    m[op] += n
    if op == "GetObject":
        m["bytes_read"] += bytes_
    elif op == "PutObject":
        m["bytes_written"] += bytes_


def repositories_metering(repo_dir: str) -> dict:
    """GET _nodes/_repositories_metering analog: the repository's
    request counters since process start (the reference's counters are
    also in-memory per node, cleared by the DELETE endpoint)."""
    return dict(_METERING.get(os.path.abspath(repo_dir), {
        "GetObject": 0, "PutObject": 0, "ListObjects": 0,
        "DeleteObjects": 0, "bytes_read": 0, "bytes_written": 0}))


def clear_repositories_metering(repo_dir: str) -> None:
    """DELETE _nodes/_repositories_metering analog."""
    _METERING.pop(os.path.abspath(repo_dir), None)


def _snap_dir(repo_dir: str, name: str) -> str:
    if (not name or name.endswith(".tmp") or os.sep in name
            or (os.altsep and os.altsep in name) or ".." in name
            or name in _RESERVED or name.startswith(".")):
        raise ValueError(f"invalid snapshot name {name!r}")
    return os.path.join(repo_dir, name)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _link_or_copy(src: str, dst: str) -> None:
    try:
        os.link(src, dst)
    except OSError:
        shutil.copy2(src, dst)


def snapshot_create(index_dir: str, repo_dir: str, name: str) -> dict:
    """Snapshot the index into the repository. Incremental: files whose
    content already lives in the blob store are NOT copied again.
    Refuses to overwrite an existing snapshot (snapshots are
    immutable)."""
    dst = _snap_dir(repo_dir, name)
    if os.path.exists(dst):
        raise ValueError(f"snapshot {name!r} already exists")
    blobs = os.path.join(repo_dir, "blobs")
    os.makedirs(blobs, exist_ok=True)
    file_map: dict[str, dict] = {}
    total = 0
    reused = 0
    for root, _dirs, files in os.walk(index_dir):
        for f in sorted(files):
            path = os.path.join(root, f)
            rel = os.path.relpath(path, index_dir)
            digest = _sha256(path)
            size = os.path.getsize(path)
            blob = os.path.join(blobs, digest)
            if os.path.exists(blob):
                reused += 1
            else:
                tmp = blob + f".tmp-{os.getpid()}"
                _link_or_copy(path, tmp)
                os.replace(tmp, blob)
                _meter(repo_dir, "PutObject", bytes_=size)
            file_map[rel] = {"hash": digest, "size": size}
            total += size
    manifest = {"snapshot": name, "source": os.path.abspath(index_dir),
                "files": len(file_map), "bytes": total,
                "reused_files": reused,
                "created_unix": int(time.time()),
                "file_map": file_map}
    _publish(dst, manifest)
    return manifest


def _publish(dst: str, manifest: dict) -> None:
    """Write a new snapshot's manifest in a temp dir, then rename the dir
    to ``dst``: the rename is what makes the snapshot complete."""
    tmp = dst + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    atomic_write_json(os.path.join(tmp, _MANIFEST), manifest)
    os.replace(tmp, dst)


def _manifest(repo_dir: str, name: str) -> dict:
    man = read_json(os.path.join(_snap_dir(repo_dir, name), _MANIFEST))
    if man is None:
        raise FileNotFoundError(f"no complete snapshot {name!r} in "
                                f"{repo_dir}")
    return man


def tag_snapshot(repo_dir: str, name: str, **tags) -> dict:
    """Set ``tags`` in a complete snapshot's manifest (provenance such as
    the owning SLM policy; the file map is untouched); returns it."""
    man = {**_manifest(repo_dir, name), **tags}
    atomic_write_json(os.path.join(_snap_dir(repo_dir, name), _MANIFEST), man)
    return man


def snapshot_list(repo_dir: str) -> list[dict]:
    """Manifests of every COMPLETE snapshot in the repository (``.tmp``
    leftovers from killed runs are invisible)."""
    out = []
    if not os.path.isdir(repo_dir):
        return out
    _meter(repo_dir, "ListObjects")
    for d in sorted(os.listdir(repo_dir)):
        man = None if d.endswith(".tmp") else read_json(os.path.join(repo_dir, d, _MANIFEST))
        if man is not None:
            out.append(man)
    return out


def _materialize(repo_dir: str, name: str, dst_dir: str,
                 keep_manifest: bool = False) -> dict:
    man = _manifest(repo_dir, name)
    blobs = os.path.join(repo_dir, "blobs")
    tmp = dst_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    for rel, info in man["file_map"].items():
        out = os.path.join(tmp, rel)
        os.makedirs(os.path.dirname(out), exist_ok=True)
        _link_or_copy(os.path.join(blobs, info["hash"]), out)
        _meter(repo_dir, "GetObject", bytes_=int(info["size"]))
    os.makedirs(tmp, exist_ok=True)  # empty index edge case
    os.replace(tmp, dst_dir)
    return man


def snapshot_restore(repo_dir: str, name: str, dst_index_dir: str) -> dict:
    """Restore a snapshot into ``dst_index_dir`` (must not exist —
    restores are whole-index, like RestoreService on a fresh index).
    Files hardlink out of the blob store when possible."""
    if os.path.exists(dst_index_dir):
        raise ValueError(f"restore target {dst_index_dir!r} already exists")
    return _materialize(repo_dir, name, dst_index_dir)


def snapshot_clone(repo_dir: str, source: str, target: str,
                   indices: list[str] | None = None) -> dict:
    """Clone a snapshot inside its repository (SnapshotsService
    ``cloneSnapshot`` / the ``_clone`` API): a NEW immutable snapshot is
    created from an existing one by re-referencing its blobs — zero data
    copied, only a new manifest. ``indices`` optionally restricts the
    clone to the named top-level index subdirectories (the API's
    index-subset form); the repo's content-addressed blob store makes
    the shared-segment bookkeeping automatic."""
    src_man = _manifest(repo_dir, source)
    dst = _snap_dir(repo_dir, target)
    if os.path.exists(dst):
        raise ValueError(f"snapshot {target!r} already exists")
    file_map = src_man["file_map"]
    if indices is not None:
        allowed = set(indices)

        def _top(rel: str) -> str:
            head = rel.split(os.sep, 1)[0]
            return head if os.sep in rel else ""

        file_map = {rel: info for rel, info in file_map.items()
                    if _top(rel) in allowed}
        missing = allowed - {_top(rel) for rel in file_map}
        if missing:
            raise FileNotFoundError(
                f"indices {sorted(missing)} not in snapshot {source!r}")
    manifest = {"snapshot": target, "source": src_man["source"],
                "cloned_from": source,
                "files": len(file_map),
                "bytes": sum(i["size"] for i in file_map.values()),
                "reused_files": len(file_map),  # everything is shared
                "created_unix": int(time.time()),
                "file_map": dict(file_map)}
    _publish(dst, manifest)
    return manifest


def cleanup_repository(repo_dir: str) -> dict:
    """``POST _snapshot/<repo>/_cleanup`` (TransportCleanupRepositoryAction):
    remove blobs no complete snapshot references and stale ``.tmp``
    leftovers; returns the reference's results shape
    ``{"deleted_blobs": n, "deleted_bytes": n}``."""
    live = set()
    for man in snapshot_list(repo_dir):
        live.update(info["hash"] for info in man["file_map"].values())
    deleted = 0
    freed = 0
    blobs = os.path.join(repo_dir, "blobs")
    if os.path.isdir(blobs):
        for b in os.listdir(blobs):
            if b.split(".tmp-")[0] not in live:
                freed += os.path.getsize(os.path.join(blobs, b))
                os.remove(os.path.join(blobs, b))
                deleted += 1
                _meter(repo_dir, "DeleteObjects")
    if os.path.isdir(repo_dir):
        for d in os.listdir(repo_dir):
            if d.endswith(".tmp"):
                shutil.rmtree(os.path.join(repo_dir, d),
                              ignore_errors=True)
    return {"deleted_blobs": deleted, "deleted_bytes": freed}


def snapshot_delete(repo_dir: str, name: str) -> None:
    """Remove the snapshot, then garbage-collect blobs no remaining
    snapshot references."""
    _manifest(repo_dir, name)  # raises if absent/incomplete
    shutil.rmtree(_snap_dir(repo_dir, name))
    shutil.rmtree(os.path.join(repo_dir, ".mounts", name),
                  ignore_errors=True)
    live = set()
    for man in snapshot_list(repo_dir):
        live.update(info["hash"] for info in man["file_map"].values())
    blobs = os.path.join(repo_dir, "blobs")
    if os.path.isdir(blobs):
        for b in os.listdir(blobs):
            if b.split(".tmp-")[0] not in live:
                os.remove(os.path.join(blobs, b))
                _meter(repo_dir, "DeleteObjects")


def mount_snapshot(repo_dir: str, name: str, dtype: str = "float64"):
    """Searchable snapshot (x-pack searchable-snapshots
    ``TransportMountSearchableSnapshotAction.java``): open a QueryEngine
    over a HARDLINK VIEW of the snapshot's blobs — no data copy.
    Snapshots are immutable, so the mount is read-only by
    construction."""
    view = os.path.join(repo_dir, ".mounts", name)
    if not os.path.exists(view):
        os.makedirs(os.path.dirname(view), exist_ok=True)
        _materialize(repo_dir, name, view)
    if not state.exists(view):
        raise FileNotFoundError(f"snapshot {name!r} holds no index")
    from elasticsearch_ray.search.engine import QueryEngine

    return QueryEngine(view, dtype=dtype)

def analyze_repository(repo_dir: str, blob_count: int = 10,
                       max_blob_size: int = 1 << 20,
                       seed: int = 0) -> dict:
    """Repository analysis (snapshot-repo-test-kit
    ``RepositoryAnalyzeAction`` / ``BlobAnalyzeAction``): exercise the
    blob store with deterministic random blobs — write, full read-back,
    ranged read-back, checksum verify, list, delete — and report
    consistency + throughput. The reference's contended-register and
    early-read-during-write checks need concurrent writers; the
    single-writer fs repo runs the read-after-write and
    list-consistency halves, which are the detectable failure modes on
    a filesystem store."""
    import numpy as np

    rng = np.random.default_rng(seed)
    adir = os.path.join(repo_dir, ".analyze.tmp")
    shutil.rmtree(adir, ignore_errors=True)
    os.makedirs(adir)
    sizes = [int(s) for s in
             rng.integers(1, max(max_blob_size, 2), size=blob_count)]
    digests = {}
    t0 = time.monotonic()
    total = 0
    for i, size in enumerate(sizes):
        data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        name = f"test-blob-{i}"
        with open(os.path.join(adir, name), "wb") as f:
            f.write(data)
        digests[name] = hashlib.sha256(data).hexdigest()
        total += size
    write_s = time.monotonic() - t0
    inconsistencies = []
    t0 = time.monotonic()
    read_bytes = 0
    for name, digest in digests.items():
        path = os.path.join(adir, name)
        with open(path, "rb") as f:
            data = f.read()
        read_bytes += len(data)
        if hashlib.sha256(data).hexdigest() != digest:
            inconsistencies.append({"blob": name, "check": "full_read"})
        # ranged read (the GetObject range check)
        if len(data) > 2:
            lo = len(data) // 3
            hi = 2 * len(data) // 3
            with open(path, "rb") as f:
                f.seek(lo)
                part = f.read(hi - lo)
            if part != data[lo:hi]:
                inconsistencies.append({"blob": name, "check": "range_read"})
    read_s = time.monotonic() - t0
    listed = sorted(os.listdir(adir))
    if listed != sorted(digests):
        inconsistencies.append({"check": "list", "expected": len(digests),
                                "actual": len(listed)})
    shutil.rmtree(adir)
    if os.path.isdir(adir):
        inconsistencies.append({"check": "delete"})
    return {
        "repository": os.path.abspath(repo_dir),
        "blob_count": blob_count,
        "total_bytes": total,
        "write_throughput_bps": total / max(write_s, 1e-9),
        "read_throughput_bps": read_bytes / max(read_s, 1e-9),
        "inconsistencies": inconsistencies,
        "summary": "pass" if not inconsistencies else "fail",
    }


def recover_part_from_snapshot(index_dir: str, part: int, repo_dir: str,
                               name: str | None = None) -> dict:
    """Snapshot-based shard recovery (the snapshot-based-recoveries
    plugin's ``SnapshotsRecoveryPlannerService`` model: a shard copy is
    recovered from the repository instead of re-deriving it from
    source). Re-materializes ONE partition's files out of the blob
    store — no re-tokenize, no shuffle — and stamps its manifest
    ``restored`` so ``index.admin.recovery()`` reports the shard's
    type as SNAPSHOT.

    ``name`` defaults to the repository's newest complete snapshot.
    The snapshot's index_meta spec must equal the live index's spec
    (the reference's shard-allocation compatibility check)."""
    from elasticsearch_ray.index.admin import check_write

    check_write(index_dir)
    if name is None:
        snaps = snapshot_list(repo_dir)
        if not snaps:
            raise FileNotFoundError(f"no snapshots in {repo_dir}")
        name = max(snaps, key=lambda m: m["created_unix"])["snapshot"]
    man = _manifest(repo_dir, name)
    blobs = os.path.join(repo_dir, "blobs")

    def _blob_json(rel: str) -> dict:
        info = man["file_map"].get(rel)
        if info is None:
            raise FileNotFoundError(
                f"snapshot {name!r} has no file {rel!r}")
        blob = os.path.join(blobs, info["hash"])
        if (obj := read_json(blob)) is None:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), blob)
        return obj

    if state.exists(index_dir) and \
            _blob_json(state.META).get("spec") != state.snapshot(index_dir).spec:
        raise ValueError(
            "snapshot spec differs from the live index spec — "
            "cannot recover a shard across incompatible mappings")
    prefix = os.path.join("parts", f"part={part:05d}") + os.sep
    entries = {rel: info for rel, info in man["file_map"].items()
               if rel.startswith(prefix)}
    if not entries:
        raise FileNotFoundError(
            f"snapshot {name!r} carries no files for part {part}")
    part_dir = os.path.join(index_dir, "parts", f"part={part:05d}")
    tmp = part_dir + ".recover-tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    copied = 0
    for rel, info in entries.items():
        out = os.path.join(tmp, os.path.relpath(rel, prefix.rstrip(os.sep)))
        os.makedirs(os.path.dirname(out), exist_ok=True)
        _link_or_copy(os.path.join(blobs, info["hash"]), out)
        _meter(repo_dir, "GetObject", bytes_=int(info["size"]))
        copied += int(info["size"])
    shutil.rmtree(part_dir, ignore_errors=True)
    os.replace(tmp, part_dir)
    state.amend_part(index_dir, part, restored=True, restored_from=name)
    return {"part": part, "snapshot": name, "bytes": copied,
            "files": len(entries)}
