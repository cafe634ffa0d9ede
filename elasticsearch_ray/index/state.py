"""Committed inverted-index state: the one module that reads and writes it.

  index_meta.json                 spec, global stats (n_docs, sum_dl,
                                  sum_dl_fields) and the ordered part list
  parts/part=NNNNN/manifest.json  a part's commit point (format, lineage,
                                  base_doc_id, stats, bloom_bits)
  <kind>-<field>.json             root record of a rank_features
                                  (``rankfeat``) or ``wildcard`` sidecar
  frozen.json / admin.json        the frozen flag / exec-only admin state

Readers take ``snapshot(index_dir)``, an immutable ``Snapshot``; each part's
stamp comes from ``fstat`` on the file its manifest was read from. Writers
only commit, through the ``commit_*`` / ``retract_part`` / ``amend_part`` /
``resume`` functions below, which own two rules: a manifest of another
``FORMAT_VERSION`` reads as absent (its part rebuilds), and a part rebuild
drops every root sidecar record (the part's sidecar files go with it).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq

from elasticsearch_ray.index.segments import FORMAT_VERSION, atomic_write_json, part_dir

META = "index_meta.json"
_FROZEN = "frozen.json"
_ADMIN = "admin.json"
_MANIFEST = "manifest.json"

# sidecar kind → the per-part files of one sidecar field (name templates)
SIDECAR_FILES = {
    "rankfeat": ("rankfeat-{}.parquet",),
    "wildcard": ("wildcard-{}.parquet", "wildcarddv-{}.parquet"),
}


class StaleCommitError(RuntimeError):
    """A partition no longer holds the commit a reader was pinned to: it
    was rewritten or merged away after the snapshot was taken."""


@dataclasses.dataclass(frozen=True)
class PartState:
    part: int
    base: int  # global doc id of the part's first doc
    n_docs: int
    manifest: dict | None  # None: missing, or another FORMAT_VERSION
    stamp: tuple | None  # (inode, mtime_ns, size) of that manifest file


@dataclasses.dataclass(frozen=True)
class Snapshot:
    """One commit of an index. Engines, PITs and searches share it: treat
    its dicts as read-only."""

    index_dir: str
    meta: dict
    parts: tuple[PartState, ...]
    sidecars: dict  # (kind, field) → root record
    frozen: bool
    mtime: float  # of the meta file

    @property
    def spec(self) -> dict:
        return self.meta["spec"]

    @property
    def n_docs(self) -> int:
        return self.meta["n_docs"]

    @property
    def part_ids(self) -> list[int]:
        return [p.part for p in self.parts]

    @property
    def stamps(self) -> dict:
        return {p.part: p.stamp for p in self.parts}

    def part(self, part: int) -> PartState:
        for p in self.parts:
            if p.part == part:
                return p
        raise KeyError(f"partition {part} is not in this commit of {self.index_dir}")

    def sidecar_files(self) -> list[str]:
        """Per-part file names of every recorded sidecar."""
        return [t.format(field) for kind, field in sorted(self.sidecars)
                for t in SIDECAR_FILES[kind]]

    def sidecar_complete(self, kind: str, field: str) -> bool:
        """True iff the root record AND every part's sidecar files exist —
        callers deciding whether to (re)build check this, not the record."""
        return (kind, field) in self.sidecars and all(
            os.path.exists(os.path.join(part_dir(self.index_dir, p), t.format(field)))
            for p in self.part_ids for t in SIDECAR_FILES[kind])


def load_manifest(pdir: str) -> tuple[dict | None, tuple | None]:
    """(manifest, stamp) of the segment in ``pdir``; (None, None) when it is
    not committed (never built, or being rewritten)."""
    try:
        with open(os.path.join(pdir, _MANIFEST)) as f:
            st = os.fstat(f.fileno())
            m = json.load(f)
    except FileNotFoundError:
        return None, None
    return (m if m.get("format") == FORMAT_VERSION else None), \
        (st.st_ino, st.st_mtime_ns, st.st_size)


def manifest_path(index_dir: str, part: int) -> str:
    return os.path.join(part_dir(index_dir, part), _MANIFEST)


def read_manifest(index_dir: str, part: int) -> dict | None:
    return load_manifest(part_dir(index_dir, part))[0]


def read_committed(pdir: str, name: str, stamp: tuple | None, **read) -> pa.Table | None:
    """Sidecar ``name`` of the segment in ``pdir`` at commit ``stamp`` (None
    when absent), else ``StaleCommitError``. Read first, stamp checked after:
    a rewrite retracts the manifest before it touches a file."""
    try:
        t = pq.read_table(os.path.join(pdir, name), **read)
    except FileNotFoundError:
        t = None
    if stamp is None or load_manifest(pdir)[1] != stamp:
        raise StaleCommitError(f"{pdir} no longer holds the commit this reader was "
                               "pinned to: it was rewritten or merged away")
    return t


def _committed(index_dir: str, part: int) -> dict:
    m = read_manifest(index_dir, part)
    if m is None:
        raise StaleCommitError(f"partition {part} of {index_dir} has no committed segment")
    return m


def exists(index_dir: str) -> bool:
    """Whether ``index_dir`` holds a committed index."""
    return os.path.exists(os.path.join(index_dir, META))


def _read_json(path: str, default=None):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return default


def _sidecar_records(index_dir: str) -> dict[str, tuple[str, str]]:
    """{root record file name: (kind, field)}."""
    out = {}
    for name in os.listdir(index_dir):
        kind, _, rest = name.partition("-")
        if kind in SIDECAR_FILES and rest.endswith(".json"):
            out[name] = (kind, rest[:-len(".json")])
    return out


def snapshot(index_dir: str) -> Snapshot:
    """The index's committed state now (FileNotFoundError when it has none)."""
    with open(os.path.join(index_dir, META)) as f:
        mtime = os.fstat(f.fileno()).st_mtime
        meta = json.load(f)
    parts, base = [], 0
    for p in meta.get("parts", ()):
        parts.append(PartState(p["part"], base, p["n_docs"],
                               *load_manifest(part_dir(index_dir, p["part"]))))
        base += p["n_docs"]
    sidecars = {key: rec for name, key in _sidecar_records(index_dir).items()
                if (rec := _read_json(os.path.join(index_dir, name))) is not None}
    frozen = bool((_read_json(os.path.join(index_dir, _FROZEN)) or {}).get("frozen"))
    return Snapshot(index_dir, meta, tuple(parts), sidecars, frozen, mtime)


# ------------------------------------------------------------ commits

def retract_part(index_dir: str, part: int) -> None:
    """First step of a segment rewrite: the part stops being committed."""
    if os.path.exists(manifest_path(index_dir, part)):
        os.remove(manifest_path(index_dir, part))


def commit_part(index_dir: str, part: int, manifest: dict) -> None:
    """Last step of a segment write: its manifest commits the part."""
    atomic_write_json(manifest_path(index_dir, part), manifest)


def amend_part(index_dir: str, part: int, **fields) -> None:
    """Recommit a part's manifest with ``fields`` set (provenance that
    changes no segment byte)."""
    commit_part(index_dir, part, {**_committed(index_dir, part), **fields})


def resume(index_dir: str, wanted: dict[int, dict]) -> list[int]:
    """The parts of a build's plan ({part: lineage}) to rebuild: those whose
    committed manifest has another lineage. They are dropped now, and with
    them every root sidecar record."""
    todo = []
    for part, lineage in sorted(wanted.items()):
        m = read_manifest(index_dir, part)
        if not (m and all(m.get(k) == v for k, v in lineage.items())):
            shutil.rmtree(part_dir(index_dir, part), ignore_errors=True)
            todo.append(part)
    if todo:
        for name in _sidecar_records(index_dir):
            os.remove(os.path.join(index_dir, name))
    return todo


def commit_parts(index_dir: str, parts: list[int], spec: dict) -> dict:
    """Commit ``parts`` (each committed by its manifest) as the index's
    ordered part list, with their global stats; returns the meta. The first
    commit stamps ``created_unix`` (the ILM age); later ones carry it, or
    the mtime of a meta written before it was recorded."""
    path = os.path.join(index_dir, META)
    prev = _read_json(path)
    created = time.time() if prev is None else prev.get("created_unix",
                                                        os.path.getmtime(path))
    manifests = [_committed(index_dir, p) for p in parts]
    sum_dl_fields: dict[str, int] = {}
    for m in manifests:
        for f, v in (m.get("sum_dl_fields") or {}).items():
            sum_dl_fields[f] = sum_dl_fields.get(f, 0) + int(v)
    meta = {
        "spec": spec,
        "num_parts": len(manifests),
        "n_docs": int(sum(m["n_docs"] for m in manifests)),
        "sum_dl": int(sum(m["sum_dl"] for m in manifests)),
        "sum_dl_fields": sum_dl_fields,
        "parts": [{"part": m["part"], "n_docs": m["n_docs"], "input_path": m["input_path"]}
                  for m in manifests],
        "created_unix": created,
    }
    atomic_write_json(path, meta)
    return meta


def commit_sidecar(index_dir: str, kind: str, field: str, record: dict) -> None:
    """Record a sidecar whose per-part files every part now holds."""
    atomic_write_json(os.path.join(index_dir, f"{kind}-{field}.json"), record)


def commit_frozen(index_dir: str, frozen: bool) -> None:
    atomic_write_json(os.path.join(index_dir, _FROZEN), {"frozen": frozen})


# every search's gate reads the admin state: cached per path, validated by
# one os.stat of the file
_ADMIN_CACHE: dict[str, tuple[int, dict]] = {}


def admin_state(index_dir: str) -> dict:
    """The index's admin state ({} when absent); treat it as read-only."""
    p = os.path.join(index_dir, _ADMIN)
    try:
        mt = os.stat(p).st_mtime_ns
    except FileNotFoundError:
        return {}
    hit = _ADMIN_CACHE.get(p)
    if hit is None or hit[0] != mt:
        hit = _ADMIN_CACHE[p] = (mt, _read_json(p, {}))
    return hit[1]


def commit_admin(index_dir: str, st: dict) -> None:
    atomic_write_json(os.path.join(index_dir, _ADMIN), st)
    _ADMIN_CACHE.pop(os.path.join(index_dir, _ADMIN), None)
