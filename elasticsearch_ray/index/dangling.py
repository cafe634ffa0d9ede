"""Dangling indices (``dangling_indices.*`` APIs,
``LocalAllocateDanglingIndices`` / ``TransportListDanglingIndicesAction``):
index data present on disk but absent from the cluster state — typically
left behind when state was restored while data directories survived.

Analog: the "cluster state" is the caller's registry of known index
names; any directory under ``root`` holding a committed index
(``state.exists``) that is not registered is dangling. ``import_dangling_index`` adopts it into
the registry (``accept_data_loss`` must be passed, like the API);
``delete_dangling_index`` removes its data from disk."""

from __future__ import annotations

import os
import shutil

from elasticsearch_ray.index import state


def list_dangling_indices(root: str, known: set[str] | list[str]) -> list[dict]:
    known = set(known)
    out = []
    if not os.path.isdir(root):
        return out
    for d in sorted(os.listdir(root)):
        if d not in known and state.exists(os.path.join(root, d)):
            out.append({"index_name": d,
                        "index_dir": os.path.join(root, d),
                        "size_in_bytes": _du(os.path.join(root, d))})
    return out


def _du(path: str) -> int:
    total = 0
    for r, _d, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(r, f))
            except OSError:
                pass
    return total


def import_dangling_index(root: str, name: str, known: set[str],
                          accept_data_loss: bool = False) -> set[str]:
    """Adopt a dangling index into the registry; returns the new
    registry. The API requires accept_data_loss=true (the index may be
    stale relative to the state that dropped it)."""
    if not accept_data_loss:
        raise ValueError(
            "accept_data_loss must be set to true to import a dangling "
            "index")
    dangling = {d["index_name"] for d in list_dangling_indices(root,
                                                               known)}
    if name not in dangling:
        raise KeyError(f"no dangling index found for [{name}]")
    return set(known) | {name}


def delete_dangling_index(root: str, name: str, known: set[str],
                          accept_data_loss: bool = False) -> None:
    if not accept_data_loss:
        raise ValueError(
            "accept_data_loss must be set to true to delete a dangling "
            "index")
    dangling = {d["index_name"] for d in list_dangling_indices(root,
                                                               known)}
    if name not in dangling:
        raise KeyError(f"no dangling index found for [{name}]")
    shutil.rmtree(os.path.join(root, name))
