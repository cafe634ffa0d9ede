"""Index lifecycle: rollover write alias (SURVEY beyond-§2 —
``x-pack/plugin/ilm``: ``RolloverAction.java`` / ``TransportRolloverAction``
conditions ``max_docs`` / ``max_age`` / ``max_size``, plus the delete-phase
retention step).

A :class:`RolloverAlias` owns a directory of GENERATION indexes
(``gen-000001``, ``gen-000002``, …) and an atomic ``alias.json`` naming
the current WRITE generation — the reference's write-alias swap. Writers
always target :meth:`current`; when a rollover condition trips, a fresh
generation directory is cut and the alias swaps atomically (manifest
rewrite via atomic replace), exactly the pattern of the reference where
``logs-000002`` is created and the alias moves in one cluster-state
update. Old generations are immutable from then on — the Lucene
"new documents become new segments/indexes" model this repo already uses
for incremental vparts.

Searching spans every completed generation through
:class:`MultiIndexEngine` (cross-index DFS-combined stats — results are
rank-identical to one merged index, the property its oracle pins), so a
rolled deployment serves reads exactly like an unrolled one.

Retention (`apply_retention`) is the delete-phase analog: drop the
oldest generations beyond ``keep_last`` (never the write generation).
"""

from __future__ import annotations

import errno
import os
import shutil
import time

from elasticsearch_ray.index import state
from elasticsearch_ray.index.segments import atomic_write_json, read_json

GEN_FMT = "gen-{:06d}"


class RolloverAlias:
    def __init__(self, base_dir: str):
        self.base = base_dir
        os.makedirs(base_dir, exist_ok=True)
        self._alias_file = os.path.join(base_dir, "alias.json")
        if not os.path.exists(self._alias_file):
            atomic_write_json(self._alias_file,
                              {"generation": 1, "created": {"1": time.time()}})

    # -- state --
    def _state(self) -> dict:
        if (st := read_json(self._alias_file)) is None:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), self._alias_file)
        return st

    # -- write side --
    def current(self) -> str:
        """Directory the write alias points at (created on demand)."""
        gen = self._state()["generation"]
        d = os.path.join(self.base, GEN_FMT.format(gen))
        os.makedirs(d, exist_ok=True)
        return d

    def generations(self) -> list[str]:
        """All generation dirs holding a COMPLETED index build, oldest
        first."""
        st = self._state()
        out = []
        for g in range(1, st["generation"] + 1):
            d = os.path.join(self.base, GEN_FMT.format(g))
            if state.exists(d):
                out.append(d)
        return out

    def _gen_stats(self) -> tuple[int, float, int]:
        """(n_docs, age_seconds, size_bytes) of the write generation."""
        st = self._state()
        d = os.path.join(self.base, GEN_FMT.format(st["generation"]))
        n_docs = state.snapshot(d).meta.get("n_docs", 0) if state.exists(d) else 0
        age = time.time() - st["created"][str(st["generation"])]
        size = 0
        for root, _dirs, files in os.walk(d):
            size += sum(os.path.getsize(os.path.join(root, f))
                        for f in files)
        return n_docs, age, size

    def rollover_if_needed(self, max_docs: int | None = None,
                           max_age_s: float | None = None,
                           max_size_bytes: int | None = None) -> bool:
        """RolloverAction conditions: trip when ANY given bound is met or
        exceeded (the reference ORs its conditions). Returns whether a
        rollover happened."""
        if max_docs is None and max_age_s is None and max_size_bytes is None:
            raise ValueError("rollover needs at least one condition")
        n_docs, age, size = self._gen_stats()
        if ((max_docs is not None and n_docs >= max_docs)
                or (max_age_s is not None and age >= max_age_s)
                or (max_size_bytes is not None and size >= max_size_bytes)):
            self.force_rollover()
            return True
        return False

    def force_rollover(self) -> str:
        """Cut the next generation and swap the write alias atomically."""
        st = self._state()
        st["generation"] += 1
        st["created"][str(st["generation"])] = time.time()
        atomic_write_json(self._alias_file, st)
        return self.current()

    # -- read side --
    def engine(self, **engine_kwargs):
        """Search engine spanning every completed generation
        (DFS-combined stats — rank-identical to one merged index)."""
        from elasticsearch_ray.search.engine import QueryEngine
        from elasticsearch_ray.search.multi import MultiIndexEngine

        gens = self.generations()
        if not gens:
            raise ValueError(f"no completed generations under {self.base}")
        if len(gens) == 1:
            return QueryEngine(gens[0], **engine_kwargs)
        return MultiIndexEngine(gens, **engine_kwargs)

    # -- delete phase --
    def apply_retention(self, keep_last: int) -> list[str]:
        """Delete-phase analog: remove the oldest completed generations
        beyond ``keep_last`` (the write generation is always kept).
        Returns the removed dirs."""
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        gens = self.generations()
        write_gen = os.path.join(
            self.base, GEN_FMT.format(self._state()["generation"]))
        victims = [g for g in gens[:-keep_last] if g != write_gen] \
            if len(gens) > keep_last else []
        for v in victims:
            shutil.rmtree(v)
        return victims

# --------------------------------------------------------------- phases
# Full lifecycle-policy machinery (LifecyclePolicy.java /
# IndexLifecycleService.java / TimeseriesLifecycleType.java): phases
# hot -> warm -> cold -> frozen -> delete, entered when the index age
# (now - creation time) reaches the phase's min_age; each phase runs its
# actions ONCE, in the reference's fixed in-phase action order. Actions
# compose machinery this repo already has: rollover (RolloverAlias),
# forcemerge (merge.force_merge), shrink (resize.shrink_index), readonly
# (state marker), freeze (QueryEngine.freeze persists the flag),
# searchable_snapshot (snapshot_create + blob-store layout), delete
# (rmtree). set_priority / allocate / migrate are cluster-routing hints —
# recorded in the state file (single-node analog).

_ACTION_ORDER = ("set_priority", "unfollow", "rollover", "readonly",
                 "shrink", "forcemerge", "allocate", "migrate", "freeze",
                 "searchable_snapshot", "delete")

_PHASE_ORDER = ("hot", "warm", "cold", "frozen", "delete")

_ALLOWED = {
    "hot": {"set_priority", "unfollow", "rollover", "readonly", "shrink",
            "forcemerge"},
    "warm": {"set_priority", "unfollow", "readonly", "allocate", "migrate",
             "shrink", "forcemerge"},
    "cold": {"set_priority", "unfollow", "readonly", "allocate", "migrate",
             "freeze", "searchable_snapshot"},
    "frozen": {"searchable_snapshot"},
    "delete": {"delete"},
}


def _parse_age(age: str) -> float:
    """'30d' / '12h' / '5m' / '10s' / '0ms' -> seconds."""
    import re as _re

    m = _re.fullmatch(r"(\d+)(ms|s|m|h|d)", str(age).strip())
    if not m:
        raise ValueError(f"bad min_age {age!r}")
    n = int(m.group(1))
    return n * {"ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0,
                "d": 86400.0}[m.group(2)]


class LifecyclePolicy:
    """Validated phase map: {phase: {min_age, actions: {name: opts}}}."""

    def __init__(self, name: str, phases: dict):
        self.name = name
        self.phases = {}
        for ph, body in phases.items():
            if ph not in _PHASE_ORDER:
                raise ValueError(f"unknown phase {ph!r}")
            actions = dict(body.get("actions", {}))
            bad = set(actions) - _ALLOWED[ph]
            if bad:
                raise ValueError(
                    f"actions {sorted(bad)} not allowed in phase {ph!r}")
            self.phases[ph] = {
                "min_age": _parse_age(body.get("min_age", "0ms")),
                "actions": actions,
            }

    def phase_for_age(self, age_s: float) -> str | None:
        """The most advanced configured phase whose min_age is reached."""
        current = None
        for ph in _PHASE_ORDER:
            if ph in self.phases and age_s >= self.phases[ph]["min_age"]:
                current = ph
        return current


def index_creation_time(index_dir: str) -> float:
    snap = state.snapshot(index_dir)
    ct = snap.meta.get("created_unix")
    return float(ct) if ct is not None else snap.mtime


class IlmExecutor:
    """Run a policy over managed indices. State per index lives in
    ``<index>/ilm_state.json`` (executed phases/actions; the explain-API
    surface). ``now`` is an explicit unix timestamp so tests and batch
    jobs are deterministic."""

    def __init__(self, policy: LifecyclePolicy, snapshot_repo: str | None = None):
        self.policy = policy
        self.repo = snapshot_repo

    def _state_path(self, index_dir: str) -> str:
        return os.path.join(index_dir, "ilm_state.json")

    def _state(self, index_dir: str) -> dict:
        return read_json(self._state_path(index_dir),
                         {"policy": self.policy.name, "executed": {}})

    def explain(self, index_dir: str, now: float) -> dict:
        """GET <index>/_ilm/explain analog."""
        age = now - index_creation_time(index_dir)
        st = self._state(index_dir)
        return {
            "index": os.path.basename(index_dir.rstrip(os.sep)),
            "managed": True,
            "policy": self.policy.name,
            "age_seconds": age,
            "phase": self.policy.phase_for_age(age),
            "executed": st["executed"],
        }

    def step(self, index_dir: str, now: float) -> list[str]:
        """One ILM tick: enter the phase the age dictates and run its
        not-yet-executed actions in the reference's fixed order. Returns
        the action names applied this tick ('<phase>.<action>')."""
        age = now - index_creation_time(index_dir)
        applied = []
        st = self._state(index_dir)
        for ph in _PHASE_ORDER:
            if ph not in self.policy.phases:
                continue
            if age < self.policy.phases[ph]["min_age"]:
                break
            actions = self.policy.phases[ph]["actions"]
            done = st["executed"].setdefault(ph, [])
            for name in _ACTION_ORDER:
                if name not in actions or name in done:
                    continue
                deleted = self._run(index_dir, ph, name, actions[name])
                done.append(name)
                applied.append(f"{ph}.{name}")
                if deleted:
                    return applied  # index is gone; no state to write
            atomic_write_json(self._state_path(index_dir), st)
        return applied

    def _run(self, index_dir: str, phase: str, name: str,
             opts: dict) -> bool:
        if name == "forcemerge":
            from elasticsearch_ray.index.merge import force_merge

            force_merge(index_dir,
                        max_segments=int(opts.get("max_num_segments", 1)))
        elif name == "shrink":
            from elasticsearch_ray.index.resize import shrink_index

            dst = index_dir.rstrip(os.sep) + "-shrunk"
            if not os.path.exists(dst):
                shrink_index(index_dir, dst,
                             int(opts.get("number_of_shards", 1)))
        elif name == "freeze":
            from elasticsearch_ray.search.engine import QueryEngine

            QueryEngine(index_dir).freeze()
        elif name == "searchable_snapshot":
            from elasticsearch_ray.index.snapshot import (
                snapshot_create,
                snapshot_list,
            )

            repo = opts.get("snapshot_repository") or self.repo
            if not repo:
                raise ValueError("searchable_snapshot needs a repository")
            snap = "ilm-" + os.path.basename(index_dir.rstrip(os.sep))
            if not any(m["snapshot"] == snap for m in snapshot_list(repo)):
                snapshot_create(index_dir, repo, snap)
        elif name == "delete":
            shutil.rmtree(index_dir)
            return True
        elif name == "rollover":
            # only meaningful for alias-managed generations; recorded so
            # RolloverAlias.rollover_if_needed drives the actual cut
            pass
        # set_priority / allocate / migrate / readonly / unfollow are
        # metadata markers on this single-node analog (recorded in state)
        return False
