"""SLM — snapshot lifecycle management policies over the blob-store repo.

Reference semantics: ``x-pack/plugin/core/.../slm/SnapshotLifecyclePolicy.java``
(policy = schedule + snapshot name pattern + repository + config +
retention) and ``SnapshotRetentionConfiguration.java``:

- ``expire_after`` — a snapshot older than this is eligible for deletion,
  but never below ``min_count`` remaining snapshots;
- ``max_count`` — with more than max_count snapshots, the oldest beyond the
  cap are deleted regardless of age;
- retention examines the policy's OWN snapshots only (SLM metadata tags the
  policy id into snapshot metadata; here the repo manifest carries it).

``SnapshotLifecycleStats``-style counters (snapshots taken/deleted) ride on
the service. Schedules are interval-driven like the Watcher trigger
simulation (the reference uses cron; this sandbox has no daemon clock) —
``run_pending(now)`` fires policies whose interval elapsed.

Snapshots themselves go through ``index/snapshot.py`` (content-addressed
incremental blob store), so repeated policy executions reuse unchanged
segment blobs.
"""

from __future__ import annotations

import errno
import os

import pandas as pd

from elasticsearch_ray.index.segments import atomic_write_json, read_json
from elasticsearch_ray.index.snapshot import (
    snapshot_create,
    snapshot_delete,
    snapshot_list,
    tag_snapshot,
)


class SlmService:
    def __init__(self, repo_dir: str):
        self.repo = repo_dir
        os.makedirs(repo_dir, exist_ok=True)
        self._pfile = os.path.join(repo_dir, "slm_policies.json")
        if not os.path.exists(self._pfile):
            atomic_write_json(self._pfile, {})

    def _read(self) -> dict:
        if (st := read_json(self._pfile)) is None:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), self._pfile)
        return st

    # ---- policy CRUD ----
    def put_policy(self, policy_id: str, policy: dict) -> None:
        if "config" not in policy or "index_dir" not in policy["config"]:
            raise ValueError("policy.config.index_dir is required")
        ret = policy.get("retention") or {}
        bad = set(ret) - {"expire_after", "min_count", "max_count"}
        if bad:
            raise ValueError(f"unknown retention keys {sorted(bad)}")
        st = self._read()
        prev = st.get(policy_id, {})
        st[policy_id] = {
            "policy": policy,
            "seq": prev.get("seq", 0),
            "last_run": prev.get("last_run"),
            "stats": prev.get("stats",
                              {"snapshots_taken": 0, "snapshots_deleted": 0}),
        }
        atomic_write_json(self._pfile, st)

    def get_policy(self, policy_id: str) -> dict:
        return self._read()[policy_id]

    def delete_policy(self, policy_id: str) -> None:
        st = self._read()
        st.pop(policy_id, None)
        atomic_write_json(self._pfile, st)

    # ---- execution ----
    def _policy_snapshots(self, policy_id: str) -> list[dict]:
        """This policy's snapshots oldest-first (SLM retention scopes to the
        owning policy)."""
        snaps = [s for s in snapshot_list(self.repo)
                 if s.get("slm_policy") == policy_id]
        return sorted(snaps, key=lambda s: (s.get("slm_seq", 0), s["snapshot"]))

    def execute_policy(self, policy_id: str, now=None) -> dict:
        st = self._read()
        ent = st[policy_id]
        pol = ent["policy"]
        ent["seq"] += 1
        name = f"{pol.get('name', policy_id)}-{ent['seq']:06d}"
        info = snapshot_create(pol["config"]["index_dir"], self.repo, name)
        # tag policy ownership + time into the snapshot manifest
        tag_snapshot(self.repo, name, slm_policy=policy_id, slm_seq=ent["seq"],
                     slm_time=str(pd.Timestamp(now) if now is not None
                                  else pd.Timestamp.now()))
        ent["last_run"] = str(pd.Timestamp(now)) if now is not None else None
        ent["stats"]["snapshots_taken"] += 1
        atomic_write_json(self._pfile, st)
        return {"snapshot_name": name, **info}

    def execute_retention(self, policy_id: str, now=None) -> list[str]:
        """SnapshotRetentionConfiguration predicate; returns deleted names."""
        st = self._read()
        ent = st[policy_id]
        ret = ent["policy"].get("retention") or {}
        if not ret:
            return []
        snaps = self._policy_snapshots(policy_id)
        now = pd.Timestamp(now) if now is not None else pd.Timestamp.now()
        min_count = int(ret.get("min_count", 0))
        max_count = ret.get("max_count")
        expire = ret.get("expire_after")
        delete: list[str] = []
        keep = list(snaps)
        if expire is not None:
            span = pd.Timedelta(expire)
            i = 0
            while i < len(keep) and len(keep) > min_count:
                age = now - pd.Timestamp(keep[i].get("slm_time", str(now)))
                if age > span:
                    delete.append(keep.pop(i)["snapshot"])
                else:
                    i += 1
        if max_count is not None:
            while len(keep) > int(max_count):
                delete.append(keep.pop(0)["snapshot"])  # oldest beyond the cap
        for name in delete:
            snapshot_delete(self.repo, name)
        ent["stats"]["snapshots_deleted"] += len(delete)
        atomic_write_json(self._pfile, st)
        return delete

    def run_pending(self, now) -> list[dict]:
        """Interval-schedule simulation: execute + retention for every policy
        whose schedule elapsed."""
        now = pd.Timestamp(now)
        out = []
        for pid, ent in sorted(self._read().items()):  # policy-id order
            interval = pd.Timedelta(ent["policy"].get("schedule", "1d"))
            last = ent.get("last_run")
            if last is None or now - pd.Timestamp(last) >= interval:
                out.append(self.execute_policy(pid, now=now))
                self.execute_retention(pid, now=now)
        return out
