"""CCR analog — cross-cluster replication follower indices
(``x-pack/plugin/ccr``: ``TransportPutFollowAction.java``,
``ShardFollowNodeTask.java``, ``TransportResumeFollowAction.java``).

The reference follower bootstraps from a snapshot-like restore of the
leader then tails per-shard operation batches. Our indexes are
immutable segment partitions with manifests, so following is
SEGMENT-level (the shape of the reference's initial `restore from
remote` plus file-based recovery on changes):

- ``follow(leader, follower)`` — initial sync: copy every partition,
  commit the leader's part list, write ``follow.json`` recording the
  leader;
- ``poll_follow(follower)`` — incremental sync: a partition is copied
  only when the follower lacks it or its committed manifest
  changed (manifests carry format/spec/input fingerprints, so any
  rebuild/merge/append changes them); partitions gone from the leader
  (tiered merges rewrite groups) are dropped. Untouched partitions are
  never re-copied. Copies land under a ``.tmp`` and rename in, so a
  killed sync never leaves a half-written partition visible.

Followers are read-only (the reference blocks writes on followers):
``follow.json``'s presence marks the index as a follower, and
``assert_not_follower`` lets write paths refuse.
"""

from __future__ import annotations

import os
import shutil

from elasticsearch_ray.index import state
from elasticsearch_ray.index.segments import atomic_write_json, part_dir, read_json

FOLLOW_MARKER = "follow.json"


class FollowerError(ValueError):
    pass


def is_follower(index_dir: str) -> bool:
    return os.path.exists(os.path.join(index_dir, FOLLOW_MARKER))


def assert_not_follower(index_dir: str) -> None:
    if is_follower(index_dir):
        raise FollowerError(
            f"{index_dir} is a CCR follower (read-only); writes must go "
            f"to the leader")


def _copy_part(src: str, dst: str) -> None:
    tmp = dst + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.copytree(src, tmp)
    shutil.rmtree(dst, ignore_errors=True)
    os.replace(tmp, dst)


def poll_follow(follower_dir: str) -> dict:
    """Sync the follower from its leader. Returns
    ``{"copied": [...], "removed": [...], "unchanged": [...]}``."""
    marker = read_json(os.path.join(follower_dir, FOLLOW_MARKER))
    if marker is None:
        raise FollowerError(f"{follower_dir} is not a follower")
    leader_dir = marker["leader"]
    if not state.exists(leader_dir):
        raise FollowerError(f"leader {leader_dir!r} has no index")
    leader = state.snapshot(leader_dir)
    have = ({p.part: p.manifest for p in state.snapshot(follower_dir).parts}
            if state.exists(follower_dir) else {})
    copied, removed, unchanged = [], [], []
    for p in leader.parts:
        dst = part_dir(follower_dir, p.part)
        if p.manifest is not None and have.get(p.part) == p.manifest:
            unchanged.append(os.path.basename(dst))
            continue
        _copy_part(part_dir(leader_dir, p.part), dst)
        copied.append(os.path.basename(dst))
    for part in sorted(set(have) - set(leader.part_ids)):
        shutil.rmtree(part_dir(follower_dir, part), ignore_errors=True)
        removed.append(os.path.basename(part_dir(follower_dir, part)))
    # the part list last: readers of the new commit see complete parts
    state.commit_parts(follower_dir, leader.part_ids, leader.spec)
    return {"copied": copied, "removed": removed, "unchanged": unchanged}


def follow(leader_dir: str, follower_dir: str) -> dict:
    """Create a follower of ``leader_dir`` at ``follower_dir`` (must not
    already be an index) and run the initial sync."""
    if not state.exists(leader_dir):
        raise FollowerError(f"leader {leader_dir!r} has no index")
    if state.exists(follower_dir):
        raise FollowerError(f"{follower_dir!r} already holds an index")
    if is_follower(leader_dir):
        raise FollowerError("cannot follow a follower (the reference "
                            "requires the leader index to be a leader)")
    os.makedirs(follower_dir, exist_ok=True)
    atomic_write_json(os.path.join(follower_dir, FOLLOW_MARKER),
                      {"leader": os.path.abspath(leader_dir)})
    return poll_follow(follower_dir)


def unfollow(follower_dir: str) -> None:
    """Promote the follower to a regular index (the reference's
    pause+close+unfollow flow ends the same way)."""
    marker = os.path.join(follower_dir, FOLLOW_MARKER)
    if not os.path.exists(marker):
        raise FollowerError(f"{follower_dir} is not a follower")
    os.remove(marker)


class AutoFollowService:
    """Auto-follow patterns (``TransportPutAutoFollowPatternAction.java``,
    ``AutoFollowCoordinator.java``): NEW leader indices matching a
    pattern are followed automatically on each coordinator poll.

    A leader "cluster" is a root directory whose index subdirectories
    (those holding a committed index) are the leader indices. Like the
    reference's ``followedLeaderIndexUUIDs`` bookkeeping, every leader
    index a pattern has followed once stays tracked, so deleting the
    follower does NOT re-trigger a follow. Patterns can be paused and
    resumed (``active`` flag); a paused pattern's poll skips creation
    but keeps its history. Glob semantics are ``Regex.simpleMatch``
    (``*`` wildcards), with exclusion patterns taking precedence —
    both from the reference's pattern matcher.
    """

    STATE = ".auto_follow.json"

    def __init__(self, follower_root: str):
        self.root = follower_root
        os.makedirs(follower_root, exist_ok=True)
        self._path = os.path.join(follower_root, self.STATE)
        self.state = read_json(self._path, {"patterns": {}, "stats": {
            "number_of_successful_follow_indices": 0,
            "recent_auto_follow_errors": []}})

    def _save(self) -> None:
        atomic_write_json(self._path, self.state)

    def put_pattern(self, name: str, leader_root: str,
                    leader_index_patterns: list[str],
                    leader_index_exclusion_patterns: list[str] = (),
                    follow_index_pattern: str = "{{leader_index}}") -> dict:
        if not name or "," in name or os.sep in name:
            raise ValueError(f"invalid auto-follow pattern name {name!r}")
        if not leader_index_patterns:
            raise ValueError("leader_index_patterns must be non-empty")
        prev = self.state["patterns"].get(name, {})
        self.state["patterns"][name] = {
            "remote_cluster": os.path.abspath(leader_root),
            "leader_index_patterns": list(leader_index_patterns),
            "leader_index_exclusion_patterns":
                list(leader_index_exclusion_patterns),
            "follow_index_pattern": follow_index_pattern,
            "active": True,
            # an updated pattern keeps its followed history (UUIDs
            # survive pattern updates in the reference too)
            "followed": prev.get("followed", []),
        }
        self._save()
        return self.state["patterns"][name]

    def get_pattern(self, name: str | None = None) -> dict:
        if name is None:
            return dict(self.state["patterns"])
        if name not in self.state["patterns"]:
            raise KeyError(f"auto-follow pattern [{name}] is missing")
        return self.state["patterns"][name]

    def delete_pattern(self, name: str) -> None:
        if name not in self.state["patterns"]:
            raise KeyError(f"auto-follow pattern [{name}] is missing")
        del self.state["patterns"][name]
        self._save()

    def _set_active(self, name: str, active: bool) -> None:
        self.get_pattern(name)["active"] = active
        self._save()

    def pause_pattern(self, name: str) -> None:
        self._set_active(name, False)

    def resume_pattern(self, name: str) -> None:
        self._set_active(name, True)

    @staticmethod
    def _matches(index: str, pat: dict) -> bool:
        import fnmatch

        if any(fnmatch.fnmatchcase(index, g)
               for g in pat["leader_index_exclusion_patterns"]):
            return False
        return any(fnmatch.fnmatchcase(index, g)
                   for g in pat["leader_index_patterns"])

    def poll(self) -> dict:
        """One AutoFollowCoordinator tick: create followers for new
        matching leader indices, then sync every live auto-created
        follower. Returns ``{"created": [...], "synced": {...},
        "errors": [...]}``."""
        created, synced, errors = [], {}, []
        for pname, pat in self.state["patterns"].items():
            leader_root = pat["remote_cluster"]
            leaders = []
            if os.path.isdir(leader_root):
                leaders = [d for d in sorted(os.listdir(leader_root))
                           if state.exists(os.path.join(leader_root, d))]
            for idx in leaders:
                if not self._matches(idx, pat):
                    continue
                if idx in pat["followed"]:
                    continue
                if not pat["active"]:
                    continue
                follower_name = pat["follow_index_pattern"].replace(
                    "{{leader_index}}", idx)
                dst = os.path.join(self.root, follower_name)
                try:
                    follow(os.path.join(leader_root, idx), dst)
                    pat["followed"].append(idx)
                    created.append(follower_name)
                except FollowerError as e:
                    errors.append({"pattern": pname, "index": idx,
                                   "error": str(e)})
            # ongoing sync for live auto-created followers
            for idx in pat["followed"]:
                follower_name = pat["follow_index_pattern"].replace(
                    "{{leader_index}}", idx)
                dst = os.path.join(self.root, follower_name)
                if follower_name in created:
                    continue
                if not is_follower(dst):
                    continue  # deleted or promoted — never re-created
                try:
                    synced[follower_name] = poll_follow(dst)
                except FollowerError as e:
                    errors.append({"pattern": pname, "index": idx,
                                   "error": str(e)})
        st = self.state["stats"]
        st["number_of_successful_follow_indices"] += len(created)
        st["recent_auto_follow_errors"] = (
            st["recent_auto_follow_errors"] + errors)[-16:]
        self._save()
        return {"created": created, "synced": synced, "errors": errors}

    def stats(self) -> dict:
        """ccr.stats auto_follow_stats section analog."""
        return dict(self.state["stats"])
