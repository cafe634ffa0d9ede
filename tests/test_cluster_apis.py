"""Cluster-ops APIs (search/cluster.py): health states, stats,
node tables, autoscaling capacity, deprecation checks, monitoring
collection."""

import json
import os
import shutil

import pytest

from elasticsearch_ray.search.cluster import (
    autoscaling_capacity,
    cluster_health,
    cluster_stats,
    collect_monitoring,
    deprecation_info,
    index_health,
    nodes_info,
    nodes_stats,
)

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def built_idx(ray_session, tmp_path_factory):
    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.index.spec import IndexSpec

    idx = str(tmp_path_factory.mktemp("clidx") / "index")
    build_index(SF_DIR, idx,
                IndexSpec(use_html=False, text_column="text",
                          files_per_partition=1),
                concurrency=2, file_pattern="documents.parquet")
    return idx


def test_health_green_and_counts(built_idx):
    h = index_health(built_idx)
    assert h["status"] == "green"
    assert h["active_shards"] == h["number_of_shards"] > 0
    assert h["unassigned_shards"] == 0 and h["n_docs"] == 500

    ch = cluster_health({"docs": built_idx})
    assert ch["status"] == "green" and ch["number_of_indices"] == 1


def test_health_degrades_on_missing_segment_file(built_idx, tmp_path):
    broken = str(tmp_path / "broken")
    shutil.copytree(built_idx, broken)
    parts = sorted(os.listdir(os.path.join(broken, "parts")))
    os.remove(os.path.join(broken, "parts", parts[0], "postings.bin"))
    h = index_health(broken)
    if h["number_of_shards"] > 1:
        assert h["status"] == "yellow"
    assert h["unassigned_shards"] == 1
    # all partitions broken → red
    for p in parts:
        fp = os.path.join(broken, "parts", p, "postings.bin")
        if os.path.exists(fp):
            os.remove(fp)
    assert index_health(broken)["status"] == "red"
    # worst-of rule at the cluster level
    ch = cluster_health({"ok": built_idx, "bad": broken})
    assert ch["status"] == "red"


def test_health_ignores_a_part_dir_the_commit_does_not_list(built_idx, tmp_path):
    """A crashed incremental build or merge can leave a part directory the
    index meta does not list: health counts the committed parts only."""
    from elasticsearch_ray.search.cluster import (_SHUTDOWNS, get_shutdown_status,
                                                  put_node_shutdown)

    stray = str(tmp_path / "stray")
    shutil.copytree(built_idx, stray)
    shutil.copytree(os.path.join(stray, "parts", "part=00000"),
                    os.path.join(stray, "parts", "part=00007"))
    h, want = index_health(stray), index_health(built_idx)
    assert h == want and h["status"] == "green" and h["unassigned_shards"] == 0
    _SHUTDOWNS.clear()
    put_node_shutdown("n1", "remove", "decommission")
    try:
        n1 = get_shutdown_status({"idx": stray})["nodes"][0]
        assert n1["shard_migration"]["shard_migrations_remaining"] == want["number_of_shards"]
    finally:
        _SHUTDOWNS.clear()


def test_health_frozen_is_yellow(built_idx, tmp_path):
    fz = str(tmp_path / "fz")
    shutil.copytree(built_idx, fz)
    with open(os.path.join(fz, "frozen.json"), "w") as f:
        json.dump({"frozen": True}, f)
    h = index_health(fz)
    assert h["status"] == "yellow" and h["frozen"]


def test_nodes_and_cluster_stats(ray_session, built_idx):
    ni = nodes_info()
    assert len(ni) >= 1
    assert ni["alive"].all() and (ni["cpu"] > 0).any()
    ns = nodes_stats()
    assert "cpu_available" in ns.columns
    cs = cluster_stats({"docs": built_idx})
    assert cs["indices"]["docs_count"] == 500
    assert cs["indices"]["store_size_bytes"] > 0
    assert cs["nodes"]["count"] == len(ni)


def test_autoscaling_capacity(built_idx):
    cap = autoscaling_capacity({"docs": built_idx},
                               {"hot": {"storage_headroom": 2.0},
                                "floor": {"fixed_storage_bytes": 10**12}})
    hot = cap["policies"]["hot"]
    cur = hot["current_capacity"]["storage"]
    assert hot["required_capacity"]["total"]["storage"] == int(cur * 2.0)
    assert cap["policies"]["floor"]["required_capacity"]["total"][
        "storage"] == 10**12
    assert hot["required_capacity"]["total"]["memory"] > 0


def test_deprecation_info(built_idx, tmp_path):
    # clean index: no issues
    assert deprecation_info({"docs": built_idx})["index_settings"] == {}
    # synthesize an index with every deprecated knob
    bad = str(tmp_path / "dep")
    shutil.copytree(built_idx, bad)
    mp = os.path.join(bad, "index_meta.json")
    with open(mp) as f:
        meta = json.load(f)
    meta["spec"]["similarity"] = "classic"
    meta["spec"]["max_result_window"] = 50000
    with open(mp, "w") as f:
        json.dump(meta, f)
    with open(os.path.join(bad, "frozen.json"), "w") as f:
        json.dump({"frozen": True}, f)
    issues = deprecation_info({"bad": bad})["index_settings"]["bad"]
    levels = {i["level"] for i in issues}
    msgs = " ".join(i["message"] for i in issues)
    assert len(issues) == 3 and "critical" in levels
    assert "classic" in msgs and "frozen" in msgs \
        and "max_result_window" in msgs


def test_collect_monitoring(built_idx):
    df = collect_monitoring({"a": built_idx, "b": built_idx},
                            ts=1700000000000)
    assert list(df["type"]) == ["cluster_stats", "index_stats",
                                "index_stats"]
    assert (df["timestamp"] == 1700000000000).all()
    assert df[df["type"] == "cluster_stats"]["docs_count"].iloc[0] == 1000
    # two ticks stack into a monotone stream
    df2 = collect_monitoring({"a": built_idx}, ts=1700000001000)
    assert df2["timestamp"].iloc[0] > df["timestamp"].iloc[0]


def test_resolve_index_api():
    from elasticsearch_ray.search.cluster import resolve_index

    class _DS:
        def list_streams(self):
            return ["logs-stream"]

        def get(self, name):
            return {"name": name, "timestamp_field": "@timestamp",
                    "generation": 2,
                    "indices": [".ds-logs-stream-000001",
                                ".ds-logs-stream-000002"]}

    indices = {"web-1": "/tmp/a", "web-2": "/tmp/b", "other": "/tmp/c"}
    aliases = {"web": ["web-1", "web-2"]}
    out = resolve_index(["web*", "logs-*"], indices,
                        alias_members=aliases, datastream_service=_DS())
    assert [i["name"] for i in out["indices"]] == ["web-1", "web-2"]
    assert out["indices"][0]["attributes"] == ["open"]
    assert out["indices"][0]["aliases"] == ["web"]
    assert out["aliases"] == [{"name": "web",
                               "indices": ["web-1", "web-2"]}]
    assert out["data_streams"] == [{
        "name": "logs-stream",
        "backing_indices": [".ds-logs-stream-000001",
                            ".ds-logs-stream-000002"],
        "timestamp_field": "@timestamp"}]
    # backing indices are NOT concrete-index hits unless matched directly
    direct = resolve_index([".ds-logs-stream-*"], indices,
                           datastream_service=_DS())
    assert [i["name"] for i in direct["indices"]] \
        == [".ds-logs-stream-000001", ".ds-logs-stream-000002"]
    assert direct["indices"][0]["data_stream"] == "logs-stream"
    assert direct["data_streams"] == []
    # exact-name expression, no globs
    one = resolve_index("other", indices)
    assert [i["name"] for i in one["indices"]] == ["other"]
    assert one["aliases"] == [] and one["data_streams"] == []


def test_grok_patterns_api():
    from elasticsearch_ray.ops.processors import grok_patterns

    out = grok_patterns()
    pats = out["patterns"]
    assert pats["USER"] == "%{USERNAME}"
    assert "HOSTNAME" in pats and "EMAILADDRESS" in pats
    assert list(pats) == sorted(pats)
