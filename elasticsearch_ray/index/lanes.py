"""The one lane rule: where the index layer runs a batch of independent jobs.

Its width is min(jobs, lanes); the lanes are the cluster's CPUs (this
module is their only reader) or a caller's ``lanes`` (``build_index``'s
``concurrency``). At width ≤ 1 the jobs run one after another in the calling
process — a Ray task would add only dispatch and, in a process's first
task, a worker's start-up — and a process that has not started Ray stays
without it. Wider, each job is one Ray task. Small work stays central and
only wide work is distributed, as in F1 Query (VLDB 2018).
"""

from __future__ import annotations

import functools

import ray


def cpus() -> int:
    """The cluster's CPUs; 1 in a process that has not started Ray."""
    if not ray.is_initialized():
        return 1
    return max(1, int(ray.cluster_resources().get("CPU", 4)))


def width(n_jobs: int, lanes: int | None = None) -> int:
    """How many of ``n_jobs`` jobs run at once (``lanes`` default to the
    cluster's CPUs, which are only read for more than one job)."""
    return n_jobs if n_jobs <= 1 else min(n_jobs, lanes or cpus())


@functools.cache
def _task(fn):
    return ray.remote(num_cpus=1)(fn)


def run(fn, jobs: list[tuple], lanes: int | None = None) -> list:
    """``[fn(*job) for job in jobs]``, placed by the lane rule."""
    if width(len(jobs), lanes) <= 1:
        return [fn(*job) for job in jobs]
    return ray.get([_task(fn).remote(*job) for job in jobs])
