"""Async search API (x-pack async-search:
``AsyncSearchTask.java``, ``MutableSearchResponse.java``,
``TransportSubmitAsyncSearchAction.java`` / Get / Status / Delete).

``submit`` starts the query and returns within
``wait_for_completion_timeout`` — with the complete response when the
search beat the timeout, else a PARTIAL response (``is_partial=True``,
``is_running=True``) plus an id; ``get`` retrieves the current state
(optionally waiting again), ``status`` returns progress counters only,
``delete`` cancels/forgets. Responses expire ``keep_alive`` seconds
after submit unless refreshed by ``get(..., keep_alive=...)``.

Execution model: partitions play the reference's shards. A search runs on
a snapshot of the engine (``QueryEngine._pinned``) behind the same gate as
``search`` (``_read_gate``: a closed or read-blocked index fails it, and
``get`` or ``submit`` raises the error), and its fetch reads the same
snapshot. The engine's candidate selection (``_candidate_parts``) decides
which partitions can match; the rest count as completed up front, like
the reference's can_match-skipped shards. A background thread walks the
candidates, one step per partition: the engine's top-k pass
(``PartitionSearcher.topk``) over that partition alone, added to a mutable
response under a lock (MutableSearchResponse.updatePartialResponse);
readers snapshot it without blocking the runner. Partial hits are the
completed steps merged as a fan-out's passes are (``engine._pass_table``:
score desc, part, doc; empty before the first step), so a partial response
is always a correct prefix view of the partitions it covers.
"""

from __future__ import annotations

import itertools
import threading
import time

from elasticsearch_ray.search.engine import _pass_table


class AsyncSearchError(KeyError):
    pass


class _Task:
    def __init__(self, engine, keep_alive: float):
        self.engine = engine  # the pinned engine the search and its fetch run on
        self.lock = threading.Lock()
        self.done = threading.Event()
        self.total_shards = len(engine.parts)
        self.completed = 0
        self.results = []  # one top-k pass (parts, locals, scores) per partition
        self.error: Exception | None = None
        self.cancelled = False
        self.start_time = time.time()
        self.expiration_time = self.start_time + keep_alive


class AsyncSearchService:
    """One service per QueryEngine (the engine's partitions are the
    shard set)."""

    def __init__(self, engine):
        self.engine = engine
        self._tasks: dict[str, _Task] = {}
        self._ids = itertools.count(1)

    # ------------------------------------------------------------ API

    def submit(self, q, k: int = 10, mode: str = "bmw",
               fetch: tuple = ("doc_id",),
               wait_for_completion_timeout: float = 1.0,
               keep_alive: float = 300.0,
               _between_parts=None) -> dict:
        """Start an async search; ``_between_parts`` is a test hook
        called after every completed partition."""
        eng = self.engine._pinned()
        q = eng._prepare(q)
        # reap expired entries (the reference's maintenance service) so a
        # fire-and-forget caller can't grow the store unboundedly
        now = time.time()
        for tid in [t for t, tk in self._tasks.items()
                    if now > tk.expiration_time]:
            self._tasks[tid].cancelled = True
            del self._tasks[tid]
        task_id = f"async_{next(self._ids)}"
        task = _Task(eng, keep_alive)
        self._tasks[task_id] = task

        def search():
            scorers = eng._scorers_cached(q)
            cand = eng._candidate_parts(q)
            with task.lock:
                task.completed = len(eng.parts) - len(cand)
            for p in cand:
                if task.cancelled:
                    return
                hits = eng._searcher(p).topk(q, scorers, k, mode)
                with task.lock:
                    task.results.append(hits)
                    task.completed += 1
                if _between_parts is not None:
                    _between_parts(p)

        def run():
            try:
                eng._read_gate(search)
            except Exception as e:  # surfaced via get(), like the ref
                task.error = e
            finally:
                task.done.set()

        threading.Thread(target=run, daemon=True).start()
        task.done.wait(wait_for_completion_timeout)
        return self._response(task_id, task, k, fetch)

    def get(self, task_id: str, k: int = 10, fetch: tuple = ("doc_id",),
            wait_for_completion_timeout: float = 0.0,
            keep_alive: float | None = None) -> dict:
        task = self._lookup(task_id)
        if keep_alive is not None:
            task.expiration_time = time.time() + keep_alive
        if wait_for_completion_timeout:
            task.done.wait(wait_for_completion_timeout)
        return self._response(task_id, task, k, fetch)

    def status(self, task_id: str) -> dict:
        task = self._lookup(task_id)
        running = not task.done.is_set()
        with task.lock:
            completed = task.completed
        return {"id": task_id, "is_running": running,
                "is_partial": running or task.error is not None,
                "start_time": task.start_time,
                "expiration_time": task.expiration_time,
                "total_shards": task.total_shards,
                "successful_shards": completed}

    def delete(self, task_id: str) -> None:
        task = self._lookup(task_id)
        task.cancelled = True
        del self._tasks[task_id]

    # ------------------------------------------------------- internals

    def _lookup(self, task_id: str) -> _Task:
        task = self._tasks.get(task_id)
        if task is None:
            raise AsyncSearchError(f"unknown async search id {task_id!r}")
        if time.time() > task.expiration_time:
            del self._tasks[task_id]
            raise AsyncSearchError(f"async search {task_id!r} expired")
        return task

    def _response(self, task_id: str, task: _Task, k: int,
                  fetch: tuple) -> dict:
        if task.error is not None:
            raise task.error
        running = not task.done.is_set()
        with task.lock:
            results = list(task.results)
            completed = task.completed
        tbl = task.engine._attach_fetch(_pass_table(results, k), fetch)
        return {"id": task_id, "is_running": running,
                "is_partial": running,
                "start_time": task.start_time,
                "expiration_time": task.expiration_time,
                "response": {"total_shards": task.total_shards,
                             "successful_shards": completed,
                             "hits": tbl}}

