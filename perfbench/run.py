"""Benchmark entry point.

    python3 perfbench/run.py --workload build_zipf --seed 1 --seconds 10 --trace 0

Run from the repository root. Each run is a fresh child process
(``cycle.py``) in its own process group, pinned to the ``nproc`` least-busy
CPUs before ``ray.init``; this parent enforces a hard timeout, then stops and
reaps every process of the group, removes the run's scratch directory
(``.pb/`` under the current directory, which also holds Ray's session
files) and prints the child's result as the last line of standard output.
A failed run prints its cause on standard error and exits non-zero without
a result line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from cycle import WORKLOADS, nproc  # noqa: E402

HARD_TIMEOUT_S = 165
# AF_UNIX paths are capped at 107 bytes; Ray appends
# "/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store" (≤ 64) to its temp dir
RAY_SOCKET_SUFFIX = 64
PR_SET_CHILD_SUBREAPER = 36


def fail(msg: str, code: int = 1) -> int:
    print(f"[perfbench] FAILED: {msg}", file=sys.stderr, flush=True)
    return code


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    out = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            out.append(int(d))
    return out


def _reap() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass
    except ChildProcessError:
        pass


def stop_group(pgid: int, grace_s: float = 5.0) -> None:
    """Let the group exit on its own for ``grace_s``, then SIGKILL it; return
    once none of its processes is alive."""
    deadline = time.monotonic() + grace_s
    while _group_members(pgid):
        _reap()
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.1)
    _reap()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "elasticsearch_ray", "__init__.py")):
        return fail("no elasticsearch_ray package in the current directory; "
                    "run from the repository root", 2)

    pb = os.path.join(root, ".pb")
    work = os.path.join(pb, f"w{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    # too long for Ray's sockets: name the same directory through this
    # process's cwd link, which stays valid while Ray runs
    ray_tmp = pb if len(pb) + RAY_SOCKET_SUFFIX <= 107 else f"/proc/{os.getpid()}/cwd/.pb"
    sessions_before = set(os.listdir(pb))
    result_path = os.path.join(work, "result.json")
    cpus = nproc()
    cmd = [sys.executable, os.path.join(HERE, "cycle.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cpus", str(cpus), "--work", work, "--ray-tmp", ray_tmp,
           "--result", result_path]
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"),
               PYTHONPATH=os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    # orphaned Ray daemons are re-parented to this process, which reaps them
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print(f"[perfbench] warning: PR_SET_CHILD_SUBREAPER failed "
              f"({os.strerror(ctypes.get_errno())})", file=sys.stderr)

    t0 = time.monotonic()
    child = subprocess.Popen(cmd, cwd=root, env=env, stdout=sys.stderr,
                             start_new_session=True)
    try:
        rc = child.wait(timeout=HARD_TIMEOUT_S)
        cause = f"run exited with code {rc} (see the traceback above)" if rc else ""
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGTERM)
        rc, cause = -1, f"hard timeout: run still going after {HARD_TIMEOUT_S} s"
    finally:
        stop_group(child.pid)
        child.wait()

    result = None
    if not cause:
        try:
            with open(result_path) as f:
                result = json.load(f)
        except (OSError, ValueError) as e:
            cause = f"run wrote no readable result: {e}"
    shutil.rmtree(work, ignore_errors=True)
    for name in set(os.listdir(pb)) - sessions_before:
        path = os.path.join(pb, name)
        if os.path.islink(path) or not os.path.isdir(path):
            os.remove(path)
        else:
            shutil.rmtree(path, ignore_errors=True)
    if not os.listdir(pb):
        os.rmdir(pb)
    if cause:
        return fail(f"{args.workload} seed {args.seed}: {cause}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} cpus={cpus} "
          f"wall_s={time.monotonic() - t0:.1f}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
