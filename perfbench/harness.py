"""Measurement plumbing for the link-graph benchmark: spans, op
accounting, percentiles, process-tree memory and the environment
record.  Nothing here imports Ray or the engine, so the helpers are
testable on their own (``python3 -m pytest perfbench``)."""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import signal
import statistics
import sys
import threading
import time
import traceback

# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def tail_percentile(samples, min_beyond: int = 10):
    """Highest percentile that still has at least ``min_beyond``
    samples strictly above it.  Returns ``(value, percentile, n)``, or
    ``None`` when there are too few samples for such a percentile to
    exist (fewer than ``min_beyond + 1``)."""
    xs = sorted(samples)
    n = len(xs)
    if n < min_beyond + 1:
        return None
    idx = n - 1 - min_beyond
    # ties: step down until every sample counted as "beyond" really is
    # larger than the reported value
    while idx > 0 and xs[idx] == xs[idx + 1]:
        idx -= 1
    if xs[idx] == xs[idx + 1]:
        return None
    return float(xs[idx]), 100.0 * (idx + 1) / n, n


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder.  A span is (id, name, start, end,
    parent, rid): parent is the span open when it began, rid the
    request it belongs to.  Disabled tracers hand out a no-op context,
    so untraced runs pay one attribute test per call site."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._rid = 0

    def new_request(self) -> int:
        self._rid += 1
        return self._rid

    def span(self, name: str, rid: int | None = None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name, rid)

    @contextlib.contextmanager
    def _span(self, name: str, rid: int | None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if rid is None:
            rid = self.spans[parent]["rid"] if parent is not None else 0
        rec = {"id": sid, "name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "rid": rid}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["end"] is not None]

    def children(self, span: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span["id"] and s["end"] is not None]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(tracer: Tracer, span: dict) -> float:
    """Span duration minus the part of it its child spans cover."""
    kids = [(max(c["start"], span["start"]), min(c["end"], span["end"]))
            for c in tracer.children(span)]
    return duration(span) - covered([k for k in kids if k[1] > k[0]])


# ---------------------------------------------------------------------------
# op accounting
# ---------------------------------------------------------------------------


class Ledger:
    """Counts attempted and failed operations.  An op that raises, runs
    past its time limit, or is later found to have produced a wrong
    output counts as failed; none of these abort the run."""

    def __init__(self, op_timeout_s: float, log=None):
        self.op_timeout_s = op_timeout_s
        self.ops: list[dict] = []
        self.log = log  # None: sys.stderr at the time of writing

    def run(self, kind: str, fn, *args, **kw):
        """Run one op; returns (op record, result or None).  The record
        holds the wall time in ``s`` and ``ok``."""
        rec = {"kind": kind, "ok": True, "s": None, "why": None}
        self.ops.append(rec)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kw)
        except Exception:  # boundary: a failing op is counted, the run goes on
            rec["s"] = time.perf_counter() - t0
            self.fail(rec, "raised:\n" + traceback.format_exc())
            return rec, None
        rec["s"] = time.perf_counter() - t0
        if rec["s"] > self.op_timeout_s:
            self.fail(rec, f"took {rec['s']:.1f} s, limit {self.op_timeout_s:g} s")
        return rec, out

    def fail(self, rec: dict, why: str) -> None:
        if rec["ok"]:
            rec["ok"] = False
            rec["why"] = why
            print(f"[perfbench] {rec['kind']} failed: {why}", file=self.log or sys.stderr,
                  flush=True)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.ops if not r["ok"])

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.ops else 0.0

    def times(self, kind: str) -> list[float]:
        """Wall times of the successful ops of one kind."""
        return [r["s"] for r in self.ops if r["kind"] == kind and r["ok"]]


# ---------------------------------------------------------------------------
# process tree (memory, clean-up)
# ---------------------------------------------------------------------------


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # field 4 (ppid) follows the parenthesised command name
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        for c in kids.get(p, []):
            out.append(c)
            todo.append(c)
    return out


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_hwm_mb(pid: int | None = None) -> float:
    """Sum of the peak resident sizes of a process and its live
    descendants, in MB."""
    pid = os.getpid() if pid is None else pid
    return sum(_hwm_kb(p) for p in [pid, *descendants(pid)]) / 1024.0


class TreeMemorySampler:
    """Background sampler of :func:`tree_hwm_mb`; ``peak_mb`` is the
    largest sum seen.  Per-process peaks of live processes are summed,
    so processes that ended earlier in the run do not add up."""

    def __init__(self, every_s: float = 0.25):
        self.every_s = every_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.every_s)

    def sample(self) -> float:
        self.peak_mb = max(self.peak_mb, tree_hwm_mb())
        return self.peak_mb

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self.sample()


def kill_tree(pid: int | None = None) -> None:
    """SIGKILL every descendant of ``pid`` (last-resort clean-up)."""
    for p in reversed(descendants(os.getpid() if pid is None else pid)):
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (user, nice, system,
    idle, iowait, irq, softirq, steal, ...), in clock ticks."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(start: list[int], end: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between
    two :func:`cpu_times` readings (0 when steal is not reported)."""
    d = [b - a for a, b in zip(start, end)]
    return d[7] / sum(d) if len(d) > 7 and sum(d) else 0.0


def _omp_int(name: str) -> int | None:
    try:
        v = int(os.environ.get(name, "").split(",")[0])
    except ValueError:
        return None
    return v if v > 0 else None


def nproc() -> int:
    """CPUs available, as coreutils ``nproc`` counts them: the affinity
    mask, replaced by ``OMP_NUM_THREADS`` when set and capped by
    ``OMP_THREAD_LIMIT``."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    n = _omp_int("OMP_NUM_THREADS") or n
    limit = _omp_int("OMP_THREAD_LIMIT")
    return min(n, limit) if limit else n


def source_commit(root: str) -> str:
    """The git commit of ``root`` when it is a git checkout, else
    ``"unknown"`` (read from .git directly, so no git binary is run)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest(pkg_dir: str) -> str:
    """sha1 over the package's .py files (path and content), which names
    the code under test even where the checkout carries no git data."""
    h = hashlib.sha1()
    for dirpath, dirnames, filenames in os.walk(pkg_dir):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg_dir).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def env_record(root: str, seed: int, workload: str, ray_version: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "ray_version": ray_version,
        "python": platform.python_version(),
        "commit": source_commit(root),
        "source_sha1": source_digest(os.path.join(root, "hipporag_ray")),
    }
