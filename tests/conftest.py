"""Session-scoped Ray fixture — Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import os
import signal
import sys
import time

import pytest

sys.path.insert(0, "/root/repo")


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()
    # no Ray process (raylet, gcs_server, a worker or actor) may
    # outlive the session: give them ~10 s to exit, then kill any
    # survivor and fail naming it
    deadline = time.monotonic() + 10.0
    while (left := _descendants(os.getpid())) and time.monotonic() < deadline:
        time.sleep(0.2)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    if left:
        pytest.fail(
            "processes outlived the test session (killed): "
            + "; ".join(f"pid {p}: {c}" for p, c in sorted(left.items()))
        )


def _descendants(root: int) -> dict[int, str]:
    """pid -> cmdline of every live (non-zombie) descendant of
    ``root``, read from /proc."""
    parent: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # fields after "(comm)": state, ppid, ...
        state, ppid = stat[stat.rindex(")") + 2 :].split()[:2]
        if state != "Z":
            parent[int(d)] = int(ppid)
    out: dict[int, str] = {}
    frontier = {root}
    while frontier:
        frontier = {p for p, pp in parent.items() if pp in frontier and p not in out}
        for p in frontier:
            try:
                with open(f"/proc/{p}/cmdline", "rb") as f:
                    out[p] = f.read().replace(b"\0", b" ").decode(errors="replace").strip()
            except OSError:
                out[p] = "?"
    return out


@pytest.fixture(scope="session")
def small_transcripts(tmp_path_factory):
    """C=20, T=10 transcripts (~200 turns) — unit-test scale per FIXTURES.md."""
    from hipporag_ray.synth import write_transcripts

    d = tmp_path_factory.mktemp("transcripts_small")
    return write_transcripts(str(d), n_convs=20, turns_per_conv=10, vocab=60, seed=42)


@pytest.fixture(scope="session")
def medium_transcripts(tmp_path_factory):
    """C=200, T=25 (~5k turns) — correctness scale per FIXTURES.md."""
    from hipporag_ray.synth import write_transcripts

    d = tmp_path_factory.mktemp("transcripts_med")
    return write_transcripts(str(d), n_convs=200, turns_per_conv=25, vocab=300, seed=42)
