"""Start, probe and stop the real ``repro serve --workers processes`` fleet.

The server never shares an interpreter with the generator: every
instance is a ``python -m repro serve`` subprocess (the front), which in
turn spawns one ``repro serve --shard-index i`` process per shard.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence

STARTUP_RE = re.compile(r"serving on \S*?:(\d+)")

#: Topology under test: 2 shard workers behind one front, the fast
#: stride-table backend, 4 chips per worker, 1024 DRed entries.
SHARDS = 2
CHIPS = 4
DRED = 1024
BACKEND = "fast"
#: Per-connection inflight window of the front.  Wider than any window
#: the generator uses, so a BUSY("window") always means the server fell
#: behind the open-loop update stream, never generator pacing.
FRONT_WINDOW = 64

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class ServerError(RuntimeError):
    """The server failed to start, answer or stop."""


def serve_args(
    table: Optional[Path], journal: Path, restore: bool = False
) -> List[str]:
    """The ``repro serve`` argument vector for one front."""
    args = [
        "serve",
        "--workers", "processes",
        "--shards", str(SHARDS),
        "--chips", str(CHIPS),
        "--dred", str(DRED),
        "--backend", BACKEND,
        "--window", str(FRONT_WINDOW),
        "--worker-restarts", "0",
        "--host", "127.0.0.1",
        "--port", "0",
        "--journal", str(journal),
    ]
    if restore:
        args.append("--restore")
    else:
        assert table is not None
        args += ["--table", str(table)]
    return args


def python_env(src: Path) -> dict:
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + existing if existing else "")
    return env


class ServerProcess:
    """One running front plus its workers, owned by the benchmark.

    ``started`` is the ``perf_counter`` instant the front was spawned, so
    callers can time spawn-to-first-answer.  :meth:`stop` always reaps
    every process the front spawned, escalating SIGTERM to SIGKILL.
    """

    def __init__(self, src: Path, args: Sequence[str], cwd: Path) -> None:
        self.lines: List[str] = []
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            cwd=str(cwd),
            env=python_env(src),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self._children: List[int] = []

    def _pump(self) -> None:
        assert self.proc.stdout is not None
        try:
            for line in self.proc.stdout:
                self.lines.append(line.rstrip("\n"))
                match = STARTUP_RE.search(line)
                if match and self.port is None:
                    self.port = int(match.group(1))
                    self._ready.set()
        finally:
            self._ready.set()

    def wait_port(self, timeout: float = START_TIMEOUT_S) -> int:
        if not self._ready.wait(timeout) or self.port is None:
            self.kill()
            raise ServerError(
                "server failed to start:\n" + "\n".join(self.lines[-20:])
            )
        self._children = child_pids(self.proc.pid)
        return self.port

    @property
    def pids(self) -> List[int]:
        return [self.proc.pid, *self._children]

    def peak_rss_mb(self) -> float:
        """``VmHWM`` summed over the front and its worker processes."""
        total_kb = 0
        for pid in self.pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError as exc:
                raise ServerError(f"cannot read RSS of pid {pid}: {exc}")
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> int:
        """Graceful drain (SIGTERM); SIGKILL everything on timeout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError("server did not drain within the timeout")
        self._reap_children()
        self._reader.join(5.0)
        return code

    def kill(self) -> None:
        for pid in self._children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reap_children()

    def _reap_children(self) -> None:
        """Wait until every worker the front spawned has exited."""
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in self._children:
            while _alive(pid):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    deadline = time.monotonic() + 5.0
                time.sleep(0.02)
        self._children = []


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    # A zombie (state Z) has exited; its parent reaps it.
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (the front's shard workers)."""
    children: List[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return children
    for task in tasks:
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        children.extend(int(token) for token in text.split())
    return sorted(set(children))
