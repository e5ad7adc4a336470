"""Start, observe and stop one ``repro serve`` process tree.

The server is either the plain ``python -m repro serve`` or the traced
launcher next to this file. CPU time and peak memory come from
``/proc``, summed over the server and every process it forked (the
shard workers make themselves process-group leaders, so the tree is
found by parent pid, not by group).
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            text = handle.read()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ")".
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU seconds of ``pids`` (children already reaped
    by a live member count through its ``cutime``/``cstime``)."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime, cutime, cstime are fields 14-17 of stat.
            total += sum(int(v) for v in fields[11:15])
    return total / CLK_TCK


def peak_rss_mib(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024


def disk_usage_mib(path: Path) -> float:
    """Bytes allocated under ``path`` (files and directories), in MiB."""
    total = 0
    for root, dirs, files in os.walk(path):
        for name in dirs + files:
            try:
                total += os.lstat(os.path.join(root, name)).st_blocks * 512
            except FileNotFoundError:  # removed while walking
                continue
    total += os.lstat(path).st_blocks * 512
    return total / (1 << 20)


class Server:
    """One running server: ``start()``, use ``port``/``pids()``, ``stop()``."""

    def __init__(
        self, *, root: Path, cache_dir: Path, trace_dir: Path | None = None
    ) -> None:
        self.root = root
        self.cache_dir = cache_dir
        self.trace_dir = trace_dir
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self, timeout: float = 60.0) -> None:
        serve_args = [
            "serve", "--port", "0", "--workers", "2",
            "--cache-dir", str(self.cache_dir),
        ]
        if self.trace_dir is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [
                sys.executable, str(HERE / "traced_serve.py"),
                "--trace-dir", str(self.trace_dir), *serve_args,
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["REPRO_CACHE_DIR"] = str(self.cache_dir)
        self.proc = subprocess.Popen(
            command, cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def pids(self) -> list[int]:
        return process_tree(self.proc.pid) if self.proc is not None else []

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (the server drains), then make sure the tree is gone."""
        if self.proc is None:
            return
        tree = self.pids()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        # Shard workers are the server's children; normally they exit
        # with it. Any that linger are killed and waited for here.
        deadline = time.monotonic() + timeout
        for pid in tree[1:]:
            while _stat_fields(pid) is not None:
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                time.sleep(0.01)
        self.proc = None
