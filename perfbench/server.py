"""The served deployment: ``python -m repro serve --workers N`` as a subprocess.

The server runs with default knobs and the environment the benchmark
inherits; only ``PYTHONPATH`` (to import the checkout's ``src``) and
``PYTHONUNBUFFERED`` (to read the bound URL as soon as it is printed) are
added.
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

from repro.errors import ReproError
from repro.serve.http import ReproClient

import host

#: Longest a server may take to print its URL (corpus load + worker spawn).
START_TIMEOUT = 120.0
#: Longest a SIGTERM drain may take before the tree is killed.
STOP_TIMEOUT = 20.0

_URL = re.compile(r"repro API at (http://\S+)/v1")


class ServedProcess:
    """One ``repro serve`` process tree, started and stopped by the benchmark."""

    def __init__(self, root: Path, corpus_dir: Path, workers: int) -> None:
        self._root = root
        self._corpus_dir = corpus_dir
        self._workers = workers
        self._process: subprocess.Popen | None = None
        self._lines: list[str] = []
        self._url_ready = threading.Event()
        self._reader: threading.Thread | None = None
        self.url: str | None = None

    def start(self, warmup) -> float:
        """Spawn, wait for the URL, run ``warmup(client)``; returns seconds.

        ``warmup`` must make every worker answer one request; its time
        counts in set-up and never in latency.
        """
        env = dict(os.environ)
        src = str(self._root / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONUNBUFFERED"] = "1"
        started = time.perf_counter()
        self._process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--corpus-dir", str(self._corpus_dir),
                "--workers", str(self._workers),
                "--port", "0",
            ],
            cwd=self._root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read_output, daemon=True)
        self._reader.start()
        deadline = started + START_TIMEOUT
        while not self._url_ready.wait(0.05):
            if self._process.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(
                    "repro serve did not start:\n" + "".join(self._lines[-20:])
                )
        warmup(self.client())
        return time.perf_counter() - started

    def _read_output(self) -> None:
        for line in self._process.stdout:
            self._lines.append(line)
            match = _URL.search(line)
            if match and self.url is None:
                self.url = match.group(1)
                self._url_ready.set()

    def tree(self) -> list[int]:
        return host.process_tree(self._process.pid)

    def measure(self, work):
        """Run ``work()``; returns its result and the server's accounting.

        Accounting covers the server process tree over the call: user plus
        system CPU, the host's steal share, and threads and proportional
        memory at the end.
        """
        pids = self.tree()
        cpu_before = host.tree_cpu_seconds(pids)
        stat_before = host.cpu_times()
        started = time.perf_counter()
        result = work()
        wall = time.perf_counter() - started
        stat_after = host.cpu_times()
        pids = self.tree()
        return result, {
            "wall_s": wall,
            "server_cpu_s": host.tree_cpu_seconds(pids) - cpu_before,
            "steal_frac": host.steal_fraction(stat_before, stat_after),
            "threads": host.tree_threads(pids),
            "pss_mib": host.tree_pss_mib(pids),
        }

    def client(self) -> ReproClient:
        return ReproClient(self.url, timeout=START_TIMEOUT)

    def stats(self) -> dict | None:
        """The server's ``/v1/stats`` envelope, or ``None`` if it fails."""
        try:
            return self.client().stats()
        except ReproError:
            return None

    def stop(self) -> None:
        """SIGTERM (drain), then kill whatever of the process group is left.

        The server leads a session of its own, so its group holds every
        process it started, even one that outlived its parent; the
        benchmark (a subreaper) reaps each and returns once none is left.
        """
        if self._process is None:
            return
        group = self._process.pid
        if self._process.poll() is None:
            self._process.send_signal(signal.SIGTERM)
            try:
                self._process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self._kill(group)
                self._process.wait()

        def left():
            return host.group_members(group)

        if not host.wait_gone(left, STOP_TIMEOUT):
            self._kill(group)
            host.wait_gone(left, STOP_TIMEOUT)
        if self._reader is not None:
            self._reader.join(5.0)
        self._process.stdout.close()
        self._process = None

    @staticmethod
    def _kill(group: int) -> None:
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
