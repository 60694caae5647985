"""Spans around calls into the program's public functions.

The benchmark records spans from its own files: a probe replaces a public
function or method with a wrapper that times each outermost call, and
restores the original afterwards.  Nothing inside ``src/repro`` is
changed.  A probe whose target no longer exists is reported as missing,
and the metrics it feeds are left out; the run itself goes on.

Spans are kept in memory as ``(name, start, duration, count)`` and are
attributed afterwards to the request whose interval holds their start,
which is exact because traced passes send one request at a time.
"""

from __future__ import annotations

import bisect
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """A span around ``module.attribute`` (``attribute`` may be dotted).

    ``count(args, result)`` gives the span's work count, if it has one.
    """

    name: str
    module: str
    attribute: str
    count: Callable | None = None


def _survivors_at(args, result):
    return int(len(result))


def _survivors_all(args, result):
    return int(args[0].n_bags)


def _cache_lookup(args, result):
    value, hit = result
    training = None if hit else getattr(value, "training", None)
    return {
        "hit": bool(hit),
        "starts": 0 if training is None else training.n_starts,
        "starts_pruned": 0 if training is None else training.n_starts_pruned,
        "iterations": 0 if training is None else sum(
            record.n_iterations for record in training.starts
        ),
    }


#: Layer probes of the in-process pass (C).  ``ShardIndex.lower_bounds``
#: is not on the served rank path; the bound pass calls ``envelope_bounds``
#: (which ``lower_bounds`` also wraps), so that is what ``rank.bound`` times.
SERVICE_PROBES = (
    Probe("rank.kernel", "repro.core.retrieval", "Ranker.rank"),
    Probe("rank.bound", "repro.core.sharding", "envelope_bounds"),
    Probe("rank.survivor", "repro.core.retrieval", "PackedCorpus.min_distances_at",
          _survivors_at),
    Probe("rank.survivor", "repro.core.retrieval", "PackedCorpus.min_distances",
          _survivors_all),
    Probe("service.fit", "repro.api.service", "RetrievalService.fit"),
    Probe("cache.lookup", "repro.core.cache", "ConceptCache.compute_if_absent",
          _cache_lookup),
    Probe("codec.encode", "repro.serve.codec", "encode_ranking"),
)

#: Client-side probes of the HTTP pass (A).
CLIENT_PROBES = (
    Probe("codec.decode", "repro.serve.codec", "decode_ranking"),
    Probe("codec.decode", "repro.serve.codec", "decode_concept"),
    Probe("http.reply", "urllib.request", "urlopen",
          lambda args, result: int(result.headers.get("Content-Length") or 0)),
)


class Tracer:
    """Collects spans from installed probes (thread-safe)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, object]] = []
        self.missing: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _wrap(self, probe: Probe, original):
        tracer = self

        def traced(*args, **kwargs):
            depth = getattr(tracer._local, probe.name, 0)
            if depth:  # a nested call is part of the outer span
                return original(*args, **kwargs)
            setattr(tracer._local, probe.name, 1)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                setattr(tracer._local, probe.name, 0)
            duration = time.perf_counter() - started
            count = None if probe.count is None else probe.count(args, result)
            with tracer._lock:
                tracer.spans.append((probe.name, started, duration, count))
            return result

        return traced

    @contextmanager
    def probes(self, probes):
        """Install ``probes`` for the duration of the block."""
        restore = []
        try:
            for probe in probes:
                *path, leaf = probe.attribute.split(".")
                try:
                    owner = importlib.import_module(probe.module)
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, leaf)
                except (ImportError, AttributeError):
                    self.missing.add(probe.name)
                    continue
                setattr(owner, leaf, self._wrap(probe, original))
                restore.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(restore):
                setattr(owner, leaf, original)

    def take(self) -> list[tuple[str, float, float, object]]:
        """Remove and return the spans recorded so far."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


class Requests:
    """Request spans of one pass: ``(key, start, duration)``."""

    def __init__(self) -> None:
        self.spans: list[tuple[tuple, float, float]] = []
        self._lock = threading.Lock()

    def __call__(self, key, started, duration) -> None:
        with self._lock:
            self.spans.append((key, started, duration))


def attribute(requests: list, spans: list) -> dict:
    """Per-request child spans: ``{key: {name: [(duration, count), ...]}}``."""
    ordered = sorted(requests, key=lambda span: span[1])
    starts = [span[1] for span in ordered]
    children: dict = {span[0]: {} for span in ordered}
    for name, started, duration, count in spans:
        position = bisect.bisect_right(starts, started) - 1
        if position < 0:
            continue
        key, request_start, request_duration = ordered[position]
        if started <= request_start + request_duration:
            children[key].setdefault(name, []).append((duration, count))
    return children
