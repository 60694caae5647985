"""The traced run: one script portion through four entry points.

(U) the served subprocess, untraced; (A) the served subprocess with
client-side spans; (B) ``WorkerDispatchApp.handle`` over an in-process
``WorkerPool`` built the way ``repro serve --workers N`` builds it; (C)
``ServiceApp.dispatch`` in-process with spans around the layer functions.
Every pass sends the same requests one at a time, so self times are
medians of per-request differences: ``http.self_ms`` = A - B and
``workers.self_ms`` = B - C.  U and A each get a fresh server, and B and C fresh caches, so the
concept cache sees the same history on every pass.
"""

from __future__ import annotations

import time

import numpy as np

from repro.serve.app import ServiceApp
from repro.serve.snapshot import load_corpus_service
from repro.serve.workers import WorkerDispatchApp, WorkerPool

from drive import AppEndpoint, drive, pool_call
from server import ServedProcess
from trace import CLIENT_PROBES, SERVICE_PROBES, Requests, Tracer, attribute

#: Metrics each probe feeds; a missing probe leaves them out.
_NEEDS = {
    "rank.kernel": ("rank.kernel_ms",),
    "rank.bound": ("rank.bound_ms",),
    "rank.survivor": ("rank.survivor_ms", "rank.survivors", "rank.survivor_frac",
                      "rank.useful_frac"),
    "service.fit": ("service.fit_ms",),
    "cache.lookup": ("train.starts", "train.starts_pruned", "train.iterations"),
    "codec.encode": ("codec.encode_ms",),
    "codec.decode": ("codec.decode_ms",),
    "http.reply": ("http.reply_bytes",),
}


def _median_ms(values) -> float:
    return float(np.median(values)) * 1e3 if len(values) else 0.0


def _span_totals(children: dict, name: str) -> list[float]:
    """Per-request summed duration of ``name`` spans (requests that had one)."""
    return [
        sum(duration for duration, _ in spans[name])
        for spans in children.values()
        if name in spans
    ]


def _counts(children: dict, name: str) -> list:
    return [count for spans in children.values() for _, count in spans.get(name, ())]


def _served_pass(ctx, part: range, tracer=None):
    """One fresh server; returns outcomes, request spans, child spans, stats."""
    server = ServedProcess(ctx.root, ctx.corpus_dir, ctx.cores)
    requests = Requests()
    try:
        server.start(ctx.warmup)
        before = server.stats()

        def work():
            return drive(ctx.workload, server.client(), ctx.script, part, 1, requests)

        if tracer is None:
            outcomes, phase = server.measure(work)
            spans = []
        else:
            with tracer.probes(CLIENT_PROBES):
                outcomes, phase = server.measure(work)
            spans = tracer.take()
        after = server.stats()
    finally:
        server.stop()
    return outcomes, requests.spans, attribute(requests.spans, spans), phase, before, after


def _make_dispatch_app(pool, service):
    """``WorkerDispatchApp`` as ``repro serve`` builds it, or plain if it cannot."""
    try:
        return WorkerDispatchApp(pool, service=service)
    except TypeError:
        return WorkerDispatchApp(pool)


def per_layer(ctx) -> tuple[dict, dict]:
    part = ctx.portion()
    tracer = Tracer()

    started = time.perf_counter()
    service, _ = load_corpus_service(ctx.corpus_dir)
    load_s = time.perf_counter() - started
    service.warm("dd")  # as ``repro serve`` does by default

    u_out, u_req, _, u_phase, u_before, u_after = _served_pass(ctx, part)
    a_out, a_req, a_children, _, _, _ = _served_pass(ctx, part, tracer)

    started = time.perf_counter()
    pool = WorkerPool.from_service(service, ctx.cores)
    spawn_s = time.perf_counter() - started
    try:
        shm_mib = sum(s.nbytes for s in pool.shared.values()) / 2**20
        app = _make_dispatch_app(pool, service)
        endpoint = AppEndpoint(pool_call(app))
        ctx.warmup(endpoint)
        b_req = Requests()
        b_out = drive(ctx.workload, endpoint, ctx.script, part, 1, b_req)
        worker_stats = [payload for _, payload in pool.broadcast("stats")]
    finally:
        pool.stop()

    app = ServiceApp(service)
    endpoint = AppEndpoint(app.dispatch)
    ctx.warmup(endpoint)
    c_req = Requests()
    with tracer.probes(SERVICE_PROBES):
        c_out = drive(ctx.workload, endpoint, ctx.script, part, 1, c_req)
    c_children = attribute(c_req.spans, tracer.take())

    u_ms, a_ms, b_ms, c_ms = (
        _median_ms([duration for _, _, duration in spans])
        for spans in (u_req, a_req, b_req.spans, c_req.spans)
    )

    n_requests = len(c_req.spans)
    survivors = sum(_counts(c_children, "rank.survivor"))
    returned = sum(len(_ranking(o.reply)) for o in c_out if o.error is None)
    lookups = _counts(c_children, "cache.lookup")
    trained = [entry for entry in lookups if not entry["hit"]]

    def per_fit(field):
        return float(np.mean([entry[field] for entry in trained])) if trained else 0.0

    caches = [w.get("service", {}).get("cache") or {} for w in worker_stats]
    sessions = [w.get("sessions", {}) for w in worker_stats]
    hits = sum(c.get("hits", 0) for c in caches)
    cache_lookups = hits + sum(c.get("misses", 0) for c in caches)
    active = [s.get("active", 0) for s in sessions]
    resilience = (u_after or {}).get("resilience") or {}
    rank_requests = len(part) if ctx.workload.kind == "rank" else 0

    metrics = {
        "rank.kernel_ms": (_median_ms(_span_totals(c_children, "rank.kernel")), "ms"),
        "rank.bound_ms": (_median_ms(_span_totals(c_children, "rank.bound")), "ms"),
        "rank.survivor_ms": (_median_ms(_span_totals(c_children, "rank.survivor")), "ms"),
        "rank.survivors": (survivors / max(n_requests, 1), "count"),
        "rank.survivor_frac": (
            survivors / max(n_requests * ctx.packed.n_bags, 1), "fraction"),
        "rank.useful_frac": (returned / survivors if survivors else 0.0, "fraction"),
        "service.fit_ms": (_median_ms(_span_totals(c_children, "service.fit")), "ms"),
        "train.starts": (per_fit("starts"), "count"),
        "train.starts_pruned": (per_fit("starts_pruned"), "count"),
        "train.iterations": (per_fit("iterations"), "count"),
        "http.roundtrip_ms": (a_ms, "ms"),
        "http.self_ms": (_paired_ms(a_req, b_req.spans), "ms"),
        "http.reply_bytes": (float(np.mean(_counts(a_children, "http.reply") or [0])), "bytes"),
        "codec.decode_ms": (_median_ms(_span_totals(a_children, "codec.decode")), "ms"),
        "codec.encode_ms": (_median_ms(_span_totals(c_children, "codec.encode")), "ms"),
        "workers.self_ms": (_paired_ms(b_req.spans, c_req.spans), "ms"),
        "workers.threads": (u_phase["threads"], "count"),
        "workers.restarts": (resilience.get("restarts", 0), "count"),
        "workers.deadline_expiries": (resilience.get("deadline_expiries", 0), "count"),
        "workers.lost_sessions": (resilience.get("lost_sessions", 0), "count"),
        "sessions.created": (sum(s.get("created", 0) for s in sessions), "count"),
        "sessions.evicted": (sum(s.get("evicted", 0) for s in sessions), "count"),
        "workers.session_skew": (
            max(active) / float(np.mean(active)) if sum(active) else 0.0, "ratio"),
        "cache.hits": (hits, "count"),
        "cache.lookups": (cache_lookups, "count"),
        "cache.hit_frac": (hits / cache_lookups if cache_lookups else 0.0, "fraction"),
        "scatter.requests_frac": (
            _scattered(u_before, u_after) / rank_requests if rank_requests else 0.0,
            "fraction"),
        "setup.load_s": (load_s, "s"),
        "setup.spawn_s": (spawn_s, "s"),
        "setup.shm_mib": (shm_mib, "MiB"),
        "trace.overhead_frac": (_paired_ms(a_req, u_req) / u_ms if u_ms else 0.0,
                                "fraction"),
    }
    dropped = {name for probe in tracer.missing for name in _NEEDS.get(probe, ())}
    result = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
        if name not in dropped
    }
    outcomes = u_out + a_out + b_out + c_out
    passed, summary = ctx.verify(outcomes)
    result["check.bit_mismatch_frac"] = {
        "value": summary["bit_mismatches"] / max(len(outcomes), 1), "unit": "fraction",
    }
    detail = {
        "outcomes": outcomes,
        "passed": passed,
        **summary,
        "missing_probes": sorted(tracer.missing),
        "missing_metrics": sorted(dropped),
        "self_test_detected_corruption": ctx.detects_corruption(a_out),
        "pass_median_ms": {"U": u_ms, "A": a_ms, "B": b_ms, "C": c_ms},
        "steal_frac_U": u_phase["steal_frac"],
        "spans": {
            "requests": {
                name: [[list(key), start, duration] for key, start, duration in spans]
                for name, spans in (("U", u_req), ("A", a_req),
                                    ("B", b_req.spans), ("C", c_req.spans))
            },
            "A": _flatten(a_children),
            "C": _flatten(c_children),
        },
    }
    return result, detail


def _paired_ms(outer, inner) -> float:
    """Median over requests of ``outer`` minus ``inner`` time for the same request.

    Pairing cancels the request-to-request spread of the work itself, which
    on the feedback workload is far larger than the transport layers.
    """
    inner_by_key = {key: duration for key, _, duration in inner}
    return _median_ms([
        duration - inner_by_key[key]
        for key, _, duration in outer
        if key in inner_by_key
    ])


def _ranking(reply):
    return reply["ranking"].ranked if isinstance(reply, dict) else reply.ranked


def _scattered(before, after) -> int:
    def count(stats):
        block = (stats or {}).get("scatter") or {}
        return int(block.get("requests", 0))

    return count(after) - count(before)


def _flatten(children: dict) -> list:
    return [
        {"request": list(key), "name": name, "ms": duration * 1e3, "count": count}
        for key, spans in children.items()
        for name, entries in spans.items()
        for duration, count in entries
    ]
