"""Closed-loop load that replays a script through an endpoint.

An endpoint is either the public HTTP client (``ReproClient``) or an
in-process app wrapped by :class:`AppEndpoint`, which builds the same wire
envelopes the client builds, so every path receives identical requests.
Each client thread sends its next request only after the previous reply.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.serve import codec
from repro.serve.app import raise_error_payload

from workloads import (
    FALSE_POSITIVES_PER_ROUND,
    FEEDBACK_PARAMS,
    FEEDBACK_TOP_K,
    RANK_TOP_K,
    ROUNDS,
)


@dataclass
class Outcome:
    """One request's result: ``reply`` on success, ``error`` otherwise."""

    key: tuple
    latency: float
    reply: Any = None
    error: str | None = None


class AppEndpoint:
    """``rank`` / ``feedback`` calls answered by an in-process app.

    Args:
        call: ``(endpoint, payload) -> reply`` that raises on a non-200.
    """

    def __init__(self, call) -> None:
        self._call = call

    def rank(self, *, concept, top_k):
        payload = codec.envelope("rank", {
            "session": None,
            "concept": codec.encode_concept(concept),
            "candidate_ids": None,
            "exclude": [],
            "top_k": top_k,
            "category_filter": None,
        })
        body = codec.open_envelope(self._call("rank", payload), "rank_result")
        return codec.decode_ranking(body["ranking"])

    def feedback(self, session=None, *, learner="dd", params=None,
                 add_positive_ids=(), add_negative_ids=(),
                 false_positive_ids=(), top_k=None):
        payload = codec.envelope("feedback", {
            "session": session,
            "learner": learner,
            "params": None if params is None else dict(params),
            "add_positive_ids": list(add_positive_ids),
            "add_negative_ids": list(add_negative_ids),
            "false_positive_ids": list(false_positive_ids),
            "rank": True,
            "top_k": top_k,
            "category_filter": None,
        })
        body = codec.open_envelope(self._call("feedback", payload), "feedback_result")
        return {
            "session": body["session"],
            "positive_ids": tuple(body.get("positive_ids", ())),
            "negative_ids": tuple(body.get("negative_ids", ())),
            "ranking": codec.decode_ranking(body["ranking"]),
            "concept": codec.decode_concept(body["concept"]),
        }


def pool_call(app):
    """``WorkerDispatchApp.handle`` as a raising call."""
    def call(endpoint, payload):
        status, reply = app.handle(endpoint, payload)
        if status != 200:
            raise_error_payload(reply, status)
        return reply
    return call


def _run_threads(n_clients: int, work) -> None:
    threads = [threading.Thread(target=work) for _ in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def drive_ranks(endpoint, script, part: range, top_k: int, n_clients: int,
                span=None) -> list[Outcome]:
    """Send the rank requests ``part`` of ``script`` from ``n_clients`` clients."""
    outcomes: dict[int, Outcome] = {}
    lock = threading.Lock()
    cursor = iter(part)

    def work() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            concept = script.concepts[script.ranks[index].concept_index]
            started = time.perf_counter()
            try:
                reply = endpoint.rank(concept=concept, top_k=top_k)
                error = None
            except Exception as exc:  # noqa: BLE001 - a failed request is a result
                reply, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - started
            outcomes[index] = Outcome((index,), latency, reply, error)
            if span is not None:
                span(("rank", index), started, latency)

    _run_threads(n_clients, work)
    return [outcomes[index] for index in part]


def drive_sessions(endpoint, script, part: range, top_k: int, n_clients: int,
                   span=None) -> list[Outcome]:
    """Run the feedback sessions ``part`` of ``script``, ``n_clients`` at a time."""
    outcomes: dict[int, list[Outcome]] = {index: [] for index in part}
    lock = threading.Lock()
    cursor = iter(part)

    def run_session(index: int) -> None:
        session = script.sessions[index]
        token, previous = None, None
        for round_index in range(ROUNDS):
            if round_index == 0:
                request = {
                    "params": FEEDBACK_PARAMS,
                    "add_positive_ids": session.positives,
                    "add_negative_ids": session.negatives,
                }
            else:
                request = {
                    "add_positive_ids": (session.extra_positives[round_index - 1],),
                    "false_positive_ids": tuple(
                        entry.image_id for entry in previous["ranking"].false_positives(
                            session.target, FALSE_POSITIVES_PER_ROUND
                        )
                    ),
                }
            key = (index, round_index)
            started = time.perf_counter()
            try:
                previous = endpoint.feedback(token, top_k=top_k, **request)
                error = None
            except Exception as exc:  # noqa: BLE001 - a failed request is a result
                previous, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - started
            outcomes[index].append(Outcome(key, latency, previous, error))
            if span is not None:
                span(("feedback",) + key, started, latency)
            if error is not None:
                # The rest of the session cannot be sent; it still counts.
                outcomes[index].extend(
                    Outcome((index, later), 0.0, None, "session aborted")
                    for later in range(round_index + 1, ROUNDS)
                )
                return
            token = previous["session"]

    def work() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            run_session(index)

    _run_threads(n_clients, work)
    return [outcome for index in part for outcome in outcomes[index]]


def drive(workload, endpoint, script, part: range, n_clients: int,
          span=None) -> list[Outcome]:
    """Replay ``part`` of ``script`` (rank or session indices) through ``endpoint``."""
    if workload.kind == "rank":
        return drive_ranks(endpoint, script, part, RANK_TOP_K, n_clients, span)
    return drive_sessions(endpoint, script, part, FEEDBACK_TOP_K, n_clients, span)
