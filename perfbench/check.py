"""Reply checks against an in-process exhaustive reference.

The reference is ``Ranker(auto_shard=False)``, which has ``rank_by_loop``
semantics with ties broken by id.  A served ranking passes when its ids,
order, categories and candidate total equal the reference exactly and its
float64 distances equal the reference's within ``DISTANCE_RTOL``.

The tolerance is the program's own contract, not a convenience: the
bound-pruned path scores survivors with ``PackedCorpus.min_distances_at``
on gathered rows, and BLAS rounds that product differently from the
full-matrix product of the exhaustive path, so the two can differ in the
last bits (``tests/test_sharded_rank.py`` holds them to ``rtol=1e-9``;
orderings are bit-identical).  Replies whose distances differ from the
reference in any bit are still counted, and reported, as ``bit_mismatch``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.retrieval import RankedImage, Ranker, RetrievalResult

#: Relative distance tolerance: the repo's bound for ``min_distances_at``
#: against ``min_distances``.
DISTANCE_RTOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    """``problem`` is ``None`` for a correct reply."""

    problem: str | None
    bit_exact: bool


def _exhaustive(concept, packed, top_k, exclude=()):
    return Ranker(auto_shard=False).rank(
        concept, packed, top_k=top_k, exclude=tuple(exclude)
    )


def compare(served, reference) -> Verdict:
    """Check ``served`` against ``reference``."""
    a = np.asarray(served.distances, dtype=np.float64)
    b = np.asarray(reference.distances, dtype=np.float64)
    problem = None
    if served.image_ids != reference.image_ids:
        problem = "ids or their order differ"
    elif tuple(e.category for e in served.ranked) != tuple(
        e.category for e in reference.ranked
    ):
        problem = "categories differ"
    elif served.total_candidates != reference.total_candidates:
        problem = "candidate totals differ"
    elif not np.allclose(a, b, rtol=DISTANCE_RTOL, atol=0.0):
        problem = f"distances differ beyond rtol={DISTANCE_RTOL:g}"
    bit_exact = a.shape == b.shape and a.tobytes() == b.tobytes()
    return Verdict(problem, problem is None and bit_exact)


class RankChecker:
    """Checks ``rank`` replies against references computed up front."""

    def __init__(self, packed, concepts, top_k: int) -> None:
        self.references = [_exhaustive(c, packed, top_k) for c in concepts]

    def check(self, concept_index: int, ranking) -> Verdict:
        return compare(ranking, self.references[concept_index])

    def overlap_at(self, concept_index: int, ranking, k: int) -> float:
        """Share of the served top ``k`` that is in the reference top ``k``."""
        expected = set(self.references[concept_index].image_ids[:k])
        return len(expected.intersection(ranking.image_ids[:k])) / k


class FeedbackChecker:
    """Re-ranks with the concept a feedback reply returns.

    The served ranking must equal an exhaustive ranking with that concept
    that leaves out the session's examples.
    """

    def __init__(self, packed, top_k: int) -> None:
        self._packed = packed
        self._top_k = top_k

    def check(self, reply: dict) -> Verdict:
        if reply["ranking"] is None or reply["concept"] is None:
            return Verdict("reply carries no ranking or concept", False)
        reference = _exhaustive(
            reply["concept"],
            self._packed,
            self._top_k,
            exclude=(*reply["positive_ids"], *reply["negative_ids"]),
        )
        return compare(reply["ranking"], reference)


def corrupted(ranking):
    """A copy of ``ranking`` with its last two ids swapped."""
    entries = list(ranking.ranked)
    a, b = entries[-2], entries[-1]
    entries[-2] = RankedImage(a.rank, b.image_id, b.category, a.distance)
    entries[-1] = RankedImage(b.rank, a.image_id, a.category, b.distance)
    return RetrievalResult(tuple(entries), total_candidates=ranking.total_candidates)
