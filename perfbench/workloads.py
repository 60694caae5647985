"""The three workloads: their corpora and their seeded request scripts.

A script is built from the ``--seed`` argument before the server starts,
and its length is ``rate * seconds`` requests, so every run with the same
arguments does the same work however fast the program answers.

* ``rank-selective`` - concept ``rank`` requests near the centres of 64
  tight clusters.  The bound pass leaves a few percent of bags to
  evaluate, so kernel bookkeeping and transport take most of the time.
* ``rank-cluttered`` - the same corpus shape with 30% background clutter
  and concepts near the global centroid.  Most bags survive the bound
  pass, so survivor evaluation takes the time.  A pruning or threading
  change that helps the selective workload can cost here.
* ``feedback-sessions`` - the paper's relevance-feedback loop: scripted
  three-round ``dd`` sessions over a cluttered image-mode scene corpus.
  Training takes the time, and every round writes session state.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.concept import LearnedConcept
from repro.datasets.synth import (
    ScenarioConfig,
    feature_center,
    generate_corpus,
    get_preset,
)

#: Ranked entries a rank request asks for (the ROADMAP's headline request).
RANK_TOP_K = 50
#: Ranked entries a feedback round asks for; precision is measured at 20.
FEEDBACK_TOP_K = 20
#: Distinct concepts per rank script, one per cluster of the corpus.
#: Requests draw from them, so the exhaustive reference costs a bounded
#: time per run; the server keeps no ranking cache, so a repeated concept
#: is full work.
N_RANK_CONCEPTS = 64
#: Rounds per feedback session; the last one is scored.
ROUNDS = 3
#: False positives a simulated user marks after each round.
FALSE_POSITIVES_PER_ROUND = 2
#: Learner parameters of every session.  One fixed training seed keeps
#: the concept-cache key equal for equal example sets.
FEEDBACK_PARAMS = {
    "scheme": "identical",
    "beta": 0.5,
    "alpha": 50.0,
    "max_iterations": 100,
    "start_bag_subset": 2,
    "start_instance_stride": 1,
    "seed": 0,
    "engine": "batched",
    "restart_prune_margin": None,
}
#: Seed of the evaluation sessions.  Every feedback script holds them,
#: so ``precision_at_20`` is measured on the same sessions on every seed.
EVALUATION_SEED = 20_000


def clustered(clutter: float) -> ScenarioConfig:
    return ScenarioConfig(
        name=f"perfbench-clusters-{clutter:g}",
        mode="feature",
        categories=tuple(f"cluster-{c:02d}" for c in range(64)),
        bags_per_category=1,
        seed=11,
        feature_dims=16,
        instances_per_bag=6,
        cluster_spread=0.05,
        clutter=clutter,
    ).with_total_bags(100_000)


def _scenes() -> ScenarioConfig:
    return dataclasses.replace(
        get_preset("cluttered"), name="perfbench-scenes"
    ).with_total_bags(2000)


@dataclass(frozen=True)
class RankRequest:
    """One stateless concept ``rank`` request."""

    concept_index: int


@dataclass(frozen=True)
class Session:
    """One scripted feedback session.

    Round 0 sends the starter examples.  Round ``r > 0`` adds
    ``extra_positives[r - 1]`` and marks the top false positives of round
    ``r - 1``'s reply as negatives, the simulated user's judgement.
    """

    target: str
    positives: tuple[str, ...]
    negatives: tuple[str, ...]
    extra_positives: tuple[str, ...]
    evaluation: bool


@dataclass(frozen=True)
class Script:
    """A workload's generated inputs for one seed."""

    concepts: tuple[LearnedConcept, ...] = ()
    ranks: tuple[RankRequest, ...] = ()
    sessions: tuple[Session, ...] = ()

    @property
    def n_units(self) -> int:
        """Rank requests or sessions: what an index range of ``drive`` counts."""
        return len(self.ranks) or len(self.sessions)

    def blocks(self, n_blocks: int) -> list[range]:
        """Consecutive index ranges of near-equal size covering the script."""
        edges = np.linspace(0, self.n_units, min(n_blocks, self.n_units) + 1)
        edges = edges.round().astype(int)
        return [range(a, b) for a, b in zip(edges[:-1], edges[1:])]


@dataclass(frozen=True)
class Workload:
    """A named traffic mix.

    Attributes:
        kind: ``"rank"`` or ``"feedback"``.
        corpus: the synthetic corpus config (identity of the cached corpus).
        rate: nominal requests per second that sets the script length.
        single_client: drive with one closed-loop client instead of one
            per core.
        why: one line on what the workload exercises.
        near_centroid: rank concepts sit near the global centroid instead
            of near one cluster centre each.
    """

    name: str
    kind: str
    corpus: Callable[[], ScenarioConfig]
    rate: float
    single_client: bool
    why: str
    near_centroid: bool = False

    def clients(self, cores: int) -> int:
        return 1 if self.single_client else cores

    def script(self, config: ScenarioConfig, ids, categories, seed: int,
               seconds: float) -> Script:
        n_requests = max(1, round(self.rate * seconds))
        rng = np.random.default_rng(seed)
        if self.kind == "rank":
            concepts = _rank_concepts(config, rng, self.near_centroid)
            picks = rng.integers(len(concepts), size=n_requests)
            return Script(
                concepts=concepts,
                ranks=tuple(RankRequest(int(i)) for i in picks),
            )
        return Script(sessions=_sessions(ids, categories, rng, n_requests))


def _rank_concepts(config: ScenarioConfig, rng, near_centroid: bool):
    """Concepts near one cluster centre each, or near the global centroid."""
    centres = np.array([feature_center(config, c) for c in config.categories])
    centroid = centres.mean(axis=0)
    concepts = []
    for i in range(N_RANK_CONCEPTS):
        if near_centroid:
            t = centroid + rng.normal(scale=0.25, size=config.feature_dims)
        else:
            centre = centres[i % len(centres)]
            t = centre + rng.normal(scale=0.02, size=config.feature_dims)
        w = rng.uniform(0.5, 1.0, size=config.feature_dims)
        concepts.append(LearnedConcept(t=t, w=w, nll=0.0))
    return tuple(concepts)


def _draw_session(by_category, target, rng, n_extra, evaluation):
    others = np.concatenate([ids for cat, ids in by_category.items() if cat != target])
    pool = by_category[target]
    chosen = rng.choice(len(pool), 2 + n_extra, replace=False)
    picked = [pool[i] for i in chosen]
    negatives = rng.choice(len(others), 2, replace=False)
    return Session(
        target=target,
        positives=tuple(picked[:2]),
        negatives=tuple(str(others[i]) for i in negatives),
        extra_positives=tuple(picked[2:]),
        evaluation=evaluation,
    )


def _sessions(ids, categories, rng, n_requests: int) -> tuple[Session, ...]:
    """Seeded sessions around fixed evaluation sessions.

    The evaluation sessions sit at evenly spaced slots and the others cycle
    through a seeded starter pool, so every script of one length has the
    same pattern of repeated starters and the same category mix; only the
    examples differ by seed.
    """
    by_category = {
        str(cat): [str(i) for i in ids[categories == cat]]
        for cat in sorted(set(categories.tolist()))
    }
    targets = list(by_category)
    fixed = np.random.default_rng(EVALUATION_SEED)
    evaluation = [
        _draw_session(by_category, target, fixed, ROUNDS - 1, True)
        for target in targets
    ]
    # One starter example set per category, cycled in a seeded order, so
    # every script has the same category mix; a repeated starter hits the
    # concept cache on round 0 when it lands on a worker that trained it.
    starters = [
        _draw_session(by_category, str(target), rng, 0, False)
        for target in rng.permutation(targets)
    ]
    n_sessions = max(len(evaluation), -(-n_requests // ROUNDS))
    slots = {
        n_sessions * i // len(evaluation): session
        for i, session in enumerate(evaluation)
    }
    sessions, cycle = [], 0
    for slot in range(n_sessions):
        if slot in slots:
            sessions.append(slots[slot])
            continue
        starter = starters[cycle % len(starters)]
        cycle += 1
        pool = [i for i in by_category[starter.target] if i not in starter.positives]
        extra = rng.choice(len(pool), ROUNDS - 1, replace=False)
        sessions.append(dataclasses.replace(
            starter, extra_positives=tuple(pool[i] for i in extra)
        ))
    return tuple(sessions)


def warmup_session(ids, categories) -> Session:
    """Examples for the warm-up feedback round each worker answers once."""
    first = categories[0]
    positives = [str(i) for i in ids[categories == first][:2]]
    negatives = [str(i) for i in ids[categories != first][:2]]
    return Session(first, tuple(positives), tuple(negatives), (), False)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="rank-selective",
            kind="rank",
            corpus=lambda: clustered(0.0),
            rate=140.0,
            single_client=False,
            why="concept ranks near 64 tight clusters of 100k bags from one "
                "client per core: the bound pass prunes ~95% of bags, so kernel "
                "bookkeeping and transport dominate",
        ),
        Workload(
            name="rank-cluttered",
            kind="rank",
            corpus=lambda: clustered(0.3),
            rate=16.0,
            single_client=False,
            near_centroid=True,
            why="30% clutter and concepts near the global centroid from one "
                "client per core: ~80% of bags survive the bound pass, so "
                "survivor evaluation dominates",
        ),
        Workload(
            name="feedback-sessions",
            kind="feedback",
            corpus=_scenes,
            rate=6.0,
            single_client=True,
            why="scripted 3-round dd feedback sessions on 2000 cluttered scenes "
                "from one client: training, the concept cache and session state "
                "dominate",
        ),
    )
}


def prepare_corpus(workload: Workload, cache_root: Path) -> tuple[Path, ScenarioConfig]:
    """Generate the workload's corpus once; later runs adopt it by checksum."""
    config = workload.corpus()
    directory = cache_root / f"{config.name}-{config.fingerprint}"
    generate_corpus(config, directory, shard_size=4096)
    return directory, config
