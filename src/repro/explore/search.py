"""Search strategies over a design space.

Three strategies, all deterministic for a given seed:

* **exhaustive** -- evaluate every candidate at paper-fidelity stimulus.
  The reference answer (and the reference cost).
* **random** -- evaluate a seeded random sample of the candidates at
  paper fidelity.  The classic cheap baseline for large spaces.
* **successive-halving** -- screen *all* candidates at reduced stimulus,
  then promote only the candidates whose screening points land near the
  screening Pareto frontier to paper-fidelity evaluation.  Because
  evaluations are content-addressed in the shared result store, the
  promoted candidates' paper-fidelity payloads are bit-identical to what
  the exhaustive strategy computes -- the saving is real simulation work,
  not a numerical approximation.

Every strategy returns a :class:`SearchResult` whose frontier is built from
paper-fidelity points only; screening points never leak into the answer.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.circuits.operators import OperatorSpec
from repro.explore.evaluator import CandidateEvaluation, CandidateEvaluator
from repro.explore.frontier import FrontierPoint, ParetoFrontier
from repro.explore.space import DesignSpace

#: Default paper-fidelity stimulus size (the harness default; the paper
#: itself uses 20 000 vectors).
DEFAULT_FULL_VECTORS = 4000

#: Screening stimulus is this fraction of the paper-fidelity stimulus.
SCREEN_DIVISOR = 8

#: Smallest screening stimulus considered statistically meaningful.
MIN_SCREEN_VECTORS = 200

#: A candidate survives screening when one of its points is within this
#: relative energy distance of the screening frontier at comparable BER.
DEFAULT_PROMOTE_MARGIN = 0.25


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """Outcome of one search run.

    Attributes
    ----------
    strategy:
        Strategy name (``"exhaustive"`` ...).
    seed:
        Seed the run was parameterized with.
    frontier:
        Pareto frontier over the paper-fidelity design points.
    total_candidates:
        Size of the design space.
    screened_candidates:
        Candidates evaluated at screening fidelity (empty for one-stage
        strategies).
    evaluated_candidates:
        Candidates evaluated at paper fidelity, in evaluation order.
    full_vectors / screen_vectors:
        The two stimulus fidelities used.
    """

    strategy: str
    seed: int
    frontier: ParetoFrontier
    total_candidates: int
    screened_candidates: tuple[str, ...]
    evaluated_candidates: tuple[str, ...]
    full_vectors: int
    screen_vectors: int

    @property
    def full_evaluations(self) -> int:
        """Number of paper-fidelity candidate evaluations."""
        return len(self.evaluated_candidates)

    @property
    def screening_evaluations(self) -> int:
        """Number of screening candidate evaluations."""
        return len(self.screened_candidates)


def default_screen_vectors(full_vectors: int) -> int:
    """Screening stimulus size derived from the paper-fidelity size."""
    return max(MIN_SCREEN_VECTORS, full_vectors // SCREEN_DIVISOR)


def _frontier_from(
    evaluations: Sequence[CandidateEvaluation],
    initial: ParetoFrontier | None = None,
) -> ParetoFrontier:
    frontier = initial if initial is not None else ParetoFrontier()
    for evaluation in evaluations:
        frontier.add_all(point.to_frontier_point() for point in evaluation.points)
    return frontier


def _result(
    strategy: str,
    seed: int,
    space: DesignSpace,
    evaluations: Sequence[CandidateEvaluation],
    screened: Sequence[OperatorSpec],
    full_vectors: int,
    screen_vectors: int,
    resume: ParetoFrontier | None,
) -> SearchResult:
    frontier = _frontier_from(evaluations, initial=resume)
    return SearchResult(
        strategy=strategy,
        seed=seed,
        frontier=frontier,
        total_candidates=len(space),
        screened_candidates=tuple(candidate.name for candidate in screened),
        evaluated_candidates=tuple(
            evaluation.candidate.name for evaluation in evaluations
        ),
        full_vectors=full_vectors,
        screen_vectors=screen_vectors,
    )


class ExhaustiveSearch:
    """Evaluate every candidate (up to ``budget``) at paper fidelity."""

    name = "exhaustive"

    def run(
        self,
        space: DesignSpace,
        evaluator: CandidateEvaluator,
        *,
        seed: int,
        budget: int | None,
        full_vectors: int,
        screen_vectors: int,
        resume: ParetoFrontier | None = None,
    ) -> SearchResult:
        candidates = list(space.candidates())
        if budget is not None:
            candidates = candidates[:budget]
        evaluations = evaluator.evaluate_many(candidates, full_vectors)
        return _result(
            self.name, seed, space, evaluations, (), full_vectors, screen_vectors, resume
        )


class RandomSearch:
    """Evaluate a seeded random sample of the candidates at paper fidelity."""

    name = "random"

    def run(
        self,
        space: DesignSpace,
        evaluator: CandidateEvaluator,
        *,
        seed: int,
        budget: int | None,
        full_vectors: int,
        screen_vectors: int,
        resume: ParetoFrontier | None = None,
    ) -> SearchResult:
        candidates = list(space.candidates())
        sample_size = len(candidates) if budget is None else min(budget, len(candidates))
        rng = np.random.default_rng(seed)
        chosen_indices = sorted(
            rng.choice(len(candidates), size=sample_size, replace=False).tolist()
        )
        chosen = [candidates[index] for index in chosen_indices]
        evaluations = evaluator.evaluate_many(chosen, full_vectors)
        return _result(
            self.name, seed, space, evaluations, (), full_vectors, screen_vectors, resume
        )


class SuccessiveHalvingSearch:
    """Screen everything cheaply, promote frontier-adjacent candidates.

    Parameters
    ----------
    promote_margin:
        Relative energy slack against the screening frontier within which a
        candidate's point still counts as "near" (0.25 = within 25 % of the
        frontier energy at comparable BER).  Larger margins promote more
        candidates: safer, slower.
    """

    name = "successive-halving"

    def __init__(self, promote_margin: float = DEFAULT_PROMOTE_MARGIN) -> None:
        if promote_margin < 0:
            raise ValueError("promote_margin must be non-negative")
        self.promote_margin = promote_margin

    def run(
        self,
        space: DesignSpace,
        evaluator: CandidateEvaluator,
        *,
        seed: int,
        budget: int | None,
        full_vectors: int,
        screen_vectors: int,
        resume: ParetoFrontier | None = None,
    ) -> SearchResult:
        candidates = list(space.candidates())
        if screen_vectors >= full_vectors:
            # Screening at (or above) full fidelity cannot save anything:
            # degrade gracefully to the exhaustive behaviour.
            evaluations = evaluator.evaluate_many(
                candidates if budget is None else candidates[:budget], full_vectors
            )
            return _result(
                self.name,
                seed,
                space,
                evaluations,
                (),
                full_vectors,
                screen_vectors,
                resume,
            )

        screenings = evaluator.evaluate_many(candidates, screen_vectors)
        scores = _promotion_scores(screenings)
        ranked = sorted(
            (score, candidate)
            for candidate, score in zip(candidates, scores)
            if score <= self.promote_margin
        )
        if budget is not None:
            ranked = ranked[:budget]
        survivors = sorted(candidate for _, candidate in ranked)
        evaluations = evaluator.evaluate_many(survivors, full_vectors)
        return _result(
            self.name,
            seed,
            space,
            evaluations,
            candidates,
            full_vectors,
            screen_vectors,
            resume,
        )


def _promotion_scores(screenings: Sequence[CandidateEvaluation]) -> list[float]:
    """Per-candidate distance to the screening Pareto frontier.

    The score is the smallest relative energy excess of any of the
    candidate's points over the frontier staircase at that point's BER;
    points *on* the frontier score 0.
    """
    frontier = _frontier_from(screenings)
    staircase = sorted(frontier.points, key=lambda p: (p.ber, p.energy_per_operation))

    def frontier_energy_at(ber: float) -> float:
        # Lowest frontier energy among points with BER <= ber.  Frontier
        # energy decreases as BER grows, so it is the last eligible point.
        eligible = [p for p in staircase if p.ber <= ber]
        return eligible[-1].energy_per_operation

    scores: list[float] = []
    for evaluation in screenings:
        best = float("inf")
        for point in evaluation.points:
            reference = frontier_energy_at(point.ber)
            excess = point.energy_per_operation / reference - 1.0
            best = min(best, excess)
        scores.append(best)
    return scores


#: Registry of strategy constructors by CLI name.
SEARCH_STRATEGIES = {
    "exhaustive": ExhaustiveSearch,
    "random": RandomSearch,
    "successive-halving": SuccessiveHalvingSearch,
}


def run_search(
    space: DesignSpace,
    strategy: str | ExhaustiveSearch | RandomSearch | SuccessiveHalvingSearch,
    evaluator: CandidateEvaluator,
    *,
    seed: int = 2017,
    budget: int | None = None,
    full_vectors: int = DEFAULT_FULL_VECTORS,
    screen_vectors: int | None = None,
    resume: ParetoFrontier | None = None,
) -> SearchResult:
    """Run one search strategy over a design space.

    Parameters
    ----------
    space:
        The design space to explore.
    strategy:
        Strategy name (see :data:`SEARCH_STRATEGIES`) or instance.
    evaluator:
        The (cached, sharded) candidate evaluator.
    seed:
        Sampling seed; results are deterministic for a given seed.
    budget:
        Maximum number of paper-fidelity candidate evaluations; ``None``
        means unbounded.
    full_vectors:
        Paper-fidelity stimulus size.
    screen_vectors:
        Screening stimulus size (successive halving only); defaults to
        ``max(200, full_vectors // 8)``.
    resume:
        Optional frontier from an earlier run to refine in place.
    """
    if budget is not None and budget <= 0:
        raise ValueError("budget must be positive")
    if full_vectors <= 0:
        raise ValueError("full_vectors must be positive")
    if isinstance(strategy, str):
        try:
            strategy = SEARCH_STRATEGIES[strategy]()
        except KeyError:
            raise ValueError(
                f"unknown strategy {strategy!r}; "
                f"available: {', '.join(sorted(SEARCH_STRATEGIES))}"
            ) from None
    resolved_screen = (
        default_screen_vectors(full_vectors) if screen_vectors is None else screen_vectors
    )
    if resolved_screen <= 0:
        raise ValueError("screen_vectors must be positive")
    return strategy.run(
        space,
        evaluator,
        seed=seed,
        budget=budget,
        full_vectors=full_vectors,
        screen_vectors=resolved_screen,
        resume=resume,
    )
