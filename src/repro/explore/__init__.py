"""Design-space exploration: parameterized operator search.

The paper characterizes a *fixed* grid (Table III: five adders at one
bit-width, 4 clocks x 7 supplies x 3 body biases).  This package turns the
underlying question -- *which operator configuration is energy-optimal under
a BER budget?* -- into a first-class search workload:

* :mod:`repro.explore.space`     -- declarative :class:`DesignSpace` over
  adder architecture, operand bit-width, speculation window and (dense)
  operating-triad ranges,
* :mod:`repro.explore.evaluator` -- batched candidate evaluation lowered onto
  the sharded, content-addressed sweep orchestrator of
  :mod:`repro.core.sweep` (exploration and characterization share one warm
  cache),
* :mod:`repro.explore.search`    -- exhaustive, seeded-random and
  successive-halving strategies, all deterministic for a given seed,
* :mod:`repro.explore.frontier`  -- an incremental BER-vs-energy Pareto
  frontier with JSON persistence and resume.

Quickstart::

    from repro.explore import DesignSpace, CandidateEvaluator, run_search

    space = DesignSpace.table3_subspace()
    evaluator = CandidateEvaluator(space, jobs=4)
    result = run_search(space, "successive-halving", evaluator, seed=2017)
    for point in result.frontier:
        print(point.operator_name, point.triad.label(), point.ber, point.energy_per_operation)
"""

from repro.explore.space import DesignSpace, TriadSpec
from repro.explore.evaluator import CandidateEvaluation, CandidateEvaluator, DesignPoint
from repro.explore.frontier import FrontierPoint, ParetoFrontier
from repro.explore.search import (
    SEARCH_STRATEGIES,
    ExhaustiveSearch,
    RandomSearch,
    SearchResult,
    SuccessiveHalvingSearch,
    run_search,
)

__all__ = [
    "DesignSpace",
    "TriadSpec",
    "CandidateEvaluator",
    "CandidateEvaluation",
    "DesignPoint",
    "ParetoFrontier",
    "FrontierPoint",
    "run_search",
    "SearchResult",
    "ExhaustiveSearch",
    "RandomSearch",
    "SuccessiveHalvingSearch",
    "SEARCH_STRATEGIES",
]
