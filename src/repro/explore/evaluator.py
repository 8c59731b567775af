"""Batched candidate evaluation on the one sweep planner.

Evaluating a step's candidates means lowering each to a circuit, deriving
its triad grid from the space's :class:`~repro.explore.space.TriadSpec`,
and handing every candidate's request -- its characterization, plus its
Monte Carlo run when scoring is robust -- to one
:func:`~repro.core.sweep.run_sweep_plan` call.  Candidates of one width
share their operands.  The plan shards each candidate's grid over ``jobs``
worker processes and persists every completed unit in the
content-addressed :class:`~repro.core.store.SweepResultStore` under exactly
the keys ``repro characterize`` and ``repro montecarlo`` use, so
exploration and characterization share one warm cache and re-screening a
candidate at a fidelity it was already evaluated at costs no simulation at
all.

The evaluator is deliberately summary-only (no latched words): the search
strategies need (BER, energy) points, not raw measurements.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

import numpy as np

from repro.circuits.operators import OperatorSpec
from repro.core import sweep as sweep_module
from repro.core.characterization import FlowCache, characterization_from_payloads
from repro.core.resilience import ExecutionPolicy, ExecutionReport
from repro.core.store import SweepResultStore
from repro.core.triad import OperatingTriad
from repro.explore.frontier import FrontierPoint
from repro.obs.trace import span
from repro.explore.space import DesignSpace, TriadSpec
from repro.simulation.patterns import PatternConfig, generate_patterns
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary
from repro.variation.montecarlo import (
    MonteCarloConfig,
    montecarlo_request,
    variation_results_from_payloads,
)


def robust_tag(variation: MonteCarloConfig, quantile: float) -> str:
    """Scoring-identity tag of a robust (quantile-BER) evaluation.

    Covers everything that changes what a robust BER *means*: the quantile
    and the Monte Carlo corner, mismatch model, sample count and variation
    seed.  Recorded on every frontier point so nominal and differently
    configured robust measurements never compete on resume.
    """
    model = variation.model
    return (
        f"q{quantile:g}/{variation.corner.value}"
        f"/n{variation.n_samples}s{variation.seed}"
        f"/vt{model.sigma_vt:g}k{model.sigma_current_factor:g}"
    )


@dataclasses.dataclass(frozen=True)
class DesignPoint:
    """One (candidate, triad) evaluation outcome.

    ``robust`` carries the scoring-identity tag (:func:`robust_tag`) when
    the BER is a quantile over Monte Carlo variation samples; ``None`` marks
    a nominal-BER point.
    """

    candidate: OperatorSpec
    triad: OperatingTriad
    ber: float
    mse: float
    energy_per_operation: float
    n_vectors: int
    seed: int = 2017
    pattern_kind: str = "uniform"
    robust: str | None = None

    def to_frontier_point(self) -> FrontierPoint:
        """The point's representation on the Pareto frontier."""
        return FrontierPoint(
            ber=self.ber,
            energy_per_operation=self.energy_per_operation,
            architecture=self.candidate.architecture,
            width=self.candidate.width,
            window=self.candidate.window,
            triad=self.triad,
            mse=self.mse,
            n_vectors=self.n_vectors,
            seed=self.seed,
            pattern_kind=self.pattern_kind,
            robust=self.robust,
        )


@dataclasses.dataclass(frozen=True)
class CandidateEvaluation:
    """All design points of one candidate at one stimulus fidelity.

    Attributes
    ----------
    candidate:
        The evaluated operator configuration.
    n_vectors:
        Stimulus size of this evaluation.
    points:
        One :class:`DesignPoint` per triad, in grid order.
    reference_energy:
        Energy per operation of the candidate's nominal (ideal) triad --
        the baseline its energy savings are quoted against.
    """

    candidate: OperatorSpec
    n_vectors: int
    points: tuple[DesignPoint, ...]
    reference_energy: float


class CandidateEvaluator:
    """Evaluate operator candidates over the space's triad axes.

    Parameters
    ----------
    space:
        The design space (its :class:`TriadSpec` defines every candidate's
        grid); alternatively pass a bare :class:`TriadSpec`.
    library:
        Standard-cell library used by the simulations.
    jobs:
        Worker processes per sweep (``1`` = in-process).
    store:
        Optional shared result store; exploration keys are identical to the
        characterization flow's, so any warm store accelerates both.
    pattern_kind / seed:
        Stimulus configuration; the seed is shared across candidates (each
        width draws its own operand stream from it, deterministically).
    sta_margin:
        Clock-path pessimism factor (see :class:`CharacterizationFlow`).
    variation:
        Optional :class:`~repro.variation.montecarlo.MonteCarloConfig`.
        When set, every design point is scored by its **quantile BER** over
        the sampled variation instances instead of the nominal BER (and by
        the mean Monte Carlo energy), so the search optimises a Pareto
        frontier that is robust under process variation.  Monte Carlo
        entries shard and cache through the same store as nominal sweeps.
    robust_quantile:
        The BER quantile used for robust scoring (default 0.95 -- "19 of 20
        manufactured dies are at least this good").
    policy / report:
        Optional fault-tolerance policy and accounting report threaded
        through every sharded sweep (see :mod:`repro.core.resilience`).
    """

    def __init__(
        self,
        space: DesignSpace | TriadSpec,
        library: StandardCellLibrary = DEFAULT_LIBRARY,
        jobs: int = 1,
        store: SweepResultStore | None = None,
        pattern_kind: str = "uniform",
        seed: int = 2017,
        sta_margin: float = 1.5,
        variation: MonteCarloConfig | None = None,
        robust_quantile: float = 0.95,
        policy: ExecutionPolicy | None = None,
        report: ExecutionReport | None = None,
        ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not 0.0 <= robust_quantile <= 1.0:
            raise ValueError("robust_quantile must lie within [0, 1]")
        self._triads = space.triads if isinstance(space, DesignSpace) else space
        self._library = library
        self._jobs = jobs
        self._store = store
        self._policy = policy
        self._report = report
        self._pattern_kind = pattern_kind
        self._seed = seed
        self._variation = variation
        self._robust_quantile = robust_quantile
        # Keeps a candidate's flow between its screening and its promotion.
        self._flows = FlowCache(library, sta_margin)

    @property
    def store(self) -> SweepResultStore | None:
        """The shared result store (or ``None`` when caching is disabled)."""
        return self._store

    @property
    def seed(self) -> int:
        """Stimulus seed shared by every evaluation."""
        return self._seed

    def evaluate_many(
        self, candidates: Sequence[OperatorSpec], n_vectors: int
    ) -> list[CandidateEvaluation]:
        """Evaluate a step's candidates over their triad grids at one
        fidelity, in input order, through one sweep plan.

        Each candidate adds its characterization request and, when a
        ``variation`` config is set, its Monte Carlo request on the same
        operands, in that order; candidates of one width share the
        operands.  With ``variation`` every design point is scored by the
        quantile BER and the mean energy over the sampled dies.
        """
        if n_vectors <= 0:
            raise ValueError("n_vectors must be positive")
        with span("explore.evaluate", candidates=len(candidates), n_vectors=n_vectors):
            operands: dict[PatternConfig, tuple[np.ndarray, np.ndarray]] = {}
            steps = []
            requests = []
            for candidate in candidates:
                flow = self._flows.get(candidate)
                triads = list(self._triads.grid_for(flow))
                config = PatternConfig(
                    n_vectors=n_vectors,
                    width=candidate.width,
                    seed=self._seed,
                    kind=self._pattern_kind,
                )
                if config not in operands:
                    operands[config] = generate_patterns(config)
                in1, in2 = operands[config]
                stimulus = sweep_module.pattern_stimulus(config)
                requests.append(
                    sweep_module.characterization_request(
                        flow.adder,
                        triads,
                        in1,
                        in2,
                        stimulus,
                        library=self._library,
                        keep_latched=False,
                        jobs=self._jobs,
                        policy=self._policy,
                        simulator=flow.testbench,
                    )
                )
                if self._variation is not None:
                    requests.append(
                        montecarlo_request(
                            flow.adder,
                            triads,
                            in1,
                            in2,
                            stimulus,
                            config=self._variation,
                            library=self._library,
                            jobs=self._jobs,
                            policy=self._policy,
                        )
                    )
                steps.append((candidate, flow.adder, triads, in1, in2))
            payloads = iter(
                sweep_module.run_sweep_plan(
                    requests, store=self._store, report=self._report
                )
            )
            return [
                self._evaluation(
                    candidate,
                    adder,
                    triads,
                    in1,
                    in2,
                    next(payloads),
                    next(payloads) if self._variation is not None else None,
                )
                for candidate, adder, triads, in1, in2 in steps
            ]

    def _evaluation(
        self,
        candidate: OperatorSpec,
        adder: Any,
        triads: list[OperatingTriad],
        in1: np.ndarray,
        in2: np.ndarray,
        nominal: list[dict[str, Any]],
        montecarlo: list[dict[str, Any]] | None,
    ) -> CandidateEvaluation:
        """One candidate's evaluation from its characterization payloads
        and, for robust scoring, its Monte Carlo payloads."""
        characterization = characterization_from_payloads(
            adder,
            nominal,
            in1,
            in2,
            keep_measurements=False,
            pattern_kind=self._pattern_kind,
            seed=self._seed,
        )
        scores = [
            (entry.ber, entry.energy_per_operation)
            for entry in characterization.results
        ]
        tag = None
        if montecarlo is not None:
            tag = robust_tag(self._variation, self._robust_quantile)
            scores = [
                (
                    result.ber_quantile(self._robust_quantile),
                    float(np.asarray(result.energy_samples).mean()),
                )
                for result in variation_results_from_payloads(triads, montecarlo)
            ]
        points = tuple(
            DesignPoint(
                candidate=candidate,
                triad=entry.triad,
                ber=ber,
                mse=entry.mse,
                energy_per_operation=energy,
                n_vectors=characterization.n_vectors,
                seed=self._seed,
                pattern_kind=self._pattern_kind,
                robust=tag,
            )
            for entry, (ber, energy) in zip(characterization.results, scores)
        )
        return CandidateEvaluation(
            candidate=candidate,
            n_vectors=characterization.n_vectors,
            points=points,
            reference_energy=characterization.reference_energy,
        )
