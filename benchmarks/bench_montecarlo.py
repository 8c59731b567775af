"""Monte Carlo variation characterization: yield analysis + robust frontier.

Beyond the paper: the paper's Fig. 5/8 numbers are single nominal-process
values, but at 28 nm FDSOI near-threshold operation the per-gate mismatch
spread is exactly what decides how much supply scaling a *population* of
dies tolerates.  This bench exercises the variation subsystem end to end:

* a Monte Carlo yield analysis of the 8-bit RCA over the Fig. 5 supply
  sweep (matched nominal clock, no body bias): BER distribution per triad
  and parametric yield vs Vdd at a 2 % BER margin, and
* the **robust Pareto frontier**: the exploration subsystem re-scored by
  quantile BER (p90 across sampled dies) instead of nominal BER, printed
  against the nominal frontier of the same Table III candidates.

Both phases run on the sharded, content-addressed orchestration layer
(``REPRO_BENCH_JOBS`` workers, ``REPRO_CACHE_DIR`` store), and the sample
count is fixed by ``REPRO_BENCH_MC_SAMPLES`` (default 24) independent of the
stimulus size, so a warm store answers the whole bench without simulating.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from _bench_utils import Metric, bench_vectors, write_metrics, write_output
from conftest import bench_jobs, bench_store

from repro.analysis.figures import frontier_series, render_frontier
from repro.analysis.variation import (
    render_variation_table,
    render_yield_series,
    yield_vs_vdd_series,
)
from repro.core.characterization import CharacterizationFlow
from repro.core.store import SweepResultStore
from repro.core.sweep import pattern_stimulus, run_sweep_plan
from repro.explore import CandidateEvaluator, DesignSpace, run_search
from repro.simulation.patterns import PatternConfig, generate_patterns
from repro.variation import MonteCarloConfig, supply_scaling_grid
from repro.variation.montecarlo import (
    montecarlo_request,
    variation_results_from_payloads,
)

#: BER margin of the yield analysis (2 % -- the paper's speculation-margin
#: order of magnitude).
YIELD_MARGIN = 0.02

SUPPLY_SWEEP = (0.8, 0.7, 0.6, 0.5)

ROBUST_QUANTILE = 0.90


def bench_mc_samples() -> int:
    """Monte Carlo samples used by the harness (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_MC_SAMPLES", "24"))


def _store() -> SweepResultStore:
    configured = bench_store()
    if configured is not None:
        return configured
    # A throw-away store still exercises the persistence path and gives the
    # timed phase a genuinely warm rerun.
    return SweepResultStore(tempfile.mkdtemp(prefix="repro-mc-bench-"))


def test_montecarlo_yield_and_robust_frontier(benchmark):
    store = _store()
    jobs = bench_jobs()
    n_vectors = bench_vectors()
    samples = bench_mc_samples()

    # -- Phase 1: yield vs Vdd of the 8-bit RCA --------------------------------
    flow = CharacterizationFlow.for_benchmark("rca", 8)
    grid = supply_scaling_grid(flow, SUPPLY_SWEEP)
    pattern = PatternConfig(n_vectors=n_vectors, width=8, seed=2017)
    in1, in2 = generate_patterns(pattern)
    config = MonteCarloConfig(n_samples=samples, seed=2017)

    def run_yield():
        request = montecarlo_request(
            flow.adder,
            grid,
            in1,
            in2,
            pattern_stimulus(pattern),
            config=config,
            jobs=jobs,
        )
        [payloads] = run_sweep_plan([request], store=store)
        return variation_results_from_payloads(grid, payloads)

    results = run_yield()
    by_vdd = {result.triad.vdd: result for result in results}
    # Structural invariants that hold at any stimulus size: the relaxed
    # supply keeps every sampled die error free, over-scaling breaks dies.
    assert by_vdd[0.8].yield_at(YIELD_MARGIN) == 1.0
    assert by_vdd[0.5].ber.mean > by_vdd[0.8].ber.mean
    assert by_vdd[0.5].yield_at(YIELD_MARGIN) <= by_vdd[0.8].yield_at(YIELD_MARGIN)
    for result in results:
        assert result.n_samples == samples
        assert result.ber.minimum <= result.ber.p50 <= result.ber.maximum

    # Determinism: a warm rerun replays the identical distribution.
    warm = run_yield()
    for cold_result, warm_result in zip(results, warm):
        assert np.array_equal(cold_result.ber_samples, warm_result.ber_samples)

    # -- Phase 2: robust (p90 BER) frontier vs nominal frontier ----------------
    space = DesignSpace.from_axes(("rca", "bka"), (8,), (None,))
    nominal_result = run_search(
        space,
        "exhaustive",
        CandidateEvaluator(space, jobs=jobs, store=store, seed=2017),
        seed=2017,
        full_vectors=n_vectors,
    )
    robust_config = MonteCarloConfig(n_samples=min(8, samples), seed=2017)
    robust_result = run_search(
        space,
        "exhaustive",
        CandidateEvaluator(
            space,
            jobs=jobs,
            store=store,
            seed=2017,
            variation=robust_config,
            robust_quantile=ROBUST_QUANTILE,
        ),
        seed=2017,
        full_vectors=n_vectors,
    )
    assert len(robust_result.frontier) > 0
    assert all(0.0 <= point.ber <= 1.0 for point in robust_result.frontier)

    model = config.model
    lines = [
        "Variation-aware Monte Carlo characterization (this substrate)",
        "operator                : rca8, matched nominal clock, no body bias",
        f"corner / mismatch       : {config.corner.value}, "
        f"sigma_vt {model.sigma_vt * 1e3:g} mV, "
        f"sigma_k {model.sigma_current_factor * 100:g}%",
        f"samples x vectors       : {samples} x {n_vectors}",
        "",
        render_variation_table(results, YIELD_MARGIN),
        "",
        render_yield_series(yield_vs_vdd_series(results, YIELD_MARGIN), YIELD_MARGIN),
        "",
        f"Robust frontier: Table III 8-bit candidates scored by p{ROBUST_QUANTILE * 100:.0f} "
        f"BER over {robust_config.n_samples} sampled dies",
        "",
        "nominal " + render_frontier(frontier_series(nominal_result.frontier)),
        "",
        f"robust (p{ROBUST_QUANTILE * 100:.0f}) "
        + render_frontier(frontier_series(robust_result.frontier)),
    ]
    text = "\n".join(lines)
    print("\n=== Monte Carlo yield analysis (this substrate) ===")
    print(text)
    write_output("montecarlo_yield.txt", text)
    write_metrics(
        "montecarlo",
        [
            Metric(
                f"yield_at_2pct_vdd_{vdd:0.1f}".replace(".", "p"),
                by_vdd[vdd].yield_at(YIELD_MARGIN),
                "fraction",
                kind="quality",
            )
            for vdd in SUPPLY_SWEEP
        ]
        + [
            Metric("robust_frontier_points", len(robust_result.frontier), "points", kind="count"),
            Metric("mc_samples", samples, "samples", kind="count"),
        ],
        vectors=n_vectors,
        jobs=jobs,
    )

    # Timing: a fully warm Monte Carlo sweep (store hits + statistics only).
    benchmark(run_yield)
