"""Fig. 8 (a-d): Bit Error Rate and Energy/Operation for the 8- and 16-bit
RCA and BKA adders across the 43 operating triads.

Paper shape to reproduce, per adder:

* triads ordered by decreasing energy show a "two-regime" curve -- energy
  falls while BER stays 0, then BER rises as energy keeps falling;
* forward-body-bias triads populate the most energy-efficient low-BER end;
* the BKA's BER curve is more step-like than the RCA's.
"""

from __future__ import annotations

import numpy as np

from _bench_utils import Metric, write_metrics, write_output

from repro.analysis.figures import fig8_ber_energy_series, render_fig8
from repro.core.triad import OperatingTriad
from repro.simulation.patterns import PatternConfig, generate_patterns
from repro.simulation.testbench import OperatorTestbench
from repro.circuits.adders import build_adder


def test_fig8_all_adders(benchmark, benchmark_characterizations):
    """Regenerate all four Fig. 8 sub-plots; time a single-triad measurement."""
    rendered = []
    for name, characterization in benchmark_characterizations.items():
        series = fig8_ber_energy_series(characterization)
        text = render_fig8(series)
        rendered.append(text)
        print(f"\n=== Fig. 8 ({name}) ===")
        print(text)

        # Two-regime shape: the high-energy half is (almost) error free, the
        # low-energy half contains the heavily faulty triads.
        half = len(series.labels) // 2
        assert float(np.mean(series.ber_percent[:half] < 1.0)) > 0.5
        assert series.ber_percent[:half].mean() < 5.0
        assert series.ber_percent[half:].max() > 10.0
        assert (
            series.energy_per_operation_pj[-1]
            < 0.5 * series.energy_per_operation_pj[0]
        )
    write_output("fig8_ber_energy.txt", "\n\n".join(rendered))

    # Forward body bias dominates the best low-BER savings for every adder.
    best_savings = {}
    for name, characterization in benchmark_characterizations.items():
        low_ber = [e for e in characterization.results if e.ber <= 0.10]
        best = max(low_ber, key=characterization.energy_efficiency_of)
        assert best.triad.vbb == 2.0
        best_savings[name] = characterization.energy_efficiency_of(best)
    write_metrics(
        "fig8_ber_energy",
        [
            Metric(f"best_low_ber_saving_{name}", saving, "fraction", kind="quality")
            for name, saving in best_savings.items()
        ],
    )

    adder = build_adder("rca", 8)
    testbench = OperatorTestbench(adder)
    in1, in2 = generate_patterns(PatternConfig(n_vectors=1000, width=8, seed=3))
    triad = OperatingTriad(tclk=0.28e-9, vdd=0.6, vbb=0.0)
    benchmark(
        lambda: testbench.run_triad(in1, in2, tclk=triad.tclk, vdd=triad.vdd, vbb=triad.vbb)
    )
