"""Operating-point factorization of the nominal arrival pass.

Every gate delay is ``tau(vdd, vbb) * g_i`` with ``g_i`` independent of the
operating point, so the timing simulator runs one unit-``tau`` arrival pass
per stimulus and scales its output arrivals to each point, re-running the
exact per-point recurrence for the vectors whose latch decision the
scaling's rounding could flip.  These tests pin that path to the per-gate
reference: latched bits and payloads over full default grids, forced ties on
both sides of an exact arrival, the rounding bound the recheck band rests
on, and the bit-identity of the factored gate delays.
"""

import numpy as np
import pytest

from repro.circuits.adders import AdderCircuit, build_adder
from repro.circuits.multipliers import array_multiplier
from repro.core.characterization import CharacterizationFlow
from repro.core.sweep import measurement_to_payload
from repro.core.triad import TriadGrid
from repro.obs.report import load_trace
from repro.obs.trace import Tracer, activated
from repro.simulation import engine
from repro.simulation.testbench import OperatorTestbench
from repro.technology.library import DEFAULT_LIBRARY

from _arrivals import arrival_rows
import _reference as oracle

EPS = float(np.finfo(np.float64).eps)

CIRCUITS = ("rca8", "bka16", "ksa32", "mul8")

#: Enough vectors to sensitise long paths, few enough for the per-gate
#: reference loop to sweep a whole grid quickly.
N_VECTORS = 300


def _testbench(name):
    if name.startswith("mul"):
        return OperatorTestbench(array_multiplier(int(name[3:])))
    return OperatorTestbench(build_adder(name[:3], int(name[3:])))


def _default_grid(bench):
    """The circuit's default triad grid (adders: the matched Table III grid).

    Multipliers have no paper grid; they get the rule adders without one
    use: 1.8x, 1x, 0.7x and 0.5x the critical path over every paper supply
    and body bias.
    """
    circuit = bench.circuit
    if isinstance(circuit, AdderCircuit):
        return list(CharacterizationFlow(circuit).default_triad_grid())
    critical_ns = bench.nominal_critical_path() * 1e9
    return list(
        TriadGrid.from_product(
            [round(critical_ns * factor, 3) for factor in (1.8, 1.0, 0.7, 0.5)]
        )
    )


def _operands(bench, n=N_VECTORS, seed=2017):
    circuit = bench.circuit
    widths = (
        (circuit.width, circuit.width)
        if isinstance(circuit, AdderCircuit)
        else (circuit.width_a, circuit.width_b)
    )
    rng = np.random.default_rng(seed)
    return tuple(rng.integers(0, 1 << width, n) for width in widths)


def _points(grid):
    return sorted({(triad.vdd, triad.vbb) for triad in grid})


def _output_nets(bench):
    circuit = bench.circuit
    ports = circuit.netlist.primary_outputs
    return [ports[port] for port in circuit.output_ports()]


def _changed(bench, in1, in2):
    """Toggle mask of every net for a streamed operand pair."""
    circuit = bench.circuit
    netlist = circuit.netlist
    current = {
        netlist.primary_inputs[port]: np.asarray(values, dtype=bool)
        for port, values in circuit.input_assignment(in1, in2).items()
    }
    previous = {
        net: np.concatenate([[False], values[:-1]])
        for net, values in current.items()
    }
    return engine.evaluate_values(netlist, current) ^ engine.evaluate_values(
        netlist, previous
    )


def _output_arrivals(bench, changed, gate_delays):
    plan = engine.compile_plan(bench.circuit.netlist)
    return arrival_rows(plan, changed, gate_delays, _output_nets(bench)).T


@pytest.fixture(scope="module", params=CIRCUITS)
def case(request):
    bench = _testbench(request.param)
    grid = _default_grid(bench)
    in1, in2 = _operands(bench)
    return bench, grid, in1, in2


class TestFactoredDelays:
    def test_annotation_delays_are_tau_times_unit_delays(self, case):
        bench, grid, _, _ = case
        netlist = bench.circuit.netlist
        units = engine.unit_gate_delays(netlist, DEFAULT_LIBRARY)
        for vdd, vbb in _points(grid):
            delays, *_ = engine.annotation_arrays(netlist, vdd, vbb)
            tau = DEFAULT_LIBRARY.delay_model(vdd, vbb).tau
            assert delays.tobytes() == (tau * units).tobytes()
            annotation = bench.simulator.annotation(vdd, vbb)
            assert annotation.tau == tau
            assert annotation.gate_delays.tobytes() == delays.tobytes()

    def test_unit_delays_are_cached_and_read_only(self, case):
        bench, _, _, _ = case
        netlist = bench.circuit.netlist
        units = engine.unit_gate_delays(netlist, DEFAULT_LIBRARY)
        assert engine.unit_gate_delays(netlist, DEFAULT_LIBRARY) is units
        assert np.all(units > 0)
        with pytest.raises(ValueError):
            units[0] = 1.0

    def test_plan_depth_is_the_longest_gate_path(self, case):
        bench, _, _, _ = case
        netlist = bench.circuit.netlist
        plan = engine.compile_plan(netlist)
        assert plan.depth == netlist.logic_depth
        # A unit-delay static pass counts the gates on the longest path.
        arrival = plan.static_arrival_pass(np.ones(plan.gate_count))
        assert plan.depth == int(arrival[list(netlist.output_nets)].max())


class TestScalingErrorModel:
    def test_scaled_arrivals_stay_within_the_rounding_bound(self, case):
        """``|A_exact - tau * A_unit| <= (depth + 1) eps A_exact`` everywhere."""
        bench, grid, in1, in2 = case
        netlist = bench.circuit.netlist
        depth = engine.compile_plan(netlist).depth
        changed = _changed(bench, in1, in2)
        unit = _output_arrivals(
            bench, changed, engine.unit_gate_delays(netlist, DEFAULT_LIBRARY)
        )
        worst = 0.0
        for vdd, vbb in _points(grid):
            annotation = bench.simulator.annotation(vdd, vbb)
            exact = _output_arrivals(bench, changed, annotation.gate_delays)
            scaled = annotation.tau * unit
            quiet = exact == 0.0
            assert np.array_equal(quiet, scaled == 0.0)
            error = np.abs(exact[~quiet] - scaled[~quiet]) / exact[~quiet]
            worst = max(worst, float(error.max()))
        assert worst < (depth + 1) * EPS


class TestSweepParity:
    def test_sweep_matches_reference_on_default_grid(self, case):
        bench, grid, in1, in2 = case
        width = bench.circuit.output_width
        swept = bench.run_sweep(in1, in2, grid)
        reference = list(oracle.sweep(bench, in1, in2, grid))
        assert len(swept) == len(reference) == len(grid)
        for got, expected in zip(swept, reference):
            assert np.array_equal(got.latched_words, expected.latched_words)
            assert np.array_equal(got.error_bits, expected.error_bits)
            assert measurement_to_payload(
                got, width, keep_latched=True
            ) == measurement_to_payload(expected, width, keep_latched=True)


def _recheck_spans(tmp_path, run):
    """Result of ``run()`` and the ``recheck`` arrival spans it emitted."""
    path = tmp_path / "trace.jsonl"
    path.unlink(missing_ok=True)
    tracer = Tracer(path)
    with activated(tracer):
        result = run()
    tracer.close()
    records = load_trace(path) if path.exists() else []
    spans = [
        record
        for record in records
        if record["name"] == "engine.pass" and record["attrs"]["kind"] == "recheck"
    ]
    return result, spans


class TestForcedTies:
    """Clocks placed exactly on, and one ulp either side of, exact arrivals.

    At each such clock a decision taken from the scaled arrival alone would
    differ from the exact per-point recurrence for the chosen output bit;
    the recheck must catch it and latch what the reference latches.
    """

    @pytest.mark.parametrize("side", ["below", "tie", "above"])
    def test_recheck_latches_like_reference(self, case, side, tmp_path):
        bench, grid, in1, in2 = case
        circuit = bench.circuit
        netlist = circuit.netlist
        simulator = bench.simulator
        assignment = circuit.input_assignment(in1, in2)
        changed = _changed(bench, in1, in2)
        unit = _output_arrivals(
            bench, changed, engine.unit_gate_delays(netlist, DEFAULT_LIBRARY)
        )
        for vdd, vbb in _points(grid):
            annotation = simulator.annotation(vdd, vbb)
            probe = oracle.vos_run(simulator, assignment, tclk=1.0, vdd=vdd, vbb=vbb)
            exact = probe.arrival_times
            scaled = annotation.tau * unit
            if side == "below":
                clocks = np.nextafter(exact, -np.inf)
            elif side == "tie":
                clocks = exact
            else:
                clocks = np.nextafter(exact, np.inf)
            # Output bits the scaled arrival alone would latch wrongly.
            flipped = (exact > 0) & ((scaled <= clocks) != (exact <= clocks))
            if flipped.any():
                break
        else:
            pytest.skip(f"no {side} split between scaled and exact arrivals")
        tclk = float(clocks[flipped][0])
        result, spans = _recheck_spans(
            tmp_path,
            lambda: simulator.run(assignment, tclk=tclk, vdd=vdd, vbb=vbb),
        )
        reference = oracle.vos_run(simulator, assignment, tclk=tclk, vdd=vdd, vbb=vbb)
        assert spans, "the recheck pass did not run"
        assert all(span["attrs"]["vectors"] >= 1 for span in spans)
        assert np.array_equal(result.latched_bits, reference.latched_bits)
        assert np.array_equal(result.dynamic_energy, reference.dynamic_energy)
        assert np.array_equal(result.arrival_times, reference.arrival_times)

    def test_far_clocks_skip_the_recheck(self, case, tmp_path):
        bench, grid, in1, in2 = case
        circuit = bench.circuit
        assignment = circuit.input_assignment(in1, in2)
        triad = grid[0]
        # Far beyond any arrival, and below every toggling arrival.
        for tclk in (1.0, 1e-15):
            _, spans = _recheck_spans(
                tmp_path,
                lambda: bench.simulator.run(
                    assignment, tclk=tclk, vdd=triad.vdd, vbb=triad.vbb
                ),
            )
            assert spans == []
