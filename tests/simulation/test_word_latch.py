"""The word-domain latch and its reduction, pinned to the boolean forms.

A nominal triad is latched on per-vector int64 output words and only the
candidate vectors -- those whose scaled maximum output arrival reaches the
clock's recheck band -- are touched.  Two exact facts carry this:

* a quiet output's arrival is 0, so only a toggled output can be late and
  the latch is ``settled_words ^ pack(arrival > tclk)``;
* rounding is monotone, so ``tau * max(U) == max(tau * U)`` and one scaled
  per-vector maximum gives every point's row maxima.

The first class tests both facts on every registry adder and on
``mul8x8``.  The second checks payloads against an oracle built from the
boolean expressions the flow used before: ``where(arrival <= tclk, settled,
stale)`` and ``count_nonzero`` over the error matrix, with clocks placed on
an observed scaled arrival and one ulp either side of it.
"""

import numpy as np
import pytest

from repro.circuits.adders import (
    ADDER_GENERATORS,
    AdderCircuit,
    build_adder,
    parse_adder_name,
)
from repro.circuits.multipliers import array_multiplier
from repro.circuits.signals import int_to_bits
from repro.core.characterization import CharacterizationFlow
from repro.core.metrics import mean_squared_error
from repro.core.store import pack_int64_array
from repro.core.sweep import measurement_to_payload
from repro.core.triad import OperatingTriad, TriadGrid
from repro.obs.report import load_trace
from repro.obs.trace import Tracer, activated
from repro.simulation import engine
from repro.simulation.testbench import OperatorTestbench
from repro.technology.library import DEFAULT_LIBRARY

N_VECTORS = 1500


def _testbench(name):
    if name.startswith("mul"):
        return OperatorTestbench(array_multiplier(int(name[3:])))
    return OperatorTestbench(build_adder(*parse_adder_name(name)))


def _default_points(bench):
    """``(vdd, vbb)`` points of the circuit's default grid.

    Multipliers have no paper grid; they take every paper supply and body
    bias, like the rule adders without one use.
    """
    if isinstance(bench.circuit, AdderCircuit):
        grid = CharacterizationFlow(bench.circuit).default_triad_grid()
    else:
        grid = TriadGrid.from_product([1.0])
    return sorted({(triad.vdd, triad.vbb) for triad in grid})


def _operands(bench, seed=2017):
    circuit = bench.circuit
    widths = (
        (circuit.width, circuit.width)
        if isinstance(circuit, AdderCircuit)
        else (circuit.width_a, circuit.width_b)
    )
    rng = np.random.default_rng(seed)
    return tuple(rng.integers(0, 1 << width, N_VECTORS) for width in widths)


def _outputs(bench):
    circuit = bench.circuit
    ports = circuit.netlist.primary_outputs
    return np.array([ports[port] for port in circuit.output_ports()])


def _stimulus(bench, in1, in2):
    return bench.simulator._stimulus(bench.circuit.input_assignment(in1, in2), None)


def _stale_bits(bench, stimulus):
    """Previous-cycle output bits: the settled bits, flipped where toggled."""
    return stimulus.settled_bits ^ stimulus.changed[_outputs(bench)].T


def _output_arrivals(bench, changed, gate_delays):
    plan = engine.compile_plan(bench.circuit.netlist)
    return plan.arrival_pass(changed, gate_delays)[_outputs(bench)].T


def _unit_arrivals(bench, changed):
    netlist = bench.circuit.netlist
    return _output_arrivals(
        bench, changed, engine.unit_gate_delays(netlist, DEFAULT_LIBRARY)
    )


REGISTRY_CASES = [f"{architecture}16" for architecture in ADDER_GENERATORS] + ["mul8"]


class TestInvariants:
    @pytest.fixture(scope="class", params=REGISTRY_CASES)
    def case(self, request):
        bench = _testbench(request.param)
        in1, in2 = _operands(bench)
        stimulus = _stimulus(bench, in1, in2)
        return bench, stimulus, _unit_arrivals(bench, stimulus.changed)

    def test_quiet_outputs_arrive_at_zero(self, case):
        bench, stimulus, unit = case
        quiet = ~(stimulus.settled_bits ^ _stale_bits(bench, stimulus))
        assert quiet.any() and (~quiet).any()
        assert np.all(unit[quiet] == 0.0)
        assert np.signbit(unit[quiet]).sum() == 0

    def test_scaled_maximum_is_maximum_of_scaled(self, case):
        bench, _, unit = case
        unit_max = unit.max(axis=1)
        for vdd, vbb in _default_points(bench):
            tau = bench.simulator.annotation(vdd, vbb).tau
            assert (tau * unit_max).tobytes() == (tau * unit).max(axis=1).tobytes()


# ---------------------------------------------------------------------------
# Band exactness against the boolean oracle
# ---------------------------------------------------------------------------


def _oracle(bench, in1, in2, triad):
    """Rates and latched words of one triad from the former boolean forms."""
    circuit = bench.circuit
    simulator = bench.simulator
    stimulus = _stimulus(bench, in1, in2)
    annotation = simulator.annotation(triad.vdd, triad.vbb)
    arrival = _output_arrivals(bench, stimulus.changed, annotation.gate_delays)
    latched_bits = np.where(
        arrival <= triad.tclk, stimulus.settled_bits, _stale_bits(bench, stimulus)
    )
    weights = np.int64(1) << np.arange(latched_bits.shape[1], dtype=np.int64)
    latched = (latched_bits.astype(np.int64) * weights).sum(axis=1)
    exact = circuit.exact_words(in1, in2)
    errors = latched_bits != int_to_bits(exact, circuit.output_width)
    n_vectors = errors.shape[0]
    return {
        "ber": int(np.count_nonzero(errors)) / errors.size,
        "bitwise_error": [
            int(count) / n_vectors for count in np.count_nonzero(errors, axis=0)
        ],
        "faulty_vector_fraction": int(np.count_nonzero(errors.any(axis=1)))
        / n_vectors,
        "mse": mean_squared_error(exact, latched),
        "latched_words": pack_int64_array(latched),
    }


def _band_triads(bench, in1, in2):
    """Clocks on observed scaled arrivals and one ulp either side of them."""
    stimulus = _stimulus(bench, in1, in2)
    unit = _unit_arrivals(bench, stimulus.changed)
    observed = np.unique(unit[unit > 0])
    points = _default_points(bench)
    triads = []
    for index, fraction in enumerate((0.3, 0.7, 1.0)):
        vdd, vbb = points[(3 * index) % len(points)]
        tau = bench.simulator.annotation(vdd, vbb).tau
        value = observed[min(len(observed) - 1, int(fraction * len(observed)))]
        clock = float(tau * value)
        for tclk in (np.nextafter(clock, 0.0), clock, np.nextafter(clock, np.inf)):
            triads.append(OperatingTriad(tclk=float(tclk), vdd=vdd, vbb=vbb))
    return triads


def _hex(value):
    return [float(item).hex() for item in np.ravel(value)]


BAND_CASES = [
    f"{architecture}{width}"
    for architecture in ("rca", "bka", "ksa")
    for width in (8, 16, 32)
] + ["mul8"]


class TestBandExactness:
    @pytest.mark.parametrize("name", BAND_CASES)
    @pytest.mark.parametrize("keep_latched", [False, True])
    def test_payloads_match_boolean_oracle(self, name, keep_latched, tmp_path):
        bench = _testbench(name)
        circuit = bench.circuit
        in1, in2 = _operands(bench)
        triads = _band_triads(bench, in1, in2)
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path)
        with activated(tracer):
            measurements = bench.run_sweep(in1, in2, triads)
        tracer.close()
        rechecks = [
            record
            for record in load_trace(path)
            if record["name"] == "engine.pass" and record["attrs"]["kind"] == "recheck"
        ]
        # Every clock sits on, or one ulp from, a scaled arrival.
        assert len(rechecks) == len(triads)
        for triad, measurement in zip(triads, measurements):
            payload = measurement_to_payload(
                measurement, circuit.output_width, keep_latched
            )
            oracle = _oracle(bench, in1, in2, triad)
            for key in ("ber", "bitwise_error", "faulty_vector_fraction", "mse"):
                assert _hex(payload[key]) == _hex(oracle[key]), (triad, key)
            latched = pack_int64_array(measurement.latched_words)
            assert latched == oracle["latched_words"]
            if keep_latched:
                assert payload["latched_words"] == oracle["latched_words"]
            else:
                assert "latched_words" not in payload

    def test_payload_leaves_error_bits_uncomputed(self):
        bench = _testbench("ksa16")
        in1, in2 = _operands(bench)
        (triad,) = _band_triads(bench, in1, in2)[4:5]
        (measurement,) = bench.run_sweep(in1, in2, [triad])
        payload = measurement_to_payload(measurement, bench.circuit.output_width, True)
        assert payload["ber"] > 0.0
        assert "error_bits" not in measurement.__dict__
        # Computed on demand, it agrees with the payload.
        assert _hex(measurement.error_bits.mean()) == _hex(payload["ber"])
        assert "error_bits" in measurement.__dict__
