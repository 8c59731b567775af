"""Parity of the arrival recurrence's two regimes.

:meth:`CompiledNetlistPlan.arrival_blocks` evaluates gathered gate groups
while a net row carries fewer than ``engine._GROUP_LOOP_THRESHOLD`` elements
(``n_instances * n_vectors``) and switches to per-gate in-place updates at
or above it.  The other parity suites run below the threshold; these run
above it and across it, for every adder architecture and for a netlist that
uses every cell of the library (1-, 2- and 3-input), bit for bit.
"""

import numpy as np
import pytest

from repro.circuits.adders import ADDER_GENERATORS, build_adder
from repro.circuits.builder import NetlistBuilder
from repro.circuits.cells import GATE_ARITY, GateType
from repro.circuits.multipliers import array_multiplier
from repro.simulation import engine
from repro.simulation.timing_sim import VosTimingSimulator

from _arrivals import arrival_rows
import _reference as oracle

THRESHOLD = engine._GROUP_LOOP_THRESHOLD
#: Above the threshold, and not a multiple of the 64-vector packed word.
ABOVE = 2_500
#: Below the threshold: the gathered group regime.
BELOW = 500

OPERATING_POINTS = ((1.0, 0.0), (0.6, 0.0), (0.5, -2.0))


def _every_cell_netlist(n_inputs: int = 6, layers: int = 5, seed: int = 4):
    """Seeded random layered netlist using every cell type on every layer."""
    rng = np.random.default_rng(seed)
    builder = NetlistBuilder("every_cell")
    nets = [builder.add_input(f"x{i}") for i in range(n_inputs)]
    for _ in range(layers):
        layer = []
        for gate_type in GateType:
            for _ in range(2):  # two gates per type: multi-gate groups
                pins = rng.choice(len(nets), GATE_ARITY[gate_type], replace=False)
                layer.append(
                    builder.add_gate(gate_type, *(nets[int(p)] for p in pins))
                )
        nets = nets[-n_inputs:] + layer
    for index, net in enumerate(nets):
        builder.add_output(f"y{index}", net)
    return builder.build()


def _adder_case(architecture: str, n_vectors: int):
    adder = build_adder(architecture, 8)
    rng = np.random.default_rng(17)
    in1 = rng.integers(0, 256, n_vectors)
    in2 = rng.integers(0, 256, n_vectors)
    return adder.netlist, adder.output_ports(), adder.input_assignment(in1, in2)


def _every_cell_case(n_vectors: int):
    netlist = _every_cell_netlist()
    rng = np.random.default_rng(23)
    assignment = {
        port: rng.random(n_vectors) < 0.5 for port in netlist.primary_inputs
    }
    return netlist, None, assignment


def _multiplier_case(n_vectors: int):
    multiplier = array_multiplier(4)
    rng = np.random.default_rng(29)
    assignment = multiplier.input_assignment(
        rng.integers(0, 16, n_vectors), rng.integers(0, 16, n_vectors)
    )
    return multiplier.netlist, None, assignment


CASES = [f"adder:{name}" for name in sorted(ADDER_GENERATORS)] + [
    "every_cell",
    "mul4x4",
]


def _case(name: str, n_vectors: int):
    if name == "every_cell":
        return _every_cell_case(n_vectors)
    if name == "mul4x4":
        return _multiplier_case(n_vectors)
    return _adder_case(name.split(":", 1)[1], n_vectors)


@pytest.fixture(params=CASES)
def case(request):
    return request.param


def test_case_sizes_straddle_the_threshold():
    assert BELOW < THRESHOLD <= ABOVE


def test_every_cell_netlist_has_all_arities():
    netlist = _every_cell_netlist()
    kinds = {gate.gate_type for gate in netlist.gates}
    assert kinds == set(GateType)
    assert {GATE_ARITY[kind] for kind in kinds} == {1, 2, 3}


class TestAboveThresholdParity:
    def test_run_matches_reference_bit_for_bit(self, case):
        netlist, ports, assignment = _case(case, ABOVE)
        simulator = VosTimingSimulator(netlist, output_ports=ports)
        tclk = simulator.annotation(1.0, 0.0).critical_path_delay * 0.55
        for vdd, vbb in OPERATING_POINTS:
            compiled = simulator.run(assignment, tclk=tclk, vdd=vdd, vbb=vbb)
            reference = oracle.vos_run(
                simulator, assignment, tclk=tclk, vdd=vdd, vbb=vbb
            )
            for field in (
                "arrival_times",
                "latched_bits",
                "settled_bits",
                "dynamic_energy",
                "static_energy",
            ):
                got, expected = getattr(compiled, field), getattr(reference, field)
                assert got.tobytes() == expected.tobytes(), (case, vdd, vbb, field)

    def test_single_pass_matches_below_threshold_chunks(self, case):
        """Vector columns are independent: chunked gathered == whole per-gate."""
        netlist, ports, assignment = _case(case, ABOVE)
        simulator = VosTimingSimulator(netlist, output_ports=ports)
        plan = engine.compile_plan(netlist)
        delays = simulator.annotation(0.6, 0.0).gate_delays
        stimulus = simulator._stimulus(assignment, None)
        changed = engine.unpack_vectors(stimulus.changed.words, stimulus.n_vectors)
        nets = range(plan.net_count)
        whole = arrival_rows(plan, changed, delays, nets)
        chunks = [
            arrival_rows(plan, changed[:, start : start + BELOW], delays, nets)
            for start in range(0, ABOVE, BELOW)
        ]
        assert whole.tobytes() == np.concatenate(chunks, axis=1).tobytes()

    def test_batched_above_matches_per_instance_below(self, case):
        netlist, ports, assignment = _case(case, BELOW)
        simulator = VosTimingSimulator(netlist, output_ports=ports)
        plan = engine.compile_plan(netlist)
        changed = simulator._stimulus(assignment, None).changed
        n_instances = 6  # 6 x 500 elements per row: per-gate regime
        assert n_instances * BELOW >= THRESHOLD
        matrix = simulator.annotation(0.6, 0.0).gate_delays[None, :] * (
            np.random.default_rng(3).lognormal(
                0.0, 0.1, size=(n_instances, plan.gate_count)
            )
        )
        nets = range(plan.net_count)
        batched = arrival_rows(plan, changed, matrix, nets)
        for instance in range(n_instances):
            single = arrival_rows(plan, changed, matrix[instance], nets)
            assert batched[:, instance, :].tobytes() == single.tobytes()


class TestDelayValidation:
    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1e-12])
    def test_non_finite_or_negative_delays_rejected(self, bad):
        plan = engine.compile_plan(build_adder("rca", 4).netlist)
        changed = np.ones((plan.net_count, THRESHOLD), dtype=bool)
        delays = np.full((1, plan.gate_count), 1e-11)
        delays[0, 0] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            plan.arrival_blocks(changed, delays, plan.driven_nets)
