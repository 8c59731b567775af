"""The live-row arrival pass: bounded buffers, the same bytes.

At or above ``engine._GROUP_LOOP_THRESHOLD`` elements per net row the
arrival recurrence runs gate by gate on a pool of row slots: every gate
output takes a slot when it is computed and frees it after the net's last
consumer, the nets a caller reads keep theirs to the end, and every net
without a driving gate reads one shared zero row.  These tests pin the
peak slot counts of the paper-size adders, check the returned rows against
the per-gate oracle :func:`_reference.vos_run` for every adder
architecture with one and with several delay instances, and cover the
netlist shapes that stress the slot bookkeeping.
"""

import numpy as np
import pytest

from repro.circuits.adders import ADDER_GENERATORS, build_adder
from repro.circuits.builder import NetlistBuilder
from repro.simulation import engine
from repro.simulation.timing_sim import VosTimingSimulator

from _arrivals import arrival_rows
import _reference as oracle

THRESHOLD = engine._GROUP_LOOP_THRESHOLD
#: Above the threshold with one instance, and not a multiple of 64.
ABOVE = 2_500
#: Vectors of a several-instance batch: 4 x 700 elements per net row.
BATCH_VECTORS = 700
BATCH_INSTANCES = 4


def _output_nets(netlist, ports=None):
    outputs = netlist.primary_outputs
    return tuple(outputs[port] for port in (ports or outputs))


@pytest.mark.parametrize(
    "architecture, width, rows",
    [("ksa", 32, 178), ("bka", 32, 106), ("ksa", 48, 274), ("rca", 16, 34)],
)
def test_peak_live_rows(architecture, width, rows):
    adder = build_adder(architecture, width)
    plan = engine.compile_plan(adder.netlist)
    outputs = _output_nets(adder.netlist, adder.output_ports())
    assert plan.live_rows(outputs) == rows


class _Attrs:
    """A span stand-in that records what a pass sets on it."""

    def __init__(self):
        self.attrs = {}

    def set(self, **attrs):
        self.attrs.update(attrs)
        return self


@pytest.mark.parametrize("n_vectors", [THRESHOLD - 1, THRESHOLD])
def test_pass_reports_the_rows_it_allocated(n_vectors):
    adder = build_adder("ksa", 32)
    plan = engine.compile_plan(adder.netlist)
    outputs = _output_nets(adder.netlist, adder.output_ports())
    changed = np.ones((plan.net_count, n_vectors), dtype=bool)
    delays = np.ones(plan.gate_count)
    one, several = _Attrs(), _Attrs()
    arrival_rows(plan, changed, delays, outputs, one)
    # Two instances of half the vectors: the same payload per net row.
    arrival_rows(
        plan,
        changed[:, : n_vectors // 2],
        np.ones((2, plan.gate_count)),
        outputs,
        several,
    )
    # At or above the threshold the per-gate regime holds the live rows;
    # below it the gathered regime holds every net.  Either way a stream
    # this short is one block of its own length.
    expected = 178 if n_vectors >= THRESHOLD else plan.net_count
    assert one.attrs == {"live_rows": expected, "block_vectors": n_vectors}
    assert several.attrs == {"live_rows": expected, "block_vectors": n_vectors // 2}


def _adder_case(architecture, n_vectors, seed=41):
    adder = build_adder(architecture, 16)
    simulator = VosTimingSimulator(adder.netlist, output_ports=adder.output_ports())
    rng = np.random.default_rng(seed)
    assignment = adder.input_assignment(
        rng.integers(0, 1 << 16, n_vectors), rng.integers(0, 1 << 16, n_vectors)
    )
    return adder, simulator, assignment


@pytest.mark.parametrize("architecture", sorted(ADDER_GENERATORS))
class TestAgainstTheOracle:
    def test_one_instance(self, architecture):
        adder, simulator, assignment = _adder_case(architecture, ABOVE)
        plan = engine.compile_plan(adder.netlist)
        outputs = _output_nets(adder.netlist, adder.output_ports())
        assert plan.live_rows(outputs) < plan.net_count
        changed = simulator._stimulus(assignment, None).changed
        for vdd, vbb in ((1.0, 0.0), (0.6, -2.0)):
            delays = simulator.annotation(vdd, vbb).gate_delays
            rows = arrival_rows(plan, changed, delays, outputs)
            reference = oracle.vos_run(simulator, assignment, 1e-9, vdd, vbb)
            assert rows.shape == (len(outputs), ABOVE)
            assert rows.T.tobytes() == reference.arrival_times.tobytes()

    def test_several_instances(self, architecture):
        adder, simulator, assignment = _adder_case(architecture, BATCH_VECTORS)
        plan = engine.compile_plan(adder.netlist)
        outputs = _output_nets(adder.netlist, adder.output_ports())
        assert BATCH_INSTANCES * BATCH_VECTORS >= THRESHOLD
        annotation = simulator.annotation(0.6, 0.0)
        matrix = annotation.gate_delays[None, :] * np.random.default_rng(5).lognormal(
            0.0, 0.1, size=(BATCH_INSTANCES, plan.gate_count)
        )
        changed = simulator._stimulus(assignment, None).changed
        rows = arrival_rows(plan, changed, matrix, outputs)
        assert rows.shape == (len(outputs), BATCH_INSTANCES, BATCH_VECTORS)
        for instance in range(BATCH_INSTANCES):
            reference = oracle.vos_run(
                simulator, assignment, 1e-9, 0.6, 0.0, gate_delays=matrix[instance]
            )
            expected = reference.arrival_times
            assert rows[:, instance].T.tobytes() == expected.tobytes()


def _edge_netlist():
    """Reused outputs, a gate reading one net twice, a pass-through output.

    ``x`` is an output and feeds two later gates; ``same`` reads ``x`` on
    both pins; the output ``through`` is the primary input ``c`` itself;
    ``dangling`` drives nothing and is not an output.
    """
    builder = NetlistBuilder("edges")
    a, b, c, d = (builder.add_input(name) for name in "abcd")
    x = builder.xor2(a, b)
    builder.add_output("x", x)
    same = builder.and2(x, x)
    y = builder.or2(same, c)
    builder.nand2(y, d, name="dangling")
    z = builder.maj3(x, y, d)
    chain = z
    for _ in range(6):
        chain = builder.xor2(chain, a)
    builder.add_output("z", chain)
    builder.add_output("through", c)
    builder.add_output("y", y)
    return builder.build()


class TestEdgeCases:
    @pytest.fixture(scope="class")
    def case(self):
        netlist = _edge_netlist()
        simulator = VosTimingSimulator(netlist)
        rng = np.random.default_rng(13)
        assignment = {port: rng.random(ABOVE) < 0.5 for port in netlist.primary_inputs}
        changed = simulator._stimulus(assignment, None).changed
        return netlist, simulator, assignment, changed

    def test_outputs_match_the_oracle(self, case):
        netlist, simulator, assignment, changed = case
        plan = engine.compile_plan(netlist)
        outputs = _output_nets(netlist)
        delays = simulator.annotation(0.7, 0.0).gate_delays
        rows = arrival_rows(plan, changed, delays, outputs)
        reference = oracle.vos_run(simulator, assignment, 1e-9, 0.7, 0.0)
        assert rows.T.tobytes() == reference.arrival_times.tobytes()
        # The pass-through output never toggles through a gate.
        assert not rows[list(netlist.primary_outputs).index("through")].any()

    def test_any_read_nets_match_the_full_net_array(self, case):
        netlist, simulator, _, changed = case
        plan = engine.compile_plan(netlist)
        delays = simulator.annotation(0.7, 0.0).gate_delays
        full = arrival_rows(plan, changed, delays, range(plan.net_count))
        below = arrival_rows(
            plan, changed.block(0, 500), delays, range(plan.net_count)
        )
        assert below.tobytes() == full[:, :500].tobytes()
        x, y = netlist.primary_outputs["x"], netlist.primary_outputs["y"]
        dangling = next(g.output for g in netlist.gates if g.name == "dangling")
        # Repeated, primary-input, internal and dangling nets, in any order.
        for nets in ((y, x, y), (0, dangling), (dangling,), (x, x)):
            rows = arrival_rows(plan, changed, delays, nets)
            assert rows.tobytes() == full[list(nets)].tobytes()

    def test_slots_are_reused(self, case):
        netlist, _, _, _ = case
        plan = engine.compile_plan(netlist)
        outputs = _output_nets(netlist)
        # The zero row, the outputs x and y, and the chain's input and
        # output rows: 5 of the 11 gate outputs' rows at the peak.
        assert plan.live_rows(outputs) == 5
        assert plan.gate_count == 11


def test_engine_pass_spans_carry_their_buffer_rows(tmp_path):
    from repro.obs.report import load_trace
    from repro.obs.trace import Tracer, activated

    adder = build_adder("ksa", 32)
    simulator = VosTimingSimulator(adder.netlist, output_ports=adder.output_ports())
    rng = np.random.default_rng(3)
    in1, in2 = rng.integers(0, 1 << 32, (2, ABOVE), dtype=np.int64)
    assignment = adder.input_assignment(in1, in2)
    trace = tmp_path / "run.jsonl"
    tracer = Tracer(trace)
    with activated(tracer):
        simulator.run(assignment, tclk=1e-9, vdd=0.8)
        simulator.run_variation_counts(
            assignment,
            [1e-9],
            0.8,
            0.0,
            simulator.run(assignment, tclk=1.0, vdd=1.0).settled_bits,
            delay_multipliers=np.ones((2, adder.netlist.gate_count)),
        )
        small = adder.input_assignment(in1[:100], in2[:100])
        simulator.run(small, tclk=1e-9, vdd=0.8)
    tracer.close()
    passes = [r["attrs"] for r in load_trace(trace) if r["name"] == "engine.pass"]
    buffers = {
        (p["kind"], p["vectors"]): (p["live_rows"], p["block_vectors"])
        for p in passes
        if "live_rows" in p
    }
    assert buffers == {
        # One instance: the whole stream fits one block.
        ("arrival", ABOVE): (178, ABOVE),
        # Two instances: blocks of whole words within the byte budget.
        ("variation", ABOVE): (178, 2176),
        # 100 elements per row: the gathered regime holds every net.
        ("arrival", 100): (engine.compile_plan(adder.netlist).net_count, 100),
    }
    # live_rows x instances x block_vectors x 8 is the buffer of the pass.
    assert 178 * 2 * 2176 * 8 <= engine._ARRIVAL_BLOCK_BYTES < 178 * 2 * 2240 * 8
