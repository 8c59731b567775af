"""Exactness of the integer latch and summary reductions.

Each reduction after the arrival pass has a cheaper exact form: the latch
is a bitwise select, ``bits_to_int`` a byte pack, and the error rates are
integer counts divided by their base.  These tests pin each one to the
expression it replaced, to the last bit (rates are compared with
``float.hex``).
"""

import numpy as np
import pytest

from repro.circuits.adders import build_adder
from repro.circuits.signals import bits_to_int, int_to_bits
from repro.core.sweep import measurement_to_payload
from repro.simulation import engine
from repro.simulation.testbench import TriadMeasurement
from repro.simulation.timing_sim import (
    VariationErrorCounts,
    VosTimingSimulator,
    _latch_bits,
)

from _arrivals import arrival_rows
import _reference as oracle


def _weighted_sum(bits):
    """The former ``bits_to_int``: an int64 multiply-sum over the bit axis."""
    array = np.asarray(bits, dtype=np.int64)
    weights = np.int64(1) << np.arange(array.shape[-1], dtype=np.int64)
    return (array * weights).sum(axis=-1)


def _hex(values):
    return [float(value).hex() for value in np.ravel(values)]


# ---------------------------------------------------------------------------
# bits_to_int
# ---------------------------------------------------------------------------


class TestBitsToInt:
    @pytest.mark.parametrize("width", range(1, 63))
    @pytest.mark.parametrize("leading", [(37,), (3, 11)])
    @pytest.mark.parametrize("dtype", [bool, np.int64, np.uint8])
    def test_matches_weighted_sum(self, width, leading, dtype):
        rng = np.random.default_rng(width)
        bits = rng.random(leading + (width,)) < 0.5
        # Extremes: the all-zero and all-one words, and a lone MSB.
        bits[..., 0, :] = False
        bits[..., 1, :] = True
        bits[..., 2, :] = False
        bits[..., 2, -1] = True
        bits = bits.astype(dtype)
        packed = bits_to_int(bits)
        assert packed.dtype == np.int64
        assert packed.shape == leading
        assert np.array_equal(packed, _weighted_sum(bits))

    def test_single_vector_is_a_scalar(self):
        value = bits_to_int(int_to_bits(0b1011001, 9))
        assert value == 0b1011001
        assert np.ndim(value) == 0

    def test_more_than_62_bits_rejected(self):
        with pytest.raises(ValueError, match="at most 62 bits"):
            bits_to_int(np.zeros((4, 63), dtype=bool))


def _output_nets(simulator):
    outputs = simulator.netlist.primary_outputs
    return np.array([outputs[port] for port in simulator.output_ports])


def _stale_bits(simulator, assignment):
    """Previous-cycle output bits: the settled bits, flipped where toggled."""
    stimulus = simulator._stimulus(assignment, None)
    changed = engine.unpack_vectors(stimulus.changed.words, stimulus.n_vectors)
    return stimulus.settled_bits ^ changed[_output_nets(simulator)].T


# ---------------------------------------------------------------------------
# Latch select
# ---------------------------------------------------------------------------


class TestLatchSelect:
    @pytest.mark.parametrize("leading", [(), (4,)])
    def test_matches_where_including_ties(self, leading):
        rng = np.random.default_rng(3)
        n_vectors, n_outputs = 301, 17
        settled = rng.random((n_vectors, n_outputs)) < 0.5
        stale = rng.random((n_vectors, n_outputs)) < 0.5
        # Arrival times on a coarse grid, so many equal the clock exactly;
        # like every arrival pass, quiet outputs arrive at 0.
        arrival = rng.integers(0, 8, leading + (n_vectors, n_outputs)) * 0.25e-9
        arrival *= settled ^ stale
        for tclk in np.unique(arrival)[1:]:
            expected = np.where(arrival <= tclk, settled, stale)
            latched = _latch_bits(arrival, tclk, settled)
            assert np.array_equal(latched, expected)

    def test_simulator_latch_at_arrival_ties(self, rca8):
        simulator = VosTimingSimulator(rca8.netlist, output_ports=rca8.output_ports())
        rng = np.random.default_rng(9)
        assignment = rca8.input_assignment(
            rng.integers(0, 256, 900), rng.integers(0, 256, 900)
        )
        probe = simulator.run(assignment, tclk=1e-9, vdd=0.7)
        arrivals = np.unique(probe.arrival_times[probe.arrival_times > 0])
        stale = _stale_bits(simulator, assignment)
        for tclk in arrivals[:: max(1, len(arrivals) // 12)]:
            result = simulator.run(assignment, tclk=float(tclk), vdd=0.7)
            reference = oracle.vos_run(simulator, assignment, tclk=float(tclk), vdd=0.7)
            expected = np.where(result.arrival_times <= tclk, result.settled_bits, stale)
            assert np.array_equal(result.latched_bits, expected)
            assert np.array_equal(result.latched_bits, reference.latched_bits)


# ---------------------------------------------------------------------------
# Count-based summaries
# ---------------------------------------------------------------------------


def _error_matrices():
    rng = np.random.default_rng(17)
    yield np.zeros((40, 9), dtype=bool)
    yield np.ones((40, 9), dtype=bool)
    yield np.ones((1, 1), dtype=bool)
    yield np.zeros((1, 33), dtype=bool)
    yield rng.random((1, 33)) < 0.5
    for n_vectors in (3, 7, 49, 97, 1000, 20000):
        for width in (1, 7, 17, 33):
            for density in (0.01, 0.3, 0.77):
                yield rng.random((n_vectors, width)) < density


def _measurement(error_bits):
    rng = np.random.default_rng(error_bits.size)
    n_vectors = error_bits.shape[0]
    exact = rng.integers(0, 1 << 20, n_vectors)
    # Words differ exactly in the error bits.
    latched = exact ^ bits_to_int(error_bits)
    return TriadMeasurement(
        adder_name="probe",
        tclk=1e-9,
        vdd=0.7,
        vbb=0.0,
        in1=exact,
        in2=exact,
        latched_words=latched,
        exact_words=exact,
        output_width=error_bits.shape[1],
        energy_per_operation=1e-13,
        dynamic_energy_per_operation=8e-14,
        static_energy_per_operation=2e-14,
    )


class TestCountBasedRates:
    @pytest.mark.parametrize("error_bits", list(_error_matrices()))
    def test_payload_rates_match_mean(self, error_bits):
        measurement = _measurement(error_bits)
        payload = measurement_to_payload(measurement, error_bits.shape[1], False)
        assert _hex(payload["ber"]) == _hex(error_bits.mean())
        assert _hex(payload["bitwise_error"]) == _hex(error_bits.mean(axis=0))
        faulty = (measurement.latched_words != measurement.exact_words).mean()
        assert _hex(payload["faulty_vector_fraction"]) == _hex(faulty)
        assert type(payload["ber"]) is float
        assert type(payload["faulty_vector_fraction"]) is float
        assert all(type(rate) is float for rate in payload["bitwise_error"])

    def test_every_count_over_small_bases(self):
        # count / n against the mean of a matrix holding exactly `count` ones.
        for n in range(1, 130):
            for count in range(n + 1):
                errors = np.zeros((n, 1), dtype=bool)
                errors[:count] = True
                payload = measurement_to_payload(_measurement(errors), 1, False)
                assert payload["ber"].hex() == float(errors.mean()).hex()
                assert payload["faulty_vector_fraction"].hex() == (
                    float(errors.mean()).hex()
                )


class TestVariationErrorCounts:
    def test_rates_match_mean_for_every_count(self):
        # Instance i of a batch over n vectors has i faulty vectors and i
        # faulty bits: compare with the mean of matrices holding that many.
        for n_vectors in range(1, 70):
            for n_outputs in (1, 3):
                counts = np.arange(n_vectors + 1)
                summary = VariationErrorCounts(
                    bit_errors=counts,
                    faulty_vectors=counts,
                    n_vectors=n_vectors,
                    n_outputs=n_outputs,
                    dynamic_energy=np.zeros(n_vectors),
                    static_energy_per_operation=np.zeros(n_vectors + 1),
                    tclk=1e-9,
                )
                errors = np.arange(n_vectors)[None, :] < counts[:, None]
                bits = np.zeros((n_vectors + 1, n_vectors, n_outputs), dtype=bool)
                bits[:, :, 0] = errors
                assert _hex(summary.ber) == _hex(bits.mean(axis=(1, 2)))
                assert _hex(summary.faulty_fraction) == _hex(errors.mean(axis=1))


class TestMonteCarloCounts:
    @pytest.fixture(scope="class")
    def rca8_batch(self, rca8):
        simulator = VosTimingSimulator(rca8.netlist, output_ports=rca8.output_ports())
        rng = np.random.default_rng(41)
        gates = rca8.netlist.gate_count
        multipliers = np.exp(rng.normal(0.0, 0.2, (6, gates)))
        leakage = np.exp(rng.normal(0.0, 0.3, (6, gates)))
        return simulator, multipliers, leakage

    @pytest.mark.parametrize("n_vectors", [1, 2, 257])
    @pytest.mark.parametrize("expected_kind", ["golden", "zeros", "ones", "random"])
    def test_counts_match_latched_means(
        self, rca8, rca8_batch, n_vectors, expected_kind
    ):
        """Each instance's counts equal the means of the oracle's latched bits."""
        simulator, multipliers, leakage = rca8_batch
        rng = np.random.default_rng(n_vectors)
        in1 = rng.integers(0, 256, n_vectors)
        in2 = rng.integers(0, 256, n_vectors)
        assignment = rca8.input_assignment(in1, in2)
        width = rca8.output_width
        expected_bits = {
            "golden": int_to_bits(rca8.exact_words(in1, in2), width),
            "zeros": np.zeros((n_vectors, width), dtype=bool),
            "ones": np.ones((n_vectors, width), dtype=bool),
            "random": rng.random((n_vectors, width)) < 0.5,
        }[expected_kind]
        annotation = simulator.annotation(0.6, 0.0)
        critical = annotation.critical_path_delay
        tclks = [critical * scale for scale in (0.2, 0.45, 0.7, 1.1)]
        counts = simulator.run_variation_counts(
            assignment, tclks, 0.6, 0.0, expected_bits,
            delay_multipliers=multipliers, leakage_multipliers=leakage,
        )
        leakage_power = leakage @ engine.gate_leakage_powers(rca8.netlist, 0.6, 0.0)
        for tclk, count in zip(tclks, counts):
            errors = np.stack([
                oracle.vos_run(
                    simulator, assignment, tclk, 0.6, 0.0,
                    gate_delays=annotation.gate_delays * instance,
                ).latched_bits != expected_bits
                for instance in multipliers
            ])
            assert _hex(count.ber) == _hex(errors.mean(axis=(1, 2)))
            assert _hex(count.faulty_fraction) == _hex(errors.any(axis=2).mean(axis=1))
            nominal = oracle.vos_run(simulator, assignment, tclk, 0.6, 0.0)
            assert count.dynamic_energy.tobytes() == nominal.dynamic_energy.tobytes()
            assert count.static_energy_per_operation.tobytes() == (
                (leakage_power * tclk).tobytes()
            )
            assert count.tclk == tclk

    def test_counts_at_arrival_ties_match_where(self, rca8, rca8_batch):
        """Clocks on observed batched arrivals latch like the boolean ``where``."""
        simulator, multipliers, _ = rca8_batch
        rng = np.random.default_rng(2)
        assignment = rca8.input_assignment(
            rng.integers(0, 256, 400), rng.integers(0, 256, 400)
        )
        stimulus = simulator._stimulus(assignment, None)
        plan = engine.compile_plan(rca8.netlist)
        gate_delays = simulator.annotation(0.6, 0.0).gate_delays * multipliers
        arrival = arrival_rows(
            plan, stimulus.changed, gate_delays, _output_nets(simulator)
        )
        # (outputs, instances, vectors) -> (instances, vectors, outputs)
        arrival = arrival.transpose(1, 2, 0)
        ties = np.unique(arrival[arrival > 0])[::25]
        settled = stimulus.settled_bits
        stale = _stale_bits(simulator, assignment)
        counts = simulator.run_variation_counts(
            assignment, list(ties), 0.6, 0.0, settled, delay_multipliers=multipliers
        )
        for tclk, count in zip(ties, counts):
            latched = np.where(arrival <= tclk, settled[None], stale[None])
            errors = latched != settled[None]
            assert np.array_equal(count.bit_errors, errors.sum(axis=(1, 2)))
            assert np.array_equal(count.faulty_vectors, errors.any(axis=2).sum(axis=1))
        assert any(count.bit_errors.any() for count in counts)

    def test_expected_bits_shape_checked(self, rca8, rca8_batch):
        simulator, multipliers, _ = rca8_batch
        assignment = rca8.input_assignment(np.arange(5), np.arange(5))
        with pytest.raises(ValueError, match="expected_bits"):
            simulator.run_variation_counts(
                assignment, [1e-9], 0.6, 0.0, np.zeros((5, 3), dtype=bool),
                delay_multipliers=multipliers,
            )


def test_ksa32_payload_unchanged_by_reduction():
    """End to end: a ksa32 sweep payload equals the former mean expressions."""
    from repro.core.triad import OperatingTriad
    from repro.simulation.testbench import OperatorTestbench

    adder = build_adder("ksa", 32)
    testbench = OperatorTestbench(adder)
    rng = np.random.default_rng(2017)
    in1 = rng.integers(0, 1 << 32, 3000)
    in2 = rng.integers(0, 1 << 32, 3000)
    critical = testbench.nominal_critical_path(0.7)
    triads = [
        OperatingTriad(tclk=critical * scale, vdd=0.7, vbb=0.0)
        for scale in (0.3, 0.5, 0.7)
    ]
    for measurement in testbench.run_sweep(in1, in2, triads):
        payload = measurement_to_payload(measurement, adder.output_width, True)
        error_bits = measurement.error_bits
        assert _hex(payload["ber"]) == _hex(error_bits.mean())
        assert _hex(payload["bitwise_error"]) == _hex(error_bits.mean(axis=0))
        assert 0.0 < payload["ber"] < 1.0
