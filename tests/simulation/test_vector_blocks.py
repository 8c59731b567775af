"""Fixed-byte vector blocks: every blocking gives the unblocked bytes.

At or above ``engine._GROUP_LOOP_THRESHOLD`` the arrival recurrence walks
the vectors in blocks of as many as fit ``engine._ARRIVAL_BLOCK_BYTES``
(whole packed words, the last block shorter) and reuses one buffer across
them; Monte Carlo reduces each block to error counts as it lands, and the
stimulus keeps its toggle masks bit-packed.  These tests check the passes
and the counts against an unblocked oracle -- the per-gate recurrence over
a full net array and the whole stream,
:func:`_arrivals.unblocked_arrivals` -- at the stream lengths around the
block edges of a ksa32 pass and of an rca16 Monte Carlo batch, and check
the packed masks against :func:`engine.unpack_vectors`.
"""

import functools

import numpy as np
import pytest

from repro.circuits.adders import build_adder
from repro.simulation import engine
from repro.simulation.timing_sim import VosTimingSimulator

from _arrivals import arrival_rows, unblocked_arrivals

#: Vectors per block of a one-instance ksa32 pass and of an rca16 batch of
#: 32 instances, pinned here rather than read from the plan.
KSA32_BLOCK = 4416
RCA16_X32_BLOCK = 704

#: Stream lengths at the packed-word and block edges, plus the paper's 20k.
N_VECTORS = sorted(
    {1, 63, 64, 65, 20_000}
    | {edge for block in (KSA32_BLOCK, RCA16_X32_BLOCK)
       for edge in (block - 1, block, block + 1, 2 * block + 1)}
)

#: (architecture, width, nets) of the two circuits.
CIRCUITS = {"ksa32": ("ksa", 32, 549), "rca16": ("rca", 16, 81)}

#: Largest ``nets * instances * vectors`` the per-instance oracle walks;
#: larger cases only add blocks of a length a smaller case already covers.
ORACLE_ELEMENTS = 60_000_000


def _cases(instance_counts, limit=ORACLE_ELEMENTS):
    return [
        pytest.param(name, instances, n_vectors, id=f"{name}-x{instances}-{n_vectors}")
        for name, (_, _, nets) in CIRCUITS.items()
        for instances in instance_counts
        for n_vectors in N_VECTORS
        if nets * instances * n_vectors <= limit
    ]


@functools.lru_cache(maxsize=None)
def _adder(name):
    architecture, width, nets = CIRCUITS[name]
    adder = build_adder(architecture, width)
    assert adder.netlist.net_count == nets
    return adder


def _outputs(adder):
    ports = adder.netlist.primary_outputs
    return tuple(ports[port] for port in adder.output_ports())


def _setup(adder, n_vectors, instances):
    """A simulator, its stimulus and ``instances`` sampled delay multipliers."""
    simulator = VosTimingSimulator(adder.netlist, output_ports=adder.output_ports())
    rng = np.random.default_rng(n_vectors * 31 + instances)
    width = adder.output_width - 1
    assignment = adder.input_assignment(
        rng.integers(0, 1 << width, n_vectors), rng.integers(0, 1 << width, n_vectors)
    )
    multipliers = rng.lognormal(0.0, 0.1, size=(instances, adder.netlist.gate_count))
    return simulator, assignment, simulator._stimulus(assignment, None), multipliers


def test_the_pinned_blocks_are_the_budget_blocks():
    ksa, rca = _adder("ksa32"), _adder("rca16")
    ksa_plan, rca_plan = (engine.compile_plan(a.netlist) for a in (ksa, rca))
    assert ksa_plan.block_vectors(_outputs(ksa), 1) == KSA32_BLOCK
    assert rca_plan.block_vectors(_outputs(rca), 32) == RCA16_X32_BLOCK
    assert ksa_plan.block_vectors(_outputs(ksa), 32) == 128
    # Always whole words, and never below the per-gate regime's payload,
    # nor below one word however large the batch.
    assert ksa_plan.block_vectors(_outputs(ksa), 7) % 64 == 0
    assert ksa_plan.block_vectors(_outputs(ksa), 1000) == 64


@pytest.mark.parametrize("name, instances, n_vectors", _cases([1, 7, 32]))
def test_passes_and_counts_match_the_oracle(name, instances, n_vectors):
    """Whole-stream arrival rows of one instance or a batch, and Monte Carlo
    counts."""
    circuit = _adder(name)
    simulator, assignment, stimulus, multipliers = _setup(
        circuit, n_vectors, instances
    )
    plan = engine.compile_plan(circuit.netlist)
    outputs = _outputs(circuit)
    annotation = simulator.annotation(0.6, 0.0)
    delays = annotation.gate_delays[None, :] * multipliers
    if instances == 1:
        rows = arrival_rows(plan, stimulus.changed, delays[0], outputs)[:, None]
        # The exact pass of a sweep fills the (vectors, outputs) layout.
        exact = simulator._exact_arrivals(stimulus.changed, delays[0])
        assert exact.tobytes() == np.ascontiguousarray(rows[:, 0].T).tobytes()
    elif len(outputs) * instances * n_vectors * 8 <= 32 << 20:
        rows = arrival_rows(plan, stimulus.changed, delays, outputs)
    else:
        rows = None  # the counts below still cover this batch
    rng = np.random.default_rng(n_vectors)
    # Golden bits with a few flips, so both terms of the error matrix count.
    expected = stimulus.settled_bits ^ (rng.random(stimulus.settled_bits.shape) < 0.02)
    critical = annotation.critical_path_delay
    tclks = [critical * factor for factor in (0.2, 0.5, 1.1)]
    counts = simulator.run_variation_counts(
        assignment, tclks, 0.6, 0.0, expected, delay_multipliers=multipliers
    )
    mismatch = (stimulus.settled_bits ^ expected).T[:, None, :]
    bit_errors = np.zeros((len(tclks), instances), dtype=int)
    faulty_vectors = np.zeros((len(tclks), instances), dtype=int)
    unpacked = engine.unpack_vectors(stimulus.changed.words, n_vectors)
    for chunk, arrival in unblocked_arrivals(
        circuit.netlist, unpacked, delays, outputs
    ):
        if rows is not None:
            assert rows[:, chunk].tobytes() == arrival.tobytes()
        for clock, tclk in enumerate(tclks):
            errors = (arrival > tclk) ^ mismatch
            bit_errors[clock, chunk] = errors.sum(axis=(0, 2))
            faulty_vectors[clock, chunk] = errors.any(axis=0).sum(axis=1)
    for clock, got in enumerate(counts):
        assert got.bit_errors.tolist() == bit_errors[clock].tolist()
        assert got.faulty_vectors.tolist() == faulty_vectors[clock].tolist()
    # The tightest clock must actually flip latched bits.
    assert (bit_errors[0] > bit_errors[-1]).any() or n_vectors == 1


@pytest.mark.parametrize("name, instances, n_vectors", _cases([1, 7, 32]))
def test_blocks_tile_the_stream_at_word_boundaries(name, instances, n_vectors):
    circuit = _adder(name)
    _, _, stimulus, multipliers = _setup(circuit, n_vectors, instances)
    plan = engine.compile_plan(circuit.netlist)
    outputs = _outputs(circuit)
    spans = []
    blocks = [
        (start, rows.shape[-1])
        for start, rows, _ in plan.arrival_blocks(
            stimulus.changed, multipliers, outputs, _Attrs(spans)
        )
    ]
    (attrs,) = spans
    starts = [start for start, _ in blocks]
    assert starts == list(range(0, n_vectors, attrs["block_vectors"]))
    assert sum(length for _, length in blocks) == n_vectors
    assert all(start % 64 == 0 for start in starts)
    if instances * n_vectors >= engine._GROUP_LOOP_THRESHOLD:
        block = plan.block_vectors(outputs, instances)
        assert attrs == {
            "live_rows": plan.live_rows(outputs),
            "block_vectors": min(block, n_vectors),
        }
        buffer = attrs["live_rows"] * instances * attrs["block_vectors"] * 8
        assert buffer <= engine._ARRIVAL_BLOCK_BYTES


class _Attrs:
    """A span stand-in that records what each pass sets on it."""

    def __init__(self, log):
        self.log = log

    def set(self, **attrs):
        self.log.append(attrs)
        return self


class TestToggleWords:
    @pytest.fixture(scope="class")
    def masks(self):
        rng = np.random.default_rng(17)
        changed = rng.random((37, 1000)) < 0.4
        return changed, engine.ToggleWords.pack(changed)

    def test_column_gather_is_the_unpacked_columns(self, masks):
        changed, toggles = masks
        words = toggles.words
        columns = np.array([0, 1, 63, 64, 65, 127, 128, 500, 999, 64, 0, 998])
        expected = engine.unpack_vectors(words, toggles.n_vectors)[:, columns]
        got = toggles.columns(columns)
        assert got.dtype == bool
        assert got.tobytes() == expected.tobytes()
        assert got.tobytes() == changed[:, columns].tobytes()
        assert toggles.columns(np.array([], dtype=np.intp)).shape == (37, 0)

    @pytest.mark.parametrize("start, stop", [(0, 1000), (0, 1), (64, 129), (960, 1000)])
    def test_block_is_the_unpacked_slice(self, masks, start, stop):
        changed, toggles = masks
        assert toggles.block(start, stop).tobytes() == changed[:, start:stop].tobytes()
        rows = np.array([3, 0, 36])
        assert (
            toggles.block(start, stop, rows).tobytes()
            == changed[rows, start:stop].tobytes()
        )

    def test_a_block_starts_at_a_word(self, masks):
        _, toggles = masks
        with pytest.raises(ValueError, match="multiple of 64"):
            toggles.block(65, 200)

    def test_the_stimulus_holds_packed_words(self):
        adder = _adder("ksa32")
        _, _, stimulus, _ = _setup(adder, 20_000, 1)
        words = stimulus.changed.words
        assert words.dtype == np.uint64
        assert words.shape == (adder.netlist.net_count, 313)
        assert not words.flags.writeable
        assert stimulus.changed.shape == (adder.netlist.net_count, 20_000)
