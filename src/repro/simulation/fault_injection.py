"""Fault injection: random bit-flip baseline and gate-level stuck-at faults.

Two error sources are modelled:

* :class:`RandomBitFlipModel` -- the simplest functional error model:
  independent bit flips with a fixed probability per output bit.  It ignores
  everything the paper's carry statistical model captures (data dependence,
  bit-position dependence), which makes it the natural baseline: the
  model-accuracy benchmark compares the SNR of the carry-chain model against
  this injector at matched BER.
* :class:`StuckAtFaultSimulator` -- structural single-stuck-at fault
  simulation on the compiled level-packed engine: a fault forces one net to
  a constant and the whole pattern set is evaluated 64 vectors per machine
  word (:meth:`repro.simulation.engine.CompiledNetlistPlan.evaluate_forced`).
  Fault lists shard cleanly across worker processes, so the sweep
  orchestrator (:mod:`repro.core.sweep`) can fan a full fault campaign out
  the same way it shards triad grids.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping

import numpy as np

from repro.circuits.netlist import Netlist
from repro.circuits.signals import bits_to_int, int_to_bits
from repro.simulation import engine


@dataclasses.dataclass(frozen=True)
class RandomBitFlipModel:
    """Position-independent random bit-flip error model.

    Attributes
    ----------
    width:
        Output word width in bits (adder output width = operand width + 1).
    bit_error_rate:
        Probability of flipping each output bit, independently.
    seed:
        Seed of the dedicated random generator.
    """

    width: int
    bit_error_rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("width must be positive")
        if not 0.0 <= self.bit_error_rate <= 1.0:
            raise ValueError("bit_error_rate must be within [0, 1]")

    def apply(self, exact_values: np.ndarray) -> np.ndarray:
        """Return the exact output words with random bit flips applied."""
        values = np.asarray(exact_values, dtype=np.int64)
        bits = int_to_bits(values, self.width)
        rng = np.random.default_rng(self.seed)
        flips = rng.random(bits.shape) < self.bit_error_rate
        return bits_to_int(np.logical_xor(bits, flips))

    def add(self, in1: np.ndarray, in2: np.ndarray) -> np.ndarray:
        """Faulty addition: exact sum followed by random output bit flips."""
        exact = np.asarray(in1, dtype=np.int64) + np.asarray(in2, dtype=np.int64)
        return self.apply(exact)


# ---------------------------------------------------------------------------
# Gate-level stuck-at faults (compiled-engine path)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, order=True)
class StuckAtFault:
    """A single stuck-at fault site: one net forced to a constant value.

    Attributes
    ----------
    net:
        Net id the fault is injected on.
    stuck_value:
        The constant the net is forced to (``False`` = stuck-at-0).
    """

    net: int
    stuck_value: bool

    def __post_init__(self) -> None:
        if self.net < 0:
            raise ValueError("net must be non-negative")

    def label(self) -> str:
        """Conventional fault label, e.g. ``"n17/sa1"``."""
        return f"n{self.net}/sa{int(self.stuck_value)}"


def enumerate_stuck_at_faults(netlist: Netlist) -> tuple[StuckAtFault, ...]:
    """The full single-stuck-at fault list of a netlist.

    Both polarities on every primary-input net and every gate output net, in
    deterministic (net id, polarity) order -- the classic collapsed-universe
    starting point for a fault-coverage campaign.
    """
    sites = sorted(
        set(netlist.input_nets) | {gate.output for gate in netlist.gates}
    )
    return tuple(
        StuckAtFault(net=net, stuck_value=value)
        for net in sites
        for value in (False, True)
    )


def fault_coverage(results: "Iterable[FaultSimulationResult]") -> float:
    """Fault coverage of a result list: detected faults over all faults.

    The one definition shared by :meth:`StuckAtFaultSimulator.coverage` and
    the campaign summaries of :mod:`repro.analysis.faults` (and therefore by
    the ``repro faults`` workflow, whose sharded results come back through
    the sweep planner, :func:`repro.core.sweep.run_sweep_plan`).
    """
    result_list = list(results)
    if not result_list:
        return 0.0
    return sum(result.detected for result in result_list) / len(result_list)


@dataclasses.dataclass(frozen=True)
class FaultSimulationResult:
    """Outcome of simulating one stuck-at fault over a pattern set.

    Attributes
    ----------
    fault:
        The injected fault.
    detected:
        True when at least one pattern propagates the fault to an observed
        output (the fault is testable by this pattern set).
    faulty_vector_fraction:
        Fraction of patterns whose output word differs from the golden word.
    ber:
        Bit error rate over all observed output bits and patterns.
    """

    fault: StuckAtFault
    detected: bool
    faulty_vector_fraction: float
    ber: float


class StuckAtFaultSimulator:
    """Single-stuck-at fault simulator on the compiled packed engine.

    The golden (fault-free) response is evaluated once per pattern set in
    bit-packed mode; each fault then re-runs the packed evaluation with the
    fault site forced, and the two output words are XOR-compared 64 vectors
    per machine word.

    Parameters
    ----------
    netlist:
        Combinational netlist under test.
    output_ports:
        Observed primary outputs, LSB first; defaults to all primary outputs
        in declaration order.
    """

    def __init__(
        self, netlist: Netlist, output_ports: tuple[str, ...] | None = None
    ) -> None:
        self._netlist = netlist
        self._plan = engine.compile_plan(netlist)
        all_outputs = netlist.primary_outputs
        if output_ports is None:
            output_ports = tuple(all_outputs)
        for port in output_ports:
            if port not in all_outputs:
                raise ValueError(f"unknown output port {port!r}")
        self._output_ports = output_ports
        self._output_nets = np.array(
            [all_outputs[port] for port in output_ports], dtype=np.intp
        )

    @property
    def netlist(self) -> Netlist:
        """The netlist under test."""
        return self._netlist

    @property
    def output_ports(self) -> tuple[str, ...]:
        """Observed output ports, LSB first."""
        return self._output_ports

    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        faults: Iterable[StuckAtFault] | None = None,
    ) -> list[FaultSimulationResult]:
        """Simulate a fault list over one pattern set.

        Parameters
        ----------
        inputs:
            Mapping from primary-input port name to a 1-D boolean array (the
            pattern set, one element per vector).
        faults:
            Faults to inject; defaults to the full list of
            :func:`enumerate_stuck_at_faults`.  Results come back in the
            given order.
        """
        fault_list = list(
            enumerate_stuck_at_faults(self._netlist) if faults is None else faults
        )
        for fault in fault_list:
            if fault.net >= self._plan.net_count:
                raise ValueError(
                    f"fault net {fault.net} outside netlist "
                    f"(net_count={self._plan.net_count})"
                )
        bound = self._bind_inputs(inputs)
        golden_words, n_vectors = engine.evaluate_packed(self._netlist, bound)
        golden_outputs = golden_words[self._output_nets]
        # Padding bits of the tail word are identical between golden and
        # faulty runs of unforced nets but junk under forcing; mask them out
        # of every comparison.
        mask = _tail_mask(n_vectors, golden_outputs.shape[-1])
        results: list[FaultSimulationResult] = []
        # The packed primary-input rows are fault-independent: build the
        # template once, reset the value array from it per fault.
        template, _ = engine.pack_bound_inputs(self._plan.net_count, bound)
        values = np.empty_like(template)
        n_output_bits = n_vectors * self._output_nets.size
        for fault in fault_list:
            values[:] = template
            self._plan.evaluate_forced(values, {fault.net: fault.stuck_value})
            diff = (values[self._output_nets] ^ golden_outputs) & mask
            error_bit_count = int(np.bitwise_count(diff).sum())
            any_diff = np.bitwise_or.reduce(diff, axis=0)
            faulty_vectors = int(np.bitwise_count(any_diff).sum())
            results.append(
                FaultSimulationResult(
                    fault=fault,
                    detected=error_bit_count > 0,
                    faulty_vector_fraction=faulty_vectors / n_vectors,
                    ber=error_bit_count / n_output_bits,
                )
            )
        return results

    def coverage(
        self,
        inputs: Mapping[str, np.ndarray],
        faults: Iterable[StuckAtFault] | None = None,
    ) -> float:
        """Fault coverage of a pattern set: detected faults over all faults."""
        return fault_coverage(self.run(inputs, faults))

    def _bind_inputs(self, inputs: Mapping[str, np.ndarray]) -> dict[int, np.ndarray]:
        bound = engine.bind_inputs(self._netlist, inputs)
        if any(array.ndim > 1 for array in bound.values()):
            raise ValueError("fault simulation expects 1-D pattern arrays")
        return {net: np.atleast_1d(array) for net, array in bound.items()}


def _tail_mask(n_vectors: int, n_words: int) -> np.ndarray:
    """Per-word mask of valid vector bits (the tail word is partially used)."""
    mask = np.full(n_words, np.iinfo(np.uint64).max, dtype=np.uint64)
    tail_bits = n_vectors - (n_words - 1) * engine.WORD_BITS
    if tail_bits < engine.WORD_BITS:
        mask[-1] = np.uint64((1 << tail_bits) - 1)
    return mask
