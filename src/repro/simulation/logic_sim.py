"""Vectorised functional (zero-delay) simulation of netlists.

The logic simulator computes the settled boolean value of every net for a
batch of input vectors.  It is used for golden references, for the "old
state" of the timing simulator, and by the functional correctness tests of
the circuit generators.

Evaluation runs on the compiled level-packed plan of
:mod:`repro.simulation.engine`: one vectorised bitwise operation settles an
entire level of same-typed gates, and batched 1-D stimulus is additionally
bit-packed into ``uint64`` words (64 vectors per word) when only the primary
outputs are needed.  The legacy per-gate loop it replaced is the oracle
:func:`repro.simulation.reference.logic_values`, for parity tests and
benchmarks.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.circuits.netlist import Netlist
from repro.circuits.signals import bits_to_int
from repro.simulation import engine


class LogicSimulator:
    """Zero-delay simulator bound to a netlist.

    The simulator is stateless between calls; binding it to the netlist lets
    it reuse the cached compiled evaluation plan.
    """

    def __init__(self, netlist: Netlist) -> None:
        self._netlist = netlist
        self._plan = engine.compile_plan(netlist)

    @property
    def netlist(self) -> Netlist:
        """The netlist being simulated."""
        return self._netlist

    def run(self, inputs: Mapping[str, np.ndarray]) -> dict[int, np.ndarray]:
        """Compute settled values for every net.

        Parameters
        ----------
        inputs:
            Mapping from primary-input port name to a boolean array.  All
            arrays must share the same shape (typically ``(n_vectors,)``).

        Returns
        -------
        dict
            Mapping from net id to its boolean value array.
        """
        bound = engine.bind_inputs(self._netlist, inputs)
        values = engine.evaluate_values(self._netlist, bound)
        return {net: values[net] for net in self._plan.driven_nets}

    def run_outputs(self, inputs: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Compute settled values for the primary outputs only.

        For 1-D vector batches this uses the bit-packed engine mode: the
        whole batch is evaluated 64 vectors per machine word.
        """
        bound = engine.bind_inputs(self._netlist, inputs)
        outputs = self._netlist.primary_outputs
        if next(iter(bound.values())).ndim == 1:
            words, n_vectors = engine.evaluate_packed(self._netlist, bound)
            nets = np.fromiter(outputs.values(), count=len(outputs), dtype=np.intp)
            bits = engine.unpack_vectors(words[nets], n_vectors)
            return {port: bits[index] for index, port in enumerate(outputs)}
        values = engine.evaluate_values(self._netlist, bound)
        return {port: values[net] for port, net in outputs.items()}

    def run_output_word(
        self,
        inputs: Mapping[str, np.ndarray],
        output_ports: tuple[str, ...],
    ) -> np.ndarray:
        """Compute the output word (integer) assembled from ``output_ports``.

        The ports are interpreted LSB first, matching the adder/multiplier
        conventions.
        """
        outputs = self.run_outputs(inputs)
        bits = np.stack([outputs[port] for port in output_ports], axis=-1)
        return bits_to_int(bits)
