"""Compiled, level-packed netlist evaluation engine.

The per-gate Python loops of the original simulators dominate every number
this reproduction produces: a functional pass dispatches one Python call per
gate, and the characterization flow re-simulates identical golden values for
every triad of the grid.  This module compiles a netlist **once** into a
:class:`CompiledNetlistPlan` -- per-level, per-gate-type NumPy index arrays --
so that:

* a whole level of same-typed gates is evaluated with one vectorised bitwise
  operation (see :data:`repro.circuits.cells.GATE_WORD_FUNCTIONS`),
* the same plan evaluates either boolean arrays (one vector per element) or
  **bit-packed** ``uint64`` words (64 vectors per element) -- the packed mode
  is what makes zero-delay golden simulation ~2 orders of magnitude cheaper,
* the data-dependent arrival-time propagation of the VOS timing simulator
  runs group-at-a-time over gathered ``(gates, vectors)`` blocks for small
  batches and gate by gate, in place, for large ones,
* per-netlist metadata (capacitive net loads, unit gate delays, level
  structure) and the per-operating-point timing annotation are computed
  once and shared by every simulation that follows.

Caching contract
----------------
* keyed on the **netlist** (weakly, so netlists can be garbage collected):
  the compiled plan, and per library the capacitive net loads and the unit
  gate delays ``g_i`` (:func:`unit_gate_delays`) -- the operating-point
  independent factor of every gate delay ``tau(vdd, vbb) * g_i``;
* keyed on ``(vdd, vbb)``: gate delays / switch energies / leakage
  (:func:`annotation_arrays`), computed through the same float expressions
  and summation order as the legacy per-gate loop so annotations stay
  bit-identical with it;
* keyed on the **pattern set**: settled values, toggle masks and the
  output arrival times of one unit-``tau`` pass are cached by
  :class:`~repro.simulation.timing_sim.VosTimingSimulator`.  Every
  operating point scales that one pass by its ``tau`` (max-plus arrival
  commutes with positive scaling) and re-runs the exact per-point
  recurrence only for the few vectors whose latch decision the scaling's
  rounding could flip.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Mapping

import numpy as np

from repro.circuits.cells import GATE_WORD_FUNCTIONS, GateType
from repro.circuits.netlist import Netlist
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary

#: Version tag of the simulation numerics.  The sweep result store keys every
#: cached entry on this value; bump it whenever a change alters any number an
#: engine simulation produces (delays, energies, latched bits), so stale
#: on-disk results are invalidated instead of silently reused.
ENGINE_VERSION = 2

#: Extra load on primary outputs standing in for the capture register input.
OUTPUT_REGISTER_LOAD_CELL = "DFF"

#: Vectors per packed word.
WORD_BITS = 64


# ---------------------------------------------------------------------------
# Bit packing (64 stimulus vectors per uint64 word)
# ---------------------------------------------------------------------------


def pack_vectors(bits: np.ndarray) -> np.ndarray:
    """Pack boolean vectors along the last axis into ``uint64`` words.

    ``bits[..., i]`` becomes bit ``i % 64`` of word ``bits[..., i // 64]``;
    the tail word is zero padded.  Inverse of :func:`unpack_vectors`.
    """
    array = np.ascontiguousarray(np.asarray(bits, dtype=bool))
    n = array.shape[-1]
    n_words = (n + WORD_BITS - 1) // WORD_BITS
    packed = np.packbits(array, axis=-1, bitorder="little")
    word_bytes = n_words * (WORD_BITS // 8)
    if packed.shape[-1] != word_bytes:
        # Pad to whole words after packing (bytes), not before (bools).
        buffer = np.zeros(array.shape[:-1] + (word_bytes,), dtype=np.uint8)
        buffer[..., : packed.shape[-1]] = packed
        packed = buffer
    return np.ascontiguousarray(packed).view(np.uint64)


def unpack_vectors(words: np.ndarray, n_vectors: int) -> np.ndarray:
    """Unpack ``uint64`` words back into ``n_vectors`` boolean vectors."""
    array = np.ascontiguousarray(np.asarray(words, dtype=np.uint64))
    bits = np.unpackbits(array.view(np.uint8), axis=-1, bitorder="little")
    # unpackbits yields 0/1 uint8 -- reinterpreting as bool is free.
    return bits[..., :n_vectors].view(bool)


# ---------------------------------------------------------------------------
# In-place singleton kernels
# ---------------------------------------------------------------------------
#
# Deep serial structures (the carry chain of a ripple-carry adder) degenerate
# into one-gate groups no schedule can merge, so the per-group constant cost
# is what bounds their throughput.  These kernels evaluate a single gate with
# the minimum number of ufunc calls, writing straight into the output row of
# the value array (`out=`), with no temporaries beyond what the boolean
# identity needs.  Each must compute the same function as its
# :data:`~repro.circuits.cells.GATE_WORD_FUNCTIONS` entry (the parity tests
# in ``tests/simulation/test_engine.py`` enforce this bit for bit).


def _k_inv(v, i, o):
    np.bitwise_not(v[i[0]], out=v[o])


def _k_buf(v, i, o):
    np.copyto(v[o], v[i[0]])


def _k_and2(v, i, o):
    np.bitwise_and(v[i[0]], v[i[1]], out=v[o])


def _k_or2(v, i, o):
    np.bitwise_or(v[i[0]], v[i[1]], out=v[o])


def _k_nand2(v, i, o):
    out = v[o]
    np.bitwise_and(v[i[0]], v[i[1]], out=out)
    np.bitwise_not(out, out=out)


def _k_nand3(v, i, o):
    out = v[o]
    np.bitwise_and(v[i[0]], v[i[1]], out=out)
    np.bitwise_and(out, v[i[2]], out=out)
    np.bitwise_not(out, out=out)


def _k_nor2(v, i, o):
    out = v[o]
    np.bitwise_or(v[i[0]], v[i[1]], out=out)
    np.bitwise_not(out, out=out)


def _k_nor3(v, i, o):
    out = v[o]
    np.bitwise_or(v[i[0]], v[i[1]], out=out)
    np.bitwise_or(out, v[i[2]], out=out)
    np.bitwise_not(out, out=out)


def _k_xor2(v, i, o):
    np.bitwise_xor(v[i[0]], v[i[1]], out=v[o])


def _k_xnor2(v, i, o):
    out = v[o]
    np.bitwise_xor(v[i[0]], v[i[1]], out=out)
    np.bitwise_not(out, out=out)


def _k_aoi21(v, i, o):
    out = v[o]
    np.bitwise_and(v[i[0]], v[i[1]], out=out)
    np.bitwise_or(out, v[i[2]], out=out)
    np.bitwise_not(out, out=out)


def _k_oai21(v, i, o):
    out = v[o]
    np.bitwise_or(v[i[0]], v[i[1]], out=out)
    np.bitwise_and(out, v[i[2]], out=out)
    np.bitwise_not(out, out=out)


def _k_maj3(v, i, o):
    # MAJ(a, b, c) == (a & b) | ((a ^ b) & c)
    a, b, c = v[i[0]], v[i[1]], v[i[2]]
    out = v[o]
    carry_propagate = np.bitwise_xor(a, b)
    np.bitwise_and(carry_propagate, c, out=carry_propagate)
    np.bitwise_and(a, b, out=out)
    np.bitwise_or(out, carry_propagate, out=out)


def _k_mux2(v, i, o):
    # MUX(a, b, sel) == (a & ~sel) | (b & sel); pin order (A, B, SEL).
    a, b, sel = v[i[0]], v[i[1]], v[i[2]]
    out = v[o]
    not_sel = np.bitwise_not(sel)
    np.bitwise_and(not_sel, a, out=not_sel)
    np.bitwise_and(b, sel, out=out)
    np.bitwise_or(out, not_sel, out=out)


_SINGLE_GATE_KERNELS = {
    GateType.INV: _k_inv,
    GateType.BUF: _k_buf,
    GateType.AND2: _k_and2,
    GateType.OR2: _k_or2,
    GateType.NAND2: _k_nand2,
    GateType.NAND3: _k_nand3,
    GateType.NOR2: _k_nor2,
    GateType.NOR3: _k_nor3,
    GateType.XOR2: _k_xor2,
    GateType.XNOR2: _k_xnor2,
    GateType.AOI21: _k_aoi21,
    GateType.OAI21: _k_oai21,
    GateType.MAJ3: _k_maj3,
    GateType.MUX2: _k_mux2,
}


#: Per-net payload (elements) from which a multi-gate group switches from
#: one gathered vectorised call to per-gate in-place kernels: the gather and
#: scatter copies grow with the payload while the per-gate call overhead is
#: constant, so big batches favour the copy-free kernels.  Shared by the
#: logic evaluation and the arrival-time recurrence.
_GROUP_LOOP_THRESHOLD = 2048


def _compile_group_step(group: "GateGroup"):
    """Closure evaluating one group with minimal Python/numpy overhead."""
    kernel = _SINGLE_GATE_KERNELS[group.gate_type]
    if group.output_nets.size == 1:
        pins = tuple(int(net) for net in group.input_nets[:, 0])
        output = int(group.output_nets[0])

        def step(values, kernel=kernel, pins=pins, output=output):
            kernel(values, pins, output)

    else:
        function = GATE_WORD_FUNCTIONS[group.gate_type]
        inputs = group.input_nets
        outputs = group.output_nets
        per_gate = tuple(
            (tuple(int(net) for net in inputs[:, j]), int(outputs[j]))
            for j in range(outputs.size)
        )

        def step(
            values,
            kernel=kernel,
            function=function,
            inputs=inputs,
            outputs=outputs,
            per_gate=per_gate,
        ):
            if values[0].size >= _GROUP_LOOP_THRESHOLD:
                for pins, output in per_gate:
                    kernel(values, pins, output)
            else:
                values[outputs] = function(values[inputs])

    return step


# ---------------------------------------------------------------------------
# Compiled plan
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GateGroup:
    """One vectorisable unit: all gates of one type within one logic level.

    Attributes
    ----------
    gate_type:
        Shared cell type of the group.
    level:
        Logic level of the group's outputs.
    input_nets:
        Net ids of the input pins, shape ``(arity, n_gates)``.
    output_nets:
        Net ids driven by the group, shape ``(n_gates,)``.
    topo_indices:
        Position of each gate in ``netlist.topological_gates`` -- the index
        space of the timing-annotation arrays.
    """

    gate_type: GateType
    level: int
    input_nets: np.ndarray
    output_nets: np.ndarray
    topo_indices: np.ndarray


class CompiledNetlistPlan:
    """Level-packed evaluation schedule of one netlist.

    The plan holds only index arrays (no reference back to the netlist), so
    the module-level plan cache can let netlists be garbage collected.
    """

    def __init__(self, netlist: Netlist) -> None:
        topo = netlist.topological_gates
        groups: list[GateGroup] = []
        for level, gate_type, indices in netlist.level_groups():
            gates = [topo[i] for i in indices]
            groups.append(
                GateGroup(
                    gate_type=gate_type,
                    level=level,
                    input_nets=np.array(
                        [gate.inputs for gate in gates], dtype=np.intp
                    ).T.copy(),
                    output_nets=np.array(
                        [gate.output for gate in gates], dtype=np.intp
                    ),
                    topo_indices=np.array(indices, dtype=np.intp),
                )
            )
        self._groups = tuple(groups)
        self._program = tuple(_compile_group_step(group) for group in groups)
        # (input nets, output net, topological index) of every gate, in
        # schedule order: the per-gate regime of the arrival recurrence.
        self._arrival_gates = tuple(
            (
                tuple(int(net) for net in group.input_nets[:, j]),
                int(group.output_nets[j]),
                int(group.topo_indices[j]),
            )
            for group in groups
            for j in range(group.output_nets.size)
        )
        self._net_count = netlist.net_count
        self._gate_count = len(topo)
        self._depth = netlist.logic_depth
        self._gate_output_nets = np.array(
            [gate.output for gate in topo], dtype=np.intp
        )
        self._input_nets = np.array(netlist.input_nets, dtype=np.intp)
        self._output_nets = np.array(netlist.output_nets, dtype=np.intp)
        driven = list(netlist.primary_inputs.values()) + [g.output for g in topo]
        self._driven_nets = tuple(dict.fromkeys(driven))
        type_indices: dict[GateType, list[int]] = {}
        for group in groups:
            type_indices.setdefault(group.gate_type, []).extend(
                group.topo_indices.tolist()
            )
        self._type_indices = {
            gate_type: np.array(indices, dtype=np.intp)
            for gate_type, indices in sorted(
                type_indices.items(), key=lambda item: item[0].value
            )
        }

    # -- structural accessors -------------------------------------------------

    @property
    def groups(self) -> tuple[GateGroup, ...]:
        """Evaluation groups in schedule (level, then type) order."""
        return self._groups

    @property
    def net_count(self) -> int:
        """Number of nets in the compiled netlist."""
        return self._net_count

    @property
    def gate_count(self) -> int:
        """Number of gates in the compiled netlist."""
        return self._gate_count

    @property
    def depth(self) -> int:
        """Maximum number of gates on any input-to-output path."""
        return self._depth

    @property
    def gate_output_nets(self) -> np.ndarray:
        """Output net of each gate, indexed like ``topological_gates``."""
        return self._gate_output_nets

    @property
    def driven_nets(self) -> tuple[int, ...]:
        """Nets with a driver (primary inputs first, then gate outputs)."""
        return self._driven_nets

    @property
    def type_indices(self) -> dict[GateType, np.ndarray]:
        """Topological gate indices grouped per cell type."""
        return self._type_indices

    # -- evaluation kernels ----------------------------------------------------

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """Settle all gate outputs in-place over a full value array.

        ``values`` has shape ``(net_count, ...)`` with primary-input rows
        already filled.  The dtype may be ``bool`` (one stimulus vector per
        element) or ``uint64`` (64 packed vectors per element); the gate
        functions only use bitwise operations so both behave identically.
        Multi-gate groups dispatch one vectorised bitwise op through
        :data:`~repro.circuits.cells.GATE_WORD_FUNCTIONS`; one-gate groups
        (serial structures such as a ripple carry chain) run pre-compiled
        in-place kernels.
        """
        for step in self._program:
            step(values)
        return values

    def evaluate_forced(
        self, values: np.ndarray, forced: Mapping[int, bool]
    ) -> np.ndarray:
        """Settle all gate outputs with selected nets forced to constants.

        ``forced`` maps net ids to stuck values; a forced net keeps its
        constant regardless of what its driver computes, which models a
        stuck-at fault at that net.  Works on the same value-array layouts as
        :meth:`evaluate` (``bool`` rows or bit-packed ``uint64`` rows --
        padding bits of a forced packed row are junk, like every packed tail).
        """
        if not forced:
            return self.evaluate(values)
        one = (
            np.iinfo(np.uint64).max
            if values.dtype == np.uint64
            else values.dtype.type(True)
        )
        zero = values.dtype.type(0)
        for net, value in forced.items():
            values[net] = one if value else zero
        for step, group in zip(self._program, self._groups):
            step(values)
            for net in group.output_nets:
                stuck = forced.get(int(net))
                if stuck is not None:
                    values[net] = one if stuck else zero
        return values

    def arrival_pass(
        self, changed: np.ndarray, gate_delays: np.ndarray
    ) -> np.ndarray:
        """Data-dependent arrival time of every net for a batch of vectors.

        Parameters
        ----------
        changed:
            Boolean toggle mask per net, shape ``(net_count, n_vectors)``,
            with primary-input rows filled.
        gate_delays:
            Per-gate delays in seconds, indexed like ``topological_gates``.

        A net that does not toggle has arrival 0; a toggling net settles one
        gate delay after its latest *toggling* input -- the same recurrence as
        the legacy per-gate loop.  This is the one-instance case of
        :meth:`batched_arrival_pass`.
        """
        delays = np.asarray(gate_delays, dtype=float)[None, :]
        return self.batched_arrival_pass(changed, delays)[:, 0, :]

    def batched_arrival_pass(
        self, changed: np.ndarray, gate_delay_matrix: np.ndarray
    ) -> np.ndarray:
        """Arrival times for a *batch* of per-gate delay assignments.

        The Monte Carlo variation subsystem evaluates many sampled delay
        instances of one netlist against one toggle mask; the instance axis
        rides along every row, so a whole batch costs one schedule walk, not
        a Python loop over instances.

        Every arrival row is 0 wherever its net did not toggle (the array
        starts zeroed and each output row is zeroed where quiet), so a
        gate's input arrival is simply the maximum of its input rows -- no
        input-side toggle mask is needed.  The recurrence runs in one of two
        regimes, split by :data:`_GROUP_LOOP_THRESHOLD` on the payload of a
        net row (``n_instances * n_vectors`` elements):

        * below it, each group is evaluated at once on gathered
          ``(arity, gates, instances, vectors)`` blocks;
        * at or above it, gate by gate in place: the maximum of the input
          rows is written straight into the output row, the gate delay is
          added in place and the quiet elements are zeroed by multiplying
          with the toggle mask, so no group-sized temporaries are built.

        Both regimes perform the same float operations (an exact maximum,
        one addition), so they agree bit for bit.

        Parameters
        ----------
        changed:
            Boolean toggle mask per net, shape ``(net_count, n_vectors)`` --
            variation-independent (delays never change logic values).
        gate_delay_matrix:
            Per-instance per-gate delays in seconds, shape
            ``(n_instances, gate_count)``; finite and non-negative.

        Returns
        -------
        Arrival times of shape ``(net_count, n_instances, n_vectors)``.
        """
        delays = np.asarray(gate_delay_matrix, dtype=float)
        if delays.ndim != 2 or delays.shape[1] != self._gate_count:
            raise ValueError(
                "gate_delay_matrix must have shape (n_instances, "
                f"{self._gate_count}); got {delays.shape}"
            )
        if not np.all(np.isfinite(delays) & (delays >= 0.0)):
            raise ValueError("gate delays must be finite and non-negative")
        n_instances = delays.shape[0]
        arrival = np.zeros(
            (changed.shape[0], n_instances, changed.shape[1]), dtype=float
        )
        if n_instances * changed.shape[1] >= _GROUP_LOOP_THRESHOLD:
            # (gate_count, n_instances, 1): one delay column per gate.
            columns = np.ascontiguousarray(delays.T)[:, :, None]
            for pins, output, index in self._arrival_gates:
                row = arrival[output]
                if len(pins) == 1:
                    np.copyto(row, arrival[pins[0]])
                else:
                    np.maximum(arrival[pins[0]], arrival[pins[1]], out=row)
                    for pin in pins[2:]:
                        np.maximum(row, arrival[pin], out=row)
                row += columns[index]
                # Delays are finite and non-negative, so multiplying by the
                # toggle mask is exact: x * 1.0 == x and x * 0.0 == +0.0.
                np.multiply(row, changed[output], out=row)
        else:
            for group in self._groups:
                input_arrival = arrival[group.input_nets].max(axis=0)
                group_delays = delays[:, group.topo_indices].T[:, :, None]
                arrival[group.output_nets] = np.where(
                    changed[group.output_nets][:, None, :],
                    input_arrival + group_delays,
                    0.0,
                )
        return arrival

    def static_arrival_pass(self, gate_delays: np.ndarray) -> np.ndarray:
        """Topological (worst-case) arrival time of every net, in seconds."""
        arrival = np.zeros(self._net_count, dtype=float)
        for group in self._groups:
            input_arrival = arrival[group.input_nets].max(axis=0)
            arrival[group.output_nets] = (
                input_arrival + gate_delays[group.topo_indices]
            )
        return arrival


_PLAN_CACHE: "weakref.WeakKeyDictionary[Netlist, CompiledNetlistPlan]" = (
    weakref.WeakKeyDictionary()
)


def compile_plan(netlist: Netlist) -> CompiledNetlistPlan:
    """Compile (or fetch the cached) evaluation plan of a netlist."""
    plan = _PLAN_CACHE.get(netlist)
    if plan is None:
        plan = CompiledNetlistPlan(netlist)
        _PLAN_CACHE[netlist] = plan
    return plan


# ---------------------------------------------------------------------------
# Per-netlist electrical metadata and per-(vdd, vbb) annotation
# ---------------------------------------------------------------------------


_PER_LIBRARY_CACHE: (
    "weakref.WeakKeyDictionary[Netlist, weakref.WeakKeyDictionary[StandardCellLibrary, dict[str, np.ndarray]]]"
) = weakref.WeakKeyDictionary()


def _per_library(netlist: Netlist, library: StandardCellLibrary) -> dict:
    """Weakly keyed ``(netlist, library)`` slot of the metadata cache."""
    per_library = _PER_LIBRARY_CACHE.get(netlist)
    if per_library is None:
        per_library = weakref.WeakKeyDictionary()
        _PER_LIBRARY_CACHE[netlist] = per_library
    return per_library.setdefault(library, {})


def net_loads(netlist: Netlist, library: StandardCellLibrary) -> np.ndarray:
    """Capacitive load on every net (fanin gate caps + wire + register load).

    Computed once per ``(netlist, library)`` pair and cached weakly -- the
    legacy flow recomputed this for every operating point of a sweep.
    """
    slot = _per_library(netlist, library)
    loads = slot.get("net_loads")
    if loads is None:
        tech = library.technology
        loads = np.zeros(netlist.net_count, dtype=float)
        for gate in netlist.gates:
            pin_cap = library.input_capacitance(gate.gate_type.value)
            for net in gate.inputs:
                loads[net] += pin_cap + tech.wire_capacitance_per_fanout
        register_cap = library.input_capacitance(OUTPUT_REGISTER_LOAD_CELL)
        for net in netlist.output_nets:
            loads[net] += register_cap + tech.wire_capacitance_per_fanout
        # A gate must at least drive its own parasitic output capacitance.
        loads += tech.parasitic_capacitance
        loads.setflags(write=False)
        slot["net_loads"] = loads
    return loads


def unit_gate_delays(netlist: Netlist, library: StandardCellLibrary) -> np.ndarray:
    """Delay of every gate in units of ``tau``: ``g_i = p + LE * h``.

    ``p`` is the cell's parasitic delay, ``LE`` its logical effort and ``h``
    its electrical effort (load over own input capacitance and drive), all
    independent of the operating point.  Indexed like
    ``topological_gates``, cached per ``(netlist, library)`` and read-only.
    This is the one definition of the bracket of
    ``StandardCellLibrary.cell_delay``: :func:`annotation_arrays` multiplies
    it by ``tau(vdd, vbb)``, so per-point delays are ``tau * g`` bit for bit.
    """
    slot = _per_library(netlist, library)
    units = slot.get("unit_gate_delays")
    if units is None:
        plan = compile_plan(netlist)
        loads = net_loads(netlist, library)
        tech = library.technology
        units = np.empty(plan.gate_count, dtype=float)
        for gate_type, indices in plan.type_indices.items():
            cell = library.cell(gate_type.value)
            own_input_cap = cell.input_capacitance_factor * tech.gate_capacitance
            electrical_effort = loads[plan.gate_output_nets[indices]] / (
                own_input_cap * cell.drive_strength
            )
            units[indices] = (
                cell.parasitic_delay + cell.logical_effort * electrical_effort
            )
        units.setflags(write=False)
        slot["unit_gate_delays"] = units
    return units


def annotation_arrays(
    netlist: Netlist,
    vdd: float,
    vbb: float,
    library: StandardCellLibrary = DEFAULT_LIBRARY,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Gate delays, switch energies, leakage power and critical path.

    Vectorised per cell type, but through the exact float expressions of
    ``StandardCellLibrary.cell_delay`` -- ``tau * (p + LE * h)``, with the
    bracket from :func:`unit_gate_delays` -- so every per-gate delay is
    bit-identical with the legacy per-gate annotation loop.
    """
    plan = compile_plan(netlist)
    tau = library.delay_model(vdd, vbb).tau
    delays = tau * unit_gate_delays(netlist, library)
    energies = np.empty(plan.gate_count, dtype=float)
    leakage_per_type: dict[GateType, float] = {}
    for gate_type, indices in plan.type_indices.items():
        energies[indices] = library.cell_switching_energy(gate_type.value, vdd)
        leakage_per_type[gate_type] = library.cell_leakage_power(
            gate_type.value, vdd, vbb
        )
    # Accumulate leakage gate by gate in topological order -- the same float
    # summation the per-gate annotation loop performed, so the total is
    # bit-identical with it.
    leakage = 0.0
    for gate in netlist.topological_gates:
        leakage += leakage_per_type[gate.gate_type]
    arrival = plan.static_arrival_pass(delays)
    output_nets = np.array(netlist.output_nets, dtype=np.intp)
    critical = float(arrival[output_nets].max()) if output_nets.size else 0.0
    return delays, energies, leakage, critical


def gate_leakage_powers(
    netlist: Netlist,
    vdd: float,
    vbb: float,
    library: StandardCellLibrary = DEFAULT_LIBRARY,
) -> np.ndarray:
    """Static power in watts of each gate, indexed like ``topological_gates``.

    :func:`annotation_arrays` only needs the netlist *total*; the variation
    subsystem scales each gate's leakage by its sampled mismatch before
    summing, so it needs the per-gate array.  Summing this array gate by gate
    in topological order reproduces the annotation total exactly.
    """
    plan = compile_plan(netlist)
    powers = np.empty(plan.gate_count, dtype=float)
    for gate_type, indices in plan.type_indices.items():
        powers[indices] = library.cell_leakage_power(gate_type.value, vdd, vbb)
    return powers


# ---------------------------------------------------------------------------
# Functional (zero-delay) evaluation entry points
# ---------------------------------------------------------------------------


def evaluate_values(
    netlist: Netlist, bound_inputs: Mapping[int, np.ndarray]
) -> np.ndarray:
    """Settled boolean value of every net for bound primary-input arrays.

    ``bound_inputs`` maps input net ids to boolean arrays of one common shape
    ``S``; the result has shape ``(net_count, *S)``.
    """
    plan = compile_plan(netlist)
    sample = next(iter(bound_inputs.values()))
    values = np.zeros((plan.net_count,) + np.shape(sample), dtype=bool)
    for net, array in bound_inputs.items():
        values[net] = array
    return plan.evaluate(values)


def pack_bound_inputs(
    net_count: int, bound_inputs: Mapping[int, np.ndarray]
) -> tuple[np.ndarray, int]:
    """Bit-packed value matrix with the primary-input rows filled.

    Returns ``(words, n_vectors)`` where ``words`` has shape
    ``(net_count, n_words)`` -- 64 stimulus vectors per ``uint64`` word, all
    undriven rows zero.  Each port is packed straight into its row of the
    word matrix: no stacked boolean intermediate, one packbits pass per
    input array.  This is the single definition of the packed input layout;
    every packed evaluation (golden, fault-forced) must build on it.
    """
    sample = next(iter(bound_inputs.values()))
    n_vectors = int(np.shape(sample)[0])
    n_words = (n_vectors + WORD_BITS - 1) // WORD_BITS
    words = np.zeros((net_count, n_words), dtype=np.uint64)
    byte_rows = words.view(np.uint8)
    for net, array in bound_inputs.items():
        packed = np.packbits(
            np.ascontiguousarray(array, dtype=bool), bitorder="little"
        )
        byte_rows[net, : packed.size] = packed
    return words, n_vectors


def evaluate_packed(
    netlist: Netlist, bound_inputs: Mapping[int, np.ndarray]
) -> tuple[np.ndarray, int]:
    """Bit-packed settled values of every net for 1-D bound input arrays.

    Returns ``(words, n_vectors)`` where ``words`` has shape
    ``(net_count, n_words)`` -- 64 stimulus vectors per ``uint64`` word.
    """
    plan = compile_plan(netlist)
    words, n_vectors = pack_bound_inputs(plan.net_count, bound_inputs)
    return plan.evaluate(words), n_vectors

