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
  batches and gate by gate, in place, on a pool of live rows (not one row
  per net) for large ones, one fixed-byte block of vectors at a time
  (:data:`_ARRIVAL_BLOCK_BYTES`), handing each block's read rows to the
  caller as it lands,
* per-netlist metadata (capacitive net loads, unit gate delays, level
  structure) and the per-operating-point timing annotation are computed
  once and shared by every simulation that follows.

Caching contract
----------------
* keyed on the **netlist** (weakly, so netlists can be garbage collected):
  the compiled plan (with its row-slot schedule per set of read nets), and
  per library the capacitive net loads and the unit gate delays ``g_i``
  (:func:`unit_gate_delays`) -- the operating-point independent factor of
  every gate delay ``tau(vdd, vbb) * g_i``;
* keyed on ``(vdd, vbb)``: gate delays / switch energies / leakage
  (:func:`annotation_arrays`), computed through the same float expressions
  and summation order as the legacy per-gate loop so annotations stay
  bit-identical with it;
* keyed on the **pattern set**: settled values, toggle masks (bit-packed,
  :class:`ToggleWords`) and the output arrival times of one unit-``tau``
  pass are cached by
  :class:`~repro.simulation.timing_sim.VosTimingSimulator`.  Every
  operating point scales that one pass by its ``tau`` (max-plus arrival
  commutes with positive scaling) and re-runs the exact per-point
  recurrence only for the few vectors whose latch decision the scaling's
  rounding could flip.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.circuits.cells import GATE_WORD_FUNCTIONS, GateType
from repro.circuits.netlist import Netlist
from repro.obs.trace import NULL_SPAN
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


@dataclasses.dataclass(frozen=True)
class ToggleWords:
    """Bit-packed toggle masks of every net, 64 vectors per ``uint64`` word.

    What a stimulus record holds instead of a ``(nets, vectors)`` boolean
    matrix, at an eighth of its bytes: ``words[net]`` is
    :func:`pack_vectors` of the net's toggles (``new_words ^ old_words`` of
    two packed evaluations).  The passes unpack one block of vectors at a
    time (:meth:`block`), a recheck gathers single vectors (:meth:`columns`).
    """

    words: np.ndarray
    n_vectors: int

    @classmethod
    def pack(cls, changed: np.ndarray) -> "ToggleWords":
        """Packed form of a boolean ``(nets, vectors)`` toggle mask."""
        return cls(pack_vectors(changed), np.shape(changed)[1])

    @property
    def shape(self) -> tuple[int, int]:
        """``(nets, vectors)``, the shape of the unpacked masks."""
        return (self.words.shape[0], self.n_vectors)

    def block(self, start: int, stop: int, nets: Any = slice(None)) -> np.ndarray:
        """Boolean masks of vectors ``start:stop`` of the ``nets`` rows.

        ``start`` must be a multiple of 64: a block begins at a word.
        """
        if start % WORD_BITS:
            raise ValueError(f"block start {start} is not a multiple of {WORD_BITS}")
        words = self.words[nets, start // WORD_BITS : -(-stop // WORD_BITS)]
        return unpack_vectors(words, stop - start)

    def columns(self, vectors: np.ndarray) -> np.ndarray:
        """Boolean masks of the given vectors, shape ``(nets, len(vectors))``."""
        vectors = np.asarray(vectors, dtype=np.intp)
        bits = self.words[:, vectors // WORD_BITS]
        bits >>= (vectors % WORD_BITS).astype(np.uint64)
        bits &= np.uint64(1)
        return bits.astype(bool)


def _toggle_words(changed: "np.ndarray | ToggleWords") -> ToggleWords:
    """``changed`` as :class:`ToggleWords`; a boolean matrix is packed."""
    return changed if isinstance(changed, ToggleWords) else ToggleWords.pack(changed)


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

#: Bytes of the live-row buffer of one block of the per-gate arrival
#: recurrence (:meth:`CompiledNetlistPlan.arrival_blocks`): the pass walks
#: the vectors in blocks of as many as fit, so its memory stays fixed
#: however long the stream or large the instance batch.
_ARRIVAL_BLOCK_BYTES = 6 << 20


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


@dataclasses.dataclass(frozen=True)
class _RowSchedule:
    """Live-row slots of the per-gate arrival recurrence for some read nets.

    Attributes
    ----------
    rows:
        Peak number of live rows, the shared zero row included.
    gates:
        ``(input slots, output slot, topological index, output net)`` of
        every gate, in schedule order.
    read_slots:
        The slot holding each read net at the end of the pass.
    """

    rows: int
    gates: tuple[tuple[tuple[int, ...], int, int, int], ...]
    read_slots: np.ndarray


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
        self._row_schedules: dict[tuple[int, ...], _RowSchedule] = {}
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

    def live_rows(self, nets: Sequence[int]) -> int:
        """Rows of the per-gate regime's arrival buffer for the read ``nets``.

        The peak slot count of :meth:`_row_schedule`; below
        :data:`_GROUP_LOOP_THRESHOLD` the gathered regime holds every net
        instead.  A pass reports the rows it actually allocated on its
        ``pass_span``.
        """
        return self._row_schedule(nets).rows

    def block_vectors(self, nets: Sequence[int], n_instances: int) -> int:
        """Vectors per block of the per-gate regime for the read ``nets``.

        As many as fit ``(live_rows, n_instances, block)`` float64 into
        :data:`_ARRIVAL_BLOCK_BYTES`, rounded down to whole packed words,
        but never fewer than keep a block's payload (``n_instances`` times
        its vectors) at :data:`_GROUP_LOOP_THRESHOLD`.  A stream shorter
        than this is one block of its own length.
        """
        per_vector = self._row_schedule(nets).rows * n_instances * 8
        fitted = _ARRIVAL_BLOCK_BYTES // per_vector // WORD_BITS * WORD_BITS
        least = -(-_GROUP_LOOP_THRESHOLD // n_instances)
        return max(fitted, -(-least // WORD_BITS) * WORD_BITS)

    def _row_schedule(self, nets: Sequence[int]) -> "_RowSchedule":
        """The row-slot schedule of the per-gate regime for the read ``nets``.

        Computed once per plan and set of read nets.  Every net without a
        driving gate (primary inputs) has arrival 0 and reads slot 0, one
        shared zero row.  Each gate output takes a free slot when it is
        computed -- before its inputs are released, so an output never
        aliases its own input rows -- and frees it after the net's last
        consumer; a read net keeps its slot to the end of the pass.  A gate
        reads and writes the same values as on a full net array, so the
        slots change no float operation.
        """
        key = tuple(int(net) for net in nets)
        schedule = self._row_schedules.get(key)
        if schedule is not None:
            return schedule
        read = set(key)
        last_use: dict[int, int] = {}
        for position, (pins, _, _) in enumerate(self._arrival_gates):
            for pin in pins:
                last_use[pin] = position
        slot_of: dict[int, int] = {}
        free: list[int] = []
        rows = 1  # slot 0: the shared zero row
        gates = []
        for position, (pins, output, index) in enumerate(self._arrival_gates):
            if free:
                slot = free.pop()
            else:
                slot, rows = rows, rows + 1
            gates.append(
                (tuple(slot_of.get(pin, 0) for pin in pins), slot, index, output)
            )
            slot_of[output] = slot
            for pin in dict.fromkeys(pins):
                if pin in slot_of and pin not in read and last_use[pin] == position:
                    free.append(slot_of[pin])
            if output not in read and output not in last_use:
                free.append(slot)
        schedule = _RowSchedule(
            rows=rows,
            gates=tuple(gates),
            read_slots=np.array([slot_of.get(net, 0) for net in key], dtype=np.intp),
        )
        self._row_schedules[key] = schedule
        return schedule

    def arrival_blocks(
        self,
        changed: "np.ndarray | ToggleWords",
        gate_delay_matrix: np.ndarray,
        nets: Sequence[int],
        pass_span: Any = NULL_SPAN,
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Arrival times of the read ``nets``, one block of vectors at a time.

        Yields ``(start, rows, slots)``: ``rows[slots[k]]`` is the arrival
        of ``nets[k]`` over vectors ``start:start + rows.shape[-1]``, shape
        ``(n_instances, block)``.  ``rows`` is the pass's own buffer, valid
        until the next block; a caller copies or reduces what it reads.

        Every arrival row is 0 wherever its net did not toggle (each output
        row is zeroed where quiet, and undriven nets read one zero row), so
        a gate's input arrival is simply the maximum of its input rows -- no
        input-side toggle mask is needed.  The recurrence runs in one of two
        regimes, split by :data:`_GROUP_LOOP_THRESHOLD` on the payload of a
        net row (``n_instances * n_vectors`` elements):

        * below it, in one block, each group evaluated at once on gathered
          ``(arity, gates, instances, vectors)`` blocks of a full net array;
        * at or above it, in blocks of :meth:`block_vectors` vectors (each
          starting at a packed word, the last one shorter), gate by gate in
          place on the live-row slots of :meth:`_row_schedule`
          (:meth:`live_rows` of them, not one per net), reusing one
          ``(live_rows, n_instances, block)`` buffer: the maximum of the
          input rows is written straight into the output row, the gate
          delay is added in place and the quiet elements are zeroed by
          multiplying with the block's toggle mask, so no group-sized
          temporaries are built.

        Both regimes perform the same float operations (an exact maximum,
        one addition) on each element, so they and every blocking agree
        bit for bit.  ``pass_span`` receives ``live_rows`` and
        ``block_vectors``, the shape of the buffer the pass allocated
        (every net and the whole stream in the gathered regime): its bytes
        are ``live_rows * n_instances * block_vectors * 8``.
        """
        delays = np.asarray(gate_delay_matrix, dtype=float)
        if delays.ndim != 2 or delays.shape[1] != self._gate_count:
            raise ValueError(
                "gate_delay_matrix must have shape (n_instances, "
                f"{self._gate_count}); got {delays.shape}"
            )
        if not np.all(np.isfinite(delays) & (delays >= 0.0)):
            raise ValueError("gate delays must be finite and non-negative")
        return self._arrival_blocks(_toggle_words(changed), delays, nets, pass_span)

    def _arrival_blocks(
        self,
        toggles: ToggleWords,
        delays: np.ndarray,
        nets: Sequence[int],
        pass_span: Any,
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """The blocks of :meth:`arrival_blocks`, on checked arguments."""
        n_instances, n_vectors = delays.shape[0], toggles.n_vectors
        if n_instances * n_vectors < _GROUP_LOOP_THRESHOLD:
            mask = toggles.block(0, n_vectors)
            arrival = np.zeros((mask.shape[0], n_instances, n_vectors), dtype=float)
            pass_span.set(live_rows=arrival.shape[0], block_vectors=n_vectors)
            for group in self._groups:
                input_arrival = arrival[group.input_nets].max(axis=0)
                group_delays = delays[:, group.topo_indices].T[:, :, None]
                arrival[group.output_nets] = np.where(
                    mask[group.output_nets][:, None, :],
                    input_arrival + group_delays,
                    0.0,
                )
            yield 0, arrival, np.array(nets, dtype=np.intp)
            return
        schedule = self._row_schedule(nets)
        block = min(self.block_vectors(nets, n_instances), n_vectors)
        buffer = np.zeros((schedule.rows, n_instances, block), dtype=float)
        pass_span.set(live_rows=schedule.rows, block_vectors=block)
        # (gate_count, n_instances, 1): one delay column per gate.
        columns = np.ascontiguousarray(delays.T)[:, :, None]
        for start in range(0, n_vectors, block):
            stop = min(start + block, n_vectors)
            mask = toggles.block(start, stop)
            rows = buffer[:, :, : stop - start]
            slots = list(rows)
            for pins, slot, index, output in schedule.gates:
                row = slots[slot]
                if len(pins) == 1:
                    np.copyto(row, slots[pins[0]])
                else:
                    np.maximum(slots[pins[0]], slots[pins[1]], out=row)
                    for pin in pins[2:]:
                        np.maximum(row, slots[pin], out=row)
                row += columns[index]
                # Delays are finite and non-negative, so multiplying by the
                # toggle mask is exact: x * 1.0 == x and x * 0.0 == +0.0.
                np.multiply(row, mask[output], out=row)
            yield start, rows, schedule.read_slots

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


def bind_inputs(
    netlist: Netlist, inputs: Mapping[str, np.ndarray]
) -> dict[int, np.ndarray]:
    """Boolean primary-input arrays keyed by input net id.

    The one input-binding rule of every simulator: ``inputs`` must name
    exactly the netlist's primary input ports -- a missing or an unknown
    port is a ``ValueError`` -- and every array must have the same shape.
    """
    expected = netlist.primary_inputs
    missing = set(expected) - set(inputs)
    if missing:
        raise ValueError(f"missing values for primary inputs: {sorted(missing)}")
    unknown = set(inputs) - set(expected)
    if unknown:
        raise ValueError(f"unknown primary inputs: {sorted(unknown)}")
    bound = {
        net: np.asarray(inputs[port], dtype=bool) for port, net in expected.items()
    }
    shapes = {array.shape for array in bound.values()}
    if len(shapes) > 1:
        raise ValueError(f"primary input arrays have inconsistent shapes: {shapes}")
    return bound


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

