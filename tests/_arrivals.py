"""Whole-stream arrival rows, from the engine's blocks and from an oracle.

:meth:`repro.simulation.engine.CompiledNetlistPlan.arrival_blocks` hands a
caller the arrival rows of the nets it reads one block of vectors at a
time, and every production pass reduces each block as it lands.  The
parity tests compare whole streams instead: :func:`arrival_rows` copies the
blocks into one array, and :func:`unblocked_arrivals` computes the same rows
with no slot schedule and no blocks.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.circuits.netlist import Netlist
from repro.obs.trace import NULL_SPAN
from repro.simulation.engine import CompiledNetlistPlan


def arrival_rows(
    plan: CompiledNetlistPlan,
    changed: Any,
    gate_delays: np.ndarray,
    nets: Sequence[int],
    pass_span: Any = NULL_SPAN,
) -> np.ndarray:
    """Arrival times of the read ``nets`` over the whole stream.

    ``changed``, ``nets`` and ``pass_span`` are as in
    :meth:`~repro.simulation.engine.CompiledNetlistPlan.arrival_blocks`.
    ``gate_delays`` is one instance's per-gate delays, shape
    ``(gate_count,)``, giving rows of shape ``(len(nets), n_vectors)``, or
    a ``(n_instances, gate_count)`` batch, giving ``(len(nets),
    n_instances, n_vectors)``.
    """
    delays = np.asarray(gate_delays, dtype=float)
    matrix = delays[None, :] if delays.ndim == 1 else delays
    arrival = np.empty((len(nets), matrix.shape[0], changed.shape[1]))
    for start, rows, slots in plan.arrival_blocks(changed, matrix, nets, pass_span):
        block = arrival[:, :, start : start + rows.shape[-1]]
        for read, slot in enumerate(slots):
            block[read] = rows[slot]
    return arrival[:, 0, :] if delays.ndim == 1 else arrival


def unblocked_arrivals(
    netlist: Netlist, changed: np.ndarray, delays: np.ndarray, nets: Sequence[int]
) -> Iterator[tuple[slice, np.ndarray]]:
    """Arrival rows of the read ``nets``, unblocked, a few instances at a time.

    ``changed`` is the boolean ``(net_count, vectors)`` toggle mask and
    ``delays`` the ``(instances, gate_count)`` delay matrix.  Yields
    ``(instances, rows)`` with ``rows`` of shape ``(len(nets),
    len(instances), vectors)``: gate by gate in topological order over a
    full ``(nets, instances, vectors)`` array of the whole stream, a quiet
    net arrives at 0 and a toggling one a gate delay after its latest input
    -- the same float operations as the engine, with no slot schedule and
    no blocks.
    """
    n_instances, n_vectors = delays.shape[0], changed.shape[1]
    step = max(1, 4_000_000 // (netlist.net_count * n_vectors))
    for first in range(0, n_instances, step):
        batch = delays[first : first + step]
        arrival = np.zeros((netlist.net_count, batch.shape[0], n_vectors))
        for index, gate in enumerate(netlist.topological_gates):
            latest = arrival[list(gate.inputs)].max(axis=0)
            arrival[gate.output] = np.where(
                changed[gate.output], latest + batch[:, index, None], 0.0
            )
        yield slice(first, first + batch.shape[0]), arrival[list(nets)]
