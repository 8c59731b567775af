"""Vectorised data-dependent timing simulation under voltage over-scaling.

This is the core of the SPICE substitution.  For a batch of consecutive
input-vector pairs ``(previous, current)`` the simulator propagates, level by
level on the compiled engine plan:

* the settled value under the *previous* operands (the state the circuit has
  relaxed to before the new operands arrive),
* the settled value under the *current* operands,
* the arrival time of the current value: a net that does not change has
  arrival 0; a net that changes settles one gate delay after the latest
  changing input it depends on.

Primary outputs whose arrival time exceeds the clock period latch the stale
(previous) value -- exactly the timing-error mechanism the paper provokes by
scaling the supply voltage: the longest *sensitised* path fails first, which
for adders means long actual carry-propagation chains.

Energy is accounted per vector: every net toggle contributes one CV^2
switching event at the gate driving it, and sub-threshold leakage integrates
over the clock period.

Sweep-level result reuse
------------------------
Everything except the final latch comparison is independent of some part of
the operating triad, and the simulator caches accordingly:

* settled values and toggle masks depend only on the **pattern set**
  (they are computed once per stimulus, via the bit-packed engine mode),
* so does the float64 toggle matrix of the gate outputs, the operand of the
  dynamic-energy reduction ``gate_switch_energies @ toggles``: it is cast
  once per stimulus, on the first arrival pass that needs it, and reused at
  every operating point and by the variation passes.  At 77 MB for a 32-bit
  Kogge-Stone adder at 20k vectors it is the largest cached array, so a
  simulator holds the matrix of one stimulus at a time,
* so do the output arrival times, up to one factor: every gate delay is
  ``tau(vdd, vbb) * g_i`` with ``g_i`` independent of the operating point
  (:func:`~repro.simulation.engine.unit_gate_delays`), and max-plus arrival
  commutes with positive scaling.  One **unit-tau** arrival pass per
  stimulus therefore serves every operating point, which scales its output
  arrivals by the point's ``tau``.  The few vectors whose scaled arrival
  lies within the scaling's rounding bound of a clock are re-run through
  the exact per-point recurrence, so every latch decision is the one a
  per-point pass would make (see :meth:`VosTimingSimulator._latch`),
* per-vector dynamic energy depends on the supply only and is held for the
  latest ``(stimulus, vdd)`` pair,
* only the latch and the leakage integral depend on ``tclk``.  A quiet
  net's arrival is 0, so only toggled outputs can be late and the latch
  ``where(arrival <= tclk, settled, stale)`` is the exact bitwise flip
  ``settled ^ (arrival > tclk)``.  It runs on per-vector int64 output
  words: rounding is monotone, so ``tau`` times the per-vector maximum of
  the unit arrivals (cached with them) is the maximum of the scaled
  arrivals, and only the vectors whose maximum reaches the clock's
  rounding band are scaled and flipped at all.

A triad-grid sweep (the paper's Fig. 4 flow: four clocks x seven supplies x
body biases over one 4k-20k-vector pattern set) therefore performs one
arrival pass per pattern set instead of one per ``(vdd, vbb)`` pair or per
triad.  Monte Carlo passes are the exception: their sampled delay
multipliers depend on the operating point, so they keep one batched pass
per ``(vdd, vbb)``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from collections import OrderedDict
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.circuits.netlist import Netlist
from repro.circuits.signals import bits_to_int, int_to_bits
from repro.obs.trace import span
from repro.simulation import engine
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary

#: Bounded stimulus cache size (entries are full per-vector arrays).
_STIMULUS_CACHE_SIZE = 4

#: Machine epsilon of the float64 arrival arithmetic.
_EPS = float(np.finfo(np.float64).eps)


@dataclasses.dataclass(frozen=True)
class TimingAnnotation:
    """Per-gate delays and energies of a netlist at one operating point.

    Attributes
    ----------
    vdd, vbb:
        Operating voltages the annotation was computed for.
    gate_delays:
        Delay in seconds of each gate, indexed like
        ``netlist.topological_gates``.
    gate_switch_energies:
        Dynamic energy in joules of one output toggle of each gate.
    leakage_power:
        Total static power of the netlist in watts.
    critical_path_delay:
        Static (topological) critical path of the netlist in seconds --
        an upper bound on any data-dependent arrival time.
    tau:
        Technology time constant at the operating point in seconds:
        ``gate_delays == tau * engine.unit_gate_delays(...)`` bit for bit.
    """

    vdd: float
    vbb: float
    gate_delays: np.ndarray
    gate_switch_energies: np.ndarray
    leakage_power: float
    critical_path_delay: float
    tau: float

    @classmethod
    def annotate(
        cls,
        netlist: Netlist,
        vdd: float,
        vbb: float,
        library: StandardCellLibrary = DEFAULT_LIBRARY,
    ) -> "TimingAnnotation":
        """Compute delays/energies of every gate at the operating point.

        Delegates to :func:`repro.simulation.engine.annotation_arrays`, which
        vectorises the per-cell-type delay/energy queries and reuses the
        per-netlist capacitive loads across operating points.
        """
        delays, energies, leakage, critical = engine.annotation_arrays(
            netlist, vdd, vbb, library
        )
        return cls(
            vdd=vdd,
            vbb=vbb,
            gate_delays=delays,
            gate_switch_energies=energies,
            leakage_power=leakage,
            critical_path_delay=critical,
            tau=library.delay_model(vdd, vbb).tau,
        )


@dataclasses.dataclass(frozen=True)
class _StimulusRecord:
    """Triad-independent state of one pattern set (cached per simulator).

    ``changed`` holds the toggle mask of every net -- the sensitisation
    information all arrival/energy computations run on; settled bits and
    words are kept for the observed outputs only.  A stale output bit is
    ``settled ^ changed``.
    """

    key: bytes
    n_vectors: int
    changed: np.ndarray
    settled_bits: np.ndarray
    settled_words: np.ndarray


@dataclasses.dataclass(frozen=True)
class VosSimulationResult:
    """Result of a VOS timing simulation over a batch of vectors.

    Attributes
    ----------
    latched_words:
        Per-vector int64 words captured by the output register at the end
        of each cycle (output bit ``i`` is word bit ``i``).
    settled_words:
        The error-free settled output words for the same vectors.
    n_outputs:
        Number of observed output bits.
    dynamic_energy:
        Per-vector dynamic energy in joules, shape ``(n_vectors,)``.
    static_energy:
        Per-vector leakage energy in joules (leakage power * Tclk).
    tclk:
        Clock period used for latching, in seconds.
    arrival_pass:
        Zero-argument callable returning :attr:`arrival_times`; it runs on
        first access only.
    """

    latched_words: np.ndarray
    settled_words: np.ndarray
    n_outputs: int
    dynamic_energy: np.ndarray
    static_energy: np.ndarray
    tclk: float
    arrival_pass: Callable[[], np.ndarray] = dataclasses.field(
        repr=False, compare=False
    )

    @functools.cached_property
    def arrival_times(self) -> np.ndarray:
        """Arrival time in seconds of each output bit, like ``latched_bits``.

        Read-only, and computed lazily: the latch itself does not need it,
        so a sweep that never reads it never pays for the exact per-point
        arrival pass behind it.
        """
        arrivals = self.arrival_pass()
        arrivals.setflags(write=False)
        return arrivals

    @functools.cached_property
    def latched_bits(self) -> np.ndarray:
        """Read-only ``(n_vectors, n_outputs)`` bits of :attr:`latched_words`."""
        return _read_only(int_to_bits(self.latched_words, self.n_outputs))

    @functools.cached_property
    def settled_bits(self) -> np.ndarray:
        """Read-only bit matrix of :attr:`settled_words`."""
        return _read_only(int_to_bits(self.settled_words, self.n_outputs))

    @property
    def n_vectors(self) -> int:
        """Number of simulated vectors."""
        return self.latched_words.shape[0]

    @property
    def error_bits(self) -> np.ndarray:
        """Boolean matrix of bit errors (latched != settled)."""
        return int_to_bits(self.latched_words ^ self.settled_words, self.n_outputs)

    @property
    def total_energy(self) -> np.ndarray:
        """Per-vector total (dynamic + static) energy in joules."""
        return self.dynamic_energy + self.static_energy

    @property
    def mean_energy_per_operation(self) -> float:
        """Average energy per operation in joules."""
        return float(self.total_energy.mean())


@dataclasses.dataclass(frozen=True)
class VariationErrorCounts:
    """Per-instance error counts of one clock of a variation batch.

    What :meth:`VosTimingSimulator.run_variation_counts` returns: counts,
    not latched bits.  The rates are integer counts divided by their
    base, which gives the same doubles as the mean of the corresponding
    boolean matrix (an exact integer sum divided once, correctly rounded).

    Attributes
    ----------
    bit_errors:
        Faulty latched output bits of each instance, shape ``(n_instances,)``.
    faulty_vectors:
        Vectors with at least one faulty output bit, per instance.
    n_vectors, n_outputs:
        The bases of the two counts.
    dynamic_energy:
        Per-vector dynamic energy in joules, shape ``(n_vectors,)``.
    static_energy_per_operation:
        Leakage energy per cycle of each instance in joules.
    tclk:
        Clock period used for latching, in seconds.
    """

    bit_errors: np.ndarray
    faulty_vectors: np.ndarray
    n_vectors: int
    n_outputs: int
    dynamic_energy: np.ndarray
    static_energy_per_operation: np.ndarray
    tclk: float

    @property
    def ber(self) -> np.ndarray:
        """Per-instance bit error rate over all vectors and output bits."""
        return self.bit_errors / (self.n_vectors * self.n_outputs)

    @property
    def faulty_fraction(self) -> np.ndarray:
        """Per-instance fraction of vectors with a faulty output word."""
        return self.faulty_vectors / self.n_vectors


class VosTimingSimulator:
    """Vectorised timing-error simulator for one netlist.

    Parameters
    ----------
    netlist:
        Combinational netlist to simulate.
    output_ports:
        Primary output ports to observe, LSB first.  Defaults to all primary
        outputs in declaration order.
    library:
        Standard-cell library providing delays and energies.
    """

    def __init__(
        self,
        netlist: Netlist,
        output_ports: tuple[str, ...] | None = None,
        library: StandardCellLibrary = DEFAULT_LIBRARY,
    ) -> None:
        self._netlist = netlist
        self._library = library
        self._plan = engine.compile_plan(netlist)
        all_outputs = netlist.primary_outputs
        if output_ports is None:
            output_ports = tuple(all_outputs)
        for port in output_ports:
            if port not in all_outputs:
                raise ValueError(f"unknown output port {port!r}")
        self._output_ports = output_ports
        self._output_nets = tuple(all_outputs[port] for port in output_ports)
        self._output_net_array = np.array(self._output_nets, dtype=np.intp)
        self._annotation_cache: dict[tuple[float, float], TimingAnnotation] = {}
        self._stimulus_cache: "OrderedDict[bytes, _StimulusRecord]" = OrderedDict()
        # Each held for one stimulus at a time:
        # (stimulus key, float64 gate-output toggle matrix),
        self._energy_operand: tuple[bytes, np.ndarray] | None = None
        # (stimulus key, unit-tau output arrivals (vectors, outputs), their
        # per-vector maximum),
        self._unit_arrivals: tuple[bytes, np.ndarray, np.ndarray] | None = None
        # ((stimulus key, vdd), per-vector dynamic energy).
        self._dynamic_energy: tuple[tuple[bytes, float], np.ndarray] | None = None

    @property
    def netlist(self) -> Netlist:
        """The netlist being simulated."""
        return self._netlist

    @property
    def output_ports(self) -> tuple[str, ...]:
        """Observed output ports, LSB first."""
        return self._output_ports

    def annotation(self, vdd: float, vbb: float) -> TimingAnnotation:
        """Timing annotation at an operating point (cached per simulator)."""
        key = _operating_point_key(vdd, vbb)
        if key not in self._annotation_cache:
            self._annotation_cache[key] = TimingAnnotation.annotate(
                self._netlist, vdd, vbb, self._library
            )
        return self._annotation_cache[key]

    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        tclk: float,
        vdd: float,
        vbb: float = 0.0,
        previous_inputs: Mapping[str, np.ndarray] | None = None,
    ) -> VosSimulationResult:
        """Simulate a stream of input vectors under an operating triad.

        Parameters
        ----------
        inputs:
            Mapping from primary-input port name to a boolean array of shape
            ``(n_vectors,)`` -- the vector applied at each cycle.
        tclk:
            Clock period in seconds.
        vdd, vbb:
            Supply and body-bias voltages in volts.
        previous_inputs:
            Optional explicit previous-cycle vectors.  By default the stream
            itself provides them (vector ``k-1`` precedes vector ``k``; the
            first vector's predecessor is the all-zero vector), matching how
            the paper streams 20 K patterns through the SPICE testbench.
        """
        if tclk <= 0:
            raise ValueError("tclk must be positive")
        return self._latch(self._stimulus(inputs, previous_inputs), tclk, vdd, vbb)

    def run_sweep(
        self,
        inputs: Mapping[str, np.ndarray],
        triads: Iterable,
        previous_inputs: Mapping[str, np.ndarray] | None = None,
    ) -> Iterator[VosSimulationResult]:
        """:meth:`run` under every triad of a sweep, one result at a time.

        ``triads`` is any iterable of objects with ``tclk`` / ``vdd`` /
        ``vbb`` attributes.  The stimulus is bound and fingerprinted once
        for the whole sweep instead of once per triad; each result is
        identical with the corresponding :meth:`run` call.
        """
        stimulus = None
        for triad in triads:
            if triad.tclk <= 0:
                raise ValueError("tclk must be positive")
            if stimulus is None:
                stimulus = self._stimulus(inputs, previous_inputs)
            yield self._latch(stimulus, triad.tclk, triad.vdd, triad.vbb)

    def _latch(
        self, stimulus: _StimulusRecord, tclk: float, vdd: float, vbb: float
    ) -> VosSimulationResult:
        """Latch the outputs of a resolved stimulus under one triad.

        The output arrivals are the stimulus's unit-``tau`` pass scaled by
        the point's ``tau``, yet every latch decision ``arrival <= tclk`` is
        the one the exact per-point recurrence makes.  Let ``A`` be an
        output arrival of that recurrence (gate delays ``fl(tau * g_i)``,
        one rounded addition per gate), ``S = fl(tau * U)`` the scaled unit
        arrival ``U``, ``T`` the real-number arrival both approximate and
        ``u = eps / 2``.  Along a path of ``k <= depth`` gates:

        * ``U`` is a fl-sum of ``k`` positive terms ``g_i``, within
          ``(k - 1) u`` of the true sum, and the scaling rounds once more,
          so ``S`` is within ``k u`` of ``T``;
        * ``A`` is a fl-sum of ``k`` positive terms ``fl(tau * g_i)``, each
          within ``u`` of ``tau * g_i``, so ``A`` is within ``k u`` of ``T``.

        Maxima are exact and monotone, so both bounds carry through every
        max-plus step, and ``|A - S| <= 2 depth u T = depth eps T``, which
        is at most ``(depth + 1) eps A`` once the second-order terms are
        absorbed.  Outside the band ``|S - tclk| <= (depth + 2) eps tclk``
        (one more ``eps`` trades ``A`` for ``tclk``), ``S - tclk`` and
        ``A - tclk`` therefore have the same sign and ``S`` latches as ``A``
        does.  Vectors with an output inside the band are re-run through
        the exact ``arrival_pass`` of the compiled plan with the point's
        gate delays, and latched from that.

        Only candidate vectors are scaled at all: rounding is monotone, so
        ``fl(tau * max U) == max fl(tau * U)`` and the scaled per-vector
        maximum of the unit arrivals picks every vector with an output at
        or above the band's lower edge.  Every other output is on time and
        not near the clock, and keeps its settled bit.  A quiet output's
        arrival is 0, so a late output has toggled and latching it flips
        its settled bit: ``latched = settled ^ pack(arrival > tclk)``.
        """
        annotation = self.annotation(vdd, vbb)
        unit, unit_max = self._unit_arrivals_of(stimulus)
        # The band's edges round by half an ulp of tclk, well inside the
        # spare eps of its width.
        band = (self._plan.depth + 2) * _EPS * tclk
        rows = np.flatnonzero(annotation.tau * unit_max >= tclk - band)
        latched = stimulus.settled_words
        if rows.size:
            scaled = unit[rows]
            scaled *= annotation.tau
            late = scaled > tclk
            near = np.greater_equal(scaled, tclk - band)
            near &= scaled <= tclk + band
            if near.any():
                recheck = np.flatnonzero(near.any(axis=1))
                with span("engine.pass", kind="recheck", vectors=int(recheck.size)):
                    exact = self._exact_arrivals(
                        stimulus.changed[:, rows[recheck]], annotation.gate_delays
                    )
                late[recheck] = exact > tclk
            latched = latched.copy()
            latched[rows] ^= bits_to_int(late)
            latched.setflags(write=False)
        n_vectors = stimulus.n_vectors
        static_energy = np.full(n_vectors, annotation.leakage_power * tclk)
        # The cached arrays are shared across results of a sweep; they are
        # marked read-only instead of being copied per triad.
        return VosSimulationResult(
            latched_words=latched,
            settled_words=stimulus.settled_words,
            n_outputs=len(self._output_nets),
            dynamic_energy=self._point_dynamic_energy(stimulus, annotation),
            static_energy=static_energy,
            tclk=tclk,
            arrival_pass=functools.partial(
                self._exact_arrivals, stimulus.changed, annotation.gate_delays
            ),
        )

    def run_variation_counts(
        self,
        inputs: Mapping[str, np.ndarray],
        tclks: Sequence[float],
        vdd: float,
        vbb: float,
        expected_bits: np.ndarray,
        delay_multipliers: np.ndarray | None = None,
        leakage_multipliers: np.ndarray | None = None,
    ) -> list[VariationErrorCounts]:
        """Error counts of a batch of variation instances under several clocks.

        The expensive work -- one batched arrival pass over all instances --
        depends only on ``(vdd, vbb)`` and the sampled multipliers, so one
        call evaluates every clock period of an operating-point group against
        the same arrival tensor.  Unlike the nominal path, the pass cannot be
        factored across operating points: the sampled multipliers themselves
        depend on ``(vdd, vbb)``.  Logic values are variation-independent, so
        the cached stimulus record (settled bits, toggle masks) and the
        per-supply dynamic energy are shared with nominal simulations of the
        same pattern set.

        Each clock reduces straight to the number of faulty latched bits and
        faulty vectors of every instance, compared with ``expected_bits``.
        No ``(instances, vectors, outputs)`` latched array and no transposed
        arrival copy is built: :func:`_latch_bits` yields the error matrix
        directly, on the arrival tensor in the layout the pass leaves it,
        ``(outputs, instances, vectors)``.

        Parameters
        ----------
        inputs:
            As in :meth:`run`; the stream provides its own previous vectors.
        tclks:
            Clock periods in seconds; one result is returned per entry.
        vdd, vbb:
            Operating voltages shared by the batch.
        expected_bits:
            Golden output bits, ``(n_vectors, n_outputs)``.
        delay_multipliers:
            Per-instance per-gate delay multipliers, shape
            ``(n_instances, gate_count)``; ``None`` runs one nominal
            instance.  All values must be positive.
        leakage_multipliers:
            Optional per-instance per-gate leakage-power multipliers of the
            same shape; ``None`` leaves every instance at nominal leakage.
        """
        if not tclks:
            raise ValueError("tclks must not be empty")
        if any(tclk <= 0 for tclk in tclks):
            raise ValueError("tclk must be positive")
        annotation = self.annotation(vdd, vbb)
        gate_count = annotation.gate_delays.shape[0]
        if delay_multipliers is None:
            delay_multipliers = np.ones((1, gate_count))
        multipliers = np.asarray(delay_multipliers, dtype=float)
        if multipliers.ndim != 2 or multipliers.shape[1] != gate_count:
            raise ValueError(
                "delay_multipliers must have shape (n_instances, "
                f"{gate_count}); got {multipliers.shape}"
            )
        if np.any(multipliers <= 0):
            raise ValueError("delay multipliers must be positive")
        if leakage_multipliers is None:
            leakage_power = np.full(multipliers.shape[0], annotation.leakage_power)
        else:
            leak_scale = np.asarray(leakage_multipliers, dtype=float)
            if leak_scale.shape != multipliers.shape:
                raise ValueError(
                    "leakage_multipliers must match delay_multipliers shape "
                    f"{multipliers.shape}; got {leak_scale.shape}"
                )
            per_gate = engine.gate_leakage_powers(
                self._netlist, vdd, vbb, self._library
            )
            leakage_power = leak_scale @ per_gate
        stimulus = self._stimulus(inputs, None)
        expected = np.asarray(expected_bits, dtype=bool)
        if expected.shape != stimulus.settled_bits.shape:
            raise ValueError(
                "expected_bits must have shape "
                f"{stimulus.settled_bits.shape}; got {expected.shape}"
            )

        gate_delays = annotation.gate_delays[None, :] * multipliers
        with span(
            "engine.pass",
            kind="variation",
            instances=multipliers.shape[0],
            vectors=stimulus.n_vectors,
        ):
            arrival = self._plan.batched_arrival_pass(stimulus.changed, gate_delays)
        output_arrival = arrival[self._output_net_array]
        # Free the full tensor before a first use of the stimulus casts its
        # toggle matrix, so the two never coexist.
        del arrival
        dynamic_energy = self._point_dynamic_energy(stimulus, annotation)
        # latched ^ expected == (settled ^ expected) ^ late, with the mask
        # laid out (outputs, 1, vectors) like the arrival tensor.
        mismatch = np.ascontiguousarray((stimulus.settled_bits ^ expected).T)[:, None]
        n_vectors, n_outputs = expected.shape
        results = []
        for tclk in tclks:
            errors = _latch_bits(output_arrival, tclk, mismatch)
            results.append(
                VariationErrorCounts(
                    bit_errors=np.count_nonzero(errors, axis=(0, 2)),
                    faulty_vectors=np.count_nonzero(errors.any(axis=0), axis=1),
                    n_vectors=n_vectors,
                    n_outputs=n_outputs,
                    dynamic_energy=dynamic_energy,
                    static_energy_per_operation=leakage_power * tclk,
                    tclk=float(tclk),
                )
            )
        return results

    # -- cached sweep state ----------------------------------------------------

    def _toggle_matrix(self, stimulus: _StimulusRecord) -> np.ndarray:
        """Float64 gate-output toggle matrix of a stimulus, ``(gates, vectors)``.

        The operand of every dynamic-energy reduction.  It does not depend
        on the operating point, so it is cast once per stimulus; only the
        most recent stimulus's matrix is held, which bounds a long-lived
        simulator to one such array however many streams it has seen.
        """
        held = self._energy_operand
        if held is not None and held[0] == stimulus.key:
            return held[1]
        # Release the previous matrix before allocating the next one.
        self._energy_operand = held = None
        toggles = stimulus.changed[self._plan.gate_output_nets].astype(np.float64)
        toggles.setflags(write=False)
        self._energy_operand = (stimulus.key, toggles)
        return toggles

    def _stimulus(
        self,
        inputs: Mapping[str, np.ndarray],
        previous_inputs: Mapping[str, np.ndarray] | None,
    ) -> _StimulusRecord:
        current = self._bind_inputs(inputs)
        previous = (
            self._bind_inputs(previous_inputs)
            if previous_inputs is not None
            else {net: _shift_right(values) for net, values in current.items()}
        )
        shape = next(iter(current.values())).shape
        if next(iter(previous.values())).shape != shape:
            raise ValueError(
                "previous_inputs arrays must match the shape of inputs"
            )
        key = _pattern_fingerprint(self._netlist, current, previous)
        record = self._stimulus_cache.get(key)
        if record is not None:
            self._stimulus_cache.move_to_end(key)
            return record

        flat_current = {net: array.ravel() for net, array in current.items()}
        flat_previous = {net: array.ravel() for net, array in previous.items()}
        new_words, n_vectors = engine.evaluate_packed(self._netlist, flat_current)
        old_words, _ = engine.evaluate_packed(self._netlist, flat_previous)
        changed = engine.unpack_vectors(new_words ^ old_words, n_vectors)
        outputs = self._output_net_array
        settled = np.ascontiguousarray(
            engine.unpack_vectors(new_words[outputs], n_vectors).T
        )
        settled_words = bits_to_int(settled)
        for array in (changed, settled, settled_words):
            array.setflags(write=False)
        record = _StimulusRecord(
            key=key,
            n_vectors=n_vectors,
            changed=changed,
            settled_bits=settled,
            settled_words=settled_words,
        )
        self._stimulus_cache[key] = record
        while len(self._stimulus_cache) > _STIMULUS_CACHE_SIZE:
            self._stimulus_cache.popitem(last=False)
        return record

    def _exact_arrivals(
        self, changed: np.ndarray, gate_delays: np.ndarray
    ) -> np.ndarray:
        """Output arrivals ``(vectors, outputs)`` of one exact arrival pass."""
        arrival = self._plan.arrival_pass(changed, gate_delays)
        return arrival[self._output_net_array].T.copy()

    def _unit_arrivals_of(
        self, stimulus: _StimulusRecord
    ) -> tuple[np.ndarray, np.ndarray]:
        """Unit-``tau`` output arrivals of a stimulus and their per-vector max.

        The unit pass runs once per stimulus (the only full-width arrival
        pass of a nominal sweep) and is held for the latest stimulus.
        """
        held = self._unit_arrivals
        if held is None or held[0] != stimulus.key:
            # Release the previous stimulus's arrivals before the pass.
            self._unit_arrivals = None
            with span("engine.pass", kind="arrival", vectors=stimulus.n_vectors):
                arrivals = self._exact_arrivals(
                    stimulus.changed,
                    engine.unit_gate_delays(self._netlist, self._library),
                )
            maxima = arrivals.max(axis=1)
            for array in (arrivals, maxima):
                array.setflags(write=False)
            self._unit_arrivals = held = (stimulus.key, arrivals, maxima)
        return held[1], held[2]

    def _point_dynamic_energy(
        self, stimulus: _StimulusRecord, annotation: TimingAnnotation
    ) -> np.ndarray:
        """Per-vector dynamic energy ``gate_switch_energies @ toggles``.

        The switch energies depend on the supply only, so the reduction is
        held for the latest ``(stimulus, vdd)`` pair and shared by every
        body bias and clock of that supply (and by the variation passes).
        """
        held = self._dynamic_energy
        key = (stimulus.key, annotation.vdd)
        if held is not None and held[0] == key:
            return held[1]
        energy = annotation.gate_switch_energies @ self._toggle_matrix(stimulus)
        energy.setflags(write=False)
        self._dynamic_energy = (key, energy)
        return energy

    def _bind_inputs(self, inputs: Mapping[str, np.ndarray]) -> dict[int, np.ndarray]:
        ports = self._netlist.primary_inputs
        missing = set(ports) - set(inputs)
        if missing:
            raise ValueError(f"missing values for primary inputs: {sorted(missing)}")
        bound: dict[int, np.ndarray] = {}
        shapes = set()
        for port, net in ports.items():
            array = np.atleast_1d(np.asarray(inputs[port], dtype=bool))
            shapes.add(array.shape)
            bound[net] = array
        if len(shapes) > 1:
            raise ValueError(f"primary input arrays have inconsistent shapes: {shapes}")
        return bound


def _latch_bits(arrival: np.ndarray, tclk: float, base: np.ndarray) -> np.ndarray:
    """``base ^ (arrival > tclk)``, element by element.

    Arrival passes leave a quiet output at arrival 0, so only a toggled
    output (``stale == settled ^ 1``) can be late.  With ``base = settled``
    this is therefore the latch ``where(arrival <= tclk, settled, stale)``
    for every element, ties ``arrival == tclk`` included, on one boolean
    temporary.  With ``base = settled ^ expected`` it is the error matrix
    ``latched != expected``.  ``base`` broadcasts against ``arrival``, in
    whatever layout it has.
    """
    latched = np.greater(arrival, tclk)
    latched ^= base
    return latched


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _operating_point_key(vdd: float, vbb: float) -> tuple[float, float]:
    """Normalised ``(vdd, vbb)`` cache key (tolerant to float formatting)."""
    return (round(float(vdd), 6), round(float(vbb), 6))


def _pattern_fingerprint(
    netlist: Netlist,
    current: Mapping[int, np.ndarray],
    previous: Mapping[int, np.ndarray],
) -> bytes:
    """Content hash of a bound (current, previous) stimulus pair."""
    digest = hashlib.sha1()
    sample = next(iter(current.values()))
    digest.update(repr(sample.shape).encode())
    for net in netlist.primary_inputs.values():
        digest.update(np.ascontiguousarray(current[net]).tobytes())
        digest.update(b"|")
        digest.update(np.ascontiguousarray(previous[net]).tobytes())
    return digest.digest()


def _shift_right(values: np.ndarray) -> np.ndarray:
    """Previous-cycle version of a vector stream (first cycle sees zeros)."""
    shifted = np.zeros_like(values)
    if values.shape[0] > 1:
        shifted[1:] = values[:-1]
    return shifted
