"""The blocked dynamic energy is the full product under every BLAS kernel.

:func:`repro.simulation.timing_sim._dynamic_energies` reduces the gate
toggles block by block of vectors instead of in one
``energies @ toggles.astype(float64)`` product when BLAS runs on one
thread, as it does in a process that imports ``repro`` before NumPy.
OpenBLAS picks its kernel from the CPU, so each check runs in a fresh
interpreter under every ``OPENBLAS_CORETYPE`` whose instructions
``/proc/cpuinfo`` lists -- never one the CPU cannot run, which would end
the child with SIGILL -- and compares a sweep's dynamic energies, byte for
byte, with the full product.  A process that imports NumPy first may run
BLAS on several threads; it gets the full product too, checked in a fresh
interpreter with no thread count set.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: OpenBLAS core types and the x86 CPU flags their kernels need.
CORE_TYPES = {
    "Prescott": {"pni"},
    "Nehalem": {"ssse3", "sse4_2"},
    "Sandybridge": {"avx"},
    "Haswell": {"avx2", "fma"},
    "Zen": {"avx2", "fma"},
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
}

CHILD = """
import json
import sys
if sys.argv[1] == "numpy-first":
    import numpy
import repro
import numpy as np
from repro.circuits.adders import build_adder
from repro.circuits.multipliers import array_multiplier
from repro.core.triad import OperatingTriad
from repro.simulation import engine
from repro.simulation.timing_sim import VosTimingSimulator

mismatches = checked = 0
for circuit, width in ((build_adder("ksa", 32), 32), (array_multiplier(4), 4)):
    plan = engine.compile_plan(circuit.netlist)
    for n_vectors in (1, 255, 256, 257, 513, 1027, 4099, 20000):
        rng = np.random.default_rng(n_vectors)
        assignment = circuit.input_assignment(
            rng.integers(0, 1 << width, n_vectors),
            rng.integers(0, 1 << width, n_vectors),
        )
        simulator = VosTimingSimulator(
            circuit.netlist, output_ports=circuit.output_ports()
        )
        triads = [OperatingTriad(1e-9, vdd, 0.0) for vdd in (1.0, 0.8, 0.6, 0.5)]
        stimulus = simulator._stimulus(assignment, None)
        changed = engine.unpack_vectors(stimulus.changed.words, n_vectors)
        toggles = changed[plan.gate_output_nets].astype(np.float64)
        for triad, result in zip(triads, simulator.run_sweep(assignment, triads)):
            energies = simulator.annotation(triad.vdd, 0.0).gate_switch_energies
            expected = energies @ toggles
            checked += 1
            mismatches += result.dynamic_energy.tobytes() != expected.tobytes()
print(json.dumps({
    "checked": checked,
    "mismatches": mismatches,
    "one_blas_thread": repro.ONE_BLAS_THREAD,
}))
"""


def _cpu_flags():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


FLAGS = _cpu_flags()


@pytest.mark.skipif(not FLAGS, reason="needs the x86 flags of /proc/cpuinfo")
@pytest.mark.parametrize(
    "core_type",
    [None]
    + [
        pytest.param(
            name,
            marks=pytest.mark.skipif(
                not needs <= FLAGS, reason=f"CPU lacks {sorted(needs - FLAGS)}"
            ),
        )
        for name, needs in CORE_TYPES.items()
    ],
)
def test_blocked_energy_is_the_full_product(core_type):
    report = _run_child("repro-first", core_type)
    assert report == {"checked": 64, "mismatches": 0, "one_blas_thread": True}


def test_numpy_first_process_gets_the_full_product():
    report = _run_child("numpy-first", None)
    # No thread count was set before NumPy loaded BLAS, so the energy pass
    # cannot rely on one thread and reduces the stream in one product.
    assert report == {"checked": 64, "mismatches": 0, "one_blas_thread": False}


def _run_child(order, core_type):
    env = {
        key: value
        for key, value in os.environ.items()
        if key
        not in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    env["PYTHONPATH"] = str(SRC)
    if core_type is not None:
        env["OPENBLAS_CORETYPE"] = core_type
    out = subprocess.run(
        [sys.executable, "-c", CHILD, order],
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])
