"""Peak memory of cold CLI runs stays within the fixed-byte block bound.

A 32-bit Kogge-Stone adder characterized at the paper's 20k vectors, and
Monte Carlo of it over 32 samples at 4k and at 20k vectors, run in a fresh
interpreter with ``--no-cache``.  The child reports its own ``VmHWM``: the
resource usage of an exec'd child (``ru_maxrss``) carries the high-water
mark of the process it replaced, here the test runner.  The budget is the
same command's peak at 64 vectors (interpreter, imports, plans) plus twice
what a run must hold beyond that: one block of the arrival pass -- its
buffer (``engine._ARRIVAL_BLOCK_BYTES``, whatever the instance count or
stream length) and the block's unpacked toggle masks (one byte per net
and vector of the block) -- the packed toggle masks of the stimulus (one
bit per net and vector) and one float64 per output and vector (the unit
arrivals a nominal sweep keeps).  The constants are pinned here rather than read
from the engine.  A pass that held its whole vector axis at once (one
live-row buffer per stream, or an ``(outputs, instances, vectors)``
Monte Carlo tensor), or a boolean toggle matrix of every net, exceeds it.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.circuits.adders import build_adder
from repro.simulation import engine
from repro.variation import DEFAULT_SAMPLE_CHUNK

SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/status").is_file(), reason="VmHWM is read from /proc"
)

CHILD = """
import sys
from repro.cli import main
try:
    main(sys.argv[1:])
finally:
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(line for line in status if line.startswith("VmHWM:"))
    print(int(peak.split()[1]) / 1024.0, file=sys.stderr)
"""

MB = 1024.0 * 1024.0

#: Bytes of one block buffer of the arrival pass.
BLOCK_BYTES = 6 << 20
#: Nets of a ksa32 netlist (one packed toggle bit each per vector), the
#: live rows of its arrival buffer, and its output rows.
NETS = 549
LIVE_ROWS = 178
OUTPUT_ROWS = 33


@functools.lru_cache(maxsize=None)
def _peak_mb(args):
    env = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, *args],
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return float(out.stderr.splitlines()[-1])


def test_the_budget_constants_are_the_engine_constants():
    adder = build_adder("ksa", 32)
    plan = engine.compile_plan(adder.netlist)
    outputs = tuple(adder.netlist.primary_outputs[p] for p in adder.output_ports())
    assert engine._ARRIVAL_BLOCK_BYTES == BLOCK_BYTES
    assert (plan.net_count, plan.live_rows(outputs), len(outputs)) == (
        NETS,
        LIVE_ROWS,
        OUTPUT_ROWS,
    )
    # One Monte Carlo pass batches this many samples.
    assert DEFAULT_SAMPLE_CHUNK == 32


def _state_mb(instances, n_vectors):
    block = min(BLOCK_BYTES // (LIVE_ROWS * instances * 8), n_vectors)
    unpacked_block_masks = NETS * block
    packed_masks = NETS * -(-n_vectors // 64) * 8
    output_arrivals = OUTPUT_ROWS * n_vectors * 8
    return (
        BLOCK_BYTES + unpacked_block_masks + packed_masks + output_arrivals
    ) / MB


@pytest.mark.parametrize(
    "command, instances, n_vectors",
    [
        (("characterize",), 1, 20_000),
        (("montecarlo", "--samples", "32"), 32, 4_000),
        (("montecarlo", "--samples", "32"), 32, 20_000),
    ],
    ids=["characterize", "montecarlo-4k", "montecarlo-20k"],
)
def test_peak_rss_within_the_block_budget(command, instances, n_vectors):
    base = (*command, "--architecture", "ksa", "--width", "32", "--no-cache")
    idle = _peak_mb((*base, "--vectors", "64"))
    peak = _peak_mb((*base, "--vectors", str(n_vectors)))
    budget = idle + 2 * _state_mb(instances, n_vectors)
    assert peak <= budget, (peak, idle, budget)
