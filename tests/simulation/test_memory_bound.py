"""Peak memory of cold CLI runs stays within the live-row buffer's bound.

A 32-bit Kogge-Stone adder characterized at the paper's 20k vectors, and
Monte Carlo of it over 32 samples at 4k vectors, run in a fresh
interpreter with ``--no-cache``.  The child reports its own ``VmHWM``: the
resource usage of an exec'd child (``ru_maxrss``) carries the high-water
mark of the process it replaced, here the test runner.  The budget is the
same command's peak at 64 vectors (interpreter, imports, plans) plus twice
the arrival buffer of one pass -- its 178 live rows and the 33 returned
output rows, pinned here rather than read from the plan -- which leaves
as much again for the per-vector state of the stimulus (toggle masks,
output words, unit arrivals, energies).  A pass that held one row per
net (549), or a float64 toggle matrix of every gate, exceeds it.
"""

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

#: Live rows of a ksa32 pass reading its outputs, and those outputs.
LIVE_ROWS = 178
OUTPUT_ROWS = 33


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


def test_the_budget_rows_are_the_plan_rows():
    adder = build_adder("ksa", 32)
    plan = engine.compile_plan(adder.netlist)
    outputs = tuple(adder.netlist.primary_outputs[p] for p in adder.output_ports())
    assert (plan.live_rows(outputs), len(outputs)) == (LIVE_ROWS, OUTPUT_ROWS)


def _buffer_mb(instances, n_vectors):
    return (LIVE_ROWS + OUTPUT_ROWS) * instances * n_vectors * 8 / MB


@pytest.mark.parametrize(
    "command, instances, n_vectors",
    [
        (["characterize"], 1, 20_000),
        (["montecarlo", "--samples", "32"], min(32, DEFAULT_SAMPLE_CHUNK), 4_000),
    ],
    ids=["characterize", "montecarlo"],
)
def test_peak_rss_within_the_live_row_budget(command, instances, n_vectors):
    base = [*command, "--architecture", "ksa", "--width", "32", "--no-cache"]
    idle = _peak_mb([*base, "--vectors", "64"])
    peak = _peak_mb([*base, "--vectors", str(n_vectors)])
    budget = idle + 2 * _buffer_mb(instances, n_vectors)
    assert peak <= budget, (peak, idle, budget)
