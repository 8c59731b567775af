"""``--jobs N`` owns N cores: every worker runs BLAS on one thread.

Both checks run in a fresh interpreter, because the BLAS thread default
only applies when ``repro`` is imported before NumPy, and the test process
has long since imported NumPy.  A forked worker restarts OpenBLAS's thread
pool at its first product large enough to run multi-threaded; 20000 rca8
vectors is such a size (2000 is not), so without the default each shard
on a multi-core machine would report more than one thread.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.report import load_trace

SRC = Path(__file__).resolve().parents[2] / "src"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/status").is_file(),
    reason="shard thread counts are read from /proc",
)


def _env(**overrides):
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in BLAS_VARIABLES and not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    env.update(overrides)
    return env


def test_sharded_workers_run_a_single_thread(tmp_path):
    trace = tmp_path / "run.jsonl"
    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "characterize",
            "--architecture",
            "rca",
            "--width",
            "8",
            "--vectors",
            "20000",
            "--jobs",
            "2",
            "--no-cache",
            "--trace",
            str(trace),
        ],
        env=_env(),
        check=True,
        capture_output=True,
        timeout=120,
    )
    shards = [r for r in load_trace(trace) if r["name"] == "sweep.shard"]
    assert len(shards) == 2
    assert [shard["attrs"]["threads"] for shard in shards] == [1, 1]


def test_a_preset_thread_count_is_kept():
    probe = (
        "import os, repro; "
        "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=_env(OPENBLAS_NUM_THREADS="2"),
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.stdout.split() == ["2", "1"]
