"""Regenerate ``reference_digests.json``, the sweep-cold reference table.

Usage (from the repository root): ``python3 perfbench/make_reference.py``.
It runs the default seed's sweep-cold batch serially (jobs=1) without a
store and records each job's result digest.  Runs with another seed
recompute the same way at check time instead.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.ROOT)]
    from perfbench import inputs

    digests = run.serial_reference(inputs.sweep_cold_jobs(run.DEFAULT_SEED))
    path = run.WORKER.parent / "reference_digests.json"
    path.write_text(json.dumps({str(run.DEFAULT_SEED): digests}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
