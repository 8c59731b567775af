#!/usr/bin/env python
"""Generate (or check) the golden store-bytes fixture.

``tests/fixtures/store_golden.json`` freezes what a small canonical set of
cold sweep units writes to the result store: the entry key and the SHA-256
of the on-disk pack record of every entry, plus the
:data:`~repro.simulation.engine.ENGINE_VERSION` they were produced under.
The units are

* an rca8 nominal characterization over the matched 43-triad grid at 2,048
  vectors with latched words kept (each arrival-pass row carries 2,048
  elements, so the per-gate in-place regime of the engine is covered);
* a 4-sample rca8 Monte Carlo run at 2,048 vectors (8,192 elements per
  batched arrival row);
* an rca8 single-stuck-at fault sweep at 2,048 vectors.

``tests/core/test_store_golden.py`` recomputes the set and compares: an
engine change that moves any stored byte must bump ``ENGINE_VERSION`` (and
then regenerate this fixture).  Everything is deterministic -- seeded
stimulus, serial sweeps, canonical JSON -- so regeneration is exact::

    PYTHONPATH=src python tests/fixtures/make_store_golden.py          # rewrite
    PYTHONPATH=src python tests/fixtures/make_store_golden.py --check  # verify
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import tempfile

from repro.api import (
    CharacterizeJob,
    FaultSweepJob,
    MonteCarloJob,
    PatternOptions,
    Session,
)
from repro.core.store import PACKS_DIR
from repro.simulation.engine import ENGINE_VERSION

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "store_golden.json"

PATTERN = PatternOptions(kind="uniform", vectors=2048, seed=2017)

#: The canonical cold unit set, in the order it is run, by unit kind.
JOBS = {
    "characterize": CharacterizeJob(
        operator="rca8", pattern=PATTERN, keep_measurements=True
    ),
    "montecarlo": MonteCarloJob(operator="rca8", pattern=PATTERN, samples=4),
    "faults": FaultSweepJob(operator="rca8", pattern=PATTERN),
}


def record_digests(root: pathlib.Path) -> dict[str, str]:
    """Entry key -> SHA-256 hex of its pack record bytes, for a store root."""
    digests: dict[str, str] = {}
    for index in sorted((root / PACKS_DIR).glob("*.idx")):
        data = index.with_suffix(".pack").read_bytes()
        for raw in index.read_text(encoding="utf-8").splitlines():
            line = json.loads(raw)
            if "k" not in line:
                continue
            record = data[line["o"] : line["o"] + line["l"]]
            digests[line["k"]] = hashlib.sha256(record).hexdigest()
    return dict(sorted(digests.items()))


def build() -> dict[str, object]:
    """Run the canonical unit set cold; returns the golden document.

    ``units`` counts the entries each job added to the store.
    """
    units: dict[str, int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache = pathlib.Path(tmp) / "cache"
        session = Session(store=cache)
        for kind, job in JOBS.items():
            before = len(record_digests(cache))
            session.run(job)
            units[kind] = len(record_digests(cache)) - before
        entries = record_digests(cache)
    return {"engine_version": ENGINE_VERSION, "entries": entries, "units": units}


def render(document: dict[str, object]) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a regeneration with the committed fixture instead",
    )
    args = parser.parse_args(argv)
    document = build()
    if args.check:
        if GOLDEN_PATH.read_text(encoding="utf-8") == render(document):
            print(f"ok: {GOLDEN_PATH} matches ({len(document['entries'])} entries)")
            return 0
        print(f"stale: {GOLDEN_PATH} differs from regeneration")
        return 1
    GOLDEN_PATH.write_text(render(document), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(document['entries'])} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
