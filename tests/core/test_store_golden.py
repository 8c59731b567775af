"""Golden store bytes: engine changes may not silently move stored results.

The result store addresses entries by a hash that mixes
:data:`~repro.simulation.engine.ENGINE_VERSION`; a change that alters any
number the engine produces must bump it, or warm caches would serve stale
results.  ``tests/fixtures/store_golden.json`` (see
``tests/fixtures/make_store_golden.py``) commits the entry keys and record
digests of a small canonical cold unit set -- nominal characterization,
Monte Carlo and fault sweep of rca8 at 2,048 vectors -- and this test
recomputes them.
"""

import json
import pathlib
import sys

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
sys.path.insert(0, str(FIXTURES))

from make_store_golden import GOLDEN_PATH, build  # noqa: E402


def test_store_bytes_match_golden_unless_engine_version_bumped():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    fresh = build()
    if fresh["engine_version"] == golden["engine_version"]:
        assert fresh["entries"].keys() == golden["entries"].keys(), (
            "entry keys moved without an ENGINE_VERSION bump"
        )
        moved = sorted(
            key
            for key, digest in fresh["entries"].items()
            if golden["entries"][key] != digest
        )
        assert not moved, (
            f"{len(moved)} stored payloads changed without an ENGINE_VERSION "
            "bump; bump it and regenerate with "
            "tests/fixtures/make_store_golden.py"
        )
    else:
        # A bump must invalidate every stale entry (no key survives); the
        # fixture is then regenerated for the new version.
        assert not fresh["entries"].keys() & golden["entries"].keys()


def test_golden_covers_every_unit_kind():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    units = golden["units"]
    assert units["characterize"] == 43  # the matched triad grid
    assert units["montecarlo"] > 0 and units["faults"] > 0
    assert sum(units.values()) == len(golden["entries"])
