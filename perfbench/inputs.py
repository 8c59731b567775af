"""Seeded workload inputs: job documents, as ``repro batch`` reads them.

Every generator is a pure function of the seed, so one seed always yields
the same inputs.  The program under test only ever receives the generated
documents.  Each run repeats one *round* of work; rounds of a run are
identical, so their medians do not depend on how many rounds fit in it.
"""

from __future__ import annotations

import itertools
import random
from typing import Any

Doc = dict[str, Any]

#: Paper fidelity of the cold sweep (the paper simulates 20k vectors).
PAPER_VECTORS = 20_000

#: Operators of serve-mix's warm fixture store.
FIXTURE_OPERATORS = ("rca8", "bka8", "rca16", "bka16", "ksa16")
FIXTURE_STIMULI = 8
FIXTURE_VECTORS = 1000
FIG5_VOLTAGES = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4)

#: Never-seen jobs: small rca8 characterizations that simulate and write.
COLD_OPERATOR = "rca8"
COLD_VECTORS = 256

#: serve-mix round: 5 hot documents resubmitted 10 times each (50 hot
#: hits), 5 x 12 distinct warm jobs plus the hot documents' first
#: submissions (65 warm), 12 cold jobs.  Hot hits take the lowest ~40 % of
#: latencies and cold jobs the top ~10 %, so p50 and p95 sit inside the
#: warm and cold modes rather than on a boundary between them.
SERVE_RESUBMISSIONS = 10
SERVE_WARM_PER_OPERATOR = 12
SERVE_COLD = 12

#: Stimulus seeds of never-seen jobs lie above every fixture seed.
_FIXTURE_SEED_RANGE = (1, 1_000_000)
_COLD_SEED_RANGE = (1_000_000, 2_000_000)


def _cold_job(seed: int) -> Doc:
    return {
        "type": "characterize",
        "operator": COLD_OPERATOR,
        "pattern": {"vectors": COLD_VECTORS, "seed": seed},
    }


def sweep_cold_jobs(seed: int) -> list[Doc]:
    """One cold batch: the paper's sweep plus Monte Carlo, explore, faults."""
    sweep = {"jobs": 2}
    full = {"vectors": PAPER_VECTORS, "seed": seed}
    return [
        {"type": "characterize", "operator": "ksa32", "pattern": full, "sweep": sweep},
        {"type": "characterize", "operator": "bka16", "pattern": full, "sweep": sweep},
        {
            "type": "fig5",
            "operator": "bka16",
            "vectors": PAPER_VECTORS,
            "seed": seed,
            "sweep": sweep,
        },
        {
            "type": "montecarlo",
            "operator": "rca16",
            "pattern": {"seed": seed},
            "samples": 32,
            "sweep": sweep,
        },
        {"type": "explore", "seed": seed, "sweep": sweep},
        {"type": "faults", "operator": "rca8", "pattern": {"seed": seed}, "sweep": sweep},
    ]


def fixture_pool(seed: int) -> list[Doc]:
    """The distinct warm queries; running them cold builds the fixture store.

    Per operator, one characterize and one fig5 job (a seeded choice of
    three supply voltages) per stimulus seed.  The seed picks stimulus seeds and voltages, never how much work of each kind
    there is, so runs with different seeds cost the same.
    """
    rng = random.Random(f"fixture:{seed}")
    stimuli = rng.sample(range(*_FIXTURE_SEED_RANGE), FIXTURE_STIMULI)
    subsets = list(itertools.combinations(FIG5_VOLTAGES, 3))
    pool: list[Doc] = []
    for operator in FIXTURE_OPERATORS:
        for stimulus in stimuli:
            pool.append(
                {
                    "type": "characterize",
                    "operator": operator,
                    "pattern": {"vectors": FIXTURE_VECTORS, "seed": stimulus},
                }
            )
            pool.append(
                {
                    "type": "fig5",
                    "operator": operator,
                    "supply_voltages": list(rng.choice(subsets)),
                    "vectors": FIXTURE_VECTORS,
                    "seed": stimulus,
                }
            )
    return pool


def _by_operator(pool: list[Doc], kind: str, operator: str) -> list[Doc]:
    return [doc for doc in pool if doc["type"] == kind and doc.get("operator") == operator]


def _cold_jobs(rng: random.Random, count: int) -> list[Doc]:
    return [_cold_job(s) for s in rng.sample(range(*_COLD_SEED_RANGE), count)]


def serve_requests(seed: int) -> list[tuple[str, Doc]]:
    """One serve-mix round as ``(class, job document)`` pairs, in send order.

    One characterize document per operator is hot: submitted once, early,
    as a warm request, then resubmitted ``SERVE_RESUBMISSIONS`` times.  The
    distinct warm jobs are the same number of characterize and fig5 jobs
    per operator.  The seed picks the documents; the send order of their
    kinds (hot, warm or cold; job type; operator) is one fixed shuffle, so
    no seed lines up its slow jobs differently from another.
    """
    rng = random.Random(f"serve:{seed}")
    order = random.Random("serve-order")
    pool = fixture_pool(seed)
    hot_docs: list[Doc] = []
    warm: list[Doc] = []
    per_kind = SERVE_WARM_PER_OPERATOR // 2
    for operator in FIXTURE_OPERATORS:
        characterize = rng.sample(_by_operator(pool, "characterize", operator), per_kind + 1)
        hot_docs.append(characterize.pop())
        warm += characterize
        warm += rng.sample(_by_operator(pool, "fig5", operator), per_kind)
    order.shuffle(warm)
    # The hot documents' first submissions open the round, followed by as
    # many other warm jobs, so those first submissions finish before any
    # resubmission arrives.
    opening = [("warm", doc) for doc in hot_docs]
    opening += [("warm", doc) for doc in warm[: len(hot_docs)]]
    rest = [("warm", doc) for doc in warm[len(hot_docs) :]]
    rest += [("hot", doc) for doc in hot_docs for _ in range(SERVE_RESUBMISSIONS)]
    rest += [("cold", doc) for doc in _cold_jobs(rng, SERVE_COLD)]
    order.shuffle(rest)
    return opening + rest
