"""Shared option vocabulary of the job layer.

Three small dataclasses replace the per-command argparse plumbing the CLI
used to hand-wire (``_add_pattern_arguments``, ``_add_sweep_arguments``,
``_resolve_store``): every job that generates stimulus carries a
:class:`PatternOptions`, every job that sweeps carries a
:class:`SweepOptions`, and a :class:`Session` is built from a
:class:`StoreOptions`.  All three are JSON-round-trippable so job-spec files
(``repro batch``) use exactly the same vocabulary.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

from repro.core.resilience import FAILURE_ACTIONS, ExecutionPolicy
from repro.core.store import SweepResultStore
from repro.simulation.patterns import PATTERN_GENERATORS, PatternConfig

#: Default stimulus size of the CLI commands (the paper uses 20 000).
DEFAULT_VECTORS = 4000

#: Default stimulus seed (the year of the paper).
DEFAULT_SEED = 2017


@dataclasses.dataclass(frozen=True)
class PatternOptions:
    """Stimulus configuration of a job (the ``--pattern/--vectors/--seed``
    vocabulary).

    Attributes
    ----------
    kind:
        Pattern-generator name (see
        :data:`repro.simulation.patterns.PATTERN_GENERATORS`).
    vectors:
        Number of operand pairs.
    seed:
        Seed of the dedicated stimulus generator.
    """

    kind: str = "uniform"
    vectors: int = DEFAULT_VECTORS
    seed: int = DEFAULT_SEED

    def config(self, width: int) -> PatternConfig:
        """Lower the options to a concrete :class:`PatternConfig`.

        Validation (positive vector count, known generator kind) happens
        here, with the messages the simulation layer has always used.
        """
        if self.kind not in PATTERN_GENERATORS:
            raise ValueError(
                f"unknown pattern kind {self.kind!r}; "
                f"available: {', '.join(sorted(PATTERN_GENERATORS))}"
            )
        return PatternConfig(
            n_vectors=self.vectors, width=width, seed=self.seed, kind=self.kind
        )

    def to_json(self) -> dict[str, Any]:
        """JSON-serialisable representation."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "PatternOptions":
        """Inverse of :meth:`to_json` (unknown keys are rejected)."""
        return cls(**_known_fields(cls, data))


@dataclasses.dataclass(frozen=True)
class SweepOptions:
    """Executor policy of a sweep-running job (the ``--jobs`` /
    ``--shard-timeout`` / ``--max-retries`` / ``--on-worker-failure``
    vocabulary).

    Attributes
    ----------
    jobs:
        Worker processes for the sweep; ``1`` executes in-process.  Results
        are bit-identical for every value -- and for every fault-recovery
        path the resilience fields below can trigger.
    shard_timeout:
        Per-shard wall-clock budget in seconds; a shard running past it is
        failed and retried per the policy.  ``None`` disables the timeout.
    max_retries:
        Failed attempts a shard may retry before falling back to trusted
        in-process execution.  ``None`` keeps the engine default.
    on_worker_failure:
        Failure action (one of :data:`repro.core.resilience.FAILURE_ACTIONS`:
        ``retry``, ``split-and-retry``, ``serial-fallback``, ``fail``).
        ``None`` keeps the engine default (``retry``).
    """

    jobs: int = 1
    shard_timeout: float | None = None
    max_retries: int | None = None
    on_worker_failure: str | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive (or None)")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError("max_retries must be non-negative (or None)")
        if (
            self.on_worker_failure is not None
            and self.on_worker_failure not in FAILURE_ACTIONS
        ):
            raise ValueError(
                f"unknown failure action {self.on_worker_failure!r}; "
                f"available: {', '.join(FAILURE_ACTIONS)}"
            )

    def policy(self) -> ExecutionPolicy | None:
        """Lower the resilience fields to an :class:`ExecutionPolicy`.

        ``None`` when every field keeps its default -- callers then inherit
        the session or engine default policy instead of overriding it.
        """
        if (
            self.shard_timeout is None
            and self.max_retries is None
            and self.on_worker_failure is None
        ):
            return None
        defaults = ExecutionPolicy()
        return ExecutionPolicy(
            max_retries=(
                defaults.max_retries
                if self.max_retries is None
                else self.max_retries
            ),
            shard_timeout_s=self.shard_timeout,
            on_failure=(
                defaults.on_failure
                if self.on_worker_failure is None
                else self.on_worker_failure
            ),
        )

    def to_json(self) -> dict[str, Any]:
        """JSON-serialisable representation."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SweepOptions":
        """Inverse of :meth:`to_json` (unknown keys are rejected)."""
        return cls(**_known_fields(cls, data))


@dataclasses.dataclass(frozen=True)
class StoreOptions:
    """Result-store selection (the ``--cache-dir/--no-cache`` vocabulary).

    Attributes
    ----------
    cache_dir:
        Store directory; ``None`` selects the default location
        (``$REPRO_CACHE_DIR`` or ``~/.cache/repro/sweeps``).
    no_cache:
        Disable the store entirely.  Conflicts with ``cache_dir``.
    """

    cache_dir: str | None = None
    no_cache: bool = False

    def __post_init__(self) -> None:
        if self.no_cache and self.cache_dir:
            raise ValueError(
                "--no-cache conflicts with --cache-dir (disable the store "
                "or point it somewhere, not both)"
            )

    def resolve(self) -> SweepResultStore | None:
        """Open the selected store (or ``None`` when caching is disabled)."""
        if self.no_cache:
            return None
        if self.cache_dir:
            return SweepResultStore(self.cache_dir)
        return SweepResultStore.default()

    def to_json(self) -> dict[str, Any]:
        """JSON-serialisable representation."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "StoreOptions":
        """Inverse of :meth:`to_json` (unknown keys are rejected)."""
        return cls(**_known_fields(cls, data))


def _known_fields(cls: type, data: Mapping[str, Any]) -> dict[str, Any]:
    names = {field.name for field in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s): {', '.join(sorted(unknown))}"
        )
    return dict(data)
