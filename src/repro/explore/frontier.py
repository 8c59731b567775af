"""Incremental BER-vs-energy Pareto frontier with JSON persistence.

The frontier is the exploration subsystem's running answer to "which
operator configuration is energy-optimal under a BER budget": a set of
design points (candidate x triad) of which none is dominated in the
``(BER, energy per operation)`` plane.  It is *incremental* -- points are
offered one batch at a time, dominated points are evicted on arrival -- and
*persistent*: the frontier round-trips through a small JSON document, so a
search can resume (or a later, larger search can refine an earlier one)
without re-evaluating anything.

Dominance follows :func:`repro.core.energy.pareto_front`: a point is
dominated when another point is no worse on both axes and strictly better on
at least one.  Distinct configurations that tie exactly on both axes are all
kept.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
from typing import Any, Iterable, Iterator, Mapping

from repro.core.triad import OperatingTriad

#: Version of the persisted frontier document layout.
FRONTIER_FORMAT_VERSION = 1


@dataclasses.dataclass(frozen=True, order=True)
class FrontierPoint:
    """One design point competing on the BER/energy plane.

    Attributes
    ----------
    architecture / width / window:
        The operator candidate's design-space coordinates.
    triad:
        The operating triad the candidate was evaluated at.
    ber:
        Bit error rate (fraction).
    energy_per_operation:
        Mean energy per operation in joules.
    mse:
        Mean squared numerical error (carried along for ranking reports).
    n_vectors / seed / pattern_kind:
        The stimulus identity of the evaluation.  Recorded so a resumed
        search can tell what a persisted point was measured on; points from
        different stimuli compete on equal terms, so callers should keep one
        frontier per stimulus (the CLI drops non-matching points on resume).
    robust:
        Scoring identity of a variation-robust evaluation (quantile + Monte
        Carlo configuration tag, see
        :func:`repro.explore.evaluator.robust_tag`), or ``None`` for a
        nominal-BER point.  Part of the measurement identity for the same
        reason as the stimulus fields: a nominal BER is systematically lower
        than a quantile BER over sampled dies, so letting the two compete
        would evict the robust measurements.
    """

    ber: float
    energy_per_operation: float
    architecture: str
    width: int
    window: int | None
    triad: OperatingTriad
    mse: float
    n_vectors: int
    seed: int = 2017
    pattern_kind: str = "uniform"
    robust: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.ber <= 1.0:
            raise ValueError("ber must lie within [0, 1]")
        if self.energy_per_operation <= 0:
            raise ValueError("energy_per_operation must be positive")
        if self.n_vectors <= 0:
            raise ValueError("n_vectors must be positive")

    @property
    def operator_name(self) -> str:
        """The candidate circuit's name (``"rca8"``, ``"spa16w4"`` ...)."""
        if self.window is None:
            return f"{self.architecture}{self.width}"
        return f"{self.architecture}{self.width}w{self.window}"

    def dominates(self, other: "FrontierPoint") -> bool:
        """Whether this point Pareto-dominates ``other``."""
        return (
            self.ber <= other.ber
            and self.energy_per_operation <= other.energy_per_operation
            and (
                self.ber < other.ber
                or self.energy_per_operation < other.energy_per_operation
            )
        )

    def to_json(self) -> dict[str, Any]:
        """JSON-serialisable representation (exact float round-trip)."""
        return {
            "architecture": self.architecture,
            "width": self.width,
            "window": self.window,
            "tclk": self.triad.tclk,
            "vdd": self.triad.vdd,
            "vbb": self.triad.vbb,
            "ber": self.ber,
            "energy_per_operation": self.energy_per_operation,
            "mse": self.mse,
            "n_vectors": self.n_vectors,
            "seed": self.seed,
            "pattern_kind": self.pattern_kind,
            "robust": self.robust,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FrontierPoint":
        """Inverse of :meth:`to_json`."""
        window = data.get("window")
        return cls(
            ber=float(data["ber"]),
            energy_per_operation=float(data["energy_per_operation"]),
            architecture=str(data["architecture"]),
            width=int(data["width"]),
            window=None if window is None else int(window),
            triad=OperatingTriad(
                tclk=float(data["tclk"]),
                vdd=float(data["vdd"]),
                vbb=float(data["vbb"]),
            ),
            mse=float(data["mse"]),
            n_vectors=int(data["n_vectors"]),
            seed=int(data["seed"]),
            pattern_kind=str(data["pattern_kind"]),
            # Absent in pre-variation documents: those points are nominal.
            robust=(
                None if data.get("robust") is None else str(data["robust"])
            ),
        )


class ParetoFrontier:
    """Incrementally maintained Pareto frontier in the (BER, energy) plane."""

    def __init__(self, points: Iterable[FrontierPoint] = ()) -> None:
        self._points: list[FrontierPoint] = []
        self.add_all(points)

    def add(self, point: FrontierPoint) -> bool:
        """Offer one point; returns True when it joins the frontier.

        A dominated offer is rejected; an accepted offer evicts every point
        it dominates.  Exact duplicates are rejected (idempotent resume).
        """
        if point in self._points:
            return False
        if any(existing.dominates(point) for existing in self._points):
            return False
        self._points = [
            existing for existing in self._points if not point.dominates(existing)
        ]
        self._points.append(point)
        self._points.sort()
        return True

    def add_all(self, points: Iterable[FrontierPoint]) -> int:
        """Offer a batch of points; returns how many were accepted.

        Note that an accepted point may later be evicted by a subsequent
        point of the same batch.
        """
        return sum(1 for point in points if self.add(point))

    @property
    def points(self) -> tuple[FrontierPoint, ...]:
        """Frontier points ordered by (BER, energy)."""
        return tuple(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[FrontierPoint]:
        return iter(self._points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParetoFrontier):
            return NotImplemented
        return self._points == other._points

    # -- persistence -----------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """JSON document of the whole frontier."""
        return {
            "format": FRONTIER_FORMAT_VERSION,
            "points": [point.to_json() for point in self._points],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ParetoFrontier":
        """Rebuild a frontier from its JSON document."""
        if data.get("format") != FRONTIER_FORMAT_VERSION:
            raise ValueError(
                f"unsupported frontier format {data.get('format')!r} "
                f"(expected {FRONTIER_FORMAT_VERSION})"
            )
        return cls(FrontierPoint.from_json(entry) for entry in data["points"])

    def save(self, path: str | os.PathLike[str]) -> None:
        """Persist the frontier atomically (temp file + rename)."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        temp.write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True), encoding="utf-8"
        )
        os.replace(temp, target)

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "ParetoFrontier":
        """Load a persisted frontier."""
        text = pathlib.Path(path).read_text(encoding="utf-8")
        return cls.from_json(json.loads(text))

    @classmethod
    def load_or_empty(cls, path: str | os.PathLike[str]) -> "ParetoFrontier":
        """Load a persisted frontier, or start empty when the file is absent."""
        if not pathlib.Path(path).is_file():
            return cls()
        return cls.load(path)
