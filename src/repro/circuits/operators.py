"""Canonical operator specifications and name parsing.

This module is the single source of truth of the operator axis: an
:class:`OperatorSpec` is the validated ``(architecture, width, window)``
triple -- the jobs' operators and the design space's candidates alike --
:func:`parse_circuit_spec` is the one parser of benchmark-style names
(``"rca8"``, ``"bka16"``, ``"spa16w4"`` ...), :func:`parse_windows` is the
one reader of speculation-window tokens, and :func:`check_result_width` is
the one output-word limit, which the adder specs and the multiplier
generator both apply.  Malformed names fail here, at job-construction time,
with a clear message -- not deep inside a sweep.

The implementation lives in the circuits layer (right beside the adder
generators it lowers to) so every consumer -- the design-space module, the
job layer, the CLI -- depends strictly downward; the typed API re-exports
it as :mod:`repro.api.spec`.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Mapping, Sequence

from repro.circuits.adders import (
    ADDER_GENERATORS,
    AdderCircuit,
    SPECULATIVE_ARCHITECTURE,
    build_adder,
    parse_adder_name,
    speculative_adder,
)
from repro.circuits.signals import MAX_WORD_BITS

#: Grammar of the speculative family's names: ``spa<width>w<window>``.
_SPECULATIVE_NAME = re.compile(
    rf"^{SPECULATIVE_ARCHITECTURE}(\d+)w(\d+)$"
)


def check_result_width(name: str, result_bits: int) -> None:
    """Reject an operator whose result does not fit the output word.

    Simulated outputs are packed into words of at most
    :data:`~repro.circuits.signals.MAX_WORD_BITS` (62) bits, so an adder of
    width ``w`` (sum plus carry-out) needs ``w + 1 <= 62`` and an ``NxM``
    multiplier needs ``N + M <= 62``.
    """
    if result_bits > MAX_WORD_BITS:
        raise ValueError(
            f"{name} has a {result_bits}-bit result; at most {MAX_WORD_BITS} "
            "result bits are supported (adder width <= "
            f"{MAX_WORD_BITS - 1}, multiplier N+M <= {MAX_WORD_BITS})"
        )


@dataclasses.dataclass(frozen=True, order=True)
class OperatorSpec:
    """Validated generator coordinates of one operator circuit.

    Attributes
    ----------
    architecture:
        Adder architecture tag (``"rca"`` ... or ``"spa"`` for the
        speculative window-bounded family).
    width:
        Operand width in bits.
    window:
        Carry-speculation window; ``None`` for non-speculative operators.

    The width is bounded by the output word (see :func:`check_result_width`).
    """

    architecture: str
    width: int
    window: int | None = None

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.window is None:
            if self.architecture not in ADDER_GENERATORS:
                raise ValueError(
                    f"unknown adder architecture {self.architecture!r}; "
                    f"available: {', '.join(sorted(ADDER_GENERATORS))}"
                )
        else:
            if self.architecture != SPECULATIVE_ARCHITECTURE:
                raise ValueError(
                    "speculative candidates use architecture "
                    f"{SPECULATIVE_ARCHITECTURE!r}, got {self.architecture!r}"
                )
            if not 0 < self.window < self.width:
                raise ValueError("window must lie within (0, width)")
        check_result_width(self.name, self.width + 1)

    @property
    def name(self) -> str:
        """The operator circuit's name (``"rca8"``, ``"spa16w4"`` ...)."""
        if self.window is None:
            return f"{self.architecture}{self.width}"
        return f"{self.architecture}{self.width}w{self.window}"

    def build(self) -> AdderCircuit:
        """Lower the spec to its gate-level circuit."""
        if self.window is not None:
            return speculative_adder(self.width, self.window)
        return build_adder(self.architecture, self.width)

    def to_json(self) -> dict[str, Any]:
        """JSON-serialisable representation (the parseable name)."""
        return {"operator": self.name}

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "OperatorSpec":
        """Inverse of :meth:`to_json`."""
        return parse_circuit_spec(str(data["operator"]))


def parse_circuit_spec(name: str) -> OperatorSpec:
    """Parse a benchmark-style operator name into an :class:`OperatorSpec`.

    Accepts the plain-adder convention (``"rca8"``, ``"bka16"`` ...) and the
    speculative family (``"spa16w4"``).  Malformed names -- including
    structurally broken speculative names such as ``"spa16"``, ``"spaw4"``
    or windows that do not fit the width (``"spa8w8"``) -- raise
    :class:`ValueError` with a message that names the expected grammar.
    """
    token = name.strip().lower()
    if token.startswith(SPECULATIVE_ARCHITECTURE):
        match = _SPECULATIVE_NAME.match(token)
        if match is None:
            raise ValueError(
                f"cannot parse speculative adder name {name!r} "
                f"(expected {SPECULATIVE_ARCHITECTURE}<width>w<window>, "
                "e.g. spa16w4)"
            )
        width = int(match.group(1))
        window = int(match.group(2))
        try:
            return OperatorSpec(SPECULATIVE_ARCHITECTURE, width, window)
        except ValueError as error:
            raise ValueError(f"invalid operator name {name!r}: {error}") from None
    architecture, width = parse_adder_name(token)
    return OperatorSpec(architecture, width)


def parse_windows(tokens: Sequence[str | int | None]) -> tuple[int | None, ...]:
    """Parse speculation-window tokens (``"none"``/``"off"`` or integers).

    The one reader of the window axis shared by the CLI, the job layer and
    the batch file format; integers and ``None`` pass through unchanged.
    """
    windows: list[int | None] = []
    for token in tokens:
        if token is None or isinstance(token, int):
            windows.append(token)
            continue
        if str(token).lower() in ("none", "off"):
            windows.append(None)
            continue
        try:
            windows.append(int(token))
        except ValueError:
            raise ValueError(
                f"invalid speculation window {token!r} (expected 'none' or an integer)"
            ) from None
    return tuple(windows)
