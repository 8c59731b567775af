"""Adder netlist generators.

The paper characterises the two most common datapath adders:

* Ripple-Carry Adder (RCA) -- serial prefix, ``n`` full-adder stages.
* Brent-Kung Adder (BKA)   -- parallel prefix, ``2*log2(n) - 1`` levels.

Both are generated here as structural netlists over the cell set of
:mod:`repro.circuits.cells`.  Additional parallel-prefix and block adders
(Kogge-Stone, carry-lookahead, carry-select, carry-skip) are provided as
extensions used by the ablation benchmarks.
"""

from repro.circuits.adders.base import AdderCircuit
from repro.circuits.adders.ripple_carry import ripple_carry_adder
from repro.circuits.adders.brent_kung import brent_kung_adder
from repro.circuits.adders.kogge_stone import kogge_stone_adder
from repro.circuits.adders.carry_lookahead import carry_lookahead_adder
from repro.circuits.adders.carry_select import carry_select_adder
from repro.circuits.adders.carry_skip import carry_skip_adder
from repro.circuits.adders.speculative import (
    SPECULATIVE_ARCHITECTURE,
    SpeculativeAdderCircuit,
    speculative_adder,
)

#: Registry mapping architecture names to generator callables.
ADDER_GENERATORS = {
    "rca": ripple_carry_adder,
    "bka": brent_kung_adder,
    "ksa": kogge_stone_adder,
    "cla": carry_lookahead_adder,
    "csla": carry_select_adder,
    "cska": carry_skip_adder,
}


def build_adder(architecture: str, width: int) -> AdderCircuit:
    """Build an adder by architecture name (``"rca"``, ``"bka"``, ...).

    Parameters
    ----------
    architecture:
        One of :data:`ADDER_GENERATORS`.
    width:
        Operand width in bits.
    """
    try:
        generator = ADDER_GENERATORS[architecture.lower()]
    except KeyError:
        raise ValueError(
            f"unknown adder architecture {architecture!r}; "
            f"available: {', '.join(sorted(ADDER_GENERATORS))}"
        ) from None
    return generator(width)


def parse_adder_name(name: str) -> tuple[str, int]:
    """Split a benchmark-style adder name into ``(architecture, width)``.

    ``"rca8"`` -> ``("rca", 8)``, ``"bka16"`` -> ``("bka", 16)`` ...  This is
    the inverse of the ``AdderCircuit.name`` convention, used by
    :func:`repro.circuits.operators.parse_circuit_spec` to read operator
    names.
    """
    for architecture in sorted(ADDER_GENERATORS, key=len, reverse=True):
        if name.lower().startswith(architecture):
            suffix = name[len(architecture) :]
            if suffix.isdigit():
                return architecture, int(suffix)
    raise ValueError(
        f"cannot parse adder name {name!r} (expected e.g. rca8, bka16)"
    )


__all__ = [
    "AdderCircuit",
    "SpeculativeAdderCircuit",
    "SPECULATIVE_ARCHITECTURE",
    "ripple_carry_adder",
    "brent_kung_adder",
    "kogge_stone_adder",
    "carry_lookahead_adder",
    "carry_select_adder",
    "carry_skip_adder",
    "speculative_adder",
    "ADDER_GENERATORS",
    "build_adder",
    "parse_adder_name",
]
