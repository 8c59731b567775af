"""``repro lint``: AST-based enforcement of the repo's own contracts.

A dependency-free, single-pass static analyzer whose rules encode the
invariants the codebase's guarantees rest on -- determinism (seeded RNG,
clock seam, ordered iteration, sorted JSON), resilience hygiene (executor
seam, counted-not-swallowed errors), async discipline
in the serving layer, and the JSON round-trip contract of the job API.

* :mod:`repro.lint.framework` -- rule registry, single-pass walker,
  inline suppressions, report shaping.
* :mod:`repro.lint.rules`     -- the ``RPL0xx`` rules themselves.
* :mod:`repro.lint.baseline`  -- the committed grandfathering baseline.

Importing this package registers every rule; ``repro lint [paths]`` is
the CLI front-end.
"""

from repro.lint.framework import (
    Finding,
    LintError,
    LintReport,
    LintRule,
    all_rules,
    lint_paths,
    lint_source,
)
from repro.lint import rules as _rules  # registers the RPL rules
from repro.lint.baseline import (
    DEFAULT_BASELINE_NAME,
    load_baseline,
    render_baseline,
    write_baseline,
)
from repro.lint.rules import RULE_CODES

__all__ = [
    "DEFAULT_BASELINE_NAME",
    "Finding",
    "LintError",
    "LintReport",
    "LintRule",
    "RULE_CODES",
    "all_rules",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "render_baseline",
    "write_baseline",
]

del _rules
