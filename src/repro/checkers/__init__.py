"""Bug-finding diagnostics over the solver stack.

The checkers package is the repo's downstream *consumer* of precision:
it runs the interprocedural interval/sign analyses over mini-C programs
and turns the computed invariants into structured, deterministic
:class:`Diagnostic` records -- division by zero, out-of-bounds indexing,
dead code, assertion verdicts, uninitialised reads.  The same findings
are served through three transports (``repro check``, batch
``kind="check"`` jobs, the service's ``check`` requests), all of which
solve through :func:`repro.batch.jobs.configure` and run
:func:`apply_rules` here.

See ``docs/checkers.md`` for the architecture tour and the rule
catalogue, and ``examples/buggy/`` for the golden corpus.
"""

from repro.checkers.diagnostics import (
    DIAGNOSTICS_FORMAT,
    SEVERITIES,
    Diagnostic,
    diagnostics_document,
    render_diagnostics_json,
    render_diagnostics_text,
    sarif_lite,
    validate_diagnostics,
)
from repro.checkers.engine import (
    DEFAULT_CHECK_OP,
    CheckReport,
    apply_rules,
    run_check,
)
from repro.checkers.rules import (
    CheckContext,
    CheckerRule,
    UnknownRuleError,
    all_rules,
    canonical_rule_names,
    resolve_rules,
    rule_names,
)

__all__ = [
    "DEFAULT_CHECK_OP",
    "DIAGNOSTICS_FORMAT",
    "SEVERITIES",
    "CheckContext",
    "CheckReport",
    "CheckerRule",
    "Diagnostic",
    "UnknownRuleError",
    "all_rules",
    "apply_rules",
    "canonical_rule_names",
    "diagnostics_document",
    "render_diagnostics_json",
    "render_diagnostics_text",
    "resolve_rules",
    "rule_names",
    "run_check",
    "sarif_lite",
    "validate_diagnostics",
]
