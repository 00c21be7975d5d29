"""The checker engine: solve, then interrogate the invariants.

:func:`run_check` is the library entry point behind ``repro check``.
It, the batch farm's ``kind="check"`` jobs and the service daemon's
``check`` requests (which run as batch jobs) build their analysis with
the shared stages of :mod:`repro.batch.jobs` -- :func:`configure
<repro.batch.jobs.configure>`, then :func:`solve <repro.batch.jobs.solve>`
-- and run :func:`apply_rules` over it, so the three transports can never
disagree about a program's diagnostics.

The operator spec is part of a check's identity: rules read the computed
abstract states, so a less precise operator (pure widening) produces
*more* findings -- false positives the combined ⌴ operator eliminates.
Phased strategies (``twophase``, ``decoupled``) are rejected: a check is
one demand-driven solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.checkers.diagnostics import Diagnostic, diagnostics_document
from repro.checkers.rules import CheckContext, CheckerRule

#: The default operator for checks: the paper's combined operator with
#: the standard delay -- precise enough to keep the clean corpus free of
#: false positives (the golden tests pin this).
DEFAULT_CHECK_OP = "warrow:delay=1"


@dataclass(frozen=True)
class CheckReport:
    """The outcome of checking one program."""

    #: Display name of the program (the CLI uses the file's basename so
    #: golden documents are path-independent).
    program: str
    #: Canonical operator spec the analysis ran with.
    op: str
    domain: str
    context: str
    #: Names of the rules that ran, in registry order.
    rules: Tuple[str, ...]
    diagnostics: Tuple[Diagnostic, ...]
    #: Solver cost of the underlying analysis.
    evaluations: int = 0
    unknowns: int = 0

    @property
    def findings(self) -> int:
        return len(self.diagnostics)

    def exit_code(self) -> int:
        """CLI taxonomy: 0 clean, 1 findings (input/divergence/internal
        failures raise before a report exists)."""
        return 1 if self.diagnostics else 0

    def document(self) -> dict:
        """The ``repro-diagnostics/1`` document for this report."""
        return diagnostics_document(
            program=self.program,
            op=self.op,
            domain=self.domain,
            context=self.context,
            rules=self.rules,
            diagnostics=self.diagnostics,
        )


def apply_rules(
    cfg, result, rules: Tuple[CheckerRule, ...]
) -> Tuple[Diagnostic, ...]:
    """Run ``rules`` over an analysis result; the deduplicated,
    canonically sorted diagnostics.

    Deduplication is by sort key: a guard condition, say, appears on
    both the assume-true and assume-false edge of the same source node,
    and must not be reported twice.
    """
    ctx = CheckContext(cfg=cfg, result=result)
    seen = set()
    out = []
    for rule in rules:
        for diag in rule.run(ctx):
            key = diag.sort_key()
            if key in seen:
                continue
            seen.add(key)
            out.append(diag)
    return tuple(sorted(out, key=Diagnostic.sort_key))


def run_check(
    source: str,
    *,
    program: str = "<input>",
    rules=None,
    op: str = DEFAULT_CHECK_OP,
    domain: str = "interval",
    context: str = "insensitive",
    solver: str = "slr+",
    widen_delay: int = 1,
    thresholds: bool = False,
    max_evals: Optional[int] = 5_000_000,
    observers=(),
) -> CheckReport:
    """Check one mini-C program end to end.

    Raises exactly the exception classes the CLI taxonomy maps: parse or
    semantic errors, unknown rules/strategies/solvers/domains (exit 2),
    :class:`~repro.solvers.stats.DivergenceError` (exit 3).  Anything
    else is an internal fault (exit 4).
    """
    from repro.analysis.inter import collect_analysis
    from repro.batch.jobs import JobSpec, configure, solve
    from repro.strategies import format_spec

    setup = configure(
        JobSpec(
            id=program,
            family="check",
            program=program,
            source=source,
            domain=domain,
            context=context,
            solver=solver,
            op=op,
            widen_delay=widen_delay,
            thresholds=thresholds,
            max_evals=max_evals,
            kind="check",
            rules=tuple(rules or ()),
        )
    )
    solver_result = solve(setup, observers=observers)
    result = collect_analysis(setup.analysis, solver_result)
    diagnostics = apply_rules(setup.cfg, result, setup.rules)
    return CheckReport(
        program=program,
        op=format_spec(setup.strategy),
        domain=domain,
        context=context,
        rules=tuple(rule.name for rule in setup.rules),
        diagnostics=diagnostics,
        evaluations=solver_result.stats.evaluations,
        unknowns=solver_result.stats.unknowns,
    )
