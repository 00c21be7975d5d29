"""Pluggable combine strategies: the registry behind ``--op <spec>``.

The subsystem has three parts:

* :mod:`repro.strategies.spec` -- the ``name[:key=value,...]`` spec
  codec (:func:`parse_spec` / :func:`format_spec`);
* :mod:`repro.strategies.registry` -- the catalog of named strategies
  and the :func:`build_combine` factory every layer calls;
* :mod:`repro.strategies.state` -- deterministic export/import of
  stateful operators for warm starts and checkpoint resume.

The per-variable router (:class:`PerVariableCombine`, ⌴ at widening
points and join elsewhere: the Goblint idiom) and the ``wpoint`` map
live with the other operators, in :mod:`repro.solvers.combine` and
:mod:`repro.solvers.wpoints`, and are re-exported here.

See ``docs/strategies.md`` for the strategy catalog and spec grammar.
"""

from repro.solvers.combine import PerVariableCombine
from repro.solvers.wpoints import node_widening_points, widening_point_combine
from repro.strategies.registry import (
    BuildContext,
    EscalationRung,
    StrategyInfo,
    UnknownStrategyError,
    all_strategies,
    build_combine,
    canonical_spec,
    escalation_ladder,
    get_strategy,
    register_strategy,
    resolve_spec,
    strategy_listing,
    strategy_names,
)
from repro.strategies.spec import (
    SpecError,
    StrategySpec,
    format_spec,
    parse_spec,
)
from repro.strategies.state import export_combine_state, import_combine_state

__all__ = [
    "BuildContext",
    "EscalationRung",
    "PerVariableCombine",
    "SpecError",
    "StrategyInfo",
    "StrategySpec",
    "UnknownStrategyError",
    "all_strategies",
    "build_combine",
    "canonical_spec",
    "escalation_ladder",
    "export_combine_state",
    "format_spec",
    "get_strategy",
    "import_combine_state",
    "node_widening_points",
    "parse_spec",
    "register_strategy",
    "resolve_spec",
    "strategy_listing",
    "strategy_names",
    "widening_point_combine",
]
