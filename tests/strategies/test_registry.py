"""Tests for the strategy registry: catalog, resolution, factories, ladder."""

from __future__ import annotations

import pytest

from repro.lang import compile_program
from repro.lattices import IntervalLattice
from repro.solvers.combine import (
    BoundedNarrowCombine,
    BoundedWarrowCombine,
    WarrowCombine,
    WidenCombine,
)
from repro.strategies import (
    BuildContext,
    PerVariableCombine,
    SpecError,
    UnknownStrategyError,
    all_strategies,
    build_combine,
    canonical_spec,
    escalation_ladder,
    get_strategy,
    resolve_spec,
    strategy_listing,
    strategy_names,
)

iv = IntervalLattice()

LOOP = """
int main() {
  int i;
  i = 0;
  while (i < 10) { i = i + 1; }
  return i;
}
"""


class TestCatalog:
    def test_core_strategies_registered(self):
        names = strategy_names()
        for name in (
            "override",
            "join",
            "meet",
            "widen",
            "narrow",
            "warrow",
            "warrow-k",
            "bounded-narrow",
            "no-narrow",
            "threshold-widen",
            "join-narrow",
            "wpoint",
            "twophase",
            "decoupled",
        ):
            assert name in names

    def test_aliases_resolve_to_canonical(self):
        assert get_strategy("box").name == "warrow"
        assert get_strategy("combined").name == "warrow"
        assert get_strategy("widening").name == "widen"
        assert get_strategy("two-phase").name == "twophase"

    def test_unknown_strategy_is_lookup_error(self):
        assert issubclass(UnknownStrategyError, LookupError)
        with pytest.raises(UnknownStrategyError):
            get_strategy("bogus")

    def test_listing_is_machine_readable(self):
        listing = strategy_listing()
        assert [row["name"] for row in listing] == strategy_names()
        for row in listing:
            for key in (
                "name",
                "aliases",
                "kind",
                "params",
                "idempotent",
                "solve_ready",
                "needs_thresholds",
                "needs_cfg",
                "paper_ref",
                "summary",
            ):
                assert key in row

    def test_solve_ready_separates_building_blocks(self):
        for name in ("override", "join", "meet", "narrow", "join-narrow"):
            assert not get_strategy(name).solve_ready
        for name in ("warrow", "widen", "warrow-k", "no-narrow", "twophase"):
            assert get_strategy(name).solve_ready


class TestResolve:
    def test_fills_defaults(self):
        assert str(resolve_spec("warrow")) == "warrow:delay=0"
        assert str(resolve_spec("wpoint")) == "wpoint:bound=3,delay=0"

    def test_widen_delay_seeds_unset_delay(self):
        assert str(resolve_spec("warrow", widen_delay=3)) == "warrow:delay=3"

    def test_spec_delay_wins_over_widen_delay(self):
        assert (
            str(resolve_spec("warrow:delay=2", widen_delay=9))
            == "warrow:delay=2"
        )

    def test_widen_delay_ignored_when_not_accepted(self):
        assert str(resolve_spec("warrow-k", widen_delay=9)) == "warrow-k:k=2"

    def test_alias_canonicalised(self):
        assert canonical_spec("box:delay=1") == "warrow:delay=1"

    def test_unknown_param_rejected(self):
        with pytest.raises(SpecError):
            resolve_spec("warrow:cap=1")


class TestBuild:
    def test_builds_the_paper_default(self):
        op = build_combine("warrow:delay=1", iv)
        assert isinstance(op, WarrowCombine)
        assert str(op.spec) == "warrow:delay=1"

    def test_builds_parameterized_operators(self):
        assert isinstance(build_combine("widen:delay=2", iv), WidenCombine)
        assert isinstance(build_combine("warrow-k:k=1", iv), BoundedWarrowCombine)
        assert isinstance(
            build_combine("bounded-narrow:cap=0", iv), BoundedNarrowCombine
        )

    def test_every_cfg_free_combine_strategy_builds(self):
        for info in all_strategies():
            if info.kind != "combine" or info.needs_cfg:
                continue
            op = build_combine(info.name, iv)
            assert op.spec is not None
            assert op.spec.name == info.name

    def test_phased_strategies_are_rejected(self):
        with pytest.raises(SpecError, match="twophase"):
            build_combine("twophase", iv)

    def test_wpoint_needs_a_cfg(self):
        with pytest.raises(SpecError, match="CFG"):
            build_combine("wpoint", iv)

    def test_wpoint_builds_with_a_cfg(self):
        cfg = compile_program(LOOP)
        op = build_combine("wpoint", iv, ctx=BuildContext(cfg=cfg))
        assert isinstance(op, PerVariableCombine)
        assert str(op.spec) == "wpoint:bound=3,delay=0"

    def test_fresh_preserves_spec(self):
        op = build_combine("warrow:delay=1", iv)
        clone = op.fresh()
        assert clone is not op
        assert clone.spec == op.spec


class TestEscalationLadder:
    def test_two_rungs_mildest_first(self):
        ladder = escalation_ladder(descent_cap=2)
        assert [r.scope for r in ladder] == ["targeted", "all"]
        assert ladder[0].spec == "bounded-narrow:cap=2"
        assert ladder[1].spec == "bounded-narrow:cap=0"

    def test_rungs_name_registered_strategies(self):
        for rung in escalation_ladder(descent_cap=1):
            op = build_combine(rung.spec, iv)
            assert isinstance(op, BoundedNarrowCombine)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            escalation_ladder(descent_cap=-1)
