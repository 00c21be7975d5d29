"""Golden update sequences for every update operator and its state.

Each case drives one operator through a fixed sequence of updates over
:class:`~repro.lattices.IntervalLattice` -- growth, strict shrink, an
equal re-evaluation, and regrowth after narrowing, on several unknowns
-- and pins every returned value together with the operator's exported
per-unknown state (:func:`~repro.strategies.export_combine_state`)
after each step.  The cases cover every registered combine strategy
that needs no CFG, ``wpoint`` on a small loop program, the selective
widening-point operator, and the supervisor's escalation router after
each ladder rung.

``goldens_operator_state.json`` is the recorded ground truth.  To
record it again after an intended behaviour change::

    PYTHONPATH=src python -m tests.strategies.test_operator_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.inter import PP
from repro.lang import compile_program
from repro.lattices import IntervalLattice
from repro.lattices.interval import NEG_INF, POS_INF, Interval
from repro.solvers import selective_combine, selective_warrow_combine
from repro.strategies import (
    BuildContext,
    all_strategies,
    build_combine,
    escalation_ladder,
    export_combine_state,
    node_widening_points,
)
from repro.supervise import escalation_router

GOLDEN = Path(__file__).parent / "goldens_operator_state.json"

iv = IntervalLattice()

LOOP = """
int main() {
  int i;
  i = 0;
  while (i < 10) { i = i + 1; }
  return i;
}
"""

#: ``(unknown label, new contribution)``; each step's old value is the
#: label's previous result (bottom at first).
STEPS = (
    ("x", Interval(0, 0)),  # growth from bottom
    ("y", Interval(5, 5)),
    ("x", Interval(0, 1)),  # growth
    ("z", Interval(-1, 1)),
    ("x", Interval(0, 2)),  # growth
    ("y", Interval(4, 6)),
    ("x", Interval(0, 5)),  # strict shrink of a widened value
    ("x", Interval(0, 5)),  # equal re-evaluation
    ("y", Interval(5, 5)),  # strict shrink
    ("x", Interval(0, 8)),  # regrowth after narrowing
    ("x", Interval(0, 3)),  # shrink
    ("x", Interval(0, 9)),  # regrowth
    ("x", Interval(0, 4)),  # shrink
    ("z", Interval(-1, 1)),  # equal re-evaluation
    ("z", Interval(0, 0)),  # shrink
    ("z", Interval(-2, 2)),  # regrowth
    ("y", Interval(3, 7)),  # regrowth
    ("y", Interval(5, 5)),  # shrink
    # Unbounded contributions: narrowing recovers bounds even under join.
    ("w", Interval(0, POS_INF)),  # growth from bottom
    ("w", Interval(0, 4)),  # strict shrink
    ("w", Interval(0, 4)),  # equal re-evaluation
    ("w", Interval(0, POS_INF)),  # regrowth after narrowing: switch 1
    ("w", Interval(0, 6)),  # shrink
    ("w", Interval(NEG_INF, 6)),  # regrowth: switch 2
    ("w", Interval(1, 6)),  # shrink
    ("w", Interval(0, POS_INF)),  # regrowth: switch 3
    ("w", Interval(0, 2)),  # shrink
    ("w", Interval(0, POS_INF)),  # regrowth: switch 4
    ("w", Interval(0, 1)),  # shrink
)

STRINGS = {label: label for label in "wxyz"}

#: Specs beyond the registry defaults.
VARIANTS = (
    "widen:delay=1",
    "warrow:delay=1",
    "warrow:delay=2",
    "warrow-k:k=1",
    "bounded-narrow:cap=2",
    "threshold-widen:delay=1",
    "join-narrow:bound=1",
)


def _cfg_free_names():
    return [
        info.name
        for info in all_strategies()
        if info.kind == "combine" and not info.needs_cfg
    ]


def _wpoint(spec):
    """``wpoint`` on the loop program: ``x`` is a loop-head point, ``y``
    and ``w`` are other points, ``z`` is a string (no node: accelerated)."""
    cfg = compile_program(LOOP)
    heads = node_widening_points(cfg)
    nodes = cfg.functions["main"].nodes
    head = next(n for n in nodes if n in heads)
    first, second = [n for n in nodes if n not in heads][:2]
    unknowns = {
        "w": PP("main", (), second),
        "x": PP("main", (), head),
        "y": PP("main", (), first),
        "z": "z",
    }
    return build_combine(spec, iv, ctx=BuildContext(cfg=cfg)), unknowns


def _escalation(rungs):
    """The supervisor's router after ``rungs`` ladder rungs: ``y`` is
    flagged by rung 1; rung 2 adds ``w`` and ``x``, but not ``z``."""
    ladder = escalation_ladder(descent_cap=1)
    base = build_combine("warrow:delay=1", iv)
    escalated = {"y"} if rungs == 1 else {"w", "x", "y"}
    degraded = build_combine(ladder[rungs - 1].spec, iv)
    return escalation_router(base, escalated, degraded), STRINGS


def _cases():
    cases = {
        spec: (lambda s=spec: (build_combine(s, iv), STRINGS))
        for spec in (*_cfg_free_names(), *VARIANTS)
    }
    for spec in ("wpoint", "wpoint:delay=1", "wpoint:bound=1"):
        cases[spec] = lambda s=spec: _wpoint(s)
    cases["selective"] = lambda: (selective_combine(iv, {"x"}), STRINGS)
    cases["selective-warrow"] = lambda: (
        selective_warrow_combine(iv, {"x"}),
        STRINGS,
    )
    cases["selective-warrow:delay=1"] = lambda: (
        selective_warrow_combine(iv, {"x"}, delay=1),
        STRINGS,
    )
    cases["escalation:rung=1"] = lambda: _escalation(1)
    cases["escalation:rung=2"] = lambda: _escalation(2)
    return cases


CASES = _cases()


def record(name):
    """Run the update sequence of case ``name``; one row per step."""
    op, unknowns = CASES[name]()
    values = {}
    rows = []
    for label, new in STEPS:
        x = unknowns[label]
        old = values.get(label, iv.bottom)
        out = op(x, old, new)
        values[label] = out
        state = json.dumps(export_combine_state(op), sort_keys=True)
        rows.append([label, iv.format(old), iv.format(new), iv.format(out), state])
    return rows


def _golden():
    return json.loads(GOLDEN.read_text())


def test_every_cfg_free_strategy_has_a_golden():
    assert set(_cfg_free_names()) <= set(_golden())


@pytest.mark.parametrize("name", sorted(CASES))
def test_update_sequence_matches_golden(name):
    assert record(name) == _golden()[name]


if __name__ == "__main__":
    # One step per line keeps a changed step visible in a diff.
    body = ",\n".join(
        f" {json.dumps(name)}: [\n"
        + ",\n".join(f"  {json.dumps(row)}" for row in record(name))
        + "\n ]"
        for name in sorted(CASES)
    )
    GOLDEN.write_text("{\n" + body + "\n}\n")
