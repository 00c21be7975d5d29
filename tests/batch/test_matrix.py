"""Strategy-matrix documents: schema, persistence, and the Fig. 7 claim."""

from __future__ import annotations

import copy

import pytest

from repro.batch import (
    MATRIX_FORMAT,
    load_bench,
    render_matrix,
    run_matrix,
    validate_matrix,
    write_bench,
)
from repro.batch.matrix import resolve_matrix_strategies
from repro.strategies import SpecError, UnknownStrategyError

LOOP = """
int g = 0;
int main() {
    int i = 0;
    while (i < %d) { i = i + 1; }
    g = i;
    return g;
}
"""


def tiny_programs(n: int = 2) -> list:
    return [("t", f"loop{i}", LOOP % (10 + i)) for i in range(n)]


@pytest.fixture(scope="module")
def doc():
    return run_matrix(
        tiny_programs(),
        ["widen", "warrow", "twophase"],
        baseline="widen",
        revision="test",
    )


class TestResolveStrategies:
    def test_baseline_comes_first_and_specs_canonicalise(self):
        columns, base = resolve_matrix_strategies(
            ["warrow:delay=1", "box:delay=1", "widen"], "widen"
        )
        assert base == "widen:delay=1"
        assert columns == ["widen:delay=1", "warrow:delay=1"]

    def test_baseline_prepended_when_absent(self):
        columns, base = resolve_matrix_strategies(["warrow"], "widen")
        assert columns[0] == base == "widen:delay=1"

    def test_invalid_specs_rejected_before_solving(self):
        with pytest.raises(UnknownStrategyError):
            resolve_matrix_strategies(["bogus"], "widen")
        with pytest.raises(SpecError):
            resolve_matrix_strategies(["warrow:delay=x"], "widen")


class TestRunMatrix:
    def test_document_is_schema_valid(self, doc):
        assert validate_matrix(doc) == []
        assert doc["format"] == MATRIX_FORMAT
        assert doc["baseline"] == "widen:delay=1"

    def test_one_cell_per_program_and_strategy(self, doc):
        assert doc["totals"]["cells"] == 2 * 3
        assert doc["totals"]["failed"] == 0
        assert {c["strategy"] for c in doc["cells"]} == set(doc["strategies"])

    def test_baseline_cells_compare_equal_to_themselves(self, doc):
        for cell in doc["cells"]:
            if cell["strategy"] == doc["baseline"]:
                assert cell["better"] == cell["worse"] == 0
                assert cell["equal"] == cell["total"] > 0

    def test_fig7_claim_warrow_improves_without_regressing(self, doc):
        # The paper's headline (Fig. 7): solving with ⌴ improves a
        # nonzero fraction of points over pure widening, never regresses.
        rows = {r["strategy"]: r for r in doc["totals"]["strategies"]}
        warrow = rows["warrow:delay=1"]
        assert warrow["improved_points"] > 0
        assert warrow["regressed_points"] == 0
        assert warrow["improved_fraction"] > 0.0
        assert warrow["programs_improved"] > 0

    def test_matrix_is_deterministic_modulo_wall_time(self, doc):
        again = run_matrix(
            tiny_programs(),
            ["widen", "warrow", "twophase"],
            baseline="widen",
            revision="test",
        )

        def stripped(d):
            d = copy.deepcopy(d)
            for cell in d["cells"]:
                cell.pop("wall_time")
            for row in d["totals"]["strategies"]:
                row.pop("wall_time")
            return d

        assert stripped(again) == stripped(doc)

    def test_input_error_becomes_a_failed_cell(self):
        bad = run_matrix(
            [("t", "broken", "int main( {")], ["warrow"], revision="test"
        )
        assert validate_matrix(bad) == []
        statuses = {c["status"] for c in bad["cells"]}
        assert statuses == {"input-error"}
        assert bad["totals"]["failed"] == bad["totals"]["cells"]


class TestPersistence:
    def test_write_load_round_trip(self, doc, tmp_path):
        path = write_bench(doc, tmp_path / "m.json")
        assert load_bench(path, validate_matrix, MATRIX_FORMAT) == doc

    def test_load_rejects_corrupted_documents(self, doc, tmp_path):
        bad = copy.deepcopy(doc)
        bad["format"] = "something-else"
        path = write_bench(bad, tmp_path / "bad.json")
        with pytest.raises(ValueError, match=f"not a valid {MATRIX_FORMAT}"):
            load_bench(path, validate_matrix, MATRIX_FORMAT)

    def test_validate_spots_missing_cell_fields(self, doc):
        bad = copy.deepcopy(doc)
        del bad["cells"][0]["hash"]
        assert any("hash" in p for p in validate_matrix(bad))

    def test_validate_spots_duplicate_cells(self, doc):
        bad = copy.deepcopy(doc)
        bad["cells"].append(copy.deepcopy(bad["cells"][0]))
        assert any("duplicate" in p for p in validate_matrix(bad))

    def test_render_mentions_every_strategy(self, doc):
        text = render_matrix(doc)
        for spec in doc["strategies"]:
            assert spec in text
