"""The sweep API (ScenarioGrid): grids, aggregation, lookups, failure tolerance."""

import pytest

from repro.errors import ConfigError
from repro.scenario import METRICS, Scenario, ScenarioGrid


def sweep(**kwargs):
    return ScenarioGrid(Scenario(**kwargs.pop("base", {})), **kwargs)


class TestConstruction:
    def test_requires_dimensions(self):
        with pytest.raises(ConfigError):
            sweep(trials=1).run()

    def test_requires_trials(self):
        with pytest.raises(ConfigError):
            sweep(trials=0)

    def test_duplicate_dimension_rejected(self):
        grid = sweep(trials=1).add("n", [4])
        with pytest.raises(ConfigError):
            grid.add("n", [7])

    def test_empty_dimension_rejected(self):
        with pytest.raises(ConfigError):
            sweep(trials=1).add("n", [])


class TestExecution:
    @pytest.fixture(scope="class")
    def grid(self):
        grid = sweep(trials=3, seed=5)
        grid.add("n", [4, 7])
        grid.add("coin", ["local", "dealer"])
        return grid.run()

    def test_full_grid(self, grid):
        assert len(grid.cells) == 4
        assert all(len(c.results) == 3 for c in grid.cells)
        assert grid.dimensions == ("n", "coin")

    def test_metric_summaries(self, grid):
        cell = grid.cell(n=4, coin="local")
        assert cell.metric("rounds").mean >= 1.0
        assert cell.metric("messages").mean > 0

    def test_unknown_metric_rejected(self, grid):
        with pytest.raises(ConfigError):
            grid.cells[0].metric("latency_in_fortnights")

    def test_cell_lookup(self, grid):
        assert grid.cell(n=7, coin="dealer").label == {"n": 7, "coin": "dealer"}
        with pytest.raises(ConfigError):
            grid.cell(n=99)

    def test_best_cell(self, grid):
        best = grid.best("messages")
        assert best.label["n"] == 4  # smaller systems send less

    def test_table_renders(self, grid):
        text = grid.table(metric="rounds")
        assert "rounds mean" in text
        assert text.count("\n") >= 5

    def test_no_violations_in_checked_runs(self, grid):
        assert all(c.violations() == 0 for c in grid.cells)

    def test_seed_stability_under_new_dimensions(self):
        """Adding a dimension must not change existing cells' runs."""
        narrow = sweep(trials=2, seed=9).add("n", [4]).run()
        wide = sweep(trials=2, seed=9).add("n", [4, 7]).run()
        a = narrow.cell(n=4).metric("steps").mean
        b = wide.cell(n=4).metric("steps").mean
        assert a == b


class TestFailureTolerance:
    def test_failures_counted_not_raised(self):
        # An impossible budget forces failures; tolerate and count them.
        grid = sweep(base={"max_steps": 5}, trials=2, seed=1, tolerate_failures=True)
        grid.add("n", [4])
        cell = grid.run().cell(n=4)
        assert cell.failures == 2
        assert cell.results == ()

    def test_failures_raise_by_default(self):
        from repro.errors import EventBudgetExceeded

        grid = sweep(base={"max_steps": 5}, trials=1, seed=1).add("n", [4])
        with pytest.raises(EventBudgetExceeded):
            grid.run()

    def test_table_with_empty_cell(self):
        grid = sweep(base={"max_steps": 5}, trials=1, seed=1, tolerate_failures=True)
        grid.add("n", [4])
        result = grid.run()
        assert result.cell(n=4).results == ()
        assert "-" in result.table()
        with pytest.raises(ConfigError):
            result.best()


class TestQuickSweep:
    def test_one_call(self):
        grid = sweep(trials=2, seed=3).add("n", [4]).add("coin", ["local"]).run()
        assert len(grid.cells) == 1
        assert len(grid.cells[0].results) == 2

    def test_metrics_registry_complete(self):
        for name in ("rounds", "messages", "steps", "coin_flips"):
            assert name in METRICS
