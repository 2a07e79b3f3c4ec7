"""Scenario grids: sweep expansion over declarative scenarios.

A :class:`ScenarioGrid` takes a base :class:`~repro.scenario.spec.Scenario`
and declares swept *fields*; expansion produces one scenario per point of
the cartesian product, each executed ``trials`` times through the checked
:func:`repro.scenario.run` dispatcher.  Because the swept axes are
scenario fields, a grid can sweep anything a scenario declares — system
size, coin scheme, fault tables, schedulers, even the execution fabric::

    from repro.scenario import Scenario, ScenarioGrid

    grid = ScenarioGrid(Scenario(protocol="bracha"), trials=10, seed=42)
    grid.add("n", [4, 7, 10])
    grid.add("coin", ["local", "dealer"])
    result = grid.run()
    print(result.table(metric="rounds"))

Per-cell trial seeds derive from the grid seed and the cell's
configuration, so adding a dimension does not reshuffle existing cells.
The aggregation types (:class:`Cell`, :class:`SweepResult`,
:data:`METRICS`) render and rank the executed cells.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Tuple

from ..analysis.stats import Summary, summarize
from ..analysis.tables import format_table
from ..errors import ConfigError, ReproError
from ..sim.rng import derive_seed
from ..types import RunResult
from .runner import run
from .spec import Scenario

#: Metrics extractable from a RunResult, by name.  The ``netem_*`` and
#: ``retransmitted`` metrics read the adverse-network counters recorded
#: by runtime-fabric runs (zero when netem is off), so link conditions
#: aggregate in sweep tables right alongside message counts.
METRICS = {
    "rounds": lambda r: float(r.decision_round()),
    "total_rounds": lambda r: float(r.rounds),
    "messages": lambda r: float(r.messages_sent),
    "steps": lambda r: float(r.steps),
    "virtual_time": lambda r: float(r.virtual_time),
    "coin_flips": lambda r: float(r.meta.get("coin_flips", 0)),
    "frames_sent": lambda r: float(
        r.metrics.counter("frames_sent") if r.metrics is not None else 0
    ),
    "messages_per_frame": lambda r: float(
        r.metrics.gauges.get("messages_per_frame", 0.0)
        if r.metrics is not None else 0.0
    ),
    "netem_frames": lambda r: float(r.meta.get("netem", {}).get("frames", 0)),
    "netem_dropped": lambda r: float(r.meta.get("netem", {}).get("dropped", 0)),
    "netem_delayed": lambda r: float(r.meta.get("netem", {}).get("delayed", 0)),
    "netem_duplicated": lambda r: float(
        r.meta.get("netem", {}).get("duplicated", 0)
    ),
    "retransmitted": lambda r: float(
        r.meta.get("netem", {}).get("retransmitted", 0)
    ),
    # Typed-snapshot metrics (RunResult.metrics); zero when the run's
    # collector attached no snapshot.
    "decisions": lambda r: float(
        r.metrics.counter("decisions") if r.metrics is not None else 0
    ),
    "decision_latency_p50": lambda r: float(
        r.metrics.quantile("decision_latency", "p50")
        if r.metrics is not None else 0.0
    ),
    "decision_latency_p95": lambda r: float(
        r.metrics.quantile("decision_latency", "p95")
        if r.metrics is not None else 0.0
    ),
    "decision_latency_p99": lambda r: float(
        r.metrics.quantile("decision_latency", "p99")
        if r.metrics is not None else 0.0
    ),
    "decision_latency_max": lambda r: float(
        r.metrics.histogram("decision_latency").get("max", 0.0)
        if r.metrics is not None else 0.0
    ),
}


@dataclass(frozen=True)
class Cell:
    """One grid point: the configuration and its aggregated results."""

    config: Tuple[Tuple[str, Any], ...]
    results: Tuple[RunResult, ...]
    failures: int  # runs that raised (only with tolerate_failures=True)

    def metric(self, name: str) -> Summary:
        if name not in METRICS:
            raise ConfigError(
                f"unknown metric {name!r}; choose from {sorted(METRICS)}"
            )
        if not self.results:
            raise ConfigError("cell has no successful runs to summarize")
        return summarize([METRICS[name](r) for r in self.results])

    def violations(self) -> int:
        return sum(len(r.violations) for r in self.results)

    @property
    def label(self) -> Dict[str, Any]:
        return dict(self.config)


@dataclass
class SweepResult:
    """All cells of a finished grid run."""

    dimensions: Tuple[str, ...]
    cells: List[Cell] = field(default_factory=list)

    def table(self, metric: str = "rounds", markdown: bool = False) -> str:
        """Render one metric across the grid as a table."""
        headers = list(self.dimensions) + [
            "trials", "failures", f"{metric} mean", "±95%", "p90", "max",
        ]
        rows = []
        for cell in self.cells:
            label = cell.label
            if cell.results:
                summary = cell.metric(metric)
                stats_cols = [summary.mean, summary.ci95_half_width,
                              summary.p90, summary.maximum]
            else:
                stats_cols = ["-", "-", "-", "-"]
            rows.append(
                [label[d] for d in self.dimensions]
                + [len(cell.results), cell.failures] + stats_cols
            )
        return format_table(headers, rows, markdown=markdown)

    def best(self, metric: str = "rounds") -> Cell:
        """The cell with the lowest mean of ``metric``."""
        candidates = [c for c in self.cells if c.results]
        if not candidates:
            raise ConfigError("grid produced no successful cells")
        return min(candidates, key=lambda c: c.metric(metric).mean)

    def cell(self, **config: Any) -> Cell:
        """Look up a cell by (a subset of) its configuration."""
        for candidate in self.cells:
            label = candidate.label
            if all(label.get(k) == v for k, v in config.items()):
                return candidate
        raise ConfigError(f"no cell matching {config!r}")


_SCENARIO_FIELDS = {f.name for f in dataclasses.fields(Scenario)}


class ScenarioGrid:
    """A cartesian grid of scenario-field values over one base scenario.

    ``add(field, values)`` declares a swept dimension; ``field`` is any
    :class:`~repro.scenario.spec.Scenario` field name.  Every cell's
    scenario is the base with the cell's config applied — validated cell
    by cell during :meth:`scenarios` expansion, executed (with per-trial
    derived seeds) by :meth:`run`.

    ``base`` is either an already-validated :class:`Scenario` or a plain
    mapping of scenario fields.  A mapping is only validated *together
    with* each cell's swept values, which matters when the base is
    incomplete on its own (e.g. a fault table whose pids only fit the
    swept ``n`` values).
    """

    def __init__(
        self,
        base: Scenario | Mapping[str, Any] | None = None,
        trials: int = 10,
        seed: int = 0,
        tolerate_failures: bool = False,
    ):
        if trials < 1:
            raise ConfigError("need at least one trial per cell")
        if base is None:
            base = Scenario()
        elif not isinstance(base, Scenario):
            base = dict(base)
            unknown = sorted(set(base) - _SCENARIO_FIELDS)
            if unknown:
                raise ConfigError(
                    f"unknown scenario field(s) in grid base: {unknown}"
                )
        self.base = base
        self.trials = trials
        self.seed = seed
        self.tolerate_failures = tolerate_failures
        self._dimensions: List[Tuple[str, List[Any]]] = []

    def add(self, name: str, values: Iterable[Any]) -> "ScenarioGrid":
        if name not in _SCENARIO_FIELDS:
            raise ConfigError(
                f"{name!r} is not a scenario field; "
                f"choose from {sorted(_SCENARIO_FIELDS)}"
            )
        values = list(values)
        if not values:
            raise ConfigError(f"dimension {name!r} has no values")
        if name in dict(self._dimensions):
            raise ConfigError(f"dimension {name!r} declared twice")
        self._dimensions.append((name, values))
        return self

    @property
    def dimensions(self) -> Tuple[str, ...]:
        return tuple(name for name, _values in self._dimensions)

    def _configs(self) -> Iterator[Tuple[Tuple[str, Any], ...]]:
        names = [name for name, _values in self._dimensions]
        for combo in itertools.product(*(values for _n, values in self._dimensions)):
            yield tuple(zip(names, combo))

    def scenarios(self) -> Iterator[Tuple[Tuple[Tuple[str, Any], ...], Scenario]]:
        """Expand the grid: yield ``(config, scenario)`` per cell."""
        if not self._dimensions:
            raise ConfigError("declare at least one dimension before running")
        for config in self._configs():
            if isinstance(self.base, Scenario):
                yield config, self.base.replace(**dict(config))
            else:
                yield config, Scenario(**{**self.base, **dict(config)})

    def run(self, check: bool = True) -> SweepResult:
        """Execute every cell ``trials`` times; aggregate per cell.

        A failing run (safety violation, liveness failure, exhausted
        budget) raises unless ``tolerate_failures`` is set, in which case
        it is counted in the cell's ``failures``.
        """
        result = SweepResult(self.dimensions)
        for config, scenario in self.scenarios():
            runs: List[RunResult] = []
            failures = 0
            for trial in range(self.trials):
                trial_seed = derive_seed(self.seed, "sweep", config, trial)
                try:
                    runs.append(run(scenario, check=check, seed=trial_seed))
                except ReproError:
                    if not self.tolerate_failures:
                        raise
                    failures += 1
            result.cells.append(Cell(config, tuple(runs), failures))
        return result


__all__ = ["Cell", "METRICS", "ScenarioGrid", "SweepResult"]
