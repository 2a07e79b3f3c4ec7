"""Declarative scenarios: one spec, every fabric.

This package is the repository's single front door for defining and
executing protocol experiments:

* :class:`Scenario` — a frozen, validated, JSON-round-trippable value
  object capturing protocol, system size, proposals, coin, faults,
  network conditions, fabric, batching, seed, and stop condition
  (:mod:`repro.scenario.spec`);
* :func:`run` — the fabric dispatcher: the same scenario executes on
  the discrete-event simulator (``sim``), the asyncio runtime over
  in-process queues (``local``), or authenticated TCP (``tcp``), all
  through identical stacks and safety verifiers
  (:mod:`repro.scenario.runner`); :func:`assemble_sim` hands back the
  simulator assembly for step-by-step driving;
* :data:`CATALOG` — named, curated scenarios runnable by name from the
  CLI and executed wholesale in CI (:mod:`repro.scenario.catalog`);
* :class:`ScenarioGrid` — sweep expansion over scenario fields
  (:mod:`repro.scenario.grid`).

Quickstart::

    from repro.scenario import get_scenario, run

    result = run(get_scenario("two-faced-equivocator"))
    print(result.decided_values)            # a singleton, or run() raises
"""

from .spec import (
    BATCHING_MODES,
    COINS,
    FABRICS,
    SCHEDULERS,
    STOPS,
    Scenario,
    load_scenario,
    make_scheduler,
    parse_faults,
    parse_link,
    parse_proposals,
)
from .catalog import CATALOG, catalog_names, get_scenario
from .grid import Cell, METRICS, ScenarioGrid, SweepResult
from .runner import SimRun, assemble_sim, repeat, run

__all__ = [
    "BATCHING_MODES",
    "CATALOG",
    "COINS",
    "Cell",
    "FABRICS",
    "METRICS",
    "SCHEDULERS",
    "STOPS",
    "Scenario",
    "SimRun",
    "ScenarioGrid",
    "SweepResult",
    "assemble_sim",
    "catalog_names",
    "get_scenario",
    "load_scenario",
    "make_scheduler",
    "parse_faults",
    "parse_link",
    "parse_proposals",
    "repeat",
    "run",
]
