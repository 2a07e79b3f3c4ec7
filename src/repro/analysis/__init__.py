"""Result assembly, statistics, and tables.

:mod:`repro.analysis.experiments` folds every fabric's per-node outcome
records into one verified ``RunResult`` and *checks the paper's safety
properties* on the way out — agreement, validity, and integrity are
asserted rather than trusted, so a regression in any protocol layer
fails loudly everywhere.  Runs themselves are declared as
:class:`~repro.scenario.Scenario` values and executed by
:func:`repro.scenario.run`.
"""

from .experiments import broadcast_stack, run_broadcast
from .stats import Summary, fit_power_law, summarize
from .tables import format_table

__all__ = [
    "Summary",
    "broadcast_stack",
    "fit_power_law",
    "format_table",
    "run_broadcast",
    "summarize",
]
