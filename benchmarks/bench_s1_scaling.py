"""S1 — Per-message cost vs system size on the simulator and asyncio-local.

The paper's cost claim is O(n³) messages per consensus round; measuring
it at sizes where the exponent means anything needs a fabric whose cost
per delivered message does not itself grow with n.  The simulator's
uniform-random delivery choice is an O(log P) order-statistic lookup in
the pending set (docs/architecture.md, "Pending set and delivery
choice"), so its µs per delivered message should stay flat from n=4 to
n=31, like the asyncio-local fabric's.

Regenerates: µs per delivered message for one unanimous Bracha decision
per fabric at n ∈ {4, 7, 10, 16, 31}, one fixed seed per size.  Gates:

* ``sim_flatness_x`` — ``sim`` µs/msg at n=31 over n=4, computed in-run
  so the bound holds on any machine (≤ 2x);
* ``sim_messages_n<N>`` — the simulator's exact message count per size
  for the fixed seeds (min = max in ``floors.json``).

Every cell repeats its run until it has delivered ``TARGET_DELIVERIES``
messages (at least once, at most ``MAX_REPEATS`` times) and reports the
median µs/msg over the repeats, so small sizes are not one noisy 10 ms
sample.  ``--smoke`` lowers the target; sizes and seeds stay the same.
"""

import math
import statistics
import time

from conftest import run_once

from repro.analysis.tables import format_table
from repro.scenario import Scenario, run

SIZES = (4, 7, 10, 16, 31)
FABRICS = ("sim", "local")
MAX_REPEATS = 50


def _cell(scenario, fabric, target):
    """(messages sent, messages delivered, median µs per delivered msg)."""
    samples = []
    counts = set()
    repeats = 1
    while len(samples) < repeats:
        start = time.perf_counter()
        result = run(scenario, fabric=fabric)
        elapsed = time.perf_counter() - start
        assert result.decided_values == {1}
        counts.add((result.messages_sent, result.messages_delivered))
        samples.append(elapsed * 1e6 / result.messages_delivered)
        repeats = min(MAX_REPEATS,
                      max(1, math.ceil(target / result.messages_delivered)))
    assert len(counts) == 1, f"{fabric} n={scenario.n}: counts vary {counts}"
    (sent, delivered), = counts
    return sent, delivered, statistics.median(samples), len(samples)


def test_s1_scaling(benchmark, table_sink, bench_sink, smoke):
    target = 20_000 if smoke else 200_000

    def experiment():
        rows = []
        for n in SIZES:
            scenario = Scenario(protocol="bracha", n=n, proposals=1, seed=n)
            for fabric in FABRICS:
                sent, delivered, us, repeats = _cell(scenario, fabric, target)
                rows.append([n, fabric, sent, delivered, round(us, 2), repeats])
        return rows

    rows = run_once(benchmark, experiment)
    us = {(row[0], row[1]): row[4] for row in rows}
    flatness = {
        fabric: round(us[(SIZES[-1], fabric)] / us[(SIZES[0], fabric)], 3)
        for fabric in FABRICS
    }
    table_sink(
        "s1_scaling",
        format_table(
            ["n", "fabric", "messages", "delivered", "µs/msg", "repeats"],
            rows,
            title="S1. µs per delivered message, one unanimous Bracha "
                  f"decision (n={SIZES[-1]} over n={SIZES[0]}: "
                  f"sim {flatness['sim']}x, local {flatness['local']}x)",
        ),
    )
    assert flatness["sim"] <= 2.0, (
        f"sim µs/msg grows with n: {flatness['sim']}x from n={SIZES[0]} "
        f"to n={SIZES[-1]}"
    )
    metrics = {
        f"{fabric}_us_per_msg_n{n}": us[(n, fabric)]
        for n in SIZES for fabric in FABRICS
    }
    metrics["sim_flatness_x"] = flatness["sim"]
    metrics["local_flatness_x"] = flatness["local"]
    for n, fabric, sent, *_rest in rows:
        if fabric == "sim":
            metrics[f"sim_messages_n{n}"] = sent
    bench_sink(
        "s1_scaling",
        metrics,
        meta={"sizes": list(SIZES), "seeds": list(SIZES),
              "target_deliveries": target},
    )
