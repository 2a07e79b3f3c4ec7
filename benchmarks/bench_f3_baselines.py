"""F3 — Baseline comparison: Bracha vs Ben-Or (1983) vs MMR-14 (2014).

Positions the paper in its lineage, measured on one simulator:

* **Resilience** — Ben-Or's Byzantine envelope is t < n/5; Bracha and
  MMR-14 reach the optimal t < n/3 (T5 demonstrates the gap under
  attack; here all runs stay within each protocol's envelope).
* **Cost** — Bracha pays O(n³) messages/round for full broadcast
  validation; Ben-Or and MMR-14 pay O(n²).
* **Rounds** — with a common coin, Bracha and MMR-14 decide in O(1)
  expected rounds; Ben-Or/Bracha with local coins depend on luck.
"""

from conftest import run_once

from repro.analysis.stats import summarize
from repro.analysis.tables import format_table
from repro.scenario import Scenario, run

TRIALS = 6


def test_f3_protocol_comparison(benchmark, table_sink, bench_sink):
    configs = [
        ("bracha", "local"), ("bracha", "dealer"),
        ("benor", "local"), ("benor", "dealer"),
        ("mmr14", "dealer"),
    ]
    sizes = [4, 7, 10]

    def experiment():
        rows = []
        for protocol, coin in configs:
            for n in sizes:
                rounds, messages, steps = [], [], []
                for seed in range(TRIALS):
                    result = run(Scenario(
                        protocol=protocol, n=n, coin=coin,
                        proposals=[pid % 2 for pid in range(n)],
                        seed=seed * 17 + n, max_steps=5_000_000,
                    ))
                    rounds.append(result.decision_round())
                    messages.append(result.messages_sent)
                    steps.append(result.steps)
                rows.append([
                    protocol, coin, n,
                    summarize(rounds).mean,
                    summarize(messages).mean,
                    summarize(messages).mean / max(1.0, summarize(rounds).mean),
                ])
        return rows

    rows = run_once(benchmark, experiment)
    table_sink(
        "f3_baselines",
        format_table(
            ["protocol", "coin", "n", "mean rounds", "mean msgs", "msgs/round"],
            rows,
            title="F3. Protocol lineage on one simulator "
                  "(fault-free split inputs; all runs within each envelope)",
        ),
    )
    by_key = {(row[0], row[1], row[2]): row for row in rows}
    # Bracha's per-round cost dominates the O(n²) protocols at n=10.
    assert by_key[("bracha", "dealer", 10)][5] > by_key[("mmr14", "dealer", 10)][5]
    assert by_key[("bracha", "local", 10)][5] > by_key[("benor", "local", 10)][5]
    # Common-coin Bracha decides in few rounds at every n.
    assert all(by_key[("bracha", "dealer", n)][3] <= 4 for n in sizes)
    bench_sink(
        "f3_baselines",
        {
            "bracha_msgs_per_round_n10": round(
                by_key[("bracha", "dealer", 10)][5], 1
            ),
            "mmr14_msgs_per_round_n10": round(
                by_key[("mmr14", "dealer", 10)][5], 1
            ),
        },
        meta={"sizes": sizes, "trials": TRIALS},
    )


def test_f3_fault_tolerance_within_envelopes(benchmark, table_sink):
    """Same comparison with each protocol's maximum tolerable silent
    faults injected: Ben-Or needs n=6 for one Byzantine fault; Bracha and
    MMR-14 handle ⌊(n−1)/3⌋ at n=7; crash-only Ben-Or rides t < n/2."""
    configs = [
        ("bracha", 7, 2, {5: "silent", 6: "silent"}),
        ("mmr14", 7, 2, {5: "silent", 6: "silent"}),
        ("benor", 6, 1, {5: "silent"}),
        # The benign-fault anchor: crash-only Ben-Or tolerates t < n/2.
        ("benor-crash", 5, 2, {3: "silent", 4: "silent"}),
    ]

    def experiment():
        rows = []
        for protocol, n, t, faults in configs:
            decided = 0
            rounds = []
            for seed in range(TRIALS):
                result = run(Scenario(
                    protocol=protocol, n=n, t=t,
                    proposals=[pid % 2 for pid in range(n)],
                    faults=faults, seed=seed * 31, max_steps=5_000_000,
                ))
                decided += int(result.all_decided)
                rounds.append(result.decision_round())
            rows.append([protocol, n, t, len(faults), TRIALS, decided,
                         summarize(rounds).mean])
        return rows

    rows = run_once(benchmark, experiment)
    table_sink(
        "f3_fault_envelopes",
        format_table(
            ["protocol", "n", "t", "faults", "trials", "all decided", "mean rounds"],
            rows,
            title="F3b. Maximum tolerable silent faults per protocol envelope",
        ),
    )
    assert all(row[5] == TRIALS for row in rows)
