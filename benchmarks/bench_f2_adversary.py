"""F2 — Robustness to adversarial scheduling.

Paper claim: safety never depends on message timing, and termination
holds with probability 1 against *any* admissible adversary, including
one that sees released common coins (the model's strongest scheduler).
Regenerates: decision latency (delivery steps) under increasingly
hostile schedulers, and the MMR-14 contrast — the descendant's
PODC-14-style formulation is only fair-scheduler live (Tholoniat &
Gramoli), while Bracha's validation keeps it live under the same attack.
"""

from conftest import run_once

from repro.analysis.stats import summarize
from repro.analysis.tables import format_table
from repro.errors import EventBudgetExceeded, LivenessFailure
from repro.scenario import Scenario, run

TRIALS = 6
N = 4


def bracha_steps(scheduler, args, seed):
    result = run(Scenario(
        n=N, proposals=[0, 1, 0, 1], coin="dealer",
        scheduler=scheduler, scheduler_args=args,
        seed=seed, max_steps=4_000_000,
    ))
    return result.steps


def test_f2_bracha_latency_under_attack(benchmark, table_sink, bench_sink):
    schedulers = [
        ("fair-random", "random", {}),
        ("victim-starve", "victim", {"victims": [0], "holdback": 150}),
        ("split-brain", "split", {"group_a": [0, 1], "holdback": 150}),
        ("coin-rush", "coin-rush", {"holdback": 150}),
    ]

    def experiment():
        rows = []
        baseline_mean = None
        for name, scheduler, args in schedulers:
            steps = [
                bracha_steps(scheduler, args, seed) for seed in range(TRIALS)
            ]
            summary = summarize(steps)
            if baseline_mean is None:
                baseline_mean = summary.mean
            rows.append([name, TRIALS, summary.mean, summary.maximum,
                         summary.mean / baseline_mean])
        return rows

    rows = run_once(benchmark, experiment)
    table_sink(
        "f2_bracha_latency",
        format_table(
            ["scheduler", "trials", "mean steps", "max steps", "slowdown ×"],
            rows,
            title="F2a. Bracha decision latency under adversarial schedulers "
                  "(all trials decided; graceful degradation only)",
        ),
    )
    assert all(row[4] < 25 for row in rows), "bounded slowdown, no livelock"
    bench_sink(
        "f2_bracha_latency",
        {
            "fair_mean_steps": round(rows[0][2], 1),
            "worst_slowdown": round(max(row[4] for row in rows), 2),
        },
        meta={"schedulers": [name for name, _s, _a in schedulers],
              "trials": TRIALS},
    )


def test_f2_mmr14_liveness_contrast(benchmark, table_sink):
    """The documented caveat, measured: MMR-14 under the coin-rushing
    scheduler with a tight step budget stalls far more often than Bracha
    under the identical attack and budget."""
    budget = 120_000

    def attempt(protocol, seed):
        try:
            run(Scenario(
                protocol=protocol, n=N, proposals=[0, 1, 0, 1], coin="dealer",
                scheduler="coin-rush", scheduler_args={"holdback": 400},
                seed=seed, max_steps=budget,
            ))
            return "decided"
        except (EventBudgetExceeded, LivenessFailure):
            return "stalled"

    def experiment():
        rows = []
        for protocol in ("bracha", "mmr14"):
            outcomes = [attempt(protocol, seed) for seed in range(TRIALS)]
            rows.append([
                protocol, TRIALS,
                outcomes.count("decided"), outcomes.count("stalled"),
            ])
        return rows

    rows = run_once(benchmark, experiment)
    table_sink(
        "f2_mmr14_contrast",
        format_table(
            ["protocol", "trials", f"decided ≤ {budget} steps", "stalled"],
            rows,
            title="F2b. Coin-rushing adversary, fixed step budget: "
                  "Bracha (validated) vs MMR-14 (fair-scheduler live)",
        ),
    )
    bracha_row = next(row for row in rows if row[0] == "bracha")
    mmr_row = next(row for row in rows if row[0] == "mmr14")
    assert bracha_row[2] >= mmr_row[2], (
        "Bracha must decide at least as often as MMR-14 under the attack"
    )
