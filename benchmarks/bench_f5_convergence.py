"""F5 — Convergence dynamics: how fast estimates collapse to one value.

The termination proof has a concrete mechanical core: each round, either
decide-proposal adoption or the coin pulls correct processes toward one
bit, and once they all agree the protocol can never leave that state.
This figure plots the mechanism directly: the fraction of correct
processes whose round-entry estimate equals the eventual decision, per
round — a curve that must be monotone-ish and hit 1.0 within a couple of
rounds for the common coin.

Also reported: how often adoption (the deterministic pull) versus the
coin (the random pull) ended each round — the mix the proofs reason
about.
"""

from conftest import run_once

from repro.analysis.tables import format_table
from repro.scenario import Scenario, assemble_sim

TRIALS = 15
MAX_ROUND = 5


def convergence_curve(n, coin, seed):
    simrun = assemble_sim(Scenario(
        n=n, proposals=[pid % 2 for pid in range(n)], coin=coin, seed=seed
    ))
    simrun.start()
    simrun.sim.run(until=simrun.decided, max_steps=4_000_000)
    consensus = [c for (c,) in simrun.stacks.values()]
    decisions = {c.decision for c in consensus}
    assert len(decisions) == 1
    decided = decisions.pop()
    curve = []
    for round_ in range(1, MAX_ROUND + 1):
        entries = [
            c.round_history.get(round_) for c in consensus
        ]
        known = [bit for bit in entries if bit is not None]
        if not known:
            curve.append(1.0)  # everyone decided before reaching the round
            continue
        agreeing = sum(1 for bit in known if bit == decided)
        curve.append(agreeing / len(known))
    flips = sum(c.stats["coin_flips"] for c in consensus)
    adoptions = sum(c.stats["adoptions"] for c in consensus)
    return curve, flips, adoptions


def test_f5_convergence_dynamics(benchmark, table_sink, bench_sink):
    configs = [(7, "local"), (7, "dealer"), (10, "dealer")]

    def experiment():
        rows = []
        for n, coin in configs:
            sums = [0.0] * MAX_ROUND
            total_flips = total_adoptions = 0
            for seed in range(TRIALS):
                curve, flips, adoptions = convergence_curve(n, coin, 300 + seed)
                for i, frac in enumerate(curve):
                    sums[i] += frac
                total_flips += flips
                total_adoptions += adoptions
            means = [s / TRIALS for s in sums]
            rows.append([n, coin] + [round(m, 3) for m in means]
                        + [total_adoptions, total_flips])
        return rows

    rows = run_once(benchmark, experiment)
    headers = (["n", "coin"] + [f"r{r}" for r in range(1, MAX_ROUND + 1)]
               + ["adoptions", "coin flips"])
    table_sink(
        "f5_convergence",
        format_table(
            headers, rows,
            title="F5. Mean fraction of correct processes holding the "
                  "eventual decision at each round entry (split inputs)",
        ),
    )
    for row in rows:
        curve = row[2:2 + MAX_ROUND]
        assert curve[-1] == 1.0, "everyone converges within the window"
        # weak monotonicity: never a big regression once above 0.9
        for a, b in zip(curve, curve[1:]):
            if a >= 0.9:
                assert b >= a - 0.05
    # The common coin converges at least as fast as local at n=7 by round 2.
    local = next(row for row in rows if row[0] == 7 and row[1] == "local")
    common = next(row for row in rows if row[0] == 7 and row[1] == "dealer")
    assert common[3] >= local[3] - 0.1  # r2 column
    bench_sink(
        "f5_convergence",
        {
            "common_r2_fraction_n7": round(common[3], 3),
            "local_r2_fraction_n7": round(local[3], 3),
        },
        meta={"trials": TRIALS, "max_round": MAX_ROUND},
    )
