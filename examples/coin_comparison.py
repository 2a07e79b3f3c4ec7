#!/usr/bin/env python3
"""Local coins vs the common coin: the Rabin trade.

Bracha's protocol terminates with local coins alone — but the expected
number of rounds depends on every undecided process flipping its way to
the same value.  Rabin's dealer-shared common coin makes each round end
unanimous with probability ≥ 1/2, flattening the round count to O(1).
This script measures both, plus the *distributed* common coin that
reconstructs each round's bit from authenticated Shamir shares.

    python examples/coin_comparison.py [trials]
"""

import sys

from repro.scenario import Scenario, repeat
from repro.analysis.stats import histogram, summarize


def main() -> None:
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 20

    print("=== Coin sources on split inputs (the adversarial case) ===\n")
    rows = []
    for coin in ("local", "dealer", "shares"):
        for n in (4, 7):
            results = repeat(Scenario(
                n=n, proposals=[pid % 2 for pid in range(n)],
                coin=coin, seed=500 + n, max_steps=6_000_000,
            ), trials)
            rounds = [r.decision_round() for r in results]
            messages = [r.messages_sent for r in results]
            rows.append((coin, n, summarize(rounds), summarize(messages)))

    print(f"{'coin':>8} {'n':>3} {'mean rounds':>12} {'max':>4} {'mean msgs':>11}")
    for coin, n, rounds, messages in rows:
        print(f"{coin:>8} {n:>3} {rounds.mean:>12.2f} {rounds.maximum:>4.0f} "
              f"{messages.mean:>11.0f}")

    print("\nround distribution at n=7:")
    for coin in ("local", "dealer"):
        results = repeat(Scenario(
            n=7, proposals=[0, 1, 0, 1, 0, 1, 0], coin=coin, seed=507,
        ), trials)
        hist = histogram([r.decision_round() for r in results])
        bars = "  ".join(f"r{r}:{'#' * c}" for r, c in hist.items())
        print(f"  {coin:>8}  {bars}")

    print("""
Reading the numbers:
  * 'local'  — the paper's base model; free, private randomness.  Fine
    at small n, but convergence luck thins out as n grows (run the F1/F3
    benchmarks to see n=10 diverge).
  * 'dealer' — Rabin's common coin as an oracle: every round, all
    processes see the same fair bit; expected rounds become constant.
  * 'shares' — the same coin implemented for real: the dealer
    predistributes authenticated Shamir shares (threshold t+1); each
    round costs O(n²) COIN messages to reconstruct, unpredictability
    holds until the first correct process releases its share.""")


if __name__ == "__main__":
    main()
