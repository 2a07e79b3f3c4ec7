#!/usr/bin/env python3
"""Quickstart: one Byzantine consensus run, narrated.

Runs Bracha's protocol with four processes, one of them two-faced
Byzantine, and prints what happened — the decision, who decided in which
round, and where the messages went.

    python examples/quickstart.py [seed]
"""

import sys

from repro import Scenario, run_scenario
from repro.params import for_system


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7

    n = 4
    params = for_system(n)
    print("=== Bracha 1984: asynchronous Byzantine consensus ===")
    print(f"system: {params.describe()}")
    print(f"inputs: p0=0 p1=1 p2=1, p3 is Byzantine (two-faced)")
    print()

    result = run_scenario(Scenario(
        n=n,
        proposals=[0, 1, 1, 0],
        faults={3: "two_faced"},
        seed=seed,
    ))

    decision = result.decided_values.pop()
    print(f"decision: {decision}  (proposed by a correct process: yes — "
          "the harness checks strong validity)")
    for pid, dec in sorted(result.decisions.items()):
        print(f"  p{pid} decided {dec.value} in round {dec.round}")
    print()
    print(f"rounds executed : {result.rounds}")
    print(f"messages sent   : {result.messages_sent}")
    print(f"delivery steps  : {result.steps}")
    print("message breakdown:")
    for kind, count in sorted(result.meta["messages_by_kind"].items()):
        print(f"  {kind:<22} {count}")
    print()
    print("Try different seeds — the schedule changes, the agreement does not.")


if __name__ == "__main__":
    main()
