"""Consensus under every scheduler, benign and adversarial."""

import pytest

from repro.scenario import Scenario, run


class TestBenignSchedulers:
    @pytest.mark.parametrize(
        "scheduler,args",
        [("fifo", {}), ("round-robin", {}), ("delay", {"mean_delay": 2.0})],
        ids=["fifo", "round-robin", "random-delay"],
    )
    def test_terminates_and_agrees(self, scheduler, args):
        result = run(Scenario(
            n=4, proposals=[0, 1, 1, 0], scheduler=scheduler,
            scheduler_args=args, seed=31,
        ))
        assert len(result.decided_values) == 1

    def test_random_delay_produces_latency(self):
        result = run(Scenario(
            n=4, proposals=1, scheduler="delay",
            scheduler_args={"mean_delay": 3.0}, seed=1,
        ))
        assert result.virtual_time > 0


class TestVictimStarvation:
    @pytest.mark.parametrize("seed", range(4))
    def test_starved_victim_still_decides(self, seed):
        result = run(Scenario(
            n=4,
            proposals=[0, 1, 0, 1],
            scheduler="victim",
            scheduler_args={"victims": [0], "holdback": 100},
            seed=seed,
        ))
        assert 0 in result.decisions
        assert len(result.decided_values) == 1

    def test_starvation_costs_steps(self):
        fair = run(Scenario(n=4, proposals=[0, 1, 0, 1], seed=2))
        starved = run(Scenario(
            n=4,
            proposals=[0, 1, 0, 1],
            scheduler="victim",
            scheduler_args={"victims": [0, 1], "holdback": 300},
            seed=2,
        ))
        assert starved.steps >= fair.steps // 2  # sanity: both finished


class TestSplitBrain:
    @pytest.mark.parametrize("seed", range(4))
    def test_near_partition_with_byzantine(self, seed):
        result = run(Scenario(
            n=4,
            proposals=[1, 1, 0, 0],
            scheduler="split",
            scheduler_args={"group_a": [0, 1], "holdback": 200},
            faults={3: "two_faced"},
            seed=seed,
        ))
        assert len(result.decided_values) == 1


class TestCoinRush:
    @pytest.mark.parametrize("seed", range(4))
    def test_coin_rush_cannot_stop_bracha(self, seed):
        """The strongest published adversary class: sees released coins,
        delays coin-agreeing traffic.  Bracha only loses time."""
        result = run(Scenario(
            n=4,
            proposals=[0, 1, 0, 1],
            coin="dealer",
            scheduler="coin-rush",
            scheduler_args={"holdback": 150},
            seed=seed,
            max_steps=3_000_000,
        ))
        assert len(result.decided_values) == 1

    def test_rush_slower_than_fair_on_average(self):
        """Aggregate over seeds: rushing costs delivery steps."""
        fair_steps = rush_steps = 0
        for seed in range(5):
            fair = Scenario(n=4, proposals=[0, 1, 0, 1], coin="dealer", seed=seed)
            fair_steps += run(fair).steps
            rush_steps += run(fair.replace(
                scheduler="coin-rush", scheduler_args={"holdback": 150},
                max_steps=3_000_000,
            )).steps
        assert rush_steps >= fair_steps
