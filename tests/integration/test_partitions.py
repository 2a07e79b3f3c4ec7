"""Network partitions: no progress without quorum, no harm either."""

import pytest

from repro.adversary import PartitionScheduler
from repro.scenario import Scenario, assemble_sim, run


def _partitioned(group_a, heal_after, **fields):
    """A partition-scheduled run, assembled; returns it and its scheduler."""
    simrun = assemble_sim(Scenario(
        n=4, scheduler="partition",
        scheduler_args={"group_a": group_a, "heal_after": heal_after},
        **fields,
    ))
    return simrun, simrun.sim.scheduler


class TestPartitionThenHeal:
    @pytest.mark.parametrize("seed", range(5))
    def test_decisions_only_after_heal(self, seed):
        """A 2-2 split of n=4 leaves no side with a quorum (3): the run
        must stall until the merge, then decide normally."""
        simrun, scheduler = _partitioned(
            [0, 1], 10**9, proposals=[0, 1, 0, 1], seed=seed
        )
        sim = simrun.sim
        simrun.start()

        # Drive the simulation manually and watch for early decisions.
        while not simrun.decided():
            decided_now = any(
                c.decided for modules in simrun.stacks.values() for c in modules
            )
            if decided_now:
                assert scheduler.healed, "a decision happened inside the split"
            if not sim.step():
                break
        assert simrun.decided()
        assert scheduler.healed

    def test_majority_side_can_decide_during_partition(self):
        """A 3-1 split keeps a full quorum on one side: the majority side
        may decide while the minority waits for the merge."""
        result = run(Scenario(
            n=4, proposals=[1, 1, 1, 0], scheduler="partition",
            scheduler_args={"group_a": [0, 1, 2], "heal_after": 10**9}, seed=2,
        ))
        assert result.decided_values == {1}

    def test_agreement_across_the_merge(self):
        """Decisions made by the majority side bind the minority side."""
        for seed in range(5):
            result = run(Scenario(
                n=4, proposals=[0, 1, 0, 1], scheduler="partition",
                scheduler_args={"group_a": [0, 1, 2], "heal_after": 10**9},
                seed=seed,
            ))
            assert len(result.decided_values) == 1

    def test_timed_heal(self):
        simrun, scheduler = _partitioned([0, 1], 50,
                                         proposals=[0, 1, 0, 1], seed=7)
        simrun.start()
        simrun.sim.run(until=simrun.decided, max_steps=2_000_000)
        result = simrun.collect()
        assert scheduler.heal_step is not None
        assert scheduler.heal_step <= 50
        assert len(result.decided_values) == 1

    def test_partition_with_byzantine_member(self):
        """The faulty process sits in the minority partition; the
        majority side must still be safe and live."""
        result = run(Scenario(
            n=4, proposals=[1, 1, 1, 0], faults={3: "two_faced"},
            scheduler="partition",
            scheduler_args={"group_a": [0, 1, 2], "heal_after": 10**9}, seed=4,
        ))
        assert result.decided_values == {1}


class TestPartitionSchedulerUnit:
    def test_rejects_negative_heal(self):
        with pytest.raises(ValueError):
            PartitionScheduler([0], heal_after=-1)

    def test_cross_detection(self):
        scheduler = PartitionScheduler([0, 1])
        from repro.types import Envelope

        intra = Envelope(uid=1, source=0, dest=1, payload="m", send_time=0.0)
        cross = Envelope(uid=2, source=0, dest=2, payload="m", send_time=0.0)
        assert not scheduler._crosses(intra)
        assert scheduler._crosses(cross)
