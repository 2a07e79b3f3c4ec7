"""Ablation protocols end-to-end (the switches behind experiments A1/A2)."""

import pytest

from repro.scenario import Scenario, assemble_sim, run


class TestValidationAblation:
    def test_no_validation_still_fine_without_byzantine(self):
        """With only correct processes, validation never fires anyway."""
        result = run(Scenario(
            protocol="bracha-novalidate", n=4, proposals=[0, 1, 0, 1], seed=1,
        ))
        assert len(result.decided_values) == 1

    def test_stubborn_bidder_beats_no_validation(self):
        """At least one seed in a handful must show the validity break."""
        broken = 0
        for seed in range(8):
            result = run(Scenario(
                protocol="bracha-novalidate", n=4, proposals=[1, 1, 1, 0],
                faults={3: {"kind": "stubborn", "bit": 0, "horizon": 16}},
                seed=seed, max_steps=1_200_000,
            ), check=False)
            if 0 in result.decided_values:
                broken += 1
        assert broken >= 1

    def test_stubborn_bidder_loses_to_validation(self):
        for seed in range(8):
            result = run(Scenario(
                n=4, proposals=[1, 1, 1, 0],
                faults={3: {"kind": "stubborn", "bit": 0, "horizon": 16}},
                seed=seed,
            ))
            assert result.decided_values == {1}


class TestHaltingAblation:
    def _decided(self, seed):
        simrun = assemble_sim(Scenario(
            protocol="bracha-noamplify", n=4, proposals=[0, 1, 0, 1], seed=seed,
        ))
        simrun.start()
        simrun.sim.run(until=simrun.decided, max_steps=2_000_000)
        return simrun

    def test_textbook_protocol_decides_but_never_quiesces(self):
        simrun = self._decided(3)
        assert simrun.decided()
        assert not simrun.halted()
        # the tail never drains
        from repro.errors import EventBudgetExceeded

        with pytest.raises(EventBudgetExceeded):
            simrun.sim.run(max_steps=20_000)

    def test_no_decide_messages_without_amplification(self):
        simrun = self._decided(5)
        assert "bracha/DecideMsg" not in simrun.sim.traffic()["sent_by_kind"]

    def test_safety_unaffected_by_either_switch(self):
        for protocol in ("bracha", "bracha-novalidate", "bracha-noamplify"):
            result = run(Scenario(
                protocol=protocol, n=4,
                proposals=1,  # unanimous: safe even without validation
                seed=7,
            ))
            assert result.decided_values == {1}
