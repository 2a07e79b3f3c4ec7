"""Decide amplification, halting, and quiescence guarantees."""

import pytest

from repro.scenario import Scenario, assemble_sim, run


class TestHalting:
    @pytest.mark.parametrize("n", [4, 7])
    def test_every_correct_process_halts(self, n):
        result = run(Scenario(
            n=n, proposals=[pid % 2 for pid in range(n)], stop="halted", seed=n
        ))
        assert result.halted == set(range(n))

    def test_halting_with_max_silent_faults(self):
        result = run(Scenario(
            n=7, proposals=[0, 1, 0, 1, 0, 1, 0],
            faults={5: "silent", 6: "silent"},
            stop="halted", seed=3,
        ))
        assert result.halted == {0, 1, 2, 3, 4}

    def test_halting_with_two_faced(self):
        result = run(Scenario(
            n=4, proposals=[0, 1, 0, 1], faults={3: "two_faced"},
            stop="halted", seed=5,
        ))
        assert result.halted == {0, 1, 2}

    def test_quiescence_reached_after_halting(self):
        """The execution drains completely: finitely many messages."""
        result = run(Scenario(
            n=4, proposals=[0, 1, 0, 1], stop="quiescent", seed=7
        ))
        assert result.messages_sent == result.messages_delivered

    def test_decisions_stable_through_drain(self):
        """Values decided at 'decided' stop equal those after the drain."""
        early = run(Scenario(n=4, proposals=[0, 1, 0, 1], stop="decided", seed=11))
        late = run(Scenario(n=4, proposals=[0, 1, 0, 1], stop="quiescent", seed=11))
        assert early.decided_values == late.decided_values
        assert early.meta["decision_rounds"] == late.meta["decision_rounds"]


class TestHaltedProcessesStayQuiet:
    def test_no_sends_after_halt(self):
        simrun = assemble_sim(Scenario(n=4, proposals=[0, 1, 0, 1], seed=13))
        sim = simrun.sim
        simrun.start()
        sim.run(until=simrun.halted, max_steps=2_000_000)
        halted_at = sim.metrics.sent
        sim.run_to_quiescence(max_steps=2_000_000)
        # Deliveries to halted consensus modules must not generate new
        # consensus traffic (RBC echoes for stragglers are allowed).
        decide_like = [
            kind for kind in sim.metrics.sent_by_kind if "DecideMsg" in kind
        ]
        assert decide_like == ["bracha/DecideMsg"]

    def test_rounds_do_not_run_away(self):
        """Decided-but-not-halted processes keep participating, but the
        execution ends within a few rounds of the decision."""
        result = run(Scenario(n=4, proposals=[0, 1, 0, 1], stop="quiescent", seed=17))
        assert result.rounds <= result.decision_round() + 3
