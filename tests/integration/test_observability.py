"""Tracing and telemetry of full runs: the operator's view."""

from repro.obs.sinks import render_events
from repro.scenario import Scenario, assemble_sim, run


def _events(**fields):
    return run(Scenario(observe="ring", **fields)).meta["obs_events"]


def _decided(**fields):
    """A sim run assembled and driven to the decision (for round history)."""
    simrun = assemble_sim(Scenario(**fields))
    simrun.start()
    simrun.sim.run(until=simrun.decided, max_steps=2_000_000)
    return simrun


class TestTracing:
    def test_trace_records_full_execution(self):
        result = run(Scenario(n=4, proposals=[0, 1, 0, 1], seed=3, observe="ring"))
        assert result.decided_values  # normal outcome with tracing on

    def test_trace_content(self):
        events = _events(n=4, proposals=[0, 1, 0, 1], seed=3)
        assert len(events) > 0
        kinds = {event.kind for event in events}
        assert kinds == {"send", "deliver", "note", "decide"}
        notes = [event.detail for event in events if event.kind == "note"]
        assert any("decide" in str(note) for note in notes)

    def test_trace_renders_readably(self):
        events = _events(n=4, proposals=1, seed=5)
        text = render_events(events[:50])
        assert "deliver" in text and "send" in text

    def test_decision_notes_name_every_decider(self):
        events = _events(n=4, proposals=[1, 1, 1, 1], seed=7)
        deciders = {
            event.node
            for event in events
            if event.kind == "note" and "decide 1" in str(event.detail)
        }
        assert deciders == {0, 1, 2, 3}


class TestRoundHistory:
    def test_history_starts_with_proposal(self):
        simrun = _decided(n=4, proposals=[0, 1, 0, 1], seed=9)
        for pid, (consensus,) in simrun.stacks.items():
            assert consensus.round_history[1] == simrun.proposals[pid]

    def test_history_ends_at_decision_value(self):
        simrun = _decided(n=4, proposals=[0, 1, 0, 1], seed=11)
        for (consensus,) in simrun.stacks.values():
            last_round = max(consensus.round_history)
            if last_round > consensus.decision_round:
                assert consensus.round_history[last_round] == consensus.decision

    def test_history_contiguous(self):
        simrun = _decided(n=4, proposals=[0, 1, 0, 1], seed=13)
        for (consensus,) in simrun.stacks.values():
            rounds = sorted(consensus.round_history)
            assert rounds == list(range(1, rounds[-1] + 1))


class TestMetricsBreakdown:
    def test_kind_breakdown_covers_all_traffic(self):
        result = run(Scenario(n=4, proposals=[0, 1, 0, 1], seed=15))
        kinds = result.meta["messages_by_kind"]
        assert sum(kinds.values()) == result.messages_sent

    def test_share_coin_traffic_visible(self):
        result = run(Scenario(n=4, proposals=[0, 1, 0, 1], coin="shares", seed=17))
        assert result.meta["messages_by_kind"]["coin/CoinShareMsg"] >= 4
