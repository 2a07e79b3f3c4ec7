"""One result path: every fabric folds outcome records the same way.

Each fabric turns its nodes into ``node_record`` dicts and hands them to
``collect_result``; these tests pin what that single path guarantees:

* the same meta keys on every fabric (``coin_flips`` included);
* one decide-time rule — a node's decision time is the moment its whole
  plan decided, on the fabric's clock (virtual time on the simulator);
* one liveness rule for every protocol, ACS included;
* records are plain JSON, so the mp fabric ships them as they are.
"""

import json

import pytest

from repro.analysis.experiments import collect_result, node_record
from repro.errors import LivenessFailure
from repro.params import for_system
from repro.scenario import Scenario, run


@pytest.mark.parametrize("fabric", ["sim", "local", "tcp"])
def test_coin_flips_reported_on_every_fabric(fabric):
    result = run(Scenario(n=4, seed=3, fabric=fabric))
    assert "coin_flips" in result.meta
    assert result.meta["coin_flips"] >= 0


def test_coin_flips_counted_on_local():
    # Ben-Or with split proposals flips local coins for several rounds,
    # so a zero here would mean the count was dropped, not never made.
    result = run(Scenario(protocol="benor", n=4, seed=3, fabric="local"))
    assert result.rounds > 1
    assert result.meta["coin_flips"] > 0


class TestDecideTime:
    def test_sim_decision_times_are_per_node(self):
        result = run(Scenario(n=4, seed=3))
        times = {d.time for d in result.decisions.values()}
        assert len(times) > 1
        assert max(times) <= result.virtual_time

    def test_sim_decision_time_is_when_the_whole_plan_decided(self):
        result = run(Scenario(n=4, instances=3, seed=5, observe="ring"))
        last_decide = {}
        for event in result.meta["obs_events"]:
            if event.kind == "decide":
                last_decide[event.node] = max(
                    last_decide.get(event.node, 0.0), event.time
                )
        assert {pid: d.time for pid, d in result.decisions.items()} == last_decide
        latency = result.metrics.histogram("decision_latency")
        assert latency["max"] == max(last_decide.values())

    def test_acs_decision_time_is_the_output_time(self):
        result = run(Scenario(protocol="acs", n=4, seed=8))
        assert len({d.time for d in result.decisions.values()}) > 1
        assert "decision_latency" not in result.meta  # wall clock only

    def test_runtime_decision_latency_keeps_its_shape(self):
        result = run(Scenario(n=4, seed=3, fabric="local"))
        latency = result.meta["decision_latency"]
        assert sorted(latency) == [0, 1, 2, 3]
        for pid, decision in result.decisions.items():
            assert decision.time == latency[pid]


def test_sim_multi_instance_reports_instance_decisions():
    result = run(Scenario(n=4, instances=3, proposals=1, seed=5))
    assert result.meta["instance_decisions"] == {
        pid: [1, 1, 1] for pid in range(4)
    }


class TestLivenessRule:
    def _acs_record(self, pid, done):
        return {
            **node_record(pid, None),
            "correct": True,
            "acs": {"proposals": [[0, "a"], [1, "b"], [2, "c"]]} if done else None,
        }

    def test_acs_nodes_that_never_finish_fail_liveness(self):
        records = [self._acs_record(pid, pid != 3) for pid in range(4)]
        with pytest.raises(LivenessFailure, match=r"never decided: \[3\]"):
            collect_result(records, {}, [], params=for_system(4),
                           protocol="acs")

    def test_same_message_for_binary_protocols(self):
        result = run(Scenario(protocol="acs", n=4, seed=8, max_steps=200),
                     check=False)
        binary = run(Scenario(n=4, seed=8, max_steps=200), check=False)
        missing = [v for v in result.violations if "never decided" in v]
        assert missing and missing == [
            v for v in binary.violations if "never decided" in v
        ]


def test_records_are_plain_json():
    record = node_record(
        0, [_Decided(1, 2), _Decided(1, 3)], decide_time=4.0,
        counters={"messages_sent": 5}, sent_by_kind={"bracha/Step": 5},
    )
    assert json.loads(json.dumps(record)) == record
    assert record["correct"] and record["halted"] and record["rounds"] == 3


class _Decided:
    """A decided module stub with the attributes records read."""

    def __init__(self, value, round_):
        self.decided = True
        self.decision = value
        self.decision_round = round_
        self.invariant_flags = []
        self.halted = True
        self.stats = {"rounds": round_, "coin_flips": 0}
