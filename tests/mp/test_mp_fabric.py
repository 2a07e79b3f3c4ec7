"""The mp fabric end to end: real OS processes, one verified result.

The expensive contracts of the multi-process fabric, each run with n
actual subprocesses over authenticated TCP on localhost:

* every protocol the repo implements decides on ``fabric: "mp"``, and
  its *logical* decide stream (node, instance, value — time stripped)
  is identical to the simulator's for the same unanimous fixed-seed
  scenario;
* a ``kill`` fault SIGKILLs a node's process and the surviving correct
  majority still decides — crash tolerance made literal;
* netem loss + retransmission flow through unchanged;
* the ``mp`` spec round-trips through JSON like any other fabric.
"""

import time

import pytest

from repro.errors import ConfigError
from repro.scenario import Scenario, run

#: Unanimous fixed-seed configurations, one per protocol: strong
#: validity pins the decided value, so the logical decide stream is
#: fabric-independent by construction.
UNANIMOUS = {
    "bracha": Scenario(protocol="bracha", n=4, proposals=1, seed=9),
    "benor": Scenario(protocol="benor", n=4, proposals=1, seed=9),
    "benor-crash": Scenario(protocol="benor-crash", n=5, t=2, proposals=1,
                            seed=9),
    "mmr14": Scenario(protocol="mmr14", n=4, coin="dealer", proposals=1,
                      seed=9),
    "acs": Scenario(protocol="acs", n=4, seed=9),
}


def _logical_decides(result):
    """Sorted (node, instance, value) triples of the decide events."""
    return sorted(
        (event.node, event.instance, event.detail)
        for event in result.meta["obs_events"]
        if event.kind == "decide"
    )


class TestSpecRoundTrip:
    def test_mp_scenario_round_trips_through_json(self):
        scenario = Scenario(
            protocol="bracha", n=4, proposals=1, fabric="mp", seed=3,
            faults={3: {"kind": "kill", "after": 0.5}},
            link={"loss": 0.05, "rto": 0.05}, batching="flush",
        )
        again = Scenario.from_json(scenario.to_json())
        assert again == scenario
        assert again.fabric == "mp"
        assert again.faults_dict() == {3: {"kind": "kill", "after": 0.5}}

    def test_kill_fault_needs_the_mp_fabric(self):
        with pytest.raises(ConfigError, match="'mp' fabric"):
            Scenario(protocol="bracha", n=4,
                     faults={3: {"kind": "kill", "after": 0.1}})

    def test_kill_fault_needs_a_sane_after(self):
        with pytest.raises(ConfigError, match="after"):
            Scenario(protocol="bracha", n=4, fabric="mp",
                     faults={3: {"kind": "kill", "after": -1}})


class TestSimMpParity:
    @pytest.mark.parametrize("protocol", sorted(UNANIMOUS))
    def test_logical_decide_stream_matches_sim(self, protocol):
        scenario = UNANIMOUS[protocol].replace(observe="ring")
        sim = run(scenario)
        mp = run(scenario, fabric="mp")
        decides = _logical_decides(mp)
        assert decides == _logical_decides(sim)
        assert decides  # non-vacuous: every node decided somewhere
        assert mp.decided_values == sim.decided_values
        assert mp.meta["codec"] == scenario.codec


class TestMpFaults:
    def test_killed_subprocess_leaves_a_deciding_majority(self):
        result = run(Scenario(
            protocol="bracha", n=4, proposals=1, fabric="mp", seed=21,
            faults={3: {"kind": "kill", "after": 0.0}},
        ))
        assert result.decided_values == {1}
        assert sorted(result.decisions) == [0, 1, 2]
        assert result.meta["killed"] == [3]
        assert not result.violations

    def test_kill_at_the_go_barrier_never_stalls_boot(self):
        """A peer SIGKILLed at ``after: 0.0`` refuses the survivors' dials;
        a controlled node dials once and lets the send path reconnect,
        so no run waits out the standalone 15 s connect retry."""
        for seed in range(4):
            started = time.monotonic()
            result = run(Scenario(
                protocol="bracha", n=4, proposals=1, fabric="mp", seed=seed,
                faults={3: {"kind": "kill", "after": 0.0}},
            ))
            assert time.monotonic() - started < 7.5
            assert sorted(result.decisions) == [0, 1, 2]

    def test_loss_retransmission_crosses_process_boundaries(self):
        result = run(Scenario(
            protocol="bracha", n=4, proposals=1, fabric="mp", seed=25,
            link={"loss": 0.1, "rto": 0.05},
        ))
        assert result.decided_values == {1}
        assert len(result.decisions) == 4
        netem = result.meta["netem"]
        assert netem["dropped"] > 0
        assert netem["retransmitted"] > 0
