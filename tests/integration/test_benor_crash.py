"""Crash-fault Ben-Or: the benign-fault anchor of the comparison suite."""

import pytest

from repro.scenario import Scenario, run


class TestCrashModel:
    @pytest.mark.parametrize("seed", range(5))
    def test_fault_free(self, seed):
        result = run(Scenario(protocol="benor-crash", n=4, t=1, proposals=[0, 1, 0, 1], seed=seed))
        assert len(result.decided_values) == 1

    def test_unanimous_one_round(self):
        result = run(Scenario(protocol="benor-crash", n=4, t=1, proposals=1, seed=2))
        assert result.decided_values == {1}
        assert result.decision_round() == 1

    def test_tolerates_t_below_half(self):
        """n=5, t=2: minority crash faults, a regime Byzantine protocols
        cannot touch (2 ≥ 5/3)."""
        result = run(Scenario(
            protocol="benor-crash", n=5, t=2, proposals=[0, 1, 0, 1, 1],
            faults={3: "silent", 4: "silent"}, seed=3,
        ))
        assert len(result.decided_values) == 1
        assert len(result.decisions) == 3

    def test_crash_mid_run(self):
        result = run(Scenario(
            protocol="benor-crash", n=5, t=2, proposals=[1, 1, 0, 0, 1],
            faults={4: {"kind": "crash", "crash_after": 25}}, seed=7,
        ))
        assert len(result.decided_values) == 1

    def test_with_common_coin(self):
        result = run(Scenario(
            protocol="benor-crash", n=4, t=1, proposals=[0, 1, 0, 1],
            coin="dealer", seed=9,
        ))
        assert len(result.decided_values) == 1

    def test_cheapest_of_all_protocols(self):
        """No broadcast layer at all: fewest messages per run."""
        crash = run(Scenario(protocol="benor-crash", n=4, t=1, proposals=1, seed=1))
        bracha = run(Scenario(protocol="bracha", n=4, t=1, proposals=1, seed=1))
        assert crash.messages_sent < bracha.messages_sent / 3

    @pytest.mark.parametrize("seed", range(4))
    def test_agreement_validity_hold(self, seed):
        result = run(Scenario(
            protocol="benor-crash", n=5, t=2,
            proposals=[seed % 2, 1, 0, 1, 0],
            faults={4: "silent"}, seed=seed,
        ))
        assert len(result.decided_values) == 1
