"""The experiment harness itself: spec normalization, assembly, checking."""

import pytest

from repro.analysis.experiments import (
    collect_result,
    make_coin,
    normalize_proposals,
)
from repro.scenario import Scenario, assemble_sim, run
from repro.core.coin import DealerCoin, LocalCoin, ShareCoinProvider
from repro.errors import (
    AgreementViolation,
    ConfigError,
    LivenessFailure,
    ValidityViolation,
)


class TestNormalizeProposals:
    def test_default_split(self):
        assert normalize_proposals(None, 4) == {0: 0, 1: 1, 2: 0, 3: 1}

    def test_scalar_unanimous(self):
        assert normalize_proposals(1, 3) == {0: 1, 1: 1, 2: 1}

    def test_sequence(self):
        assert normalize_proposals([1, 0, 1], 3) == {0: 1, 1: 0, 2: 1}

    def test_mapping(self):
        assert normalize_proposals({0: 1, 1: 0}, 2) == {0: 1, 1: 0}

    def test_missing_pid_rejected(self):
        with pytest.raises(ConfigError):
            normalize_proposals({0: 1}, 2)

    def test_non_bit_rejected(self):
        with pytest.raises(ConfigError):
            normalize_proposals([0, 2], 2)

    def test_short_sequence_rejected(self):
        with pytest.raises(ConfigError):
            normalize_proposals([0], 3)


class TestMakeCoin:
    def test_names(self):
        assert isinstance(make_coin("local", 4, 1, 0), LocalCoin)
        assert isinstance(make_coin("dealer", 4, 1, 0), DealerCoin)
        assert isinstance(make_coin("shares", 4, 1, 0), ShareCoinProvider)

    def test_passthrough_instance(self):
        scheme = DealerCoin(4, 1, seed=9)
        assert make_coin(scheme, 4, 1, 0) is scheme

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            make_coin("quantum", 4, 1, 0)

    def test_seed_isolation(self):
        a = make_coin("dealer", 4, 1, seed=1)
        b = make_coin("dealer", 4, 1, seed=2)
        assert [a.value(r) for r in range(20)] != [b.value(r) for r in range(20)]


class TestSetup:
    """The sim fabric's one assembly, :func:`assemble_sim`."""

    def test_correct_and_faulty_partition(self):
        simrun = assemble_sim(Scenario(n=4, faults={3: "silent"}))
        assert sorted(simrun.stacks) == [0, 1, 2]
        assert sorted(simrun.behaviors) == [3]

    def test_fault_pid_out_of_range(self):
        with pytest.raises(ConfigError):
            Scenario(n=4, faults={9: "silent"})

    def test_excess_faults_rejected_by_default(self):
        with pytest.raises(ConfigError):
            Scenario(n=4, faults={2: "silent", 3: "silent"})

    def test_excess_faults_opt_in(self):
        simrun = assemble_sim(Scenario(
            n=4, faults={2: "silent", 3: "silent"}, allow_excess_faults=True,
        ))
        assert len(simrun.behaviors) == 2

    def test_bad_fault_spec(self):
        with pytest.raises(ConfigError):
            Scenario(n=4, faults={3: {"no_kind": True}})
        with pytest.raises(ConfigError):
            assemble_sim(Scenario(n=4, faults={3: "gremlin"}))

    def test_ablation_stack_flags(self):
        simrun = assemble_sim(Scenario(protocol="bracha-novalidate", n=4))
        from repro.core.validation import PermissiveValidator

        assert all(
            isinstance(c.validator, PermissiveValidator)
            for (c,) in simrun.stacks.values()
        )

    def test_runtime_fabric_rejected(self):
        with pytest.raises(ConfigError, match="sim"):
            assemble_sim(Scenario(n=4, fabric="local"))

    def test_stepwise_drive_matches_run(self):
        """start + sim.run(until=decided) + collect is exactly run()."""
        scenario = Scenario(n=4, faults={3: "two_faced"}, seed=5)
        simrun = assemble_sim(scenario)
        simrun.start()
        simrun.sim.run(until=simrun.decided, max_steps=scenario.max_steps)
        stepwise = simrun.collect()
        whole = run(scenario)
        assert (stepwise.steps, stepwise.messages_sent, stepwise.decisions,
                stepwise.rounds, stepwise.virtual_time) == (
            whole.steps, whole.messages_sent, whole.decisions,
            whole.rounds, whole.virtual_time)


class TestVerifyResult:
    """collect_result's checks, fed hand-made outcome records."""

    def _run(self, proposals=(0, 1, 0, 1)):
        return assemble_sim(Scenario(n=4, proposals=list(proposals)))

    def _verify(self, run, decisions, check=True):
        records = [
            {
                "node": pid, "correct": True, "decide_time": None,
                "decisions": [{"decided": pid in decisions,
                               "value": decisions.get(pid), "round": 1}],
                "acs": None, "invariant_flags": [[]], "halted": False,
                "rounds": 1, "coin_flips": 0,
            }
            for pid in sorted(run.stacks)
        ]
        return collect_result(records, run.proposals, run.behaviors,
                              check=check)

    def test_clean_result_passes(self):
        result = self._verify(self._run(), {0: 1, 1: 1, 2: 1, 3: 1})
        assert result.violations == []

    def test_disagreement_raises(self):
        with pytest.raises(AgreementViolation):
            self._verify(self._run(), {0: 1, 1: 0, 2: 1, 3: 1})

    def test_invalid_value_raises(self):
        with pytest.raises(ValidityViolation):
            self._verify(self._run(proposals=(1, 1, 1, 1)),
                         {0: 0, 1: 0, 2: 0, 3: 0})

    def test_missing_decisions_raise(self):
        with pytest.raises(LivenessFailure):
            self._verify(self._run(), {0: 1})

    def test_check_false_records_instead(self):
        result = self._verify(self._run(), {0: 1, 1: 0, 2: 1, 3: 1},
                              check=False)
        assert any("decided" in v for v in result.violations)
