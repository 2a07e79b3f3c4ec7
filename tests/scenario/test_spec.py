"""Scenario validation, canonicalization, and JSON round-tripping."""

import json

import pytest

from repro.errors import ConfigError
from repro.scenario import Scenario, load_scenario, make_scheduler
from repro.sim.scheduler import FifoScheduler, RandomDelayScheduler


class TestValidation:
    def test_defaults_are_valid(self):
        s = Scenario()
        assert s.protocol == "bracha" and s.fabric == "sim"

    @pytest.mark.parametrize("field,value", [
        ("protocol", "paxos"),
        ("fabric", "udp"),
        ("stop", "sometime"),
        ("coin", "quantum"),
        ("scheduler", "psychic"),
    ])
    def test_unknown_enum_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            Scenario(**{field: value})

    def test_excess_faults_rejected(self):
        with pytest.raises(ConfigError):
            Scenario(n=4, faults={2: "silent", 3: "silent"})

    def test_excess_faults_opt_in(self):
        s = Scenario(n=4, faults={2: "silent", 3: "silent"},
                     allow_excess_faults=True)
        assert len(s.faults) == 2

    def test_fault_pid_out_of_range(self):
        with pytest.raises(ConfigError):
            Scenario(n=4, faults={9: "silent"})

    def test_fault_spec_needs_kind(self):
        with pytest.raises(ConfigError):
            Scenario(n=4, faults={3: {"crash_after": 10}})

    def test_acs_takes_no_proposals(self):
        with pytest.raises(ConfigError):
            Scenario(protocol="acs", proposals=1)

    def test_scheduler_needs_sim_fabric(self):
        with pytest.raises(ConfigError):
            Scenario(scheduler="fifo", fabric="tcp")

    def test_scheduler_on_runtime_fabric_points_at_link_spec(self):
        # Not a dead end anymore: the error names the netem alternative.
        with pytest.raises(ConfigError, match="'link' / 'partitions'"):
            Scenario(scheduler="delay", fabric="tcp")

    def test_link_needs_runtime_fabric(self):
        with pytest.raises(ConfigError, match="scheduler"):
            Scenario(link={"loss": 0.1}, fabric="sim")
        with pytest.raises(ConfigError):
            Scenario(partitions=[{"groups": [[0, 1], [2, 3]]}], fabric="sim")

    def test_link_fields_validated(self):
        with pytest.raises(ConfigError, match="unknown link field"):
            Scenario(link={"packet_loss": 0.1}, fabric="local")
        with pytest.raises(ConfigError):
            Scenario(link={"loss": 1.5}, fabric="local")
        with pytest.raises(ConfigError):
            Scenario(link={"delay": -1}, fabric="local")

    def test_partition_pids_checked_against_n(self):
        with pytest.raises(ConfigError, match="out of range"):
            Scenario(n=4, fabric="local",
                     partitions=[{"groups": [[0, 7]]}])

    def test_partition_windows_validated(self):
        with pytest.raises(ConfigError):
            Scenario(fabric="local",
                     partitions=[{"start": 2.0, "stop": 1.0,
                                  "groups": [[0], [1]]}])

    def test_valid_link_spec_accepted(self):
        s = Scenario(fabric="tcp",
                     link={"loss": 0.2, "delay": 0.005, "retransmit": True},
                     partitions=[{"start": 0.0, "stop": 1.0,
                                  "groups": [[0, 1], [2, 3]]}])
        config = s.netem_config()
        assert config.model.loss == 0.2
        assert config.partitions[0].stop == 1.0

    def test_orphan_scheduler_args_rejected(self):
        """scheduler_args without a named scheduler would be silently
        ignored — fail loudly instead."""
        with pytest.raises(ConfigError):
            Scenario(scheduler_args={"victims": [0]})

    def test_quiescent_needs_sim_fabric(self):
        with pytest.raises(ConfigError):
            Scenario(stop="quiescent", fabric="local")

    def test_multi_instance_only_for_batchable_protocols(self):
        with pytest.raises(ConfigError):
            Scenario(protocol="mmr14", instances=2)

    def test_bad_proposals_rejected(self):
        with pytest.raises(ConfigError):
            Scenario(n=4, proposals=[0, 1])  # wrong length
        with pytest.raises(ConfigError):
            Scenario(n=2, proposals=[0, 2])  # not a bit
        with pytest.raises(ConfigError):
            Scenario(proposals=7)


class TestCanonicalization:
    def test_equivalent_specs_compare_equal(self):
        a = Scenario(n=4, proposals=[0, 1, 0, 1], faults={3: "silent"})
        b = Scenario(n=4, proposals={0: 0, 1: 1, 2: 0, 3: 1},
                     faults={3: {"kind": "silent"}})
        assert a == b
        assert hash(a) == hash(b)

    def test_scenarios_are_hashable_dict_keys(self):
        table = {Scenario(seed=s): s for s in range(3)}
        assert table[Scenario(seed=1)] == 1

    def test_replace_revalidates(self):
        s = Scenario(n=7, faults={5: "silent", 6: "silent"})
        with pytest.raises(ConfigError):
            s.replace(n=4)  # 2 faults exceed t=1

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            Scenario().replace(fabrics="tcp")

    def test_coin_defaults_follow_protocol(self):
        assert Scenario(protocol="bracha").coin_name == "local"
        assert Scenario(protocol="mmr14").coin_name == "dealer"
        assert Scenario(protocol="mmr14", coin="shares").coin_name == "shares"


class TestRoundTrip:
    def test_dict_round_trip_with_rich_faults(self):
        s = Scenario(
            name="rt", protocol="bracha", n=7, t=2,
            proposals=[0, 1, 0, 1, 0, 1, 0],
            faults={5: {"kind": "crash", "crash_after": 10}, 6: "two_faced"},
            scheduler="victim", scheduler_args={"victims": [0, 1]},
            seed=9,
        )
        assert Scenario.from_dict(s.to_dict()) == s

    def test_json_round_trip_is_plain_json(self):
        s = Scenario(n=4, faults={3: "silent"}, proposals=1)
        data = json.loads(s.to_json())
        assert data["faults"] == {"3": "silent"}
        assert Scenario.from_json(s.to_json()) == s

    def test_to_dict_omits_defaults(self):
        assert Scenario().to_dict() == {}
        assert set(Scenario(n=7, seed=3).to_dict()) == {"n", "seed"}

    def test_link_and_partitions_round_trip(self):
        s = Scenario(
            name="netem-rt", fabric="tcp", seed=3,
            link={"loss": 0.2, "delay": 0.005, "jitter": 0.001,
                  "retransmit": True, "max_retries": 9},
            partitions=[
                {"start": 0.0, "stop": 0.5, "groups": [[0, 1], [2, 3]]},
                {"start": 1.0, "stop": None, "groups": [[0], [3]]},
            ],
        )
        assert Scenario.from_dict(s.to_dict()) == s
        data = json.loads(s.to_json())  # the JSON shape is plain dicts/lists
        assert data["link"]["loss"] == 0.2
        assert data["partitions"][0]["groups"] == [[0, 1], [2, 3]]
        assert data["partitions"][1]["stop"] is None

    def test_equivalent_link_specs_compare_equal(self):
        a = Scenario(fabric="local", link={"loss": 0.1, "delay": 0.001})
        b = Scenario(fabric="local", link={"delay": 0.001, "loss": 0.1})
        assert a == b and hash(a) == hash(b)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError) as exc:
            Scenario.from_dict({"protocl": "bracha"})
        assert "protocl" in str(exc.value)

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict([1, 2, 3])


class TestLoadScenario:
    def test_load(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(Scenario(name="disk", n=7).to_json())
        assert load_scenario(path) == Scenario(name="disk", n=7)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(tmp_path / "absent.json")

    def test_bad_json_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError) as exc:
            load_scenario(path)
        assert "bad.json" in str(exc.value)


class TestSchedulers:
    def test_random_is_none(self):
        assert make_scheduler("random", 4) is None
        assert make_scheduler(None, 4) is None

    def test_named_schedulers_build(self):
        assert isinstance(make_scheduler("fifo", 4), FifoScheduler)
        assert isinstance(make_scheduler("delay", 4, mean_delay=2.0),
                          RandomDelayScheduler)

    def test_split_defaults_to_half(self):
        sched = make_scheduler("split", 6)
        assert sched.group_a == frozenset({0, 1, 2})

    def test_bad_args_raise_config_error(self):
        with pytest.raises(ConfigError):
            make_scheduler("fifo", 4, bogus_arg=1)

    def test_coin_rush_needs_the_dealer_coin(self):
        with pytest.raises(ConfigError, match="coin='dealer'"):
            Scenario(scheduler="coin-rush")
        with pytest.raises(ConfigError, match="coin='dealer'"):
            Scenario(scheduler="coin-rush", coin="shares")
        # MMR-14's default coin is the dealer coin.
        assert Scenario(protocol="mmr14", scheduler="coin-rush").coin_name == "dealer"

    def test_coin_rush_watches_the_runs_coin(self):
        from repro.adversary import CoinRushScheduler
        from repro.scenario import assemble_sim

        simrun = assemble_sim(Scenario(coin="dealer", scheduler="coin-rush"))
        scheduler = simrun.sim.scheduler
        assert isinstance(scheduler, CoinRushScheduler)
        assert scheduler.coin is simrun.plan.coins[0]

    def test_scenario_builds_its_scheduler(self):
        s = Scenario(scheduler="victim", scheduler_args={"victims": [2]})
        sched = s.build_scheduler()
        assert sched.victims == frozenset({2})
