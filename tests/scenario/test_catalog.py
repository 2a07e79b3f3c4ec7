"""The scenario catalog: shape, round-tripping, and freshness."""

import os
import subprocess
import sys

import pytest

import repro
from repro.scenario import CATALOG, Scenario, catalog_names, get_scenario, run
from repro.errors import ConfigError
from repro.stacks import PROTOCOLS

ISSUE_SCENARIOS = [
    "unanimous-fast-path", "two-faced-equivocator", "split-brain-scheduler",
    "acs-batch", "crash-majority", "fuzzer-storm", "tcp-loopback",
    "multi-instance-pipeline", "victim-delay-liveness",
]


class TestShape:
    def test_at_least_ten_entries(self):
        assert len(CATALOG) >= 10

    def test_curated_scenarios_present(self):
        for name in ISSUE_SCENARIOS:
            assert name in CATALOG

    def test_names_match_keys(self):
        for name, scenario in CATALOG.items():
            assert scenario.name == name
            assert scenario.description

    def test_every_protocol_has_a_fabric_agnostic_entry(self):
        """One entry per protocol must be runnable on every fabric (no
        sim-only scheduler, no quiescent stop)."""
        portable = {
            s.protocol for s in CATALOG.values()
            if s.scheduler == "random" and s.stop != "quiescent"
        }
        assert portable == set(PROTOCOLS)

    def test_lookup(self):
        assert get_scenario("acs-batch").protocol == "acs"
        assert catalog_names() == list(CATALOG)
        with pytest.raises(ConfigError):
            get_scenario("nope")


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_dict_round_trip(self, name):
        scenario = CATALOG[name]
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_json_round_trip(self, name):
        scenario = CATALOG[name]
        assert Scenario.from_json(scenario.to_json()) == scenario


class TestExecution:
    """Cheap sim-fabric smoke of the adversarial entries; the per-protocol
    fabric matrix lives in test_runner.py and the full catalog (including
    the runtime-fabric entries) is executed by the CI workflow."""

    @pytest.mark.parametrize("name", [
        "split-brain-scheduler", "victim-delay-liveness", "fuzzer-storm",
        "coin-rush",
    ])
    def test_adversarial_entries_decide(self, name):
        result = run(get_scenario(name))
        assert result.violations == []
        assert result.decided_values and len(result.decided_values) == 1


class TestImportAnywhere:
    """Importing ``repro`` builds no catalog entry, so it works from any
    directory — even one without the ``benchmarks/out/`` an entry's
    JSONL trace path needs; that entry fails when it is looked up."""

    def _python(self, cwd, *args):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, *args], cwd=cwd, env=env,
            capture_output=True, text=True, timeout=120,
        )

    def test_import_outside_the_checkout(self, tmp_path):
        proc = self._python(tmp_path, "-c", "import repro; print(repro.__version__)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repro.__version__

    def test_version_outside_the_checkout(self, tmp_path):
        proc = self._python(tmp_path, "-m", "repro", "--version")
        assert proc.returncode == 0, proc.stderr
        assert repro.__version__ in proc.stdout

    def test_catalog_table_outside_the_checkout(self, tmp_path):
        """The table reads entries' fields, so partition-heal's jsonl
        path (needing ``benchmarks/out/``) does not stop it."""
        proc = self._python(tmp_path, "-m", "repro", "catalog")
        assert proc.returncode == 0, proc.stderr
        assert "partition-heal" in proc.stdout
        assert "coin-rush" in proc.stdout

    def test_entry_needing_the_checkout_fails_on_lookup(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert "partition-heal" in CATALOG
        with pytest.raises(ConfigError, match="does not exist"):
            get_scenario("partition-heal")
