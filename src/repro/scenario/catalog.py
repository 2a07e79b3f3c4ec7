"""The named scenario catalog.

Curated, executable configurations covering the repository's protocol,
adversary, and fabric space.  Each entry is a plain
:class:`~repro.scenario.spec.Scenario` value: run one with ``repro run
--name <entry>`` or :func:`repro.scenario.run`, serialize it with
``to_dict()``, or use it as the base of a
:class:`~repro.scenario.grid.ScenarioGrid`.

The catalog doubles as the compatibility matrix: one entry per protocol
(``unanimous-fast-path``, ``benor-split``, ``crash-majority``,
``mmr14-dealer``, ``acs-batch``) is fabric-agnostic and is executed on
``sim``, ``local``, and ``tcp`` by the parity tests, while the
CI workflow executes every entry so the catalog can never rot.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterator, List, Mapping

from ..errors import ConfigError
from .spec import Scenario


class _Catalog(Mapping):
    """Entry name -> :class:`Scenario`, each entry built on lookup.

    Building validates an entry against the working directory (a
    ``jsonl:`` observe path needs its parent directory), so it happens
    when the entry is used, never when :mod:`repro` is imported.
    """

    def __init__(self) -> None:
        self._fields: Dict[str, Dict[str, Any]] = {}

    def __getitem__(self, name: str) -> Scenario:
        return Scenario(**self._fields[name])

    def fields(self, name: str) -> Dict[str, Any]:
        """An entry's declared fields, over the scenario defaults, without
        building it — readable from any working directory."""
        defaults = {f.name: f.default for f in dataclasses.fields(Scenario)}
        return {**defaults, **self._fields[name]}

    def __contains__(self, name: object) -> bool:
        return name in self._fields

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)


CATALOG = _Catalog()


def _entry(fields: Dict[str, Any]) -> None:
    name = fields.get("name")
    if not name:
        raise ConfigError("catalog scenarios must be named")
    if name in CATALOG:
        raise ConfigError(f"duplicate catalog name {name!r}")
    CATALOG._fields[name] = fields


# -- one fabric-agnostic entry per protocol ---------------------------------

_entry(dict(
    name="unanimous-fast-path",
    description="Bracha, n=4, unanimous 1-proposals: decides in one round "
                "on any fabric (strong validity pins the outcome).",
    protocol="bracha", n=4, proposals=1, seed=1,
))

_entry(dict(
    name="benor-split",
    description="Ben-Or baseline, n=4, split proposals: coin flips break "
                "the symmetry; agreement/validity checked either way.",
    protocol="benor", n=4, proposals=(0, 1, 0, 1), seed=5,
))

_entry(dict(
    name="crash-majority",
    description="Crash-fault Ben-Or at n=5, t=2 (t < n/2, a regime Byzantine "
                "protocols cannot touch): one node silent from the start, "
                "one crashing mid-run.",
    protocol="benor-crash", n=5, t=2, proposals=(1, 1, 0, 0, 1),
    faults={3: "silent", 4: {"kind": "crash", "crash_after": 25}}, seed=7,
))

_entry(dict(
    name="mmr14-dealer",
    description="MMR-14 ABA with the dealer common coin its termination "
                "argument requires, split proposals.",
    protocol="mmr14", n=4, coin="dealer", proposals=(0, 1, 0, 1), seed=3,
))

_entry(dict(
    name="acs-batch",
    description="Asynchronous common subset, n=4: every node proposes a "
                "request payload; all correct nodes output the same >= n-t "
                "subset.",
    protocol="acs", n=4, seed=2,
))

# -- adversary gallery (simulator-scheduled) --------------------------------

_entry(dict(
    name="two-faced-equivocator",
    description="n=7, t=2 with a two-faced Byzantine process running two "
                "complete honest stacks; reliable broadcast defeats the "
                "equivocation.",
    protocol="bracha", n=7, faults={6: "two_faced"}, seed=11,
))

_entry(dict(
    name="split-brain-scheduler",
    description="Near-partition scheduling (cross-group traffic held back) "
                "combined with a two-faced process — the classic attack on "
                "unvalidated agreement.",
    protocol="bracha", n=4, faults={3: "two_faced"},
    scheduler="split", scheduler_args={"group_a": (0, 1)}, seed=13,
))

_entry(dict(
    name="shares-coin",
    description="Bracha over the distributed Rabin-style share coin "
                "(dealer-free at runtime): threshold reconstruction on the "
                "critical path.",
    protocol="bracha", n=4, coin="shares", seed=17,
))

_entry(dict(
    name="fuzzer-storm",
    description="n=7, t=2 with two protocol-fuzzing Byzantine processes "
                "spraying malformed frames; validation shrugs it off.",
    protocol="bracha", n=7, faults={5: "fuzzer", 6: "fuzzer"}, seed=19,
))

_entry(dict(
    name="victim-delay-liveness",
    description="Liveness stress: the scheduler starves node 0's inbound "
                "traffic for hundreds of deliveries; eventual delivery "
                "still forces a decision.",
    protocol="bracha", n=4,
    scheduler="victim", scheduler_args={"victims": (0,)}, seed=31,
))

_entry(dict(
    name="coin-rush",
    description="The coin-observing adversary: the scheduler peeks at the "
                "dealer coin the moment it is released and holds back the "
                "step messages that agree with it.  Bracha's validation "
                "keeps it live (the attack only stretches latency); MMR-14 "
                "under the same scheduler is the known livelock.",
    protocol="bracha", n=4, proposals=(0, 1, 0, 1), coin="dealer",
    scheduler="coin-rush", scheduler_args={"holdback": 150}, seed=37,
))

# -- ablations (the A1/A2 experiments' protocols) ----------------------------

_entry(dict(
    name="ablation-novalidate",
    description="Bracha without the justification machinery, split "
                "proposals, no faults: with only correct processes "
                "validation never fires, so the ablation still decides "
                "(a single stubborn Byzantine bidder breaks it; bench A1).",
    protocol="bracha-novalidate", n=4, proposals=(0, 1, 0, 1), seed=1,
))

_entry(dict(
    name="ablation-noamplify",
    description="The textbook protocol without DECIDE amplification: every "
                "correct process decides, but none ever halts — rounds run "
                "on after the decision (bench A2).",
    protocol="bracha-noamplify", n=4, proposals=(0, 1, 0, 1), seed=3,
))

# -- runtime-fabric entries -------------------------------------------------

_entry(dict(
    name="tcp-loopback",
    description="Four nodes over authenticated JSON-over-TCP on localhost: "
                "length-prefixed frames, pairwise HMACs, real sockets.",
    protocol="bracha", n=4, proposals=1, fabric="tcp", seed=23,
))

_entry(dict(
    name="multi-instance-pipeline",
    description="Four parallel Bracha instances per node sharing one "
                "reliable-broadcast layer — the batching shape scaling "
                "work builds on.",
    protocol="bracha", n=4, instances=4, proposals=1, fabric="local", seed=29,
))

_entry(dict(
    name="batched-pipeline",
    description="The multi-instance pipeline with the batched message "
                "path: every message queued per destination rides one "
                "wire frame (one codec pass, one MAC on tcp).  Captures "
                "the structured event stream in the in-memory ring sink.",
    protocol="bracha", n=4, instances=4, proposals=1, fabric="local",
    batching="flush", observe="ring", seed=29,
))

# -- adverse-network entries (netem on the runtime fabrics) ------------------

_entry(dict(
    name="lossy-tcp-retransmit",
    description="Real sockets, hostile link: 15% of frames dropped on "
                "every TCP link; the seq/ack retransmission layer still "
                "delivers between correct peers and consensus completes.",
    protocol="bracha", n=4, proposals=1, fabric="tcp", seed=37,
    link={"loss": 0.15, "delay": 0.001, "jitter": 0.002},
))

_entry(dict(
    name="adverse-local-mix",
    description="The full netem gallery on the deterministic local "
                "fabric: loss, delay+jitter, duplication, and reordering "
                "at once — bit-identical for a fixed seed.",
    protocol="benor", n=4, fabric="local", seed=41,
    link={"loss": 0.1, "delay": 0.003, "jitter": 0.002,
          "duplicate": 0.05, "reorder": 0.1},
))

_entry(dict(
    name="batched-tcp-lossy",
    description="Batching and adversity combined: four Bracha instances "
                "over real sockets with 10% frame loss — batched frames "
                "are the retransmission unit, so the seq/ack layer "
                "resends whole batches until consensus completes.",
    protocol="bracha", n=4, instances=4, proposals=1, fabric="tcp", seed=47,
    batching="flush", link={"loss": 0.1, "delay": 0.001},
))

_entry(dict(
    name="batched-binary-tcp",
    description="The fast wire path end to end: four Bracha instances "
                "over real sockets with the compact binary codec — "
                "struct-packed frames, HMAC over raw bytes, zero-copy "
                "receive — coalesced by the batching pipeline.  Decides "
                "the same values as the JSON codec on the same seed.",
    protocol="bracha", n=4, instances=4, proposals=1, fabric="tcp", seed=83,
    batching="flush", codec="binary",
))

# -- multi-process entries (one OS process per node) -------------------------

_entry(dict(
    name="mp-smoke",
    description="Four nodes, four OS processes: the dealer materialises "
                "trusted setup into per-node bundles, the orchestrator "
                "spawns one `repro node` per pid over authenticated TCP, "
                "and the run returns the same verified result every other "
                "fabric does.",
    protocol="bracha", n=4, proposals=1, fabric="mp", seed=53,
))

_entry(dict(
    name="mp-crash",
    description="Real crash-fault injection: node 3's OS process is "
                "SIGKILLed at the start barrier and the surviving n-1 "
                "correct processes still decide (t=1 tolerance made "
                "literal).",
    protocol="bracha", n=4, proposals=1, fabric="mp", seed=59,
    faults={3: {"kind": "kill", "after": 0.0}},
))

_entry(dict(
    name="mp-lossy",
    description="Multi-process nodes behind a deterministic adverse "
                "network: 10% frame loss on every directed link, the "
                "seq/ack layer retransmitting across real process "
                "boundaries until consensus completes.",
    protocol="bracha", n=4, proposals=1, fabric="mp", seed=61,
    link={"loss": 0.1, "rto": 0.05},
))

_entry(dict(
    name="mp-restart",
    description="Crash *recovery* made literal: node 3's OS process is "
                "SIGKILLed 0.1s into the run, respawned 0.5s later from "
                "its write-ahead log, replays its way back to the exact "
                "pre-crash state, and still decides — while ReliableLink "
                "retransmission re-delivers everything it missed.",
    protocol="bracha", n=4, proposals=1, fabric="mp", seed=67,
    faults={3: {"kind": "restart", "after": 0.1, "down": 0.5}},
    recovery="wal", observe="ring",
    link={"retransmit": True, "rto": 0.1, "delay": 0.05,
          "max_retries": 200},
))

_entry(dict(
    name="recovery-local",
    description="The durable WAL exercised on the deterministic local "
                "fabric: every node logs its proposal and deliveries to "
                "benchmarks/out/recovery-local/ as run artifacts — replay "
                "any of them through a fresh stack to reconstruct that "
                "node's exact final state.",
    protocol="bracha", n=4, proposals=1, fabric="local", seed=71,
    recovery="wal:benchmarks/out/recovery-local",
))

_entry(dict(
    name="partition-heal",
    description="Scripted split-brain on a real transport: {0,1}|{2,3} "
                "severed for the first 0.25s of modeled time, then healed; "
                "retransmission re-delivers what the partition ate.  "
                "Writes the structured event stream to a JSONL trace "
                "readable by `repro report`.",
    protocol="bracha", n=4, proposals=1, fabric="local", seed=43,
    partitions=[{"start": 0.0, "stop": 0.25, "groups": [[0, 1], [2, 3]]}],
    # observe validates jsonl parents when the entry is built (on
    # lookup), so this directory must exist where the entry runs — a
    # fresh checkout has it: benchmarks/out/.gitkeep is committed exactly
    # for that.  Routing the trace there keeps run artifacts out of the
    # repo root and under the single directory CI already uploads.
    observe="jsonl:benchmarks/out/partition-heal-trace.jsonl",
))


def catalog_names() -> List[str]:
    """Catalog entry names, in registration order."""
    return list(CATALOG)


def get_scenario(name: str) -> Scenario:
    """Look up a catalog entry; unknown names raise ConfigError."""
    try:
        return CATALOG[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; run `repro catalog` to list "
            f"the {len(CATALOG)} available scenarios"
        ) from None


__all__ = ["CATALOG", "catalog_names", "get_scenario"]
