"""Result assembly and checked execution helpers shared by every fabric.

Every simulated consensus run is a :class:`~repro.scenario.Scenario`
executed by :func:`repro.scenario.run`; this module holds what the
fabrics share underneath it:

* :func:`collect_result` — folds per-node outcome records
  (:func:`node_record`) into the one verified ``RunResult``, checking
  agreement, validity, integrity and liveness (:func:`verify_outcome`,
  :func:`verify_acs_outcome`, :func:`verify_liveness`);
* :class:`DecideLog` — the live half of that assembly (decide events
  and per-node decide times);
* :func:`make_coin` and :func:`normalize_proposals` — the coin-name and
  proposal-spec rules every fabric applies;
* :func:`run_broadcast` — the reliable-broadcast-only harness.

Proposal specs are ``None`` (split ``pid % 2``), a single bit
(unanimous), a sequence indexed by pid, or a mapping.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, Mapping, Optional, Sequence, Union,
)

from ..adversary.behaviors import SilentBehavior
from ..app.acs import AcsOutput
from ..core.broadcast import BroadcastLayer, RbcDelivery
from ..core.coin import CoinScheme, DealerCoin, LocalCoin, ShareCoinProvider
from ..errors import (
    AgreementViolation,
    ConfigError,
    IntegrityViolation,
    LivenessFailure,
    ValidityViolation,
)
from ..obs.metrics import MetricsRegistry
from ..params import ProtocolParams, for_system
from ..sim.process import Process
from ..sim.rng import derive_seed
from ..sim.runner import Simulation
from ..sim.scheduler import Scheduler
from ..types import Bit, Decision, ProcessId, RunResult

FaultSpec = Union[str, Mapping[str, Any]]
ProposalSpec = Union[None, int, Sequence[int], Mapping[int, int]]


# ---------------------------------------------------------------------------
# Coin and proposal rules
# ---------------------------------------------------------------------------


def make_coin(coin: Union[str, CoinScheme], n: int, t: int, seed: int) -> CoinScheme:
    """Resolve a coin specification to a scheme instance."""
    if isinstance(coin, CoinScheme):
        return coin
    coin_seed = derive_seed(seed, "coin")
    if coin == "local":
        return LocalCoin()
    if coin == "dealer":
        return DealerCoin(n, t, coin_seed)
    if coin == "shares":
        return ShareCoinProvider(n, t, coin_seed)
    raise ConfigError(f"unknown coin scheme {coin!r}")



def normalize_proposals(proposals: ProposalSpec, n: int) -> Dict[ProcessId, Bit]:
    if proposals is None:
        return {pid: pid % 2 for pid in range(n)}
    if isinstance(proposals, int):
        return {pid: proposals for pid in range(n)}
    if isinstance(proposals, Mapping):
        table = dict(proposals)
    else:
        table = {pid: bit for pid, bit in enumerate(proposals)}
    for pid in range(n):
        if pid not in table:
            raise ConfigError(f"no proposal for pid {pid}")
        if table[pid] not in (0, 1):
            raise ConfigError(f"proposal for pid {pid} must be a bit")
    return {pid: table[pid] for pid in range(n)}


# ---------------------------------------------------------------------------
# Result assembly: per-node outcome records -> one verified RunResult
# ---------------------------------------------------------------------------

#: ReliableLink counters every netem result reports (zero without one).
_LINK_STATS = ("retransmitted", "abandoned", "duplicates_filtered", "acks_sent")


def _add(totals: Dict[Any, Any], values: Mapping[Any, Any]) -> None:
    for name, value in values.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            totals[name] = totals.get(name, 0) + value


class DecideLog:
    """The live half of result assembly, shared by every fabric.

    :meth:`attach` hooks a correct node's freshly built stack.  Each
    module's first Decide effect is counted (``module_decisions``) and
    emitted as a ``decide`` event the moment it applies; a recovery
    replay re-firing it is ignored.  ``times[pid]`` is the node's decide
    time: the first moment its whole plan has decided, every instance
    (or the ACS output), read from the fabric's ``clock``.
    """

    def __init__(self, plan: Any, registry: MetricsRegistry,
                 clock: Callable[[], float], observer: Optional[Any] = None):
        self.plan = plan
        self.registry = registry
        self.clock = clock
        self.observer = observer
        self.times: Dict[ProcessId, float] = {}
        self._seen: set = set()

    def attach(self, pid: ProcessId, process: Process, modules: list) -> None:
        def on_decide(effect: Any) -> None:
            if (pid, effect.module) not in self._seen:
                self._seen.add((pid, effect.module))
                self.registry.count("module_decisions")
                if self.observer is not None:
                    self.observer.emit(
                        "decide", node=pid, instance=effect.module,
                        round=effect.round, detail=effect.value,
                    )
            self._stamp(pid, modules)

        process.on_decide = on_decide
        if self.plan.protocol == "acs":
            # The ACS output can complete on a broadcast delivery after
            # the last agreement decided, so it is watched directly.
            modules[0].on_output = lambda _output: self._stamp(pid, modules)

    def _stamp(self, pid: ProcessId, modules: list) -> None:
        if pid not in self.times and self.plan.decided(modules):
            self.times[pid] = self.clock()


def node_record(
    pid: ProcessId,
    modules: Optional[Sequence[Any]],
    protocol: Optional[str] = None,
    decide_time: Optional[float] = None,
    **traffic: Any,
) -> Dict[str, Any]:
    """One node's outcome record, as :func:`collect_result` folds it.

    ``modules`` are a correct node's decision modules (one per instance,
    or the ACS instance when ``protocol == "acs"``); ``None`` marks a
    faulty node, whose record carries traffic only.  ``traffic`` adds
    the node's own ``counters``, ``sent_by_kind``, ``netem`` /
    ``netem_per_link`` and ``link`` totals.  Every value is plain JSON,
    so the mp fabric ships the record over its control channel as is.
    """
    record: Dict[str, Any] = {
        "node": pid,
        "correct": modules is not None,
        "decide_time": decide_time,
        "decisions": None,
        "acs": None,
        "invariant_flags": [],
        "halted": False,
        "rounds": 0,
        "coin_flips": 0,
        **traffic,
    }
    if modules is None:
        return record
    if protocol == "acs":
        if modules[0].done:
            record["acs"] = {
                "proposals": [list(pair) for pair in modules[0].output.proposals]
            }
        return record
    record.update(
        decisions=[
            {"decided": m.decided, "value": m.decision, "round": m.decision_round}
            for m in modules
        ],
        invariant_flags=[list(m.invariant_flags) for m in modules],
        halted=all(m.halted for m in modules),
        rounds=max(m.stats["rounds"] for m in modules),
        coin_flips=sum(m.stats["coin_flips"] for m in modules),
    )
    return record


def sim_record(sim: Simulation) -> Dict[str, Any]:
    """The simulator network's traffic as one record without a node:
    the simulator counts traffic once, for every process together."""
    return {
        "counters": {
            "messages_sent": sim.metrics.sent,
            "messages_delivered": sim.metrics.delivered,
            "steps": sim.steps,
        },
        "sent_by_kind": dict(sim.metrics.sent_by_kind),
    }


def collect_result(
    records: Sequence[Mapping[str, Any]],
    proposals: Mapping[ProcessId, Any],
    faulty: Iterable[ProcessId],
    *,
    params: Optional[ProtocolParams] = None,
    protocol: Optional[str] = None,
    elapsed: float = 0.0,
    registry: Optional[MetricsRegistry] = None,
    meta: Optional[Mapping[str, Any]] = None,
    violations: Sequence[str] = (),
    check: bool = True,
) -> RunResult:
    """Fold outcome records into the run's one verified ``RunResult``.

    Every fabric ends here.  ``records`` are :func:`node_record` dicts
    plus any records without a node that carry traffic counted once for
    the whole run (the simulator network, a shared link policy).
    Counters, ``sent_by_kind`` and netem totals are summed over all
    records; decisions, halting, rounds and coin flips are read from the
    correct nodes' records only.  ``registry`` holds what the fabric
    counted live (``module_decisions``, spans, restarts); the folded
    totals join it and its snapshot becomes ``result.metrics``.
    ``meta`` carries the fabric's own keys; fabrics naming a
    ``transport`` run on the wall clock and also get the per-node
    ``decision_latency``.  ``violations`` are what the fabric already
    found (a stall, a node that never came back).

    Verification: agreement, validity and integrity per instance
    (:func:`verify_outcome`), or ACS agreement and size
    (:func:`verify_acs_outcome`); then one liveness rule for every
    protocol — each correct node must have decided (every instance).
    With ``check=True`` the first violation raises.  A node's decision
    time is its decide time; a node without one reads ``elapsed``.
    """
    registry = registry if registry is not None else MetricsRegistry()
    result = RunResult(
        virtual_time=elapsed, violations=list(violations), meta=dict(meta or {})
    )
    totals: Dict[str, int] = {}
    sent_by_kind: Dict[str, int] = {}
    netem: Dict[str, Any] = {}
    per_link: Dict[str, Dict[str, int]] = {}
    correct: Dict[ProcessId, Mapping[str, Any]] = {}
    for record in records:
        _add(totals, record.get("counters", {}))
        _add(sent_by_kind, record.get("sent_by_kind", {}))
        _add(netem, record.get("netem", {}))
        for name, stats in record.get("netem_per_link", {}).items():
            _add(per_link.setdefault(name, {}), stats)
        link = record.get("link")
        if link is not None:
            _add(netem, {name: link[name] for name in _LINK_STATS})
            for dest, count in link["retransmitted_by_dest"].items():
                _add(per_link.setdefault(f"{record['node']}->{dest}", {}),
                     {"retransmitted": count})
        if record.get("correct"):
            correct[record["node"]] = record

    acs = protocol == "acs"
    outputs: Dict[ProcessId, Any] = {}
    times: Dict[ProcessId, float] = {}
    coin_flips = 0
    for pid, record in sorted(correct.items()):
        if record["decide_time"] is not None:
            times[pid] = record["decide_time"]
        when = times.get(pid, elapsed)
        if acs:
            if record["acs"] is not None:
                outputs[pid] = AcsOutput(0, tuple(
                    (int(p), payload) for p, payload in record["acs"]["proposals"]
                ))
                result.decisions[pid] = Decision(pid, outputs[pid].pids, 0, when)
        elif record["decisions"][0]["decided"]:
            first = record["decisions"][0]
            result.decisions[pid] = Decision(
                pid, first["value"], first["round"], when
            )
        if record["halted"]:
            result.halted.add(pid)
        result.rounds = max(result.rounds, record["rounds"])
        coin_flips += record["coin_flips"]
    instances = max(
        (len(r["decisions"]) for r in correct.values() if r["decisions"]),
        default=1,
    )

    result.steps = totals.pop("steps", 0)
    result.messages_sent = totals.get("messages_sent", 0)
    result.messages_delivered = totals.get("messages_delivered", 0)
    result.meta.update(
        coin_flips=coin_flips,
        proposals=dict(proposals),
        faulty=sorted(faulty),
        messages_by_kind=sent_by_kind,
        decision_rounds={pid: d.round for pid, d in result.decisions.items()},
    )
    if "transport" in result.meta:
        result.meta["decision_latency"] = times
    if instances > 1:
        result.meta["instance_decisions"] = {
            pid: [d["value"] for d in record["decisions"]]
            for pid, record in sorted(correct.items())
        }
    for name, value in totals.items():
        registry.count(name, value)
    if "frames_sent" in totals:
        frames = totals["frames_sent"]
        registry.gauge(
            "messages_per_frame",
            totals.get("wire_messages_sent", 0) / frames if frames else 0.0,
        )
    registry.count("decisions", len(result.decisions))
    registry.gauge("virtual_time", elapsed)
    for latency in times.values():
        registry.observe("decision_latency", latency)
    if any("netem" in record for record in records):
        for name in _LINK_STATS:
            netem.setdefault(name, 0)
        for name, value in netem.items():
            registry.count(f"netem_{name}", int(value))
        result.meta["netem"] = netem
        result.meta["netem_per_link"] = per_link
    result.metrics = registry.snapshot()

    if acs:
        verify_acs_outcome(outputs, params, result, check=check)
        verify_liveness(correct, result, check=check)
        return result
    for i in range(instances):
        target = result if i == 0 else RunResult(decisions={
            pid: Decision(pid, r["decisions"][i]["value"],
                          r["decisions"][i]["round"], 0.0)
            for pid, r in correct.items() if r["decisions"][i]["decided"]
        })
        verify_outcome(
            proposals,
            {pid: r["invariant_flags"][i] for pid, r in correct.items()},
            target,
            check=check,
        )
        verify_liveness(correct, target, check=check)
        if i:
            result.violations.extend(
                f"instance {i}: {violation}" for violation in target.violations
            )
    return result


def _fail(result: RunResult, check: bool, exc_cls: type, message: str) -> None:
    result.violations.append(message)
    if check:
        raise exc_cls(message)


def verify_outcome(
    proposals: Mapping[ProcessId, Bit],
    flags: Mapping[ProcessId, Sequence[str]],
    result: RunResult,
    check: bool = True,
) -> None:
    """Safety-check one consensus instance, however it was driven.

    ``flags`` maps each *correct* pid to its decision module's invariant
    flags; ``result.decisions`` holds the decisions being checked.
    Agreement, validity against the correct proposals, and integrity
    (no raised invariant flag) — the same standard on every fabric.
    """
    correct_proposals = {proposals[pid] for pid in flags}
    values = {d.value for d in result.decisions.values()}
    if len(values) > 1:
        _fail(result, check, AgreementViolation,
              f"correct processes decided {sorted(values)}")
    for pid, decision in result.decisions.items():
        if decision.value not in correct_proposals:
            _fail(result, check, ValidityViolation,
                  f"p{pid} decided {decision.value}, "
                  "proposed by no correct process")
    for pid in sorted(flags):
        if flags[pid]:
            _fail(result, check, IntegrityViolation,
                  f"p{pid}: {'; '.join(flags[pid])}")


def verify_liveness(
    correct: Iterable[ProcessId], result: RunResult, check: bool = True
) -> None:
    """The one liveness rule, for every protocol: each correct pid in
    ``correct`` has a decision in ``result``."""
    missing = sorted(set(correct) - set(result.decisions))
    if missing:
        _fail(result, check, LivenessFailure,
              f"processes never decided: {missing}")


def verify_acs_outcome(
    outputs: Mapping[ProcessId, Any],
    params: Any,
    result: RunResult,
    check: bool = True,
) -> None:
    """Safety-check a finished ACS execution, however it was driven.

    ``outputs`` maps each finished correct pid to its
    :class:`~repro.app.acs.AcsOutput`; checks agreement (identical
    subsets) and the ``n − t`` minimum subset size.
    """
    distinct = {out.proposals for out in outputs.values()}
    if len(distinct) > 1:
        _fail(result, check, AgreementViolation,
              f"ACS outputs diverge: {distinct}")
    for out in outputs.values():
        if len(out.proposals) < params.step_quorum:
            _fail(result, check, AgreementViolation,
                  f"ACS output has {len(out.proposals)} elements, "
                  f"need >= {params.step_quorum}")
        break


# ---------------------------------------------------------------------------
# Reliable-broadcast harness
# ---------------------------------------------------------------------------


def broadcast_stack(process: Process, accepted: Dict[ProcessId, Dict[Any, Any]]) -> BroadcastLayer:
    """Install a bare reliable-broadcast stack; acceptances land in
    ``accepted[pid][instance] = value``."""
    rbc = BroadcastLayer()
    process.add_module(rbc)

    def on_delivery(event: RbcDelivery, pid: ProcessId = process.pid) -> None:
        accepted.setdefault(pid, {})[event.instance] = event.value

    rbc.subscribe(on_delivery)
    return rbc


def run_broadcast(
    n: int,
    t: Optional[int] = None,
    sender: ProcessId = 0,
    value: Any = "payload",
    instance: Any = ("rbc-exp", 0),
    equivocate: Optional[tuple[Any, Any]] = None,
    silent: Sequence[ProcessId] = (),
    scheduler: Optional[Scheduler] = None,
    seed: int = 0,
    max_steps: int = 500_000,
    check: bool = True,
) -> Dict[str, Any]:
    """One reliable-broadcast instance under optional faults.

    If ``equivocate`` is given, the sender is Byzantine and INITs the two
    values to two halves of the system; ``silent`` marks additional
    crash-at-start processes.  Returns acceptance maps and metrics, and
    (with ``check=True``) asserts consistency — no two correct processes
    accept different values — plus totality: if anyone accepted, all
    correct processes accepted.
    """
    from ..adversary.behaviors import EquivocatingBroadcaster

    params = for_system(n, t)
    fault_pids = set(silent) | ({sender} if equivocate else set())
    if len(fault_pids) > params.t:
        raise ConfigError(f"{len(fault_pids)} faults exceed t={params.t}")

    sim = Simulation(seed=seed, scheduler=scheduler)
    accepted: Dict[ProcessId, Dict[Any, Any]] = {}
    layers: Dict[ProcessId, BroadcastLayer] = {}
    for pid in range(n):
        if pid in fault_pids and pid != sender:
            sim.network.register(SilentBehavior(pid, sim.network, params))
        elif pid == sender and equivocate is not None:
            behavior = EquivocatingBroadcaster(
                pid, sim.network, params,
                instance=instance,
                value_a=equivocate[0],
                value_b=equivocate[1],
                group_a=[q for q in range(n) if q != pid][: (n - 1) // 2],
            )
            sim.network.register(behavior)
        else:
            process = Process(pid, sim.network, params)
            layers[pid] = broadcast_stack(process, accepted)

    sim.start()
    if equivocate is None and sender in layers:
        layers[sender].broadcast(instance, value)
    sim.run_to_quiescence(max_steps=max_steps)

    outcomes = {pid: accepted.get(pid, {}).get(instance) for pid in layers}
    accepted_values = {v for v in outcomes.values() if v is not None}
    report: Dict[str, Any] = {
        "outcomes": outcomes,
        "accepted_values": accepted_values,
        "messages": sim.metrics.sent,
        "steps": sim.steps,
        "violations": [],
    }
    if len(accepted_values) > 1:
        message = f"correct processes accepted {accepted_values}"
        report["violations"].append(message)
        if check:
            from ..errors import BroadcastConsistencyViolation

            raise BroadcastConsistencyViolation(message)
    if accepted_values:
        missing = [pid for pid, v in outcomes.items() if v is None]
        if missing:
            message = f"totality broken: {missing} never accepted"
            report["violations"].append(message)
            if check:
                from ..errors import BroadcastConsistencyViolation

                raise BroadcastConsistencyViolation(message)
    return report
