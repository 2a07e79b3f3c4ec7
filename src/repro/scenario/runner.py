"""Fabric-agnostic scenario execution.

:func:`run` is the single entry point that takes a declarative
:class:`~repro.scenario.spec.Scenario` and executes it on whichever
fabric it names:

* ``sim`` — the deterministic discrete-event simulator, with the
  scenario's scheduler as the network adversary;
* ``local`` — the asyncio runtime over in-process queues;
* ``tcp`` — the asyncio runtime over authenticated JSON-over-TCP;
* ``mp`` — one OS process per node over the same TCP transport,
  bootstrapped by a trusted-setup dealer (:mod:`repro.mp`).

All of them build their per-process stacks through the same
:class:`~repro.stacks.ProtocolPlan`, turn each node's outcome into the
same :func:`~repro.analysis.experiments.node_record`, and fold the
records through the one
:func:`~repro.analysis.experiments.collect_result`, so one scenario is
held to the same checks and directly comparable across fabrics::

    from repro.scenario import Scenario, run

    scenario = Scenario(protocol="bracha", n=4, proposals=1, seed=7)
    print(run(scenario).decided_values)               # {1} on the simulator
    print(run(scenario, fabric="tcp").decided_values)  # {1} over real sockets

:func:`assemble_sim` exposes the ``sim`` fabric's assembly for callers
that drive the simulation step by step (:class:`SimRun`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..errors import ConfigError, EventBudgetExceeded, LivenessFailure
from ..analysis.experiments import DecideLog, collect_result, node_record
from ..obs import MetricsRegistry, Observer, build_observer, build_profiler
from ..recovery.restart import RestartBehavior
from ..sim.process import Process
from ..sim.rng import derive_seed
from ..sim.runner import Simulation
from ..stacks import ProtocolPlan, build_plan_behavior
from ..types import ProcessId, RunResult
from .spec import Scenario


def run(
    scenario: Scenario,
    check: bool = True,
    keep_scratch: bool = False,
    **overrides: Any,
) -> RunResult:
    """Execute a scenario on its declared fabric; return a verified result.

    Keyword overrides are scenario fields applied via
    :meth:`~repro.scenario.spec.Scenario.replace` — ``run(s,
    fabric="tcp")`` or ``run(s, seed=3)`` run a variant without mutating
    the spec.  With ``check=True`` safety/liveness violations raise; with
    ``check=False`` they are recorded in ``result.violations``.
    ``keep_scratch`` preserves the mp fabric's scratch directory (bundles
    and WALs) for debugging instead of deleting it after the run.
    """
    if overrides:
        scenario = scenario.replace(**overrides)
    observer = build_observer(scenario.observe)
    try:
        if scenario.fabric == "sim":
            result = _run_sim(scenario, check, observer)
        elif scenario.fabric == "mp":
            result = _run_mp(scenario, check, observer, keep_scratch)
        else:
            result = _run_runtime(scenario, check, observer)
    finally:
        # Flush/close the sink even when verification raises, so a
        # failing run still leaves a readable JSONL trace behind.
        summary = observer.close() if observer is not None else None
    if observer is not None:
        result.meta["obs"] = summary
        if summary.get("sink") == "ring":
            result.meta["obs_events"] = observer.events()
    result.meta["scenario"] = scenario.name or "<inline>"
    result.meta["fabric"] = scenario.fabric
    return result


def repeat(
    scenario: Scenario, trials: int, check: bool = True, **overrides: Any
) -> List[RunResult]:
    """Run ``trials`` independent seeded executions of one scenario.

    A ``seed`` override replaces the scenario's own seed as the base the
    per-trial seeds derive from.
    """
    base_seed = overrides.pop("seed", scenario.seed)
    return [
        run(scenario, check=check, seed=derive_seed(base_seed, "trial", i),
            **overrides)
        for i in range(trials)
    ]


# ---------------------------------------------------------------------------
# sim fabric
# ---------------------------------------------------------------------------


class SimRun:
    """One assembled simulator execution, ready to drive.

    :func:`assemble_sim` builds it and :func:`run` drives it: ``start()``,
    ``sim.run(until=...)`` to the scenario's stop condition, then
    ``collect()``.  A caller that must watch the execution between steps
    (a partition that must not decide before it heals, post-decision
    traffic of an ablation) drives ``sim`` itself between ``start()`` and
    ``collect()``; the assembly is the same one every simulated run uses.

    ``stacks`` maps each correct pid to its plan modules, ``behaviors``
    each faulty pid to its behavior, and ``restart_nodes`` each
    ``restart``-fault pid to its :class:`RestartBehavior` (a correct node
    whose modules are rebuilt on recovery).
    """

    def __init__(
        self,
        scenario: Scenario,
        sim: Simulation,
        plan: ProtocolPlan,
        proposals: Dict[ProcessId, Any],
        registry: MetricsRegistry,
        decides: DecideLog,
    ):
        self.scenario = scenario
        self.sim = sim
        self.plan = plan
        self.proposals = proposals
        self.registry = registry
        self.decides = decides
        self.stacks: Dict[ProcessId, List[Any]] = {}
        self.behaviors: Dict[ProcessId, Any] = {}
        self.restart_nodes: Dict[ProcessId, RestartBehavior] = {}

    def start(self) -> None:
        """Start the simulation and hand every correct node its proposal."""
        self.sim.start()
        for pid, modules in self.stacks.items():
            self.plan.propose(modules, pid, self.proposals[pid])
        for pid, node in self.restart_nodes.items():
            node.propose(self.plan, self.proposals[pid])

    # Restart nodes are *correct* — they must decide/halt like any other
    # correct node, but their module list is rebuilt on recovery, so the
    # stop predicates read it through the behavior, not a snapshot.

    def decided(self) -> bool:
        """Every correct node's plan has decided (the ``decided`` stop)."""
        plan = self.plan
        return (
            all(plan.decided(m) for m in self.stacks.values())
            and all(r.is_decided(plan) for r in self.restart_nodes.values())
        )

    def halted(self) -> bool:
        """Every correct node's plan has halted (the ``halted`` stop)."""
        plan = self.plan
        return (
            all(plan.halted(m) for m in self.stacks.values())
            and all(r.is_halted(plan) for r in self.restart_nodes.values())
        )

    def collect(self, check: bool = True, violations: Sequence[str] = ()) -> RunResult:
        """Fold the execution as it stands into one verified result.

        ``violations`` are what the driver already found (an exhausted
        step budget).  With ``check=True`` the first violation raises.
        """
        violations = list(violations)
        restart_nodes = self.restart_nodes
        registry = self.registry
        # A restart node still down when the run ends has no modules to
        # read: that is a liveness failure (a correct node was expected
        # back).
        still_down = sorted(pid for pid, r in restart_nodes.items() if r.down_now)
        if still_down:
            message = (
                f"restart nodes never recovered: {still_down} "
                "(no traffic arrived after the down window)"
            )
            violations.append(message)
            if check:
                raise LivenessFailure(message)

        scenario = self.scenario
        meta: Dict[str, Any] = {
            "protocol": scenario.protocol,
            "instances": scenario.instances,
            "batching": scenario.batching,
        }
        if restart_nodes:
            meta["restarted"] = sorted(restart_nodes)
            registry.count(
                "restarts", sum(r.restarts for r in restart_nodes.values())
            )
            recovered = [
                r.recovery_time for r in restart_nodes.values()
                if r.recovery_time is not None
            ]
            if recovered:
                registry.gauge("recovery_time", max(recovered))
            registry.count(
                "recovery_replayed",
                sum(r.replayed for r in restart_nodes.values()),
            )
        modules_by_pid = dict(self.stacks)
        modules_by_pid.update(
            (pid, node.modules) for pid, node in restart_nodes.items()
            if not node.down_now
        )
        records = [self.sim.traffic()] + [
            node_record(pid, modules, scenario.protocol,
                        self.decides.times.get(pid))
            for pid, modules in modules_by_pid.items()
        ]
        return collect_result(
            records, self.proposals, self.behaviors,
            params=scenario.params, protocol=scenario.protocol,
            elapsed=self.sim.now, registry=registry, meta=meta,
            violations=violations, check=check,
        )


def assemble_sim(scenario: Scenario, observer: Optional[Observer] = None) -> SimRun:
    """Build a ``sim``-fabric scenario's simulation without running it.

    The scenario's scheduler is built over the plan's instance-0 coin
    scheme, so a coin-observing scheduler (``coin-rush``) watches the
    coin the processes flip.
    """
    if scenario.fabric != "sim":
        raise ConfigError(
            f"assemble_sim needs a 'sim' fabric scenario, not {scenario.fabric!r}"
        )
    params = scenario.params
    plan = ProtocolPlan(
        scenario.protocol, params, scenario.coin_name,
        scenario.seed, scenario.instances,
    )
    proposals = plan.default_proposals(scenario.proposals)
    faults = scenario.faults_dict()

    sim = Simulation(
        seed=scenario.seed, scheduler=scenario.build_scheduler(plan.coins[0])
    )
    registry = MetricsRegistry()
    if observer is not None:
        observer.bind_clock(lambda: sim.now)
        sim.network.observer = observer
    sim.profiler = build_profiler(scenario.profile, registry)
    # Decide times are virtual: the step at which a node's plan decided.
    decides = DecideLog(plan, registry, lambda: sim.now, observer)
    simrun = SimRun(scenario, sim, plan, proposals, registry, decides)

    def _on_restart_event(kind: str, pid: ProcessId, detail: Dict[str, Any]) -> None:
        if observer is not None:
            observer.emit(kind, node=pid, detail=dict(detail))

    restart_specs = scenario.restart_specs()
    # ``batching="off"`` flushes each effect eagerly (the historical
    # inline-send path); any other mode drains the outbox per delivery
    # step.  Both produce the same event order for a fixed seed — the
    # batching-equivalence tests compare decisions and traces bit for
    # bit — so the knob is observable only on the runtime fabrics.
    eager = scenario.batching == "off"
    for pid in range(scenario.n):
        if pid in restart_specs:
            spec = restart_specs[pid]

            def _factory(process: Process, p: ProcessId = pid) -> List[Any]:
                modules = plan.build(process)
                decides.attach(p, process, modules)
                return modules

            node = RestartBehavior(
                pid, sim.network, params, _factory,
                after=int(spec.get("after", 8)),
                down=int(spec.get("down", 1)),
                on_event=_on_restart_event,
            )
            sim.network.register(node)
            simrun.restart_nodes[pid] = node
        elif pid in faults:
            behavior = build_plan_behavior(
                pid, faults[pid], sim.network, params, plan, proposals
            )
            sim.network.register(behavior)
            simrun.behaviors[pid] = behavior
        else:
            process = Process(pid, sim.network, params, eager=eager)
            simrun.stacks[pid] = plan.build(process)
            decides.attach(pid, process, simrun.stacks[pid])
    return simrun


def _run_sim(
    scenario: Scenario, check: bool, observer: Optional[Observer] = None
) -> RunResult:
    simrun = assemble_sim(scenario, observer)
    simrun.start()
    if scenario.stop == "decided":
        until = simrun.decided
    elif scenario.stop == "halted":
        until = simrun.halted
    else:  # "quiescent" — drain every message
        until = None
    violations = []
    try:
        simrun.sim.run(until=until, max_steps=scenario.max_steps)
    except EventBudgetExceeded:
        if check:
            raise
        violations.append("event budget exhausted (possible livelock)")
    return simrun.collect(check, violations)


# ---------------------------------------------------------------------------
# runtime fabrics (local queues / authenticated TCP)
# ---------------------------------------------------------------------------


def _run_runtime(
    scenario: Scenario, check: bool, observer: Optional[Observer] = None
) -> RunResult:
    from ..runtime.cluster import run_cluster_sync

    if scenario.stop not in ("decided", "halted"):
        raise ConfigError(
            f"stop condition {scenario.stop!r} is not available on the "
            f"{scenario.fabric!r} fabric"
        )
    proposals = None if scenario.protocol == "acs" else scenario.proposals
    return run_cluster_sync(
        scenario.n,
        t=scenario.t,
        protocol=scenario.protocol,
        proposals=proposals,
        coin=scenario.coin_name,
        faults=scenario.faults_dict(),
        transport=scenario.fabric,
        seed=scenario.seed,
        instances=scenario.instances,
        host=scenario.host,
        base_port=scenario.base_port,
        timeout=scenario.timeout,
        stop=scenario.stop,
        check=check,
        allow_excess_faults=scenario.allow_excess_faults,
        netem=scenario.netem_config(),
        batching=scenario.batching,
        codec=scenario.codec,
        observer=observer,
        recovery=scenario.recovery,
        profile=scenario.profile,
    )


# ---------------------------------------------------------------------------
# mp fabric (one OS process per node)
# ---------------------------------------------------------------------------


def _run_mp(
    scenario: Scenario,
    check: bool,
    observer: Optional[Observer] = None,
    keep_scratch: bool = False,
) -> RunResult:
    from ..mp.orchestrator import run_mp_sync

    return run_mp_sync(
        scenario, check=check, observer=observer, keep_scratch=keep_scratch
    )


__all__ = ["SimRun", "assemble_sim", "repeat", "run"]
