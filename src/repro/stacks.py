"""Fabric-agnostic protocol stack plans.

A :class:`ProtocolPlan` captures *what* runs on each process — the
protocol choice (Bracha, Ben-Or and its crash variant, MMR-14, ACS),
per-instance coin schemes, and multi-instance batching — without caring
*where* it runs.  The discrete-event simulator (the scenario runner's
``sim`` fabric) and the asyncio runtime cluster both assemble their
per-process stacks through the same plan, so a configuration executes
byte-for-byte the same protocol code on every fabric and the results
are comparable stack-for-stack.

The plan builds onto a :class:`~repro.sim.process.Process`, which is
happy on either world's network (anything satisfying
:class:`~repro.sim.network.NetworkAPI`).  The stacks a plan assembles
are sans-I/O engines: their sends are effects drained from the process
outbox by whichever driver hosts them (see :mod:`repro.sim.effects`),
so fabric-level concerns — the scenario's ``batching`` field included —
are applied entirely by the driver, never by protocol code.

The single-instance stack builders live here too (:data:`STACKS`), one
per protocol name, including the two Bracha ablations the A1/A2
experiments run: ``bracha-novalidate`` (no justification machinery) and
``bracha-noamplify`` (no DECIDE amplification, so the run never halts).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Union

from .adversary.behaviors import ByzantineBehavior, dispatch_behavior
from .analysis.experiments import FaultSpec, make_coin, normalize_proposals
from .app.acs import AcsInstance
from .baselines.benor import BenOrConsensus
from .baselines.benor_crash import BenOrCrashConsensus
from .baselines.bv_broadcast import BinaryValueBroadcast
from .baselines.mmr14 import Mmr14Consensus
from .core.broadcast import BroadcastLayer
from .core.coin import CoinScheme, LocalCoin
from .core.consensus import BrachaConsensus
from .errors import ConfigError
from .params import ProtocolParams
from .sim.network import NetworkAPI
from .sim.process import Process, ProtocolModule
from .sim.rng import derive_seed
from .types import ProcessId

#: Builds the per-process protocol stack; returns the decision-bearing
#: modules (one per instance), or the ACS instance.
StackBuilder = Callable[[Process], List[Any]]


def _bracha_stack(**switches: bool) -> Callable[[Process, CoinScheme], BrachaConsensus]:
    """Bracha's stack (RBC + coin + consensus), with ablation switches."""

    def build(process: Process, coin_scheme: CoinScheme) -> BrachaConsensus:
        rbc = BroadcastLayer()
        process.add_module(rbc)
        consensus = BrachaConsensus(rbc, coin_scheme.attach(process), **switches)
        process.add_module(consensus)
        return consensus

    return build


def benor_stack(process: Process, coin_scheme: CoinScheme) -> BenOrConsensus:
    """Install the Ben-Or stack: bare links + coin, no broadcast layer."""
    consensus = BenOrConsensus(coin_scheme.attach(process))
    process.add_module(consensus)
    return consensus


def benor_crash_stack(process: Process, coin_scheme: CoinScheme) -> BenOrCrashConsensus:
    """Install the crash-fault Ben-Or stack (t < n/2, benign faults)."""
    consensus = BenOrCrashConsensus(coin_scheme.attach(process))
    process.add_module(consensus)
    return consensus


def mmr14_stack(process: Process, coin_scheme: CoinScheme) -> Mmr14Consensus:
    """Install the MMR-14 stack: BV-broadcast + common coin + agreement."""
    bv = BinaryValueBroadcast()
    process.add_module(bv)
    consensus = Mmr14Consensus(bv, coin_scheme.attach(process))
    process.add_module(consensus)
    return consensus


#: protocol name -> single-instance stack builder ``(process, coin)``.
#: ``bracha-novalidate`` replaces the justification machinery with a
#: permissive validator (A1: one Byzantine process then breaks strong
#: validity); ``bracha-noamplify`` drops the DECIDE amplification (A2:
#: the run decides but never quiesces).
STACKS = {
    "bracha": _bracha_stack(),
    "benor": benor_stack,
    "benor-crash": benor_crash_stack,
    "mmr14": mmr14_stack,
    "bracha-novalidate": _bracha_stack(validate=False),
    "bracha-noamplify": _bracha_stack(amplify_decides=False),
}

PROTOCOLS = (*STACKS, "acs")

#: Default coin per protocol: Bracha and Ben-Or are defined for local
#: coins; MMR-14's termination argument requires a common coin.  Any
#: protocol not listed defaults to the local coin.
DEFAULT_COIN = {
    "bracha": "local",
    "benor": "local",
    "benor-crash": "local",
    "mmr14": "dealer",
}


def instance_coin_seed(seed: int, index: int) -> int:
    """The derived seed of consensus instance ``index``'s coin scheme.

    One rule, used both when a plan builds its coins in-process and when
    the multi-process dealer (:mod:`repro.mp.bundle`) materialises the
    same setup into per-node bundle files — a node can therefore check a
    bundle's coin material against the scenario it claims to serve.
    """
    return derive_seed(seed, "inst-coin", index)


def coin_seeds(protocol: str, seed: int, instances: int, n: int) -> tuple:
    """Every instance-coin seed a plan derives, in instance order.

    ACS runs one ABA (hence one coin scheme) per node; the other
    protocols run one per parallel instance.
    """
    count = n if protocol == "acs" else instances
    return tuple(instance_coin_seed(seed, i) for i in range(count))


def instance_coin(
    coin: Union[str, CoinScheme], n: int, t: int, seed: int, index: int
) -> CoinScheme:
    """An independent coin scheme for consensus instance ``index``.

    Instance coins must be independent (the ACS construction relies on
    it), so string specs are re-derived per instance; explicit scheme
    objects are only accepted for a single instance.
    """
    if isinstance(coin, CoinScheme):
        if index > 0:
            raise ConfigError("pass a coin *name* when running multiple instances")
        return coin
    if coin == "local":
        return LocalCoin(salt=("inst", index)) if index else LocalCoin()
    return make_coin(coin, n, t, instance_coin_seed(seed, index))


class ProtocolPlan:
    """How to build, propose to, and read out one protocol choice."""

    def __init__(
        self,
        protocol: str,
        params: ProtocolParams,
        coin: Union[str, CoinScheme],
        seed: int,
        instances: int,
    ):
        if protocol not in PROTOCOLS:
            raise ConfigError(
                f"unknown protocol {protocol!r}; choose from {sorted(PROTOCOLS)}"
            )
        if instances < 1:
            raise ConfigError(f"need at least one instance, got {instances}")
        if instances > 1 and protocol not in ("bracha", "benor"):
            raise ConfigError(f"multiple instances are not supported for {protocol!r}")
        if coin == "shares" and (instances > 1 or protocol == "acs"):
            # Each share-coin attaches a module under one id; parallel
            # instances would collide.  Salted local / dealer coins give
            # the independence parallel instances need.
            raise ConfigError(
                "the share-based coin supports a single instance; "
                "use 'local' or 'dealer' for parallel instances and ACS"
            )
        self.protocol = protocol
        self.params = params
        self.instances = instances
        n, t = params.n, params.t
        # One coin scheme per instance (per ABA index for ACS), shared by
        # every node — the same assembly on every fabric.
        self.coins = [
            instance_coin(coin, n, t, seed, i)
            for i in range(n if protocol == "acs" else instances)
        ]

    # -- builders ------------------------------------------------------------

    def build(self, process: Process) -> List[Any]:
        """Install the stack on ``process``; return decision modules."""
        if self.protocol == "acs":
            rbc = BroadcastLayer()
            process.add_module(rbc)
            acs = AcsInstance(
                process, rbc, coin_factory=lambda j: self.coins[j]
            )
            return [acs]
        if self.instances == 1:
            return [STACKS[self.protocol](process, self.coins[0])]
        if self.protocol == "bracha":
            rbc = BroadcastLayer()
            process.add_module(rbc)
            modules = []
            for i in range(self.instances):
                consensus = BrachaConsensus(
                    rbc, self.coins[i].attach(process), module_id=f"bracha-{i}"
                )
                process.add_module(consensus)
                modules.append(consensus)
            return modules
        # benor (the only other multi-instance protocol, guarded above)
        modules = []
        for i in range(self.instances):
            consensus = BenOrConsensus(
                self.coins[i].attach(process), module_id=f"benor-{i}"
            )
            process.add_module(consensus)
            modules.append(consensus)
        return modules

    def propose(self, modules: List[Any], pid: ProcessId, proposal: Any) -> None:
        if self.protocol == "acs":
            modules[0].propose(proposal)
        else:
            for module in modules:
                module.propose(proposal)

    def default_proposals(self, proposals: Any = None) -> Dict[ProcessId, Any]:
        """The proposal table every fabric uses for this plan.

        ACS proposes per-node request payloads; the binary protocols
        normalize ``proposals`` through the harness rules.
        """
        if self.protocol == "acs":
            return {pid: f"req-p{pid}" for pid in range(self.params.n)}
        return normalize_proposals(proposals, self.params.n)

    # -- readouts ------------------------------------------------------------

    def decided(self, modules: List[Any]) -> bool:
        if self.protocol == "acs":
            return modules[0].done
        return all(m.decided for m in modules)

    def halted(self, modules: List[Any]) -> bool:
        if self.protocol == "acs":
            return modules[0].done
        return all(m.halted for m in modules)


class PlanProposer(ProtocolModule):
    """Start-time proposer covering every instance of a plan's stack.

    Behaviors wrapping honest stacks (crash, two-faced) cannot be told
    to propose from outside, so the proposal is injected by a module's
    ``start()`` hook — on every fabric alike.
    """

    def __init__(self, modules: List[Any], plan: ProtocolPlan, bit: Any):
        tag = getattr(modules[0], "module_id", plan.protocol)
        super().__init__(f"_proposer-{tag}")
        self._modules = modules
        self._plan = plan
        self._bit = bit

    def start(self) -> None:
        self._plan.propose(self._modules, -1, self._bit)

    def on_message(self, sender: ProcessId, payload: Any) -> None:
        pass


def build_plan_behavior(
    pid: ProcessId,
    spec: FaultSpec,
    network: NetworkAPI,
    params: ProtocolParams,
    plan: ProtocolPlan,
    proposals: Dict[ProcessId, Any],
) -> ByzantineBehavior:
    """Build a Byzantine behavior whose honest faces run the plan's stack.

    The returned behavior is *not* registered with the network; the
    caller owns that (the simulator registers it directly, the runtime
    wraps it in a node).
    """

    def honest_factory(process: Process, bit: Any) -> None:
        modules = plan.build(process)
        process.add_module(PlanProposer(modules, plan, bit))

    return dispatch_behavior(
        pid, spec, network, params, honest_factory, proposals[pid]
    )


__all__ = [
    "DEFAULT_COIN",
    "PROTOCOLS",
    "PlanProposer",
    "ProtocolPlan",
    "STACKS",
    "StackBuilder",
    "build_plan_behavior",
    "coin_seeds",
    "instance_coin",
    "instance_coin_seed",
]
