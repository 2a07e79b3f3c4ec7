"""Cluster driver: spawn n nodes, run protocols to decision, measure.

:class:`Cluster` assembles the runtime analogue of
:func:`repro.scenario.assemble_sim`: the same protocol
stacks (Bracha, Ben-Or and its crash variant, MMR-14, ACS), the same
coin schemes, and the same Byzantine behaviors — but each process lives
on its own :class:`~repro.runtime.node.Node` with a private
:class:`~repro.runtime.node.NodeNetwork`, pumped concurrently over a
real :class:`~repro.runtime.transport.Transport` ("local" asyncio
queues or authenticated "tcp").

The driver can run *many* consensus instances per node in one execution
(``instances > 1``): Bracha instances share one reliable-broadcast
layer exactly as the ACS application does, which is the batching shape
later scaling work builds on.

Each node's outcome and traffic become one
:func:`~repro.analysis.experiments.node_record`, and
:func:`~repro.analysis.experiments.collect_result` folds them into the
same verified :class:`~repro.types.RunResult` every other fabric
returns, so sim and runtime executions are directly comparable in
tables and benchmarks.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from ..adversary.behaviors import ByzantineBehavior
from ..analysis.experiments import (
    DecideLog,
    FaultSpec,
    ProposalSpec,
    collect_result,
    node_record,
)
from ..core.coin import CoinScheme
from ..errors import ConfigError, LivenessFailure
from ..net.auth import KeyRing
from ..obs import MetricsRegistry, Observer, build_profiler
from ..netem import (
    LinkPolicy,
    NetemConfig,
    ReliableLink,
    TickClock,
    WallClock,
)
from ..netem.clock import Clock
from ..params import for_system
from ..recovery.wal import WalWriter, parse_recovery, wal_filename
from ..sim.effects import parse_batching
from ..sim.process import Process
from ..stacks import PROTOCOLS, ProtocolPlan, build_plan_behavior
from ..types import ProcessId, RunResult
from .codec import WIRE_CODECS
from .node import Node, NodeNetwork
from .tcp import TcpTransport
from .transport import LocalHub, Transport


# ---------------------------------------------------------------------------
# The cluster
# ---------------------------------------------------------------------------


class Cluster:
    """n concurrently-running nodes executing one protocol to decision.

    Use as an async context manager, or call :func:`run_cluster` /
    :func:`run_cluster_sync` for the one-shot path::

        async with Cluster(n=4, transport="tcp") as cluster:
            result = await cluster.run()
    """

    def __init__(
        self,
        n: int,
        t: Optional[int] = None,
        protocol: str = "bracha",
        proposals: ProposalSpec = None,
        coin: Union[str, CoinScheme] = "local",
        faults: Optional[Mapping[ProcessId, FaultSpec]] = None,
        transport: str = "local",
        seed: int = 0,
        instances: int = 1,
        host: str = "127.0.0.1",
        base_port: int = 0,
        codec_check: bool = False,
        allow_excess_faults: bool = False,
        link: Optional[Mapping[str, Any]] = None,
        partitions: Optional[Any] = None,
        netem: Optional[NetemConfig] = None,
        batching: str = "off",
        observer: Optional[Observer] = None,
        recovery: str = "off",
        profile: str = "off",
        codec: str = "json",
    ):
        self.params = for_system(n, t)
        self.protocol = protocol
        self.transport_kind = transport
        self.seed = seed
        self.instances = instances
        self.batching = batching
        parse_batching(batching)  # validate early; nodes parse again
        self.host = host
        self.base_port = base_port
        if codec not in WIRE_CODECS:
            raise ConfigError(
                f"unknown wire codec {codec!r}; choose from {list(WIRE_CODECS)}"
            )
        self.codec = codec
        # The local fabric has no sockets; a binary-codec run round-trips
        # every payload through the binary wire format instead, so the
        # codec selection is exercised (not ignored) in-process too.
        self.codec_check = codec_check or codec == "binary"
        self.faults = dict(faults or {})
        for pid in self.faults:
            if not 0 <= pid < n:
                raise ConfigError(f"fault pid {pid} out of range")
        if len(self.faults) > self.params.t and not allow_excess_faults:
            raise ConfigError(
                f"{len(self.faults)} faults injected but t={self.params.t}; "
                "pass allow_excess_faults=True if the excess is intentional"
            )
        if transport not in ("local", "tcp"):
            raise ConfigError(f"unknown transport {transport!r}")
        if netem is not None and (link is not None or partitions is not None):
            raise ConfigError("pass either a NetemConfig or link/partitions specs")
        self.netem = netem if netem is not None else NetemConfig.from_spec(
            link, partitions
        )
        if self.netem is not None:
            self.netem.validate_pids(n)
        self.recovery_mode, self.wal_dir = parse_recovery(recovery)
        self.plan = ProtocolPlan(protocol, self.params, coin, seed, instances)
        self.proposals: Dict[ProcessId, Any] = self.plan.default_proposals(proposals)

        self.nodes: Dict[ProcessId, Node] = {}
        self._wal_writers: Dict[ProcessId, WalWriter] = {}
        self.stacks: Dict[ProcessId, List[Any]] = {}  # correct nodes only
        self.behaviors: Dict[ProcessId, ByzantineBehavior] = {}
        self.transports: Dict[ProcessId, Transport] = {}
        self._tasks: List[asyncio.Task] = []
        self._hub: Optional[LocalHub] = None
        self._policy: Optional[LinkPolicy] = None
        self._clock: Optional[Clock] = None
        self._progress = asyncio.Event()
        self._zero = 0.0
        self._started = False
        self.observer = observer
        self.registry = MetricsRegistry()
        # One cluster-wide profiler: nodes share the registry, so span
        # histograms aggregate across the whole cluster (per-node splits
        # would multiply histogram storage for no analytical gain here).
        self.profiler = build_profiler(profile, self.registry)
        # One cluster-wide timeline: seconds since the run loops
        # launched (the closure reads _zero when it is called).
        clock = lambda: time.monotonic() - self._zero  # noqa: E731
        if self.observer is not None:
            self.observer.bind_clock(clock)
        self.decides = DecideLog(self.plan, self.registry, clock, observer)

    # -- assembly ------------------------------------------------------------

    async def start(self) -> "Cluster":
        """Bind transports, build nodes, and launch every run loop."""
        if self._started:
            raise ConfigError("cluster already started")
        self._started = True
        n = self.params.n
        await self._make_transports()

        for pid in range(n):
            network = NodeNetwork(pid, self.params, seed=self.seed)
            network.observer = self.observer
            if pid in self.faults:
                behavior = build_plan_behavior(
                    pid, self.faults[pid], network, self.params,
                    self.plan, self.proposals,
                )
                self.behaviors[pid] = behavior
                target: Any = behavior
            else:
                process = Process(pid, network, self.params)  # type: ignore[arg-type]
                modules = self.plan.build(process)
                self.decides.attach(pid, process, modules)
                self.stacks[pid] = modules
                target = process
            node = Node(
                pid, network, self.transports[pid], target,
                on_activation=self._on_activation, batching=self.batching,
            )
            node.profiler = self.profiler
            self.nodes[pid] = node

        if self.recovery_mode == "wal":
            self._attach_wals()

        # Queue proposals before the run loops start so every correct
        # node proposes immediately after its modules' start() hooks.
        for pid, modules in self.stacks.items():
            bit = self.proposals[pid]
            self.nodes[pid].queue_action(
                lambda m=modules, p=pid, b=bit: self._propose(p, m, b)
            )

        self._zero = time.monotonic()
        self._tasks = [
            asyncio.ensure_future(node.run()) for node in self.nodes.values()
        ]
        return self

    def _attach_wals(self) -> None:
        """Open one WAL per correct node and hook it into the pump.

        The header binds each file to this exact run (seed, protocol,
        instances), so a recovery boot against the wrong scenario is
        refused rather than replayed into nonsense.
        """
        if self.wal_dir is None:
            self.wal_dir = tempfile.mkdtemp(prefix="repro-wal-")
        for pid in self.stacks:
            writer = WalWriter.open(
                os.path.join(self.wal_dir, wal_filename(pid)),
                {
                    "run_id": f"{self.transport_kind}-{self.seed}",
                    "node": pid,
                    "seed": self.seed,
                    "protocol": self.protocol,
                    "instances": self.instances,
                },
            )
            self._wal_writers[pid] = writer
            self.nodes[pid].wal = writer

    def _propose(self, pid: ProcessId, modules: List[Any], bit: Any) -> None:
        writer = self._wal_writers.get(pid)
        if writer is not None:
            writer.append_propose(bit)
        self.plan.propose(modules, pid, bit)

    async def _make_transports(self) -> None:
        n = self.params.n
        if self.netem is not None:
            # The local fabric runs on deterministic virtual time (one
            # tick per event-loop pass); TCP runs on the wall clock.
            # Started only after the transports are up, so bind/connect
            # latency cannot eat into scripted partition windows.
            self._clock = (
                TickClock() if self.transport_kind == "local" else WallClock()
            )
            self._policy = LinkPolicy(
                n, self.netem, seed=self.seed, observer=self.observer
            )
        if self.transport_kind == "local":
            self._hub = LocalHub(
                n, codec_check=self.codec_check,
                policy=self._policy, clock=self._clock, wire=self.codec,
            )
            self.transports = {pid: self._hub.endpoint(pid) for pid in range(n)}
        else:
            ring = KeyRing(n, master_secret=f"cluster-setup-{self.seed}".encode())
            endpoints: Dict[ProcessId, TcpTransport] = {}
            for pid in range(n):
                port = 0 if self.base_port == 0 else self.base_port + pid
                endpoints[pid] = TcpTransport(
                    pid, n, ring, host=self.host, port=port,
                    policy=self._policy, clock=self._clock, wire=self.codec,
                )
                endpoints[pid].profiler = self.profiler
            for t in endpoints.values():
                await t.start()
            peers = {pid: t.address for pid, t in endpoints.items()}
            for t in endpoints.values():
                t.set_peers(peers)
            await asyncio.gather(*(t.connect() for t in endpoints.values()))
            self.transports = dict(endpoints)
        if self.netem is not None:
            self._clock.start()
        if self.netem is not None and self.netem.retransmit:
            # Every node gets the link layer (uniform framing); the
            # eventual-delivery guarantee it provides only binds between
            # correct endpoints — a faulty peer may ignore the
            # discipline, and its unacked frames die after max_retries.
            # Resends pause for scripted partitions (severed) so the
            # retry budget is spent on unresponsive peers, not windows
            # the scenario promised would heal.
            policy = self._policy
            self.transports = {
                pid: ReliableLink(
                    t, self._clock,
                    rto=self.netem.rto, max_retries=self.netem.max_retries,
                    severed=(
                        lambda dest, now, src=pid: policy.severed(src, dest, now)
                    ),
                    observer=self.observer,
                )
                for pid, t in self.transports.items()
            }
            for t in self.transports.values():
                t.start_scan()

    # -- progress tracking ---------------------------------------------------

    def _on_activation(self, node: Node) -> None:
        self._progress.set()

    def _all(self, predicate: Callable[[List[Any]], bool]) -> bool:
        return all(predicate(modules) for modules in self.stacks.values())

    # -- execution -----------------------------------------------------------

    async def run(
        self,
        timeout: float = 60.0,
        stop: str = "decided",
        check: bool = True,
    ) -> RunResult:
        """Wait for the stop condition, then collect and verify a result.

        ``stop`` is ``"decided"`` (every correct node decided every
        instance) or ``"halted"`` (every correct node may stop
        participating).  A timeout raises
        :class:`~repro.errors.LivenessFailure` under ``check=True`` and
        is recorded as a violation otherwise.
        """
        if not self._started:
            await self.start()
        if stop == "decided":
            predicate = lambda: self._all(self.plan.decided)  # noqa: E731
        elif stop == "halted":
            predicate = lambda: self._all(self.plan.halted)  # noqa: E731
        else:
            raise ConfigError(f"unknown stop condition {stop!r}")

        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        timed_out = False
        while not predicate():
            self._crash_check()
            remaining = deadline - loop.time()
            if remaining <= 0:
                timed_out = True
                break
            self._progress.clear()
            try:
                await asyncio.wait_for(self._progress.wait(), remaining)
            except asyncio.TimeoutError:
                timed_out = True
                break
        # A node that died without a subsequent activation would read as
        # a timeout; surface the real exception instead.
        self._crash_check()

        elapsed = time.monotonic() - self._zero
        if timed_out and check:
            missing = sorted(
                pid for pid, modules in self.stacks.items()
                if not self.plan.decided(modules)
            )
            raise LivenessFailure(
                f"timeout after {timeout}s; nodes still undecided: {missing}"
            )
        meta: Dict[str, Any] = {
            "transport": self.transport_kind,
            "protocol": self.protocol,
            "instances": self.instances,
            "batching": self.batching,
            "codec": self.codec,
        }
        if self.recovery_mode == "wal":
            meta["recovery"] = {"mode": "wal", "dir": self.wal_dir}
            self.registry.count(
                "wal_records",
                sum(w.next_seq for w in self._wal_writers.values()),
            )
        return collect_result(
            self._records(), self.proposals, self.behaviors,
            params=self.params, protocol=self.protocol, elapsed=elapsed,
            registry=self.registry, meta=meta,
            violations=["timeout (possible livelock)"] if timed_out else [],
            check=check,
        )

    def _records(self) -> List[Dict[str, Any]]:
        """One record per node, plus the shared link policy's totals."""
        records: List[Dict[str, Any]] = []
        if self._policy is not None:
            records.append({
                "netem": self._policy.totals().as_dict(),
                "netem_per_link": self._policy.per_link(),
            })
        for pid, node in self.nodes.items():
            transport = self.transports[pid]
            traffic = node.traffic()
            if self.transport_kind == "tcp":
                traffic["counters"]["frames_rejected"] = transport.rejected
            if isinstance(transport, ReliableLink):
                traffic["link"] = transport.stats()
            records.append(node_record(
                pid, self.stacks.get(pid), self.protocol,
                self.decides.times.get(pid), **traffic,
            ))
        return records

    def _crash_check(self) -> None:
        for node in self.nodes.values():
            if node.crashed is not None:
                raise node.crashed

    async def shutdown(self) -> None:
        """Close transports, netem machinery, WALs, and all node tasks."""
        for writer in self._wal_writers.values():
            writer.close()
        await asyncio.gather(
            *(t.close() for t in self.transports.values()), return_exceptions=True
        )
        if self._hub is not None:
            await self._hub.close()
        if self._clock is not None:
            await self._clock.close()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)

    async def __aenter__(self) -> "Cluster":
        return await self.start()

    async def __aexit__(self, *_exc: Any) -> None:
        await self.shutdown()

# ---------------------------------------------------------------------------
# One-shot entry points
# ---------------------------------------------------------------------------


async def run_cluster(
    n: int,
    t: Optional[int] = None,
    timeout: float = 60.0,
    stop: str = "decided",
    check: bool = True,
    **kwargs: Any,
) -> RunResult:
    """Assemble, execute to decision, tear down, and verify one run."""
    cluster = Cluster(n, t, **kwargs)
    try:
        await cluster.start()
        return await cluster.run(timeout=timeout, stop=stop, check=check)
    finally:
        await cluster.shutdown()


def run_cluster_sync(n: int, **kwargs: Any) -> RunResult:
    """Blocking wrapper around :func:`run_cluster` (CLI, tests, notebooks)."""
    return asyncio.run(run_cluster(n, **kwargs))


__all__ = ["Cluster", "PROTOCOLS", "run_cluster", "run_cluster_sync"]
