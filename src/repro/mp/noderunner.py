"""One node, one OS process: the ``repro node`` entry point.

The runner is the per-process analogue of what
:class:`~repro.runtime.cluster.Cluster` assembles n times in one
interpreter — and it is deliberately the *same* stack: a
:class:`~repro.stacks.ProtocolPlan`-built engine on a
:class:`~repro.runtime.node.Node` pump, over
:class:`~repro.runtime.tcp.TcpTransport` (netem
:class:`~repro.netem.LinkPolicy` and
:class:`~repro.netem.ReliableLink` included, when the scenario declares
them).  Nothing protocol-side knows it left the single-process world.

Lifecycle:

1. read the manifest and this node's bundle; **validate** the bundle
   against the manifest (scenario hash, MAC-key coverage, coin-seed
   derivation, dealer shares) — mismatched setup refuses to boot;
2. bind the TCP listener at the manifest-assigned address;
3. connect the control channel, say ``hello``, and wait for ``go``
   (the orchestrator's start barrier);
4. dial every peer, start the pump, propose;
5. on deciding (or halting, per the scenario's stop condition) send
   ``done``; on ``stop`` send the ``result``: this node's outcome record
   (:func:`~repro.analysis.experiments.node_record`, the same record
   every fabric folds through
   :func:`~repro.analysis.experiments.collect_result`), and exit.

Without a control endpoint the runner is standalone (manual multi-host
operation): it proposes as soon as its peers are dialled, prints the
``result`` JSON to stdout when its stop condition holds, lingers a
grace period so slower peers can still read from it, and exits.

Determinism note: every node seeds its :class:`NodeNetwork` and
:class:`LinkPolicy` from the scenario seed exactly as the in-process
cluster does.  Link-policy randomness is streamed per directed link, so
n per-process policy instances agree with one shared instance — each
node only consults the streams of its own outbound links.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from typing import Any, Dict, List, Optional

from ..analysis.experiments import DecideLog, node_record
from ..errors import ReproError
from ..netem import LinkPolicy, ReliableLink, WallClock
from ..recovery.wal import WalWriter, read_wal, replay, validate_header
from ..obs import MetricsRegistry, Observer
from ..obs.observer import DEFAULT_RING_CAPACITY, parse_observe
from ..obs.sinks import RingSink
from ..runtime.node import Node, NodeNetwork
from ..runtime.tcp import TcpTransport
from ..sim.effects import CausalStamper
from ..sim.process import Process
from ..stacks import ProtocolPlan, build_plan_behavior
from .bundle import NodeBundle, RunManifest, load_bundle, load_manifest
from .control import MAX_CONTROL_LINE, parse_endpoint, read_msg, send_msg

#: How long a standalone node retries dialling peers that are still
#: booting.  A controlled node dials once: every listener is bound
#: before the orchestrator's go barrier, so a refused dial after ``go``
#: means the peer died (a ``kill`` fault at ``after: 0.0``), and the
#: send path's on-demand reconnect takes over instead of stalling boot.
CONNECT_RETRY = 15.0


class NodeRunner:
    """Assembles and drives one node process end to end."""

    def __init__(self, manifest: RunManifest, bundle: NodeBundle,
                 wal_path: Optional[str] = None, recover: bool = False,
                 attempt: int = 0):
        bundle.validate(manifest)
        self.manifest = manifest
        self.bundle = bundle
        self.scenario = manifest.scenario
        self.pid = bundle.node
        self.params = self.scenario.params
        self.wal_path = wal_path
        self.recovering = recover
        self.attempt = int(attempt)
        self._wal_writer: Optional[WalWriter] = None
        self._wal_records: Optional[List[Dict[str, Any]]] = None
        self.replay_stats: Dict[str, Any] = {}
        self._replayed = asyncio.Event()
        if recover:
            if wal_path is None:
                raise ReproError("--recover needs the WAL path")
            # Read + verify the log *now*: a damaged or mismatched WAL
            # refuses the boot before the node ever says hello.
            header, self._wal_records = read_wal(wal_path)
            validate_header(
                header,
                run_id=manifest.run_id,
                scenario_hash=manifest.digest,
                node=self.pid,
                seed=self.scenario.seed,
                protocol=self.scenario.protocol,
                instances=self.scenario.instances,
            )
        self.plan = ProtocolPlan(
            self.scenario.protocol, self.params, self.scenario.coin_name,
            self.scenario.seed, self.scenario.instances,
        )
        self.proposals = self.plan.default_proposals(self.scenario.proposals)
        faults = self.scenario.faults_dict()
        spec = faults.get(self.pid)
        kind = spec if isinstance(spec, str) else (spec or {}).get("kind")
        # 'kill' and 'restart' faults are the orchestrator's job (SIGKILL
        # mid-run, and for restart a later WAL-recovered respawn); until
        # the signal lands this node is simply honest — which is exactly
        # what a real crash fault means.
        self.fault_spec = None if kind in ("kill", "restart") else spec
        self.network = NodeNetwork(self.pid, self.params, seed=self.scenario.seed)
        if self.attempt:
            # A respawned incarnation restarts its per-sender sequence
            # counters; a fresh causal-id epoch keeps its stamps disjoint
            # from any still-on-the-wire messages of the dead incarnation
            # (same move as the link-layer seq_base below).
            self.network.stamper = CausalStamper(epoch=self.attempt)
        self.observer: Optional[Observer] = None
        mode, arg = parse_observe(self.scenario.observe)
        if mode != "off":
            # Node-side capture is always an in-memory ring; the
            # orchestrator owns the run's real sink and replays the
            # shipped events into it.
            capacity = arg if mode == "ring" else DEFAULT_RING_CAPACITY
            self.observer = Observer(RingSink(capacity))
            self.network.observer = self.observer

        self.modules: Optional[List[Any]] = None
        self.node: Optional[Node] = None
        self.transport: Any = None
        self._tcp: Optional[TcpTransport] = None
        self._policy: Optional[LinkPolicy] = None
        self._clock: Optional[WallClock] = None
        self._zero = time.monotonic()
        # Module decisions are counted live into this node's own
        # registry; the count travels in the result record.
        self.registry = MetricsRegistry()
        self.decides = DecideLog(
            self.plan, self.registry,
            lambda: time.monotonic() - self._zero, self.observer,
        )
        self._stopped = asyncio.Event()
        self._satisfied = asyncio.Event()  # the scenario's stop predicate

    # -- assembly ------------------------------------------------------------

    async def bind(self) -> None:
        """Start the listener at the manifest-assigned address."""
        netem = self.scenario.netem_config()
        if netem is not None:
            self._clock = WallClock()
            self._policy = LinkPolicy(
                self.params.n, netem, seed=self.scenario.seed,
                observer=self.observer,
            )
        host, port = self.manifest.addresses[self.pid]
        self._tcp = TcpTransport(
            self.pid, self.params.n, self.bundle.keyring(self.params.n),
            host=host, port=port, policy=self._policy, clock=self._clock,
            wire=self.scenario.codec,
        )
        await self._tcp.start()

    async def connect(self, retry_for: float = CONNECT_RETRY) -> None:
        """Dial every peer (retrying for ``retry_for`` seconds while they
        boot) and build the node."""
        netem = self.scenario.netem_config()
        self._tcp.set_peers(self.manifest.addresses)
        await self._tcp.connect(retry_for=retry_for)
        if self._clock is not None:
            self._clock.start()
        self.transport = self._tcp
        if netem is not None and netem.retransmit:
            policy, src = self._policy, self.pid
            self.transport = ReliableLink(
                self._tcp, self._clock,
                rto=netem.rto, max_retries=netem.max_retries,
                severed=lambda dest, now: policy.severed(src, dest, now),
                observer=self.observer,
                # A recovered incarnation must not reuse link sequence
                # numbers its peers already filtered: one epoch per
                # restart attempt keeps every new frame above the old
                # incarnation's reachable range.
                seq_base=self.attempt << 20,
            )
            self.transport.start_scan()

        if self.fault_spec is not None:
            target: Any = build_plan_behavior(
                self.pid, self.fault_spec, self.network, self.params,
                self.plan, self.proposals,
            )
        else:
            process = Process(self.pid, self.network, self.params)  # type: ignore[arg-type]
            self.modules = self.plan.build(process)
            self.decides.attach(self.pid, process, self.modules)
            target = process
        self.node = Node(
            self.pid, self.network, self.transport, target,
            on_activation=self._on_activation,
            batching=self.scenario.batching,
        )
        if self.wal_path is not None and not self.recovering:
            self._wal_writer = WalWriter.open(self.wal_path, {
                "run_id": self.manifest.run_id,
                "scenario_hash": self.manifest.digest,
                "node": self.pid,
                "seed": self.scenario.seed,
                "protocol": self.scenario.protocol,
                "instances": self.scenario.instances,
            })
            self.node.wal = self._wal_writer

    def start_clock(self) -> None:
        """Zero the run timeline (called at the ``go`` barrier)."""
        self._zero = time.monotonic()
        if self.observer is not None:
            self.observer.bind_clock(lambda: time.monotonic() - self._zero)

    def propose(self) -> None:
        if self.modules is None:
            return
        if self.recovering:
            self._schedule_replay()
            return
        modules, pid, bit = self.modules, self.pid, self.proposals[self.pid]

        def action() -> None:
            if self._wal_writer is not None:
                self._wal_writer.append_propose(bit)
            self.plan.propose(modules, pid, bit)

        self.node.queue_action(action)

    def _schedule_replay(self) -> None:
        """Queue the WAL replay as the node task's first action.

        The replay runs inside the pump (so replayed sends flush to the
        transport) before any new delivery is consumed; only then is the
        WAL reopened for appending, so replayed records are not logged
        twice.
        """
        records = self._wal_records or []
        modules, pid = self.modules, self.pid

        def action() -> None:
            started = time.monotonic()
            stats = replay(
                records,
                lambda value: self.plan.propose(modules, pid, value),
                self.node.target.deliver,
            )
            self._wal_writer = WalWriter.resume(
                self.wal_path, len(records) + 1  # + the header record
            )
            self.node.wal = self._wal_writer
            if not stats["proposed"]:
                # Killed before the proposal was logged: propose fresh.
                bit = self.proposals[pid]
                self._wal_writer.append_propose(bit)
                self.plan.propose(modules, pid, bit)
            self.replay_stats = {
                "replayed": stats["replayed"],
                "replay_ms": (time.monotonic() - started) * 1000.0,
            }
            if self.observer is not None:
                self.observer.emit(
                    "recovery_replayed", node=pid,
                    detail=dict(self.replay_stats),
                )
            self._replayed.set()

        self.node.queue_action(action)

    # -- progress ------------------------------------------------------------

    def _on_activation(self, _node: Node) -> None:
        if self.modules is None or self._satisfied.is_set():
            return
        check = (
            self.plan.halted if self.scenario.stop == "halted"
            else self.plan.decided
        )
        if check(self.modules):
            self._satisfied.set()

    # -- readout -------------------------------------------------------------

    def result_payload(self) -> Dict[str, Any]:
        """This node's outcome record, as the ``result`` control message."""
        traffic = self.node.traffic()
        traffic["counters"]["frames_rejected"] = self._tcp.rejected
        traffic["counters"]["module_decisions"] = (
            self.registry.counter_value("module_decisions")
        )
        if self._policy is not None:
            traffic["netem"] = self._policy.totals().as_dict()
            traffic["netem_per_link"] = self._policy.per_link()
        if isinstance(self.transport, ReliableLink):
            traffic["link"] = self.transport.stats()
        if self.observer is not None:
            traffic["events"] = [e.to_dict() for e in self.observer.events()]
        return {"type": "result", **node_record(
            self.pid, self.modules, self.scenario.protocol, self.decides.times.get(self.pid),
            **traffic,
        )}

    async def shutdown(self, task: Optional[asyncio.Task]) -> None:
        if self._wal_writer is not None:
            self._wal_writer.close()
        if self.transport is not None:
            await self.transport.close()
        elif self._tcp is not None:
            await self._tcp.close()
        if self._clock is not None:
            await self._clock.close()
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


async def run_node(
    manifest_path: str,
    bundle_path: str,
    control: Optional[str] = None,
    linger: float = 5.0,
    wal: Optional[str] = None,
    recover: Optional[str] = None,
    attempt: int = 0,
) -> int:
    runner = NodeRunner(
        load_manifest(manifest_path), load_bundle(bundle_path),
        wal_path=recover if recover is not None else wal,
        recover=recover is not None,
        attempt=attempt,
    )
    if control is None:
        return await _run_standalone(runner, linger)
    return await _run_controlled(runner, control)


async def _run_controlled(runner: NodeRunner, control: str) -> int:
    host, port = parse_endpoint(control)
    send_lock = asyncio.Lock()
    task: Optional[asyncio.Task] = None
    writer: Optional[asyncio.StreamWriter] = None
    try:
        await runner.bind()
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_CONTROL_LINE
        )
        hello: Dict[str, Any] = {"type": "hello", "node": runner.pid}
        if runner.recovering:
            hello["recovered"] = True
            hello["attempt"] = runner.attempt
        async with send_lock:
            await send_msg(writer, hello)
        message = await read_msg(reader)
        if message is None or message.get("type") != "go":
            raise ReproError(
                f"node {runner.pid}: expected 'go', got {message!r}"
            )
        # Every peer's listener was bound before 'go': one dial each.
        await runner.connect(retry_for=0.0)
        runner.start_clock()
        runner.propose()
        task = asyncio.ensure_future(runner.node.run())

        async def report_done() -> None:
            await runner._satisfied.wait()
            async with send_lock:
                await send_msg(writer, {
                    "type": "done", "node": runner.pid,
                    "decide_time": runner.decides.times.get(runner.pid),
                })

        side_tasks = [asyncio.ensure_future(report_done())]

        if runner.recovering:
            async def report_recovered() -> None:
                await runner._replayed.wait()
                async with send_lock:
                    await send_msg(writer, {
                        "type": "recovered", "node": runner.pid,
                        **runner.replay_stats,
                    })

            side_tasks.append(asyncio.ensure_future(report_recovered()))
        try:
            while True:
                message = await read_msg(reader)
                if message is None or message.get("type") == "stop":
                    break
                if message.get("type") == "ping":
                    async with send_lock:
                        await send_msg(writer, {
                            "type": "pong", "node": runner.pid,
                            "seq": message.get("seq"),
                        })
        finally:
            for side in side_tasks:
                side.cancel()
            await asyncio.gather(*side_tasks, return_exceptions=True)
        if message is not None:  # a real 'stop', not an orphaning EOF
            async with send_lock:
                await send_msg(writer, runner.result_payload())
        return 0
    except Exception as exc:
        if writer is not None:
            try:
                async with send_lock:
                    await send_msg(writer, {
                        "type": "crash", "node": runner.pid,
                        "error": repr(exc),
                    })
            except Exception:
                pass
        raise
    finally:
        if writer is not None:
            writer.close()
        await runner.shutdown(task)


async def _run_standalone(runner: NodeRunner, linger: float) -> int:
    import json as _json

    await runner.bind()
    host, port = runner._tcp.address
    print(f"node {runner.pid} listening on {host}:{port}", file=sys.stderr)
    await runner.connect()
    runner.start_clock()
    runner.propose()
    task = asyncio.ensure_future(runner.node.run())
    try:
        timeout = runner.scenario.timeout
        try:
            await asyncio.wait_for(runner._satisfied.wait(), timeout)
        except asyncio.TimeoutError:
            print(f"node {runner.pid}: timeout after {timeout}s",
                  file=sys.stderr)
            return 1
        # Keep serving peers that are still catching up before exiting.
        await asyncio.sleep(linger)
        payload = runner.result_payload()
        payload.pop("events", None)  # stdout stays human-sized
        print(_json.dumps(payload, sort_keys=True))
        return 0
    finally:
        await runner.shutdown(task)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro node",
        description="run one consensus node (one OS process) from a dealt bundle",
    )
    parser.add_argument("--manifest", required=True, help="manifest.json path")
    parser.add_argument("--bundle", required=True, help="node-<pid>.json path")
    parser.add_argument("--control", default=None, metavar="HOST:PORT",
                        help="orchestrator control endpoint (omit for "
                             "standalone operation)")
    parser.add_argument("--linger", type=float, default=5.0,
                        help="standalone: seconds to keep serving peers "
                             "after deciding")
    parser.add_argument("--wal", default=None, metavar="FILE",
                        help="write a crash-recovery WAL to FILE")
    parser.add_argument("--recover", default=None, metavar="FILE",
                        help="boot by replaying the WAL at FILE, then "
                             "keep appending to it")
    parser.add_argument("--attempt", type=int, default=0,
                        help="restart attempt number (with --recover); "
                             "selects the link-layer sequence epoch")
    args = parser.parse_args(argv)
    if args.wal is not None and args.recover is not None:
        parser.error("--wal and --recover are mutually exclusive")
    try:
        return asyncio.run(run_node(
            args.manifest, args.bundle, control=args.control,
            linger=args.linger, wal=args.wal, recover=args.recover,
            attempt=args.attempt,
        ))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = ["NodeRunner", "main", "run_node"]
