"""Command-line interface: run protocol experiments without writing code.

Every subcommand is a thin shell over the declarative scenario API
(:mod:`repro.scenario`): arguments are assembled into a
:class:`~repro.scenario.Scenario` and executed by the fabric dispatcher,
so the CLI, the library, and the test suite all run the exact same code
paths.

Subcommands:

* ``run`` — execute scenario JSON files and/or named catalog entries on
  whatever fabric each declares (``--fabric`` overrides).
* ``catalog`` — list the named scenario catalog.
* ``consensus`` — one checked consensus run of any protocol, with
  faults, coins, and adversarial schedulers (discrete-event simulator).
* ``run-net`` — the same protocols executed concurrently on the asyncio
  runtime, over in-process queues or authenticated TCP on localhost.
* ``dealer`` — materialise a scenario's trusted setup (MAC keys, coin
  shares) into per-node bundle files plus a run manifest.
* ``node`` — run one consensus node as one OS process from a dealt
  bundle (the ``mp`` fabric's per-process entry point).
* ``broadcast`` — one reliable-broadcast instance (optionally with an
  equivocating sender).
* ``attack`` — the scripted Ben-Or disagreement attack across seeds.
* ``sweep`` — repeated runs of one configuration with aggregate stats.
* ``report`` — analysis tables (decision latency, per-round timing)
  from a JSONL trace produced by ``observe: jsonl``.
* ``trace`` — causal analysis of the same JSONL trace: send→deliver
  correlation, per-decision critical paths, phase breakdown, and the
  queue-vs-processing split.
* ``profile`` — run a scenario with ``profile: on`` and print the
  hot-path span table (sim step/deliver, runtime flush, codec+MAC,
  WAL append).

Examples::

    python -m repro run examples/scenarios/split_brain.json
    python -m repro run --name two-faced-equivocator --fabric tcp
    python -m repro run --name partition-heal && \\
        python -m repro trace benchmarks/out/partition-heal-trace.jsonl
    python -m repro profile --name batched-pipeline
    python -m repro catalog
    python -m repro consensus -n 7 --faults 5:two_faced 6:silent --seed 3
    python -m repro consensus -n 4 --protocol mmr14 --coin dealer
    python -m repro run-net --n 4 --t 1 --transport tcp
    python -m repro run-net --n 4 --transport tcp --link loss=0.15 --link delay=0.002
    python -m repro run --name lossy-tcp-retransmit
    python -m repro broadcast -n 7 --equivocate
    python -m repro attack --trials 20
    python -m repro sweep -n 4 --trials 25 --coin local
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, List, Optional

from . import __version__
from .adversary import attack_success_rate
from .analysis.stats import summarize
from .analysis.tables import format_table
from .errors import ReproError
from .obs import load_events
from .obs.causality import render_trace
from .obs.profile import SPAN_PREFIX, render_profile
from .obs.report import render_report
from .scenario import (
    CATALOG,
    FABRICS,
    SCHEDULERS,
    Scenario,
    get_scenario,
    load_scenario,
    parse_faults,
    parse_link,
    parse_proposals,
)
from .scenario import repeat as repeat_scenario
from .scenario import run as run_scenario
from .stacks import PROTOCOLS
from . import run_broadcast

# ---------------------------------------------------------------------------
# Result printing
# ---------------------------------------------------------------------------


def _print_result(scenario: Scenario, result: Any) -> None:
    params = scenario.params
    print(f"scenario  : {scenario.name or '<inline>'} "
          f"(fabric: {scenario.fabric}, seed: {scenario.seed})")
    print(f"system    : {params.describe()}")
    print(f"protocol  : {scenario.protocol} (coin: {scenario.coin_name}, "
          f"instances: {scenario.instances})")
    print(f"faults    : {scenario.faults_dict() or 'none'}")
    if scenario.codec != "json":
        print(f"codec     : {scenario.codec}")
    if scenario.scheduler != "random":
        print(f"scheduler : {scenario.scheduler} {scenario.scheduler_args_dict()}")
    if scenario.link or scenario.partitions:
        conditions = scenario.link_dict()
        if scenario.partitions:
            conditions["partitions"] = len(scenario.partitions)
        print(f"netem     : {conditions}")
    if scenario.protocol == "acs":
        sample = next(iter(result.decisions.values()), None)
        subset = sorted(sample.value) if sample is not None else "-"
        print(f"output    : {len(result.decisions)} nodes agreed on subset {subset}")
    else:
        print(f"decision  : {sorted(result.decided_values)}")
        print(f"rounds    : {result.rounds} (decided in {result.decision_round()})")
    print(f"messages  : {result.messages_sent} sent, "
          f"{result.messages_delivered} delivered")
    snapshot = result.metrics
    if snapshot is not None and snapshot.counter("frames_sent"):
        print(f"frames    : {snapshot.counter('frames_sent')} wire frames, "
              f"{snapshot.gauges.get('messages_per_frame', 0.0):.2f} "
              f"messages/frame "
              f"(batching: {result.meta.get('batching', 'off')})")
    if snapshot is not None and snapshot.counter("frames_rejected"):
        print(f"rejected  : {snapshot.counter('frames_rejected')} "
              f"unauthenticated frames")
    recovery = result.meta.get("recovery")
    if recovery or result.meta.get("restarted"):
        snapshot = result.metrics
        restarts = snapshot.counter("restarts") if snapshot else 0
        mode = (f"{recovery['mode']} ({recovery['dir']})" if recovery
                else "in-memory replay")
        line = f"recovery  : {mode}"
        if restarts:
            rt = (snapshot.gauges.get("recovery_time") or 0.0)
            unit = "vt" if scenario.fabric == "sim" else "s"
            line += (f"; {restarts} restart(s), "
                     f"{snapshot.counter('recovery_replayed')} records "
                     f"replayed, recovered in {rt:.2f}{unit}")
        print(line)
    if result.meta.get("scratch_dir"):
        print(f"scratch   : kept at {result.meta['scratch_dir']}")
    netem = result.meta.get("netem")
    if netem:
        print(f"link      : {netem['dropped']} dropped, {netem['delayed']} delayed, "
              f"{netem['duplicated']} duplicated, "
              f"{netem['retransmitted']} retransmitted "
              f"({netem['abandoned']} abandoned)")
    if scenario.fabric == "sim":
        print(f"steps     : {result.steps}")
        for pid, round_ in sorted(result.meta.get("decision_rounds", {}).items()):
            print(f"  p{pid} decided in round {round_}")
    else:
        print(f"wall time : {result.virtual_time * 1000:.1f} ms")
        for pid, latency in sorted(result.meta.get("decision_latency", {}).items()):
            print(f"  p{pid} decided after {latency * 1000:.1f} ms")
    if result.metrics is not None and result.metrics.histograms:
        # Counters/gauges duplicate the lines above; the histograms
        # (decision-latency quantiles) are the snapshot-only view.
        # Simulator latencies are virtual-time units, not seconds —
        # except span_* profile timings, which are always wall-clock
        # seconds and get their own section below.
        latency_names = sorted(
            name for name in result.metrics.histograms
            if not name.startswith(SPAN_PREFIX)
        )
        span_names = sorted(
            name for name in result.metrics.histograms
            if name.startswith(SPAN_PREFIX)
        )
        scale, unit = (1.0, "vt") if scenario.fabric == "sim" else (1000.0, "ms")
        if latency_names:
            print("latency   :")
            for name in latency_names:
                h = result.metrics.histograms[name]
                print(f"  {name}: n={int(h.get('count', 0))} "
                      f"p50={h.get('p50', 0.0) * scale:.2f}{unit} "
                      f"p95={h.get('p95', 0.0) * scale:.2f}{unit} "
                      f"p99={h.get('p99', 0.0) * scale:.2f}{unit} "
                      f"max={h.get('max', 0.0) * scale:.2f}{unit}")
        if span_names:
            print("profile   :")
            for name in span_names:
                h = result.metrics.histograms[name]
                print(f"  {name[len(SPAN_PREFIX):]}: "
                      f"n={int(h.get('count', 0))} "
                      f"p50={h.get('p50', 0.0) * 1e6:.1f}µs "
                      f"p95={h.get('p95', 0.0) * 1e6:.1f}µs "
                      f"max={h.get('max', 0.0) * 1e6:.1f}µs "
                      f"total={h.get('count', 0) * h.get('mean', 0.0) * 1000:.2f}ms")
    obs = result.meta.get("obs")
    if obs:
        where = obs.get("path") or f"{obs.get('retained', 0)} retained in memory"
        print(f"observe   : {obs['events']} events ({obs['sink']}: {where})")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _check_summary(result: Any) -> str:
    """One-line metrics readout for ``run --check`` — the typed snapshot
    (decisions, frames, retransmits), not a raw meta dict repr."""
    snapshot = result.metrics
    if snapshot is None:
        return f"decisions={len(result.decisions)}"
    parts = [f"decisions={snapshot.counter('decisions')}"]
    frames = snapshot.counter("frames_sent")
    if frames:
        parts.append(f"frames={frames}")
    retransmits = snapshot.counter("netem_retransmitted")
    if retransmits:
        parts.append(f"retransmits={retransmits}")
    latency = snapshot.histogram("decision_latency")
    if latency.get("count"):
        parts.append(f"p99={latency.get('p99', 0.0) * 1000:.1f}ms")
    return " ".join(parts)


def cmd_run(args: argparse.Namespace) -> int:
    scenarios: List[Scenario] = []
    for name in args.name or ():
        scenarios.append(get_scenario(name))
    for path in args.scenario or ():
        scenarios.append(load_scenario(path))
    if not scenarios:
        raise ReproError("nothing to run: give scenario file(s) and/or --name")

    overrides = {}
    if args.fabric is not None:
        overrides["fabric"] = args.fabric
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.observe is not None:
        overrides["observe"] = args.observe

    failed = 0
    for scenario in scenarios:
        label = scenario.name or "<file>"
        if args.check:
            try:
                result = run_scenario(
                    scenario, keep_scratch=args.keep_scratch, **overrides
                )
            except ReproError as exc:
                failed += 1
                print(f"FAIL  {label}: {exc}")
            else:
                fabric = overrides.get("fabric", scenario.fabric)
                seed = overrides.get("seed", scenario.seed)
                print(f"ok    {label} [{fabric}] seed={seed} "
                      f"{_check_summary(result)}")
        else:
            if overrides:
                # replace() validates the overrides (a bad --seed or
                # --fabric fails here, before anything runs) and makes
                # _print_result echo the effective values.
                scenario = scenario.replace(**overrides)
            result = run_scenario(scenario, keep_scratch=args.keep_scratch)
            _print_result(scenario, result)
            print()
    return 1 if failed else 0


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.names:
        for name in CATALOG:
            print(name)
        return 0
    rows = []
    for name in CATALOG:
        # Read the declared fields: building an entry validates it
        # against the working directory (a jsonl: trace path).
        spec = CATALOG.fields(name)
        rows.append([
            name, spec["protocol"], spec["fabric"],
            f"n={spec['n']}" + (f" t={spec['t']}" if spec["t"] is not None else ""),
            spec["description"],
        ])
    print(format_table(
        ["name", "protocol", "fabric", "system", "description"], rows,
        title=f"scenario catalog ({len(CATALOG)} entries) — "
              "repro run --name <name>",
    ))
    return 0


def cmd_consensus(args: argparse.Namespace) -> int:
    scenario = Scenario(
        protocol=args.protocol,
        n=args.n,
        t=args.t,
        coin=args.coin,
        proposals=parse_proposals(args.proposals, args.n),
        faults=parse_faults(args.faults),
        scheduler=args.scheduler or "random",
        fabric="sim",
        seed=args.seed,
        max_steps=args.max_steps,
    )
    _print_result(scenario, run_scenario(scenario))
    return 0


def cmd_run_net(args: argparse.Namespace) -> int:
    scenario = Scenario(
        protocol=args.protocol,
        n=args.n,
        t=args.t,
        coin=args.coin,
        proposals=(None if args.protocol == "acs"
                   else parse_proposals(args.proposals, args.n)),
        faults=parse_faults(args.faults),
        fabric=args.transport,
        seed=args.seed,
        instances=args.instances,
        batching=args.batching,
        codec=args.codec,
        host=args.host,
        base_port=args.base_port,
        timeout=args.timeout,
        link=parse_link(args.link),
        observe=args.observe,
    )
    _print_result(scenario, run_scenario(scenario))
    return 0


def cmd_dealer(args: argparse.Namespace) -> int:
    from .mp.bundle import deal, load_manifest

    if args.name:
        scenario = get_scenario(args.name)
    elif args.scenario:
        scenario = load_scenario(args.scenario)
    else:
        raise ReproError("nothing to deal: give a scenario file or --name")
    overrides = {"fabric": "mp"}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.host is not None:
        overrides["host"] = args.host
    scenario = scenario.replace(**overrides)
    manifest_path, bundles = deal(
        scenario, args.out, base_port=args.base_port
    )
    manifest = load_manifest(manifest_path)
    print(f"run       : {manifest.run_id}")
    print(f"scenario  : {scenario.name or '<inline>'} "
          f"(n={scenario.n}, coin: {scenario.coin_name}, "
          f"seed: {scenario.seed})")
    print(f"manifest  : {manifest_path}")
    for pid in sorted(bundles):
        host, port = manifest.addresses[pid]
        print(f"  node {pid} : {bundles[pid]}  ({host}:{port})")
    print("start each node with: repro node --manifest "
          f"{manifest_path} --bundle <its bundle>")
    return 0


def cmd_node(args: argparse.Namespace) -> int:
    from .mp import noderunner

    import asyncio

    if args.wal is not None and args.recover is not None:
        raise ReproError("--wal and --recover are mutually exclusive")
    return asyncio.run(noderunner.run_node(
        args.manifest, args.bundle, control=args.control, linger=args.linger,
        wal=args.wal, recover=args.recover, attempt=args.attempt,
    ))


def cmd_broadcast(args: argparse.Namespace) -> int:
    report = run_broadcast(
        n=args.n,
        sender=args.sender,
        value=args.value,
        equivocate=("A", "B") if args.equivocate else None,
        seed=args.seed,
    )
    print(f"messages : {report['messages']}  (model: n+2n² = {args.n + 2 * args.n ** 2})")
    print(f"accepted : {report['accepted_values'] or '{} (no delivery — legal with a faulty sender)'}")
    for pid, value in sorted(report["outcomes"].items()):
        print(f"  p{pid}: {value!r}")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    wins, reports = attack_success_rate(args.trials, seed=args.seed)
    rows = []
    for index, report in enumerate(reports):
        rows.append([
            args.seed + index,
            str(report.coin_bits),
            " ".join(f"p{p}={'·' if b is None else b}"
                     for p, b in sorted(report.decisions.items())),
            report.outcome,
        ])
    print(format_table(
        ["seed", "victim coins", "decisions", "outcome"], rows,
        title=f"Scripted Ben-Or attack (n=4, t=1): "
              f"{wins}/{args.trials} agreement violations",
    ))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    events = load_events(args.file)
    print(render_report(events, rounds_limit=args.rounds))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    events = load_events(args.file)
    print(render_trace(events, limit=args.limit))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    if args.name:
        scenario = get_scenario(args.name)
    elif args.scenario:
        scenario = load_scenario(args.scenario)
    else:
        raise ReproError("nothing to profile: give a scenario file or --name")
    overrides: dict = {"profile": "on"}
    if args.fabric is not None:
        overrides["fabric"] = args.fabric
    if args.seed is not None:
        overrides["seed"] = args.seed
    scenario = scenario.replace(**overrides)
    result = run_scenario(scenario)
    print(f"scenario  : {scenario.name or '<inline>'} "
          f"(fabric: {scenario.fabric}, seed: {scenario.seed})")
    if scenario.fabric == "sim":
        print(f"run       : {result.steps} steps, "
              f"{result.messages_delivered} deliveries")
    else:
        print(f"run       : {result.virtual_time * 1000:.1f} ms wall, "
              f"{result.messages_delivered} deliveries")
    print(render_profile(result.metrics))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = Scenario(
        n=args.n,
        proposals=parse_proposals(args.proposals, args.n),
        coin=args.coin,
        faults=parse_faults(args.faults),
        seed=args.seed,
        max_steps=args.max_steps,
    )
    results = repeat_scenario(scenario, args.trials)
    rounds = summarize([float(r.decision_round()) for r in results])
    messages = summarize([float(r.messages_sent) for r in results])
    steps = summarize([float(r.steps) for r in results])
    print(format_table(
        ["metric", "mean", "±95%", "p50", "p90", "max"],
        [
            ["decision round", rounds.mean, rounds.ci95_half_width,
             rounds.p50, rounds.p90, rounds.maximum],
            ["messages", messages.mean, messages.ci95_half_width,
             messages.p50, messages.p90, messages.maximum],
            ["steps", steps.mean, steps.ci95_half_width,
             steps.p50, steps.p90, steps.maximum],
        ],
        title=f"{args.trials} runs, n={args.n}, coin={args.coin or 'local'} "
              "(all runs safety-checked)",
    ))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bracha's asynchronous Byzantine consensus (PODC 1984) — experiments",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-n", type=int, default=4, help="number of processes")
        p.add_argument("--seed", type=int, default=0)

    run_p = sub.add_parser(
        "run",
        help="execute declarative scenarios (JSON files and/or catalog names)",
    )
    run_p.add_argument("scenario", nargs="*", metavar="FILE",
                       help="scenario JSON file(s)")
    run_p.add_argument("--name", action="append", metavar="NAME",
                       help="catalog scenario name (repeatable; see `repro catalog`)")
    run_p.add_argument("--fabric", choices=list(FABRICS), default=None,
                       help="override the scenario's declared fabric")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    run_p.add_argument("--observe", default=None, metavar="MODE",
                       help="override the scenario's observe mode: off, "
                            "ring[:N], or jsonl[:PATH] (see `repro report`)")
    run_p.add_argument("--check", action="store_true",
                       help="terse ok/FAIL per scenario; exit 1 on any failure")
    run_p.add_argument("--keep-scratch", action="store_true",
                       help="mp fabric: keep the run's scratch directory "
                            "(bundles, WALs, stderr context) for debugging")
    run_p.set_defaults(func=cmd_run)

    catalog_p = sub.add_parser("catalog", help="list the named scenario catalog")
    catalog_p.add_argument("--names", action="store_true",
                           help="print bare names only (for scripting)")
    catalog_p.set_defaults(func=cmd_catalog)

    consensus = sub.add_parser("consensus", help="one checked consensus run")
    common(consensus)
    consensus.add_argument("--t", type=int, default=None, help="fault bound (default ⌊(n−1)/3⌋)")
    consensus.add_argument("--protocol",
                           choices=[p for p in PROTOCOLS if p != "acs"],
                           default="bracha")
    consensus.add_argument("--coin", choices=["local", "dealer", "shares"], default=None)
    consensus.add_argument("--proposals", default=None,
                           help="'0'/'1' for unanimity or an n-bit string like 0110")
    consensus.add_argument("--faults", nargs="*", metavar="PID:KIND",
                           help="e.g. 3:silent 2:two_faced")
    consensus.add_argument("--scheduler", choices=sorted(SCHEDULERS), default=None)
    consensus.add_argument("--max-steps", type=int, default=2_000_000)
    consensus.set_defaults(func=cmd_consensus)

    broadcast = sub.add_parser("broadcast", help="one reliable-broadcast instance")
    common(broadcast)
    broadcast.add_argument("--sender", type=int, default=0)
    broadcast.add_argument("--value", default="payload")
    broadcast.add_argument("--equivocate", action="store_true",
                           help="the sender is Byzantine and equivocates")
    broadcast.set_defaults(func=cmd_broadcast)

    run_net = sub.add_parser(
        "run-net",
        help="run a protocol concurrently on the asyncio runtime",
    )
    run_net.add_argument("-n", "--n", dest="n", type=int, default=4,
                         help="number of processes")
    run_net.add_argument("--seed", type=int, default=0)
    run_net.add_argument("--t", type=int, default=None,
                         help="fault bound (default ⌊(n−1)/3⌋)")
    run_net.add_argument("--protocol", choices=list(PROTOCOLS), default="bracha")
    run_net.add_argument("--transport", choices=["local", "tcp", "mp"],
                         default="local",
                         help="in-process asyncio queues, JSON-over-TCP with "
                              "MACs, or one OS process per node (mp)")
    run_net.add_argument("--coin", choices=["local", "dealer", "shares"], default=None)
    run_net.add_argument("--proposals", default=None,
                         help="'0'/'1' for unanimity or an n-bit string like 0110")
    run_net.add_argument("--faults", nargs="*", metavar="PID:KIND",
                         help="e.g. 3:silent 2:two_faced")
    run_net.add_argument("--instances", type=int, default=1,
                         help="parallel consensus instances per node")
    run_net.add_argument("--codec", choices=["json", "binary"], default="json",
                         help="wire codec for the runtime fabrics "
                              "(binary: compact struct-packed frames)")
    run_net.add_argument("--batching", default="off", metavar="MODE",
                         help="wire-frame coalescing: off, flush, or size:N "
                              "(one MAC'd frame carries every message queued "
                              "per destination)")
    run_net.add_argument("--observe", default="off", metavar="MODE",
                         help="structured event capture: off, ring[:N], or "
                              "jsonl[:PATH] (render with `repro report`)")
    run_net.add_argument("--link", action="append", metavar="KEY=VALUE",
                         help="netem link conditions (repeatable), e.g. "
                              "--link loss=0.1 --link delay=0.005; keys: "
                              "delay jitter loss duplicate reorder "
                              "reorder_extra retransmit rto max_retries")
    run_net.add_argument("--host", default="127.0.0.1")
    run_net.add_argument("--base-port", type=int, default=0,
                         help="first TCP port (0 = pick free ports)")
    run_net.add_argument("--timeout", type=float, default=60.0,
                         help="liveness deadline in seconds")
    run_net.set_defaults(func=cmd_run_net)

    dealer = sub.add_parser(
        "dealer",
        help="materialise a scenario's trusted setup into per-node bundles",
    )
    dealer.add_argument("scenario", nargs="?", metavar="FILE",
                        help="scenario JSON file")
    dealer.add_argument("--name", default=None, metavar="NAME",
                        help="catalog scenario name (see `repro catalog`)")
    dealer.add_argument("--out", required=True, metavar="DIR",
                        help="output directory for manifest + bundles")
    dealer.add_argument("--seed", type=int, default=None,
                        help="override the scenario's seed")
    dealer.add_argument("--host", default=None,
                        help="override the scenario's listen host")
    dealer.add_argument("--base-port", type=int, default=None,
                        help="first node port (defaults to the scenario's "
                             "base_port; must be positive to deal)")
    dealer.set_defaults(func=cmd_dealer)

    node = sub.add_parser(
        "node",
        help="run one consensus node (one OS process) from a dealt bundle",
    )
    node.add_argument("--manifest", required=True, help="manifest.json path")
    node.add_argument("--bundle", required=True, help="node-<pid>.json path")
    node.add_argument("--control", default=None, metavar="HOST:PORT",
                      help="orchestrator control endpoint (omit to run "
                           "standalone)")
    node.add_argument("--linger", type=float, default=5.0,
                      help="standalone: seconds to keep serving peers after "
                           "deciding")
    node.add_argument("--wal", default=None, metavar="FILE",
                      help="write a crash-recovery WAL to FILE")
    node.add_argument("--recover", default=None, metavar="FILE",
                      help="boot by replaying the WAL at FILE (refuses a "
                           "damaged or mismatched log), then keep appending")
    node.add_argument("--attempt", type=int, default=0,
                      help="restart attempt number (with --recover); selects "
                           "the link-layer sequence epoch")
    node.set_defaults(func=cmd_node)

    attack = sub.add_parser("attack", help="scripted Ben-Or disagreement attack")
    attack.add_argument("--trials", type=int, default=12)
    attack.add_argument("--seed", type=int, default=0)
    attack.set_defaults(func=cmd_attack)

    sweep = sub.add_parser("sweep", help="repeated runs with aggregate stats")
    common(sweep)
    sweep.add_argument("--trials", type=int, default=20)
    sweep.add_argument("--coin", choices=["local", "dealer", "shares"], default=None)
    sweep.add_argument("--proposals", default=None)
    sweep.add_argument("--faults", nargs="*", metavar="PID:KIND")
    sweep.add_argument("--max-steps", type=int, default=4_000_000)
    sweep.set_defaults(func=cmd_sweep)

    report = sub.add_parser(
        "report",
        help="render decision-latency and per-round tables from a JSONL trace",
    )
    report.add_argument("file", metavar="FILE",
                        help="JSONL trace written by observe=jsonl[:PATH]")
    report.add_argument("--rounds", type=int, default=40,
                        help="max (instance, round) rows to print")
    report.set_defaults(func=cmd_report)

    trace = sub.add_parser(
        "trace",
        help="causal analysis of a JSONL trace: send/deliver correlation, "
             "per-decision critical paths, phase breakdown",
    )
    trace.add_argument("file", metavar="FILE",
                       help="JSONL trace written by observe=jsonl[:PATH]")
    trace.add_argument("--limit", type=int, default=16,
                       help="max per-decision critical-path rows to print")
    trace.set_defaults(func=cmd_trace)

    profile = sub.add_parser(
        "profile",
        help="run a scenario with profile=on and print the hot-path "
             "span table",
    )
    profile.add_argument("scenario", nargs="?", metavar="FILE",
                         help="scenario JSON file")
    profile.add_argument("--name", default=None, metavar="NAME",
                         help="catalog scenario name (see `repro catalog`)")
    profile.add_argument("--fabric", choices=["sim", "local", "tcp"],
                         default=None,
                         help="override the scenario's fabric (profiling is "
                              "not available on mp)")
    profile.add_argument("--seed", type=int, default=None,
                         help="override the scenario's seed")
    profile.set_defaults(func=cmd_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
