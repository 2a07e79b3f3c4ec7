"""The repository benchmark: closed-loop consensus executions.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-split-n16 --seed 1 --seconds 35 --trace 0

One client thread calls ``repro.scenario.run(scenario, check=True)`` and
starts the next execution only after the previous one returns (a closed
loop with one client; no connections are involved).

Inputs.  Each workload owns a fixed pool of execution seeds; ``--seed``
picks where in the pool a run starts, and the run always executes whole
passes over the pool.  The split workloads decide in 2 to 5 rounds
depending on the seed, so one execution costs 1x to 4x another; a pool
makes every run do the same work, and a timing change then shows as a
change, not as a different mix of seeds.

Timings.  All nodes of every workload run in this one process with no
injected delay, so an execution is processor work only.  The end-to-end
timings are reference seconds: the execution's CPU seconds rescaled by
the host speed sampled while it ran (:class:`SpeedSampler`), which
cancels the host's speed swings.  ``setup_s`` is the median over fresh
interpreters of importing the program and validating the scenario, plus
one untimed warm-up execution, in the same reference seconds.  Before
each execution the previous one's garbage is collected.

``--trace 0`` measures the end-to-end metrics with no spans.  ``--trace
1`` runs part of the pool untraced, then the same executions with every
layer's public functions wrapped (:mod:`tracer`), and reports per-layer
self times.  It writes the spans and a table of layer shares under
``perfbench/out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; metric names and units
come from ``BENCHMARK.json``.  The lines before it print every metric by
name with its unit, plus the error rate and sample counts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Executions per pass over each workload's seed pool.  On a 2-core
#: machine one pass of sim-split-n16 or local-lossy-durable takes about
#: 35 s and one of tcp-batched-binary about 12 s.
POOL_SIZE = {
    "sim-split-n16": 9,
    "tcp-batched-binary": 10,
    "local-lossy-durable": 24,
}

#: Workloads whose executions repeat exactly for a fixed seed, so their
#: fingerprints are compared across runs and between traced and untraced
#: executions.  TCP interleaving is not reproducible.
DETERMINISTIC = ("sim-split-n16", "local-lossy-durable")

#: Fresh interpreters timed for the import-and-validate part of set-up.
SETUP_PROBES = 3

#: The clock of the end-to-end timings: CPU seconds of this process.
#: Every workload runs all its nodes in this one process with no injected
#: delay, so an execution is processor work only and its CPU time equals
#: its wall time on an otherwise idle machine.  On a shared host the wall
#: time of identical executions varied 1.46-2.28 s while their CPU time
#: varied 1.41-1.67 s: wall time adds whatever other tenants take.
CPU_CLOCK = time.process_time

#: CPU seconds of this process between two speed samples.
SAMPLE_PERIOD_S = 0.01

#: Seconds one :func:`unit_of_work` takes when sampled inside an
#: execution on the reference machine (a 2-core host at its usual speed);
#: it sets the scale, so that a reference second is about a CPU second
#: there.
UNIT_REF_S = 0.000175

#: Share of ``--seconds`` the traced run spends on its untraced pass; the
#: traced pass repeats the same executions at 1.5x to 2.5x the cost.
UNTRACED_SHARE = 1 / 3


def derive(*parts: object) -> int:
    """A 63-bit seed from a path of names (stable across processes)."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def unit_of_work() -> None:
    """Fixed pure-Python work that uses no program code: dict and tuple
    operations, like the interpreter-bound program, so it slows down when
    the host does, and no change to the program can move it."""
    table: Dict[Tuple[int, int], int] = {}
    for i in range(400):
        key = (i % 97, i % 7)
        table[key] = table.get(key, 0) + i


class SpeedSampler:
    """Samples the host's speed while executions run.

    On this kind of shared host the CPU time of fixed work swings by up to
    2x within minutes (other tenants share the cores' caches and
    pipelines), so CPU time alone does not compare across runs.  Every
    :data:`SAMPLE_PERIOD_S` of this process's CPU time, ``SIGPROF`` runs
    :func:`unit_of_work` and records how long it took.  The samples taken
    during an execution give its speed; they cost about 1% of its time,
    which :meth:`factor` subtracts.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _sample(self, signum: int, frame: Any) -> None:
        started = time.perf_counter()
        unit_of_work()
        self.samples.append(time.perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def speed(self, first: int, last: int) -> float:
        """Reference seconds per second over samples ``[first, last)``."""
        window = self.samples[first:last] or self.samples
        return UNIT_REF_S / statistics.median(window)

    def factor(self, first: int, last: int, cpu_s: float) -> float:
        """Reference seconds per CPU second of an execution that took
        ``cpu_s`` while samples ``[first, last)`` were taken, net of them."""
        spent = sum(self.samples[first:last])
        return self.speed(first, last) * (cpu_s - spent) / cpu_s


def alternating(n: int) -> List[int]:
    return [pid % 2 for pid in range(n)]


def make_scenario(name: str, wal_dir: str) -> Any:
    """The workload's scenario; raises ImportError without the sources."""
    from repro.scenario import Scenario

    if name == "sim-split-n16":
        # A 5-round execution takes about 125k steps; the step budget
        # turns a livelock into a failure well inside the 180 s limit.
        return Scenario(
            name=name, fabric="sim", protocol="bracha", n=16,
            proposals=alternating(16), coin="local", scheduler="random",
            max_steps=400_000,
        )
    if name == "tcp-batched-binary":
        return Scenario(
            name=name, fabric="tcp", protocol="bracha", n=7, instances=8,
            proposals=1, batching="flush", codec="binary", timeout=30.0,
        )
    if name == "local-lossy-durable":
        return Scenario(
            name=name, fabric="local", protocol="bracha", n=7, instances=2,
            proposals=alternating(7), faults={6: "two_faced"},
            link={"loss": 0.1, "retransmit": True},
            recovery=f"wal:{wal_dir}", observe="ring", codec="json",
            batching="off", timeout=30.0,
        )
    raise SystemExit(f"unknown workload {name!r}; choose from {sorted(POOL_SIZE)}")


def pool_order(name: str, seed: int) -> List[int]:
    """The workload's execution seeds, rotated to start where ``seed`` says."""
    pool = [derive(name, "pool", j) for j in range(POOL_SIZE[name])]
    start = seed % len(pool)
    return pool[start:] + pool[:start]


# ---------------------------------------------------------------------------
# One execution
# ---------------------------------------------------------------------------


class Execution:
    """What the benchmark keeps of one ``run()`` call.

    ``cpu_s`` and ``decide_s`` are process CPU seconds (see
    :data:`CPU_CLOCK`) and ``wall_s`` is wall time.  ``speed`` and
    ``factor`` come from :class:`SpeedSampler`; ``factor`` converts the
    CPU seconds to reference seconds.
    """

    def __init__(self, seed: int, wall_s: float, cpu_s: float, speed: float,
                 factor: float, result: Any, decide_s: List[float]):
        self.seed = seed
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.speed = speed
        self.factor = factor
        self.decide_s = decide_s
        self.delivered = result.messages_delivered
        self.fingerprint = [
            result.messages_sent, result.messages_delivered, result.rounds,
            sorted(result.decided_values),
        ]
        self.decided_values = result.decided_values
        self.instance_values = {
            v for values in result.meta.get("instance_decisions", {}).values()
            for v in values
        }
        self.counters = dict(result.metrics.counters)
        latencies = result.meta.get("decision_latency") or {}
        self.overhead_s = wall_s - max(latencies.values()) if latencies else 0.0


class DecideClock:
    """Timestamps each module decision as the run records it.

    Every fabric counts a module decision in the run's metrics registry
    (``module_decisions``) the moment the Decide effect applies; this
    records the process CPU time of those counts, so decision latency is
    read the same way on the simulator and the runtime.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self._original: Optional[Callable] = None

    def install(self) -> None:
        from repro.obs.metrics import MetricsRegistry

        original = self._original = MetricsRegistry.count
        times = self.times
        clock = CPU_CLOCK

        def count(registry: Any, name: str, delta: int = 1) -> None:
            if name == "module_decisions":
                times.append(clock())
            original(registry, name, delta)

        MetricsRegistry.count = count  # type: ignore[method-assign]

    def uninstall(self) -> None:
        from repro.obs.metrics import MetricsRegistry

        if self._original is not None:
            MetricsRegistry.count = self._original  # type: ignore[method-assign]


class Client:
    """The closed loop: one execution at a time, each checked."""

    def __init__(self, name: str, scenario: Any, clock: DecideClock,
                 sampler: SpeedSampler):
        self.name = name
        self.scenario = scenario
        self.clock = clock
        self.sampler = sampler
        self.expected_decides = (
            (scenario.n - len(scenario.faults)) * scenario.instances
        )
        self.attempted = 0
        self.failures: List[str] = []
        self.fingerprints: Dict[str, Any] = {}

    def execute(self, seed: int) -> Optional[Execution]:
        from repro.scenario import run

        self.attempted += 1
        # Collect the previous execution's garbage first, so neither its
        # collection cost nor its memory lands on this one.
        gc.collect()
        self.clock.times.clear()
        first = len(self.sampler.samples)
        started = time.perf_counter()
        cpu_started = CPU_CLOCK()
        try:
            result = run(self.scenario, check=True, seed=seed)
        except Exception as exc:  # counted, reported, and the loop goes on
            self.failures.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            return None
        cpu = CPU_CLOCK() - cpu_started
        wall = time.perf_counter() - started
        last = len(self.sampler.samples)
        decide_s = [t - cpu_started for t in self.clock.times]
        execution = Execution(
            seed, wall, cpu, self.sampler.speed(first, last),
            self.sampler.factor(first, last, cpu), result, decide_s)
        problem = self.check(execution)
        if problem:
            self.failures.append(f"seed {seed}: {problem}")
            return None
        return execution

    def check(self, execution: Execution) -> str:
        if len(execution.decide_s) != self.expected_decides:
            return (f"{len(execution.decide_s)} module decisions recorded, "
                    f"expected {self.expected_decides}")
        if self.scenario.proposals == 1 and (
                execution.decided_values != {1}
                or execution.instance_values - {1}):
            return f"unanimous 1 decided {sorted(execution.decided_values)}"
        if self.name in DETERMINISTIC:
            key = str(execution.seed)
            seen = self.fingerprints.setdefault(key, execution.fingerprint)
            if seen != execution.fingerprint:
                return (f"fingerprint {execution.fingerprint} differs from "
                        f"{seen} for the same seed")
        return ""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

PROBE = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {here!r})
import run
run.make_scenario({name!r}, {wal!r})
"""


def probe_import_cpu_s(name: str, wal_dir: str) -> float:
    """CPU seconds of a fresh interpreter importing and validating."""
    code = PROBE.format(src=SRC, here=HERE, name=name, wal=wal_dir)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   cwd=ROOT, stdout=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(runs: List[Execution], instances: int) -> Tuple[Dict[str, float], List[str]]:
    """The end-to-end metrics (all timings in reference seconds) and the
    raw figures behind them."""
    ref = sum(e.factor * e.cpu_s for e in runs)
    cpu = sum(e.cpu_s for e in runs)
    wall = sum(e.wall_s for e in runs)
    decides = [e.factor * t for e in runs for t in e.decide_s]
    metrics = {
        "run_s_p50": statistics.median(e.factor * e.cpu_s for e in runs),
        "msgs_per_s": msgs_per_ref_s(runs),
        "decisions_per_s": instances * len(runs) / ref,
        "decide_ms_p50": 1000 * percentile(decides, 0.50),
        "decide_ms_p95": 1000 * percentile(decides, 0.95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"samples: {len(runs)} executions, {len(decides)} node decisions",
        f"raw: {ref:.3f} reference s = {cpu:.3f} CPU s ({wall:.3f} wall s) "
        "in executions",
    ]
    return metrics, notes


def layer_of(span: str) -> str:
    """The layer a span belongs to: its first two name components."""
    return ".".join(span.split(".")[:2])


def msgs_per_ref_s(runs: List[Execution]) -> float:
    return sum(e.delivered for e in runs) / sum(e.factor * e.cpu_s for e in runs)


def per_layer(predictions: Dict[str, Any], tracer: Any,
              plain: List[Execution], traced: List[Execution],
              instances: int) -> Tuple[Dict[str, float], Dict[str, Any]]:
    calls, self_ns, root_ns = tracer.self_times()
    traced_ns = sum(e.wall_s for e in traced) * 1e9
    decisions = instances * len(plain)
    counters: Dict[str, int] = {}
    for e in plain:
        for key, value in e.counters.items():
            counters[key] = counters.get(key, 0) + value
    delivered = sum(e.delivered for e in plain)
    layers: Dict[str, float] = {}
    layer_calls: Dict[str, int] = {}
    for span in calls:
        layer = layer_of(span)
        layers[layer] = layers.get(layer, 0.0) + self_ns[span] / traced_ns
        layer_calls[layer] = layer_calls.get(layer, 0) + calls[span]

    metrics: Dict[str, float] = {}
    for spec in predictions["spans"]:
        span = spec["span"]
        metrics[spec["metric"]] = ratio(self_ns[span], calls[span]) / 1000
    for metric, layer in predictions["shares"].items():
        metrics[metric] = layers[layer]
    data = counters.get("netem_frames", 0) - counters.get("netem_acks_sent", 0)
    metrics.update({
        "core.msgs_per_decision": ratio(delivered, decisions),
        "runtime.binarycodec.bytes_per_msg": ratio(
            tracer.result_bytes.get("runtime.binarycodec.dumps", 0),
            sum(e.counters.get("wire_messages_sent", 0) for e in traced)),
        "runtime.msgs_per_frame": ratio(
            counters.get("wire_messages_sent", 0), counters.get("frames_sent", 0)),
        "runtime.frames_per_decision": ratio(
            counters.get("frames_sent", 0), decisions),
        "runtime.cluster.overhead_ms": 1000 * statistics.median(
            e.overhead_s for e in plain),
        "netem.reliable.useful_ratio": ratio(
            data - counters.get("netem_retransmitted", 0), data),
        "netem.reliable.dup_filtered_per_decision": ratio(
            counters.get("netem_duplicates_filtered", 0), decisions),
        "recovery.wal.records_per_decision": ratio(
            counters.get("wal_records", 0), decisions),
        "obs.observer.events_per_msg": ratio(
            calls["obs.observer.emit"], sum(e.delivered for e in traced)),
        "trace.unattributed_share": 1 - root_ns / traced_ns,
        "trace.overhead_x": ratio(msgs_per_ref_s(plain), msgs_per_ref_s(traced)),
    })
    return metrics, {"calls": calls, "layers": layers,
                     "layer_calls": layer_calls, "unattributed":
                     metrics["trace.unattributed_share"]}


def coverage_problems(name: str, predictions: Dict[str, Any],
                      calls: Dict[str, int]) -> List[str]:
    """Spans whose call count contradicts the bypass predictions."""
    expect: Dict[str, set] = {}
    for spec in predictions["spans"]:
        expect.setdefault(spec["span"], set()).add(spec["calls"][name])
    problems = []
    for span, kinds in sorted(expect.items()):
        if "some" in kinds and calls[span] == 0:
            problems.append(f"{span}: no calls, but {name} should exercise it")
        if kinds == {"none"} and calls[span] != 0:
            problems.append(f"{span}: {calls[span]} calls, but {name} should bypass it")
    return problems


def write_table(name: str, seed: int, predictions: Dict[str, Any],
                detail: Dict[str, Any], path: str) -> List[str]:
    layers = detail["layers"]
    lines = [f"# {name} (seed {seed}): layer self time as a share of traced wall time",
             "", "| layer | share | calls | should move |", "|---|---|---|---|"]
    moves = {}
    for spec in predictions["spans"]:
        moves.setdefault(layer_of(spec["span"]), spec["moves"])
    for layer, share in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"| {layer} | {share:.4f} | {detail['layer_calls'][layer]} "
                     f"| {moves[layer]} |")
    lines.append(f"| (unattributed) | {detail['unattributed']:.4f} | | |")
    largest = predictions["largest"][name]
    named = sum(layers[layer] for layer in largest)
    others = max(share for layer, share in layers.items() if layer not in largest)
    lines += ["", f"predicted largest: {' + '.join(largest)} = {named:.4f}; "
              f"largest other layer = {others:.4f}; "
              f"prediction {'holds' if named > others else 'does not hold'}"]
    with open(path, "w", encoding="utf-8") as out:
        out.write("\n".join(lines) + "\n")
    return lines


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def load_fingerprints(path: str) -> Dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def save_fingerprints(path: str, table: Dict[str, Any]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOL_SIZE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as handle:
        predictions = json.load(handle)

    os.makedirs(OUT, exist_ok=True)
    wal_dir = tempfile.mkdtemp(prefix="wal-", dir=OUT)
    try:
        return measure(args, spec, predictions, wal_dir)
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


def measure(args: argparse.Namespace, spec: Dict[str, Any],
            predictions: Dict[str, Any], wal_dir: str) -> int:
    name = args.workload
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    scenario = make_scenario(name, wal_dir)
    clock = DecideClock()
    sampler = SpeedSampler()
    client = Client(name, scenario, clock, sampler)
    store_path = os.path.join(OUT, "fingerprints.json")
    stored = load_fingerprints(store_path)
    client.fingerprints = dict(stored.get(name, {}))

    # -- set-up: fresh interpreters importing and validating, then one
    # untimed warm-up execution, whose speed also converts the probes'.
    probes = [probe_import_cpu_s(name, wal_dir) for _ in range(SETUP_PROBES)]
    clock.install()
    sampler.start()
    try:
        warm = client.execute(derive(name, "warm-up"))

        order = pool_order(name, args.seed)
        plain: List[Execution] = []
        traced: List[Execution] = []
        tracer = None
        started = time.perf_counter()
        if not args.trace:
            # Whole passes only; start another only if it fits the budget.
            while True:
                pass_started = time.perf_counter()
                for seed in order:
                    execution = client.execute(seed)
                    if execution is not None:
                        plain.append(execution)
                elapsed = time.perf_counter() - started
                if elapsed + (time.perf_counter() - pass_started) > args.seconds:
                    break
        else:
            from tracer import Tracer

            budget = args.seconds * UNTRACED_SHARE
            seeds: List[int] = []
            for seed in order:
                seeds.append(seed)
                execution = client.execute(seed)
                if execution is not None:
                    plain.append(execution)
                if time.perf_counter() - started >= budget:
                    break
            tracer = Tracer(predictions["spans"])
            tracer.install()
            try:
                for i, seed in enumerate(seeds):
                    tracer.exec_id = i
                    execution = client.execute(seed)
                    if execution is not None:
                        traced.append(execution)
            finally:
                tracer.uninstall()
    finally:
        sampler.stop()
        clock.uninstall()

    stored[name] = client.fingerprints
    save_fingerprints(store_path, stored)

    problems = list(client.failures)
    failed = len(client.failures)
    values: Dict[str, float]
    notes: List[str] = []
    if not args.trace:
        wanted = spec["end_to_end"]
        if not plain:
            values = {}
        else:
            values, notes = end_to_end(plain, scenario.instances)
            if warm is not None:
                values["setup_s"] = (warm.speed * statistics.median(probes)
                                     + warm.factor * warm.cpu_s)
    else:
        wanted = spec["per_layer"]
        if not plain or len(traced) != len(plain):
            values = {}
        else:
            values, detail = per_layer(predictions, tracer, plain, traced,
                                       scenario.instances)
            coverage = coverage_problems(name, predictions, detail["calls"])
            problems += coverage
            trace_dir = os.path.join(OUT, "trace")
            os.makedirs(trace_dir, exist_ok=True)
            tracer.write(os.path.join(trace_dir, f"{name}.spans.csv.gz"))
            notes += write_table(name, args.seed, predictions, detail,
                                 os.path.join(trace_dir, f"{name}.layers.md"))
            notes.append(f"samples: {len(traced)} traced executions, "
                         f"{len(tracer)} spans")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    correct = not problems and not missing
    for line in notes:
        print(line)
    for problem in problems:
        print(f"FAIL {problem}")
    attempted = client.attempted
    print(f"error_rate {ratio(failed, attempted):.6f} ratio "
          f"({failed} of {attempted} executions)")
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            value = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']} {value:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
