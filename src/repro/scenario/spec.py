"""Declarative scenario specifications.

A :class:`Scenario` is a frozen, validated value object capturing
everything that defines one protocol execution: protocol, system size,
proposals, coin scheme, fault injection, network conditions, execution
fabric, instance batching, seed, and stop condition.  Experiments are
*data*: the same object round-trips through JSON (``to_dict`` /
``from_dict``), serves as a dictionary key (scenarios are hashable),
and executes unchanged on every fabric via
:func:`repro.scenario.run`.

All spec-parsing shared by the CLI subcommands lives here too:
:func:`parse_faults` (the ``PID:KIND`` syntax), :func:`parse_proposals`
(``'1'`` / ``'0110'``), and the :data:`SCHEDULERS` registry behind
:func:`make_scheduler` — one source of truth instead of per-subcommand
copies.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from ..adversary import (
    CoinRushScheduler,
    DelayVictimScheduler,
    PartitionScheduler,
    SplitBrainScheduler,
)
from ..analysis.experiments import normalize_proposals
from ..core.coin import CoinScheme
from ..errors import ConfigError
from ..netem import NetemConfig
from ..obs import OBSERVE_MODES, PROFILE_MODES, parse_observe, parse_profile
from ..params import ProtocolParams, for_system
from ..recovery.wal import RECOVERY_MODES, parse_recovery
from ..runtime.codec import WIRE_CODECS
from ..sim.effects import BATCHING_MODES, parse_batching
from ..sim.scheduler import (
    FifoScheduler,
    RandomDelayScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from ..stacks import DEFAULT_COIN, PROTOCOLS

FABRICS = ("sim", "local", "tcp", "mp")
STOPS = ("decided", "halted", "quiescent")
COINS = ("local", "dealer", "shares")

#: Fault kinds that exist only on some fabrics:
#: kind -> (supported fabrics, what it does, nearest kind elsewhere).
#: Behavior kinds (silent/crash/two_faced/fuzzer/stubborn) run everywhere
#: and are validated by the behavior dispatcher instead.
FAULT_KIND_FABRICS: Dict[str, Tuple[Tuple[str, ...], str, str]] = {
    "kill": (("mp",), "SIGKILL the node's OS process", "crash"),
    "restart": (
        ("sim", "mp"),
        "crash a correct node, then bring it back via recovery replay",
        "crash",
    ),
}

#: Canonical in-object form of one fault spec: ``(("kind", k), ...)``.
CanonicalFault = Tuple[Tuple[str, Any], ...]


# ---------------------------------------------------------------------------
# Scheduler registry (the "network conditions" knob)
# ---------------------------------------------------------------------------

#: name -> factory(n, coin, **args) -> Scheduler | None (None = fair
#: random).  ``coin`` is the run's instance-0 coin scheme; only
#: ``coin-rush`` reads it — it peeks at the dealer coin the moment a
#: process releases it and holds back the step messages that agree with
#: it (the coin-observing adversary of the MMR-14 livelock).
SCHEDULERS: Dict[str, Any] = {
    "random": lambda n, coin, **args: None,
    "fifo": lambda n, coin, **args: FifoScheduler(**args),
    "round-robin": lambda n, coin, **args: RoundRobinScheduler(**args),
    "delay": lambda n, coin, **args: RandomDelayScheduler(**args),
    "victim": lambda n, coin, victims=(0,), **args: DelayVictimScheduler(
        victims, **args
    ),
    "split": lambda n, coin, group_a=None, **args: SplitBrainScheduler(
        group_a if group_a is not None else range(n // 2), **args
    ),
    "partition": lambda n, coin, group_a=None, **args: PartitionScheduler(
        group_a if group_a is not None else range(n // 2), **args
    ),
    "coin-rush": lambda n, coin, **args: CoinRushScheduler(coin, **args),
}


def make_scheduler(
    name: Optional[str], n: int, coin: Optional[CoinScheme] = None,
    **args: Any,
) -> Optional[Scheduler]:
    """Resolve a scheduler name (plus keyword arguments) to an instance.

    ``None``/``"random"`` return ``None`` — the simulator's fair default.
    ``coin`` is the run's instance-0 coin scheme, which the
    coin-observing schedulers watch.  Unknown names and argument
    mismatches raise :class:`~repro.errors.ConfigError`.
    """
    name = name or "random"
    factory = SCHEDULERS.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        )
    try:
        return factory(n, coin, **args)
    except TypeError as exc:
        raise ConfigError(f"bad arguments for scheduler {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# CLI-facing spec parsers (single source of truth for PID:KIND etc.)
# ---------------------------------------------------------------------------


def parse_faults(entries: Optional[Sequence[str]]) -> Dict[int, str]:
    """Parse ``PID:KIND`` fault entries (e.g. ``["3:silent", "2:two_faced"]``)."""
    faults: Dict[int, str] = {}
    for entry in entries or ():
        pid_text, _, kind = entry.partition(":")
        try:
            pid = int(pid_text)
        except ValueError:
            raise ConfigError(f"bad fault spec {entry!r}; use PID:KIND") from None
        if not kind:
            raise ConfigError(f"bad fault spec {entry!r}; use PID:KIND")
        faults[pid] = kind
    return faults


def parse_proposals(text: Optional[str], n: int) -> Any:
    """Parse a proposal string: ``'0'``/``'1'`` for unanimity, or an
    ``n``-bit string like ``'0110'``; ``None`` keeps the default split."""
    if text is None:
        return None
    if text in ("0", "1"):
        return int(text)
    bits = [c for c in text if c in "01"]
    if len(bits) != n:
        raise ConfigError(f"proposals need {n} bits, got {text!r}")
    return [int(c) for c in bits]


def parse_link(entries: Optional[Sequence[str]]) -> Dict[str, Any]:
    """Parse ``KEY=VALUE`` link-condition entries (e.g. ``["loss=0.1",
    "delay=0.005", "retransmit=true"]``) into a ``link`` spec mapping."""
    link: Dict[str, Any] = {}
    for entry in entries or ():
        key, sep, text = entry.partition("=")
        if not sep or not key:
            raise ConfigError(f"bad link spec {entry!r}; use KEY=VALUE")
        value: Any
        if text.lower() in ("true", "false"):
            value = text.lower() == "true"
        else:
            try:
                value = int(text)
            except ValueError:
                try:
                    value = float(text)
                except ValueError:
                    raise ConfigError(
                        f"bad link value in {entry!r}; expected a number or bool"
                    ) from None
        link[key] = value
    return link


# ---------------------------------------------------------------------------
# Canonicalization helpers
# ---------------------------------------------------------------------------


def _freeze(value: Any) -> Any:
    """Lists/tuples become tuples, recursively — hashable canonical form."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value: Any) -> Any:
    """Tuples become lists, recursively — the JSON-facing form."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


def _canonical_fault(spec: Any) -> CanonicalFault:
    if isinstance(spec, str):
        return (("kind", spec),)
    if isinstance(spec, Mapping):
        table = dict(spec)
    elif isinstance(spec, (tuple, list)):  # already (key, value) pairs
        table = dict(spec)
    else:
        raise ConfigError(f"fault spec must be a kind string or mapping: {spec!r}")
    kind = table.pop("kind", None)
    if not isinstance(kind, str) or not kind:
        raise ConfigError(f"fault spec needs a 'kind': {spec!r}")
    return (("kind", kind),) + tuple(
        (key, _freeze(table[key])) for key in sorted(table)
    )


def _canonical_faults(faults: Any) -> Tuple[Tuple[int, CanonicalFault], ...]:
    if faults is None:
        return ()
    if isinstance(faults, Mapping):
        items = faults.items()
    else:
        items = tuple(faults)
    table = {}
    for pid, spec in items:
        try:
            pid = int(pid)
        except (TypeError, ValueError):
            raise ConfigError(f"fault pid must be an integer, got {pid!r}") from None
        table[pid] = _canonical_fault(spec)
    return tuple(sorted(table.items()))


def _canonical_args(args: Any) -> Tuple[Tuple[str, Any], ...]:
    if args is None:
        return ()
    if isinstance(args, Mapping):
        items = args.items()
    else:
        items = tuple(args)
    return tuple(sorted((str(k), _freeze(v)) for k, v in items))


def _canonical_partitions(partitions: Any) -> Tuple[Tuple[Tuple[str, Any], ...], ...]:
    """Partition specs stay in declaration order (it is a timeline); each
    window canonicalizes to sorted ``(key, value)`` pairs."""
    if partitions is None:
        return ()
    if isinstance(partitions, Mapping):
        raise ConfigError(
            "partitions must be a list of {'start', 'stop', 'groups'} "
            f"mappings, got a single mapping: {partitions!r}"
        )
    return tuple(_canonical_args(spec) for spec in partitions)


def _canonical_proposals(proposals: Any, n: int) -> Any:
    if proposals is None:
        return None
    if isinstance(proposals, bool):
        raise ConfigError(f"proposals must be bits, got {proposals!r}")
    if isinstance(proposals, int):
        if proposals not in (0, 1):
            raise ConfigError(f"scalar proposal must be 0 or 1, got {proposals}")
        return proposals
    table = normalize_proposals(proposals, n)  # validates coverage and bits
    return tuple(table[pid] for pid in range(n))


# ---------------------------------------------------------------------------
# The scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One declarative, fabric-agnostic protocol execution.

    Construction canonicalizes (mappings/lists become sorted tuples) and
    validates; two scenarios built from equivalent specs compare equal
    and hash equally, and ``from_dict(to_dict(s)) == s`` always holds.

    Fields:
        protocol: ``bracha`` | ``benor`` | ``benor-crash`` | ``mmr14`` |
            ``acs``, or one of the Bracha ablations ``bracha-novalidate``
            / ``bracha-noamplify`` (see :data:`repro.stacks.STACKS`).
        n, t: system size and fault bound (``t=None`` → ``⌊(n−1)/3⌋``).
        proposals: ``None`` (split ``pid % 2``), a bit (unanimous), a
            sequence, or a pid→bit mapping; must be ``None`` for ACS
            (nodes propose request payloads).
        coin: ``local`` | ``dealer`` | ``shares``; ``None`` picks the
            protocol's default (dealer for MMR-14, local otherwise).
        faults: pid → behavior spec (kind string or ``{"kind": ..., **kw}``).
        scheduler, scheduler_args: network conditions; ``sim`` fabric only
            (real transports schedule themselves).  ``coin-rush`` watches
            the dealer coin and needs ``coin="dealer"``.
        link: netem link conditions for the runtime fabrics — a flat
            mapping of :class:`~repro.netem.LinkModel` fields (``delay``,
            ``jitter``, ``loss``, ``duplicate``, ``reorder``,
            ``reorder_extra``) plus the retransmission knobs
            (``retransmit``, ``rto``, ``max_retries``); see docs/netem.md.
        partitions: scripted partition windows for the runtime fabrics —
            a list of ``{"start", "stop", "groups"}`` mappings.
        fabric: ``sim`` (discrete-event), ``local`` (asyncio queues),
            ``tcp`` (authenticated JSON-over-TCP, one interpreter), or
            ``mp`` (one OS process per node over the same TCP transport,
            bootstrapped by a dealer bundle — see docs/deployment.md).
        instances: parallel consensus instances per process (batching).
        batching: wire-frame coalescing — ``off`` (one frame per
            message), ``flush`` (one frame per destination per pump
            flush), or ``size:N`` (at most ``N`` messages per frame).
            On the ``sim`` fabric the knob selects eager vs per-step
            outbox draining, which is provably order-identical: a fixed
            seed decides and traces bit-for-bit the same either way.
        codec: the wire format on the runtime fabrics — ``json``
            (tagged JSON, the readable reference format) or ``binary``
            (the compact binary fast path, see docs/performance.md).
            Every node uses the selected codec; mixing codecs across a
            cluster fails loudly with a
            :class:`~repro.runtime.codec.CodecMismatchError`.  The
            ``sim`` fabric moves Python objects by reference, so the
            knob is a no-op there (kept legal so one scenario can be
            parity-compared across all fabrics); on ``local`` a binary
            run round-trips every payload through the binary codec.
        observe: structured-event capture — ``off`` (default, no
            observer), ``ring``/``ring:N`` (in-memory ring buffer of the
            newest N events, attached to ``meta["obs_events"]``), or
            ``jsonl``/``jsonl:PATH`` (JSONL trace file readable by
            ``repro report``); see docs/observability.md.
        profile: hot-path span profiling — ``off`` (default, hot paths
            pay one ``None`` check) or ``on`` (wall-clock span timers
            recorded into the run's metrics histograms as ``span_*``
            entries, rendered by ``repro profile``).  Profiling never
            touches virtual time, the rng, or the event stream, so a
            fixed-seed sim run stays bit-identical.  Not available on
            ``mp`` (node-side registries stay in the node processes);
            see docs/observability.md.
        recovery: crash-recovery WAL logging on the runtime fabrics —
            ``off`` (default), ``wal`` (per-node write-ahead logs in a
            run-scoped scratch directory), or ``wal:DIR`` (logs kept in
            ``DIR`` as run artifacts).  Required on ``mp`` when a fault
            uses kind ``restart``; see docs/recovery.md.
        stop: ``decided`` | ``halted`` | ``quiescent`` (sim only).
        max_steps / timeout: liveness budget (sim steps / runtime seconds).
        host, base_port: TCP fabric placement (0 = pick free ports).
    """

    name: str = ""
    description: str = ""
    protocol: str = "bracha"
    n: int = 4
    t: Optional[int] = None
    proposals: Any = None
    coin: Optional[str] = None
    faults: Any = ()
    scheduler: str = "random"
    scheduler_args: Any = ()
    link: Any = ()
    partitions: Any = ()
    fabric: str = "sim"
    instances: int = 1
    batching: str = "off"
    codec: str = "json"
    observe: str = "off"
    profile: str = "off"
    recovery: str = "off"
    seed: int = 0
    stop: str = "decided"
    max_steps: int = 2_000_000
    timeout: float = 60.0
    host: str = "127.0.0.1"
    base_port: int = 0
    allow_excess_faults: bool = False

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(
                f"unknown protocol {self.protocol!r}; choose from {sorted(PROTOCOLS)}"
            )
        if self.fabric not in FABRICS:
            raise ConfigError(
                f"unknown fabric {self.fabric!r}; choose from {list(FABRICS)}"
            )
        if self.stop not in STOPS:
            raise ConfigError(
                f"unknown stop condition {self.stop!r}; choose from {list(STOPS)}"
            )
        if self.coin is not None and self.coin not in COINS:
            raise ConfigError(
                f"unknown coin scheme {self.coin!r}; choose from {list(COINS)}"
            )
        if self.instances < 1:
            raise ConfigError(f"need at least one instance, got {self.instances}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or self.seed < 0:
            raise ConfigError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )
        parse_batching(self.batching)  # validates off | flush | size:N
        if self.codec not in WIRE_CODECS:
            raise ConfigError(
                f"unknown wire codec {self.codec!r}; "
                f"choose from {list(WIRE_CODECS)}"
            )
        parse_observe(self.observe)  # validates off | ring[:N] | jsonl[:PATH]
        if parse_profile(self.profile) != "off" and self.fabric == "mp":
            raise ConfigError(
                "span profiling ('profile: on') is not available on the "
                "'mp' fabric: each node process keeps its own metrics "
                "registry and only events travel back to the orchestrator "
                "— profile on 'sim', 'local', or 'tcp' instead"
            )
        if self.instances > 1 and self.protocol not in ("bracha", "benor"):
            raise ConfigError(
                f"multiple instances are not supported for {self.protocol!r}"
            )
        params = for_system(self.n, self.t)  # validates n and t

        object.__setattr__(self, "faults", _canonical_faults(self.faults))
        object.__setattr__(
            self, "scheduler_args", _canonical_args(self.scheduler_args)
        )
        object.__setattr__(self, "link", _canonical_args(self.link))
        object.__setattr__(
            self, "partitions", _canonical_partitions(self.partitions)
        )
        if self.protocol == "acs":
            if self.proposals is not None:
                raise ConfigError(
                    "ACS scenarios take no proposals; nodes propose request payloads"
                )
        else:
            object.__setattr__(
                self, "proposals", _canonical_proposals(self.proposals, self.n)
            )

        restart_pids = []
        for pid, spec in self.faults:
            if not 0 <= pid < self.n:
                raise ConfigError(f"fault pid {pid} out of range")
            table = dict(spec)
            kind = table["kind"]
            constraint = FAULT_KIND_FABRICS.get(kind)
            if constraint is not None:
                fabrics, what, nearest = constraint
                if self.fabric not in fabrics:
                    names = " or ".join(f"'{f}' fabric" for f in fabrics)
                    raise ConfigError(
                        f"fault kind {kind!r} ({what}) runs only on the "
                        f"{names}, not {self.fabric!r}; the nearest kind "
                        f"supported there is {nearest!r}"
                    )
            if kind in ("kill", "restart"):
                # Both are scheduled crashes of a real node: SIGKILL after
                # 'after' seconds on mp ('restart' on sim counts
                # deliveries instead — the discrete-event clock).
                after = table.get("after", 0.0)
                if isinstance(after, bool) or not isinstance(after, (int, float)) \
                        or after < 0:
                    raise ConfigError(
                        f"{kind} fault needs 'after' >= 0, got {after!r}"
                    )
            if kind == "restart":
                restart_pids.append(pid)
                allowed = {"kind", "after", "down", "max_restarts"}
                unknown = sorted(set(table) - allowed)
                if unknown:
                    raise ConfigError(
                        f"restart fault has unknown field(s) {unknown}; "
                        f"allowed: {sorted(allowed - {'kind'})}"
                    )
                down = table.get("down")
                if down is not None and (
                        isinstance(down, bool)
                        or not isinstance(down, (int, float)) or down <= 0):
                    raise ConfigError(
                        f"restart fault needs 'down' > 0, got {down!r}"
                    )
                max_restarts = table.get("max_restarts")
                if max_restarts is not None and (
                        isinstance(max_restarts, bool)
                        or not isinstance(max_restarts, int)
                        or max_restarts < 1):
                    raise ConfigError(
                        f"restart fault needs 'max_restarts' >= 1, "
                        f"got {max_restarts!r}"
                    )
        recovery_mode, _ = parse_recovery(self.recovery)
        if recovery_mode != "off" and self.fabric == "sim":
            raise ConfigError(
                "recovery WAL logging needs a runtime fabric ('local', "
                "'tcp', or 'mp'); the sim fabric's 'restart' fault replays "
                "from memory and takes no 'recovery' setting"
            )
        if restart_pids and self.fabric == "mp":
            if recovery_mode == "off":
                raise ConfigError(
                    "a 'restart' fault on the 'mp' fabric needs recovery "
                    "enabled (recovery='wal' or 'wal:DIR') so the respawned "
                    "process can replay its write-ahead log"
                )
            netem = self.netem_config()
            if netem is None or not netem.retransmit:
                raise ConfigError(
                    "a 'restart' fault on the 'mp' fabric needs link "
                    "retransmission so peers re-deliver the frames the node "
                    "missed while down — set link={'retransmit': True} "
                    "(tune 'rto'/'max_retries' to cover the down window)"
                )
        if len(self.faults) > params.t and not self.allow_excess_faults:
            raise ConfigError(
                f"{len(self.faults)} faults injected but t={params.t}; "
                "set allow_excess_faults if the excess is intentional"
            )
        if self.scheduler not in SCHEDULERS:
            raise ConfigError(
                f"unknown scheduler {self.scheduler!r}; "
                f"choose from {sorted(SCHEDULERS)}"
            )
        if self.scheduler == "coin-rush" and self.coin_name != "dealer":
            raise ConfigError(
                "scheduler 'coin-rush' observes the released common coin "
                f"and needs coin='dealer', not {self.coin_name!r}"
            )
        if self.scheduler == "random" and self.scheduler_args:
            raise ConfigError(
                "scheduler_args given but the scheduler is 'random' "
                "(the fair default takes no arguments) — name a scheduler"
            )
        if self.fabric != "sim" and self.scheduler != "random":
            raise ConfigError(
                f"scheduler {self.scheduler!r} needs the 'sim' fabric; "
                "on the runtime fabrics declare adverse network conditions "
                "with the 'link' / 'partitions' netem spec instead "
                "(e.g. link={'loss': 0.1, 'delay': 0.005}; see docs/netem.md)"
            )
        if self.fabric == "sim" and (self.link or self.partitions):
            raise ConfigError(
                "'link' / 'partitions' model real-transport conditions and "
                "need the 'local', 'tcp', or 'mp' fabric; on the 'sim' "
                "fabric use a scheduler (e.g. scheduler='delay' or "
                "scheduler='partition')"
            )
        self.netem_config()  # validates link fields and partition windows
        if self.fabric != "sim" and self.stop == "quiescent":
            raise ConfigError("stop condition 'quiescent' needs the 'sim' fabric")

    # -- derived views -------------------------------------------------------

    @property
    def params(self) -> ProtocolParams:
        return for_system(self.n, self.t)

    @property
    def coin_name(self) -> str:
        """The effective coin scheme (protocol default when unset)."""
        return self.coin or DEFAULT_COIN.get(self.protocol, "local")

    def faults_dict(self) -> Dict[int, Any]:
        """Fault table in the harness's native shape: pid → kind or dict."""
        out: Dict[int, Any] = {}
        for pid, spec in self.faults:
            table = dict(spec)
            if len(table) == 1:
                out[pid] = table["kind"]
            else:
                out[pid] = {k: _thaw(v) for k, v in table.items()}
        return out

    def restart_specs(self) -> Dict[int, Dict[str, Any]]:
        """The ``restart`` faults only: pid → ``{"after", "down", ...}``."""
        out: Dict[int, Dict[str, Any]] = {}
        for pid, spec in self.faults:
            table = {k: _thaw(v) for k, v in spec}
            if table.pop("kind") == "restart":
                out[pid] = table
        return out

    def scheduler_args_dict(self) -> Dict[str, Any]:
        return {k: _thaw(v) for k, v in self.scheduler_args}

    def link_dict(self) -> Dict[str, Any]:
        """The ``link`` spec in its JSON-facing mapping shape."""
        return {k: _thaw(v) for k, v in self.link}

    def partitions_list(self) -> list:
        """The ``partitions`` spec in its JSON-facing list-of-dicts shape."""
        return [{k: _thaw(v) for k, v in spec} for spec in self.partitions]

    def build_scheduler(
        self, coin: Optional[CoinScheme] = None
    ) -> Optional[Scheduler]:
        """Instantiate the declared network conditions (``sim`` fabric);
        ``coin`` is the run's instance-0 coin scheme (see
        :data:`SCHEDULERS`)."""
        return make_scheduler(
            self.scheduler, self.n, coin, **self.scheduler_args_dict()
        )

    def netem_config(self) -> Optional[NetemConfig]:
        """The declared link conditions as a validated
        :class:`~repro.netem.NetemConfig`; ``None`` when netem is off."""
        config = NetemConfig.from_spec(self.link_dict(), self.partitions_list())
        if config is not None:
            config.validate_pids(self.n)
        return config

    def replace(self, **changes: Any) -> "Scenario":
        """A copy with fields changed — revalidated and recanonicalized."""
        try:
            return dataclasses.replace(self, **changes)
        except TypeError as exc:
            raise ConfigError(f"unknown scenario field: {exc}") from exc

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict, omitting fields left at their defaults."""
        out: Dict[str, Any] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value == field.default:
                continue
            if field.name == "faults":
                value = {str(pid): spec for pid, spec in self.faults_dict().items()}
            elif field.name == "scheduler_args":
                value = self.scheduler_args_dict()
            elif field.name == "link":
                value = self.link_dict()
            elif field.name == "partitions":
                value = self.partitions_list()
            else:
                value = _thaw(value)
            out[field.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Build a scenario from a (JSON-decoded) mapping.

        Unknown keys raise :class:`~repro.errors.ConfigError` so typos in
        scenario files fail loudly rather than silently using defaults.
        """
        if not isinstance(data, Mapping):
            raise ConfigError(f"scenario spec must be a mapping, got {type(data).__name__}")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown scenario field(s) {unknown}; known fields: {sorted(known)}"
            )
        return cls(**dict(data))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid scenario JSON: {exc}") from exc
        return cls.from_dict(data)


def load_scenario(path: Any) -> Scenario:
    """Read a scenario from a JSON file; all failure modes (missing file,
    bad JSON, unknown fields, invalid values) raise
    :class:`~repro.errors.ConfigError` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        return Scenario.from_json(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


__all__ = [
    "BATCHING_MODES",
    "COINS",
    "FABRICS",
    "WIRE_CODECS",
    "FAULT_KIND_FABRICS",
    "OBSERVE_MODES",
    "PROFILE_MODES",
    "RECOVERY_MODES",
    "SCHEDULERS",
    "STOPS",
    "Scenario",
    "load_scenario",
    "make_scheduler",
    "parse_faults",
    "parse_link",
    "parse_proposals",
]
