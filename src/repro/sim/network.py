"""The message-passing fabric connecting processes to the simulator.

The network implements *authenticated reliable point-to-point links*: a
message sent between two correct processes is delivered exactly once,
unmodified, and the receiver learns the true sender identity (the
simulator passes the authentic ``source`` out of band, which is the
standard idealization of MACs; :mod:`repro.net.auth` additionally
implements the MAC machinery explicitly for the link-layer tests).

Delivery order is entirely up to the attached scheduler — the network
itself guarantees nothing about ordering, matching the paper's model.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Protocol

from ..errors import SimulationError
from ..types import Envelope, ProcessId
from .effects import CausalStamper
from .events import PendingSet
from .rng import SplitRng


def count_send(sent: Dict[Any, int], payload: Any) -> None:
    """Count one send in a traffic counter keyed by payload type.

    Payloads are routed tuples ``(module_id, inner)``, keyed by the
    module and the inner message's class; anything else is keyed by its
    own class.  Nothing is rendered here: :func:`kind_names` turns the
    keys into names only when an outcome record is built.
    """
    if isinstance(payload, tuple) and len(payload) == 2 and isinstance(payload[0], str):
        key: Any = (payload[0], type(payload[1]))
    else:
        key = type(payload)
    sent[key] = sent.get(key, 0) + 1


def kind_names(sent: Dict[Any, int]) -> Dict[str, int]:
    """A traffic counter by ``"module/Class"`` (or bare ``"Class"``) name,
    in first-send order, so per-primitive counts (VALUE vs ECHO vs READY
    vs step messages) fall out of one counter."""
    names: Dict[str, int] = {}
    for key, count in sent.items():
        name = (
            f"{key[0]}/{key[1].__name__}" if isinstance(key, tuple)
            else key.__name__
        )
        names[name] = names.get(name, 0) + count
    return names


class Deliverable(Protocol):
    """What the network requires of a registered process (correct or not)."""

    pid: ProcessId

    def deliver(self, sender: ProcessId, payload: Any) -> None: ...

    def start(self) -> None: ...


class NetworkAPI(Protocol):
    """What processes and behaviors require of *any* message fabric.

    Both the simulator's :class:`Network` and the asyncio runtime's
    :class:`~repro.runtime.node.NodeNetwork` satisfy this structural
    interface, which is what lets the protocol stacks run unmodified in
    either world.  Protocol code must never rely on anything beyond it.
    """

    rng: SplitRng

    def register(self, process: Deliverable) -> None: ...

    def send(self, source: ProcessId, dest: ProcessId, payload: Any) -> None: ...

    def now(self) -> float: ...

    def trace_note(self, pid: Optional[ProcessId], detail: Any) -> None: ...


class Network:
    """Registry of processes plus the in-flight message set.

    ``sent`` is the run's one traffic counter (see :func:`count_send`).
    Counting happens here, so protocols cannot forget to report, and
    Byzantine traffic is counted like any other traffic — the paper's
    complexity statements are about total system load.  Deliveries are
    not counted: the simulator delivers exactly one envelope per step.
    """

    def __init__(self, rng: SplitRng, pending: PendingSet):
        self.rng = rng
        self.pending = pending
        self.processes: Dict[ProcessId, Deliverable] = {}
        self.sent: Dict[Any, int] = {}
        #: Optional structured-event hub (:class:`repro.obs.Observer`).
        #: One ``is not None`` check per send/deliver when disabled.
        self.observer: Optional[Any] = None
        #: Causal message ids for send/deliver correlation.  Stamping
        #: happens only under an observer; the uid side table carries
        #: each in-flight message's id to its deliver event without the
        #: envelope (or the protocol payload) ever changing shape.
        self.stamper = CausalStamper()
        self._mids: Dict[int, str] = {}
        self._uid = 0
        self._now_fn: Callable[[], float] = lambda: 0.0
        self._on_send: Optional[Callable[[Envelope], None]] = None

    # -- wiring used by Simulation ---------------------------------------

    def bind_clock(self, now_fn: Callable[[], float]) -> None:
        self._now_fn = now_fn

    def bind_send_hook(self, hook: Callable[[Envelope], None]) -> None:
        self._on_send = hook

    def now(self) -> float:
        return self._now_fn()

    def trace_note(self, pid: Optional[ProcessId], detail: Any) -> None:
        if self.observer is not None:
            self.observer.emit("note", node=pid, detail=detail, time=self.now())

    # -- registry ---------------------------------------------------------

    def register(self, process: Deliverable) -> None:
        if process.pid in self.processes:
            raise SimulationError(f"pid {process.pid} registered twice")
        self.processes[process.pid] = process

    def replace(self, process: Deliverable) -> None:
        """Swap in a different implementation for a pid (fault injection)."""
        if process.pid not in self.processes:
            raise SimulationError(f"pid {process.pid} not registered")
        self.processes[process.pid] = process

    @property
    def n(self) -> int:
        return len(self.processes)

    # -- data plane ---------------------------------------------------------

    def send(self, source: ProcessId, dest: ProcessId, payload: Any) -> None:
        """Hand a message to the network for asynchronous delivery."""
        if dest not in self.processes:
            raise SimulationError(f"send to unknown process {dest}")
        self._uid += 1
        env = Envelope(
            uid=self._uid,
            source=source,
            dest=dest,
            payload=payload,
            send_time=self.now(),
        )
        self.pending.add(env)
        count_send(self.sent, payload)
        if self.observer is not None:
            mid = self.stamper.stamp(source)
            self._mids[env.uid] = mid
            self.observer.message(
                "send", source, payload, time=env.send_time, mid=mid
            )
        if self._on_send is not None:
            self._on_send(env)

    def deliver(self, env: Envelope, time: float) -> None:
        """Deliver an in-flight envelope to its destination (runner only)."""
        self.pending.remove(env)
        if self.observer is not None:
            self.observer.message(
                "deliver", env.dest, env.payload, time=time,
                mid=self._mids.pop(env.uid, None),
            )
        target = self.processes.get(env.dest)
        if target is not None:
            target.deliver(env.source, env.payload)
