"""The in-flight message set of a simulation.

A :class:`PendingSet` holds every envelope that has been sent but not yet
delivered.  Schedulers query it to choose the next delivery; adversarial
schedulers additionally filter and reorder it.  The structure preserves
insertion order (by envelope ``uid``) so that deterministic schedulers
have a canonical iteration order.

Uniform random choice needs the k-th envelope in that order, and copying
the set on every delivery makes a run quadratic in messages in flight.
So each envelope also owns an insertion *slot*, and a Fenwick (binary
indexed) tree counts the live slots: :meth:`PendingSet.kth` descends the
tree in O(log P), and ``add``/``remove`` update it in O(log P).  When
every slot has been handed out, the live envelopes are compacted to the
front in order, and the capacity doubles only if more than half of them
were live, so memory follows the peak pending count, not the number of
sends.  Compaction preserves order, so ``kth(k)`` is always
``list(pending)[k]``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from ..errors import SimulationError
from ..types import Envelope, ProcessId


class PendingSet:
    """Insertion-ordered set of in-flight :class:`~repro.types.Envelope`.

    Membership and ordered queries use an insertion-ordered dictionary;
    :meth:`kth` uses the slot tree described in the module docstring.
    ``uid`` uniqueness is enforced: the simulator assigns uids, so a
    duplicate indicates a harness bug.
    """

    #: Slots of a new set; a power of two, and every growth doubles it.
    INITIAL_SLOTS = 64

    def __init__(self) -> None:
        self._items: dict[int, Envelope] = {}
        self._reset_slots([], self.INITIAL_SLOTS)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[Envelope]:
        return iter(list(self._items.values()))

    def __contains__(self, env: Envelope) -> bool:
        return env.uid in self._items

    def add(self, env: Envelope) -> None:
        uid = env.uid
        if uid in self._items:
            raise SimulationError(f"duplicate envelope uid {uid}")
        self._items[uid] = env
        capacity = len(self._slots)
        if self._used == capacity:
            live = list(self._items.values())
            if len(live) > capacity // 2:
                capacity *= 2
            self._reset_slots(live, capacity)
            return
        slot = self._used
        self._used = slot + 1
        self._slots[slot] = env
        self._slot_of[uid] = slot
        tree = self._tree
        i = slot + 1
        while i <= capacity:
            tree[i] += 1
            i += i & -i

    def remove(self, env: Envelope) -> None:
        uid = env.uid
        if uid not in self._items:
            raise SimulationError(f"removing unknown envelope uid {uid}")
        del self._items[uid]
        slot = self._slot_of.pop(uid)
        self._slots[slot] = None
        tree = self._tree
        capacity = len(self._slots)
        i = slot + 1
        while i <= capacity:
            tree[i] -= 1
            i += i & -i

    def kth(self, k: int) -> Envelope:
        """The ``k``-th pending envelope, oldest first: ``list(self)[k]``."""
        if not 0 <= k < len(self._items):
            raise IndexError(f"kth({k}) of {len(self._items)} pending envelopes")
        tree = self._tree
        pos = 0
        # Capacity is a power of two, so no probe passes the last slot.
        step = len(self._slots) >> 1
        while step:
            probe = pos + step
            if tree[probe] <= k:
                pos = probe
                k -= tree[probe]
            step >>= 1
        env = self._slots[pos]
        assert env is not None  # the tree only counts live slots
        return env

    def _reset_slots(self, live: list[Envelope], capacity: int) -> None:
        """Lay ``live`` (oldest first) into fresh slots and rebuild the tree."""
        count = len(live)
        self._slots: list[Optional[Envelope]] = live + [None] * (capacity - count)
        self._slot_of: dict[int, int] = {
            env.uid: slot for slot, env in enumerate(live)
        }
        self._used = count
        tree = [0] + [1] * count + [0] * (capacity - count)
        for i in range(1, capacity + 1):
            parent = i + (i & -i)
            if parent <= capacity:
                tree[parent] += tree[i]
        self._tree = tree

    def peek_oldest(self) -> Optional[Envelope]:
        """Envelope with the smallest uid, or None when empty."""
        for env in self._items.values():
            return env
        return None

    def filter(self, predicate: Callable[[Envelope], bool]) -> list[Envelope]:
        """All pending envelopes satisfying ``predicate``, oldest first."""
        return [env for env in self._items.values() if predicate(env)]

    def to_dest(self, dest: ProcessId) -> list[Envelope]:
        """All pending envelopes addressed to ``dest``, oldest first."""
        return self.filter(lambda env: env.dest == dest)

    def from_source(self, source: ProcessId) -> list[Envelope]:
        """All pending envelopes sent by ``source``, oldest first."""
        return self.filter(lambda env: env.source == source)

    def between(self, source: ProcessId, dest: ProcessId) -> list[Envelope]:
        """Pending envelopes on the (source, dest) link, oldest first."""
        return self.filter(lambda env: env.source == source and env.dest == dest)

    def oldest_per_link(self) -> list[Envelope]:
        """For each (source, dest) pair, the oldest pending envelope.

        This is the candidate set for FIFO-per-link delivery.
        """
        seen: dict[tuple[ProcessId, ProcessId], Envelope] = {}
        for env in self._items.values():
            key = (env.source, env.dest)
            if key not in seen:
                seen[key] = env
        return list(seen.values())

    def snapshot(self) -> Iterable[Envelope]:
        """A stable copy of the current contents (oldest first)."""
        return tuple(self._items.values())
