"""PendingSet: the in-flight message structure schedulers query."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.events import PendingSet
from repro.types import Envelope


def env(uid, source=0, dest=1, payload="m"):
    return Envelope(uid=uid, source=source, dest=dest, payload=payload, send_time=0.0)


class TestBasics:
    def test_empty(self):
        pending = PendingSet()
        assert len(pending) == 0
        assert not pending
        assert pending.peek_oldest() is None

    def test_add_and_len(self):
        pending = PendingSet()
        pending.add(env(1))
        pending.add(env(2))
        assert len(pending) == 2

    def test_contains(self):
        pending = PendingSet()
        first = env(1)
        pending.add(first)
        assert first in pending
        assert env(2) not in pending

    def test_duplicate_uid_rejected(self):
        pending = PendingSet()
        pending.add(env(1))
        with pytest.raises(SimulationError):
            pending.add(env(1))

    def test_remove(self):
        pending = PendingSet()
        first = env(1)
        pending.add(first)
        pending.remove(first)
        assert not pending

    def test_remove_unknown_rejected(self):
        with pytest.raises(SimulationError):
            PendingSet().remove(env(9))

    def test_iteration_is_insertion_ordered(self):
        pending = PendingSet()
        for uid in (3, 1, 2):
            pending.add(env(uid))
        assert [e.uid for e in pending] == [3, 1, 2]

    def test_peek_oldest_is_first_inserted(self):
        pending = PendingSet()
        pending.add(env(5))
        pending.add(env(2))
        oldest = pending.peek_oldest()
        assert oldest is not None and oldest.uid == 5


class TestQueries:
    def _loaded(self):
        pending = PendingSet()
        pending.add(env(1, source=0, dest=1))
        pending.add(env(2, source=0, dest=2))
        pending.add(env(3, source=1, dest=2))
        pending.add(env(4, source=0, dest=1))
        return pending

    def test_to_dest(self):
        assert [e.uid for e in self._loaded().to_dest(1)] == [1, 4]

    def test_from_source(self):
        assert [e.uid for e in self._loaded().from_source(0)] == [1, 2, 4]

    def test_between(self):
        assert [e.uid for e in self._loaded().between(0, 1)] == [1, 4]

    def test_filter(self):
        evens = self._loaded().filter(lambda e: e.uid % 2 == 0)
        assert [e.uid for e in evens] == [2, 4]

    def test_oldest_per_link(self):
        heads = self._loaded().oldest_per_link()
        assert sorted(e.uid for e in heads) == [1, 2, 3]  # uid 4 shadowed by 1

    def test_snapshot_is_stable_copy(self):
        pending = self._loaded()
        snap = pending.snapshot()
        pending.remove(pending.peek_oldest())
        assert [e.uid for e in snap] == [1, 2, 3, 4]


class TestKth:
    """``kth(k)`` is ``list(pending)[k]`` through slot growth and compaction."""

    def test_out_of_range(self):
        pending = PendingSet()
        pending.add(env(1))
        with pytest.raises(IndexError):
            pending.kth(1)
        with pytest.raises(IndexError):
            pending.kth(-1)

    def test_kth_follows_insertion_order(self):
        pending = PendingSet()
        for uid in (3, 1, 2):
            pending.add(env(uid))
        assert [pending.kth(k).uid for k in range(3)] == [3, 1, 2]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_list_under_random_add_remove(self, seed):
        """Random churn through the initial capacity, compaction in place,
        and a doubling: every kth agrees with the list rule at every step."""
        rng = random.Random(seed)
        initial = PendingSet.INITIAL_SLOTS
        pending = PendingSet()
        live = []
        next_uid = 0
        capacities = {initial}
        for step in range(8 * initial):
            # Fill past 2x the initial capacity first, then churn with a
            # removal bias so compaction also runs without growth.
            grow = step < 2 * initial + 8 or rng.random() < 0.45
            if grow or not live:
                next_uid += 1
                e = env(next_uid)
                pending.add(e)
                live.append(e)
            else:
                e = live.pop(rng.randrange(len(live)))
                pending.remove(e)
            capacities.add(len(pending._slots))
            assert len(pending) == len(live)
            assert [pending.kth(k) for k in range(len(live))] == live
            assert list(pending) == live
        assert max(capacities) >= 4 * initial

    def test_compaction_reuses_slots_without_growth(self):
        """Churn at a steady pending count never grows the slot array."""
        pending = PendingSet()
        for uid in range(1, 4):
            pending.add(env(uid))
        last = 10 * PendingSet.INITIAL_SLOTS
        for uid in range(4, last + 1):
            pending.remove(pending.peek_oldest())
            pending.add(env(uid))
        assert len(pending._slots) == PendingSet.INITIAL_SLOTS
        assert [pending.kth(k).uid for k in range(3)] == [last - 2, last - 1, last]
