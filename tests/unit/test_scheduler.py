"""Delivery schedulers: fairness, determinism, and ordering contracts."""

import random

import pytest

from repro.adversary import PartitionScheduler
from repro.errors import SimulationError
from repro.sim.events import PendingSet
from repro.sim.scheduler import (
    FifoScheduler,
    RandomDelayScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.types import Envelope


def make(scheduler, seed=0):
    pending = PendingSet()
    scheduler.attach(random.Random(seed), pending)
    return scheduler, pending


def env(uid, source=0, dest=1, send_time=0.0):
    return Envelope(uid=uid, source=source, dest=dest, payload=uid, send_time=send_time)


def feed(scheduler, pending, envelopes):
    for e in envelopes:
        pending.add(e)
        scheduler.on_send(e)


def drain(scheduler, pending):
    order = []
    while pending:
        choice = scheduler.choose()
        assert choice is not None
        chosen, _time = choice
        pending.remove(chosen)
        order.append(chosen.uid)
    return order


class TestRandomScheduler:
    def test_empty_returns_none(self):
        scheduler, _ = make(RandomScheduler())
        assert scheduler.choose() is None

    def test_chooses_only_pending(self):
        scheduler, pending = make(RandomScheduler())
        feed(scheduler, pending, [env(1), env(2)])
        chosen, _ = scheduler.choose()
        assert chosen.uid in (1, 2)

    def test_delivers_everything(self):
        scheduler, pending = make(RandomScheduler())
        feed(scheduler, pending, [env(i) for i in range(1, 30)])
        assert sorted(drain(scheduler, pending)) == list(range(1, 30))

    def test_time_advances_per_delivery(self):
        scheduler, pending = make(RandomScheduler())
        feed(scheduler, pending, [env(1), env(2)])
        _, t1 = scheduler.choose()
        pending.remove(pending.peek_oldest())
        _, t2 = scheduler.choose()
        assert t2 > t1

    def test_deterministic_under_seed(self):
        orders = []
        for _ in range(2):
            scheduler, pending = make(RandomScheduler(), seed=9)
            feed(scheduler, pending, [env(i) for i in range(1, 20)])
            orders.append(drain(scheduler, pending))
        assert orders[0] == orders[1]

    def test_actually_reorders(self):
        scheduler, pending = make(RandomScheduler(), seed=1)
        feed(scheduler, pending, [env(i) for i in range(1, 50)])
        assert drain(scheduler, pending) != list(range(1, 50))

    @pytest.mark.parametrize("seed", range(5))
    def test_choice_matches_list_rule(self, seed):
        """Same randrange, same pick: the order-statistic choice equals the
        reference ``list(pending)[rng.randrange(len)]`` rule, with sends
        interleaved so the slot array compacts mid-drain."""
        scheduler, pending = make(RandomScheduler(), seed=seed)
        reference = random.Random(seed)
        sends = random.Random(seed + 100)
        uids = iter(range(1, 10_000))
        feed(scheduler, pending, [env(next(uids)) for _ in range(5)])
        order, expected = [], []
        for _ in range(8 * PendingSet.INITIAL_SLOTS):
            if sends.random() < 0.5:
                feed(scheduler, pending,
                     [env(next(uids)) for _ in range(sends.randrange(4))])
            if not pending:
                continue
            items = list(pending)
            expected.append(items[reference.randrange(len(items))].uid)
            chosen, _time = scheduler.choose()
            pending.remove(chosen)
            order.append(chosen.uid)
        assert order == expected
        assert len(order) > PendingSet.INITIAL_SLOTS  # crossed a compaction

    def test_healed_partition_choice_matches_list_rule(self):
        """PartitionScheduler's post-heal pick is the same uniform rule."""
        envelopes = [env(i, source=i % 3, dest=(i + 1) % 3)
                     for i in range(1, 3 * PendingSet.INITIAL_SLOTS)]
        scheduler, pending = make(PartitionScheduler([0], heal_after=0), seed=4)
        feed(scheduler, pending, envelopes)
        reference, items = random.Random(4), list(envelopes)
        expected = [items.pop(reference.randrange(len(items))).uid
                    for _ in envelopes]
        assert drain(scheduler, pending) == expected
        assert scheduler.heal_step == 0


class TestFifoScheduler:
    def test_per_link_order_preserved(self):
        scheduler, pending = make(FifoScheduler(), seed=3)
        feed(
            scheduler,
            pending,
            [env(1, 0, 1), env(2, 0, 1), env(3, 0, 1), env(4, 2, 1), env(5, 2, 1)],
        )
        order = drain(scheduler, pending)
        assert order.index(1) < order.index(2) < order.index(3)
        assert order.index(4) < order.index(5)

    def test_cross_link_interleaving_possible(self):
        """Across links there is no order promise — just check delivery."""
        scheduler, pending = make(FifoScheduler(), seed=5)
        feed(scheduler, pending, [env(i, i % 3, 3) for i in range(1, 16)])
        assert sorted(drain(scheduler, pending)) == list(range(1, 16))


class TestRoundRobinScheduler:
    def test_fully_deterministic(self):
        orders = []
        for _ in range(2):
            scheduler, pending = make(RoundRobinScheduler())
            feed(scheduler, pending, [env(i, 0, i % 3) for i in range(1, 10)])
            orders.append(drain(scheduler, pending))
        assert orders[0] == orders[1]

    def test_cycles_destinations(self):
        scheduler, pending = make(RoundRobinScheduler())
        feed(scheduler, pending, [env(1, 0, 0), env(2, 0, 1), env(3, 0, 2)])
        first, _ = scheduler.choose()
        pending.remove(first)
        second, _ = scheduler.choose()
        assert first.dest != second.dest


class TestRandomDelayScheduler:
    def test_rejects_bad_mean(self):
        with pytest.raises(SimulationError):
            RandomDelayScheduler(mean_delay=0)

    def test_time_is_monotone(self):
        scheduler, pending = make(RandomDelayScheduler(mean_delay=1.0), seed=2)
        feed(scheduler, pending, [env(i) for i in range(1, 20)])
        last = 0.0
        while pending:
            chosen, time = scheduler.choose()
            pending.remove(chosen)
            assert time >= last
            last = time

    def test_all_delivered(self):
        scheduler, pending = make(RandomDelayScheduler(), seed=4)
        feed(scheduler, pending, [env(i) for i in range(1, 25)])
        assert sorted(drain(scheduler, pending)) == list(range(1, 25))

    def test_delay_scale_influences_clock(self):
        def final_time(mean):
            scheduler, pending = make(RandomDelayScheduler(mean_delay=mean), seed=6)
            feed(scheduler, pending, [env(i) for i in range(1, 40)])
            last = 0.0
            while pending:
                chosen, last = scheduler.choose()
                pending.remove(chosen)
            return last

        assert final_time(10.0) > final_time(0.1)
