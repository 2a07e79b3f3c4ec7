"""Message accounting: the network's per-kind send counter."""

from repro.sim.network import count_send, kind_names
from repro.sim.runner import Simulation


def kind_of(payload):
    """The one kind name a single send of ``payload`` is counted under."""
    sent = {}
    count_send(sent, payload)
    [name] = kind_names(sent)
    return name


class Sink:
    def __init__(self, pid):
        self.pid = pid

    def deliver(self, sender, payload):
        pass

    def start(self):
        pass


def sink_sim(n=3):
    sim = Simulation()
    for pid in range(n):
        sim.network.register(Sink(pid))
    sim.start()
    return sim


class TestPayloadKind:
    def test_routed_tuple(self):
        assert kind_of(("rbc", 42)) == "rbc/int"

    def test_bare_payload(self):
        assert kind_of("text") == "str"

    def test_dataclass_name_used(self):
        from repro.core.broadcast import RbcMessage
        from repro.types import Phase

        msg = RbcMessage(("i",), 0, Phase.ECHO, 1)
        assert kind_of(("rbc", msg)) == "rbc/RbcMessage"


class TestMetrics:
    def test_send_and_delivery_counts(self):
        sim = sink_sim()
        sim.network.send(0, 1, ("m", "a"))
        sim.network.send(1, 2, ("m", "b"))
        assert sim.step()
        counters = sim.traffic()["counters"]
        assert counters["messages_sent"] == 2
        assert counters["messages_delivered"] == 1

    def test_kind_breakdown(self):
        sim = sink_sim()
        sim.network.send(0, 1, ("rbc", 1))
        sim.network.send(0, 2, ("rbc", 2))
        sim.network.send(0, 1, ("consensus", "s"))
        by_kind = sim.traffic()["sent_by_kind"]
        assert by_kind["rbc/int"] == 2
        assert by_kind["consensus/str"] == 1

    def test_snapshot_is_plain_data(self):
        sim = sink_sim()
        sim.network.send(0, 1, ("m", "a"))
        traffic = sim.traffic()
        assert traffic["counters"]["messages_sent"] == 1
        assert type(traffic["sent_by_kind"]) is dict
        assert all(type(k) is str for k in traffic["sent_by_kind"])
