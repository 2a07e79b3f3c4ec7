"""End-to-end property tests: the paper's theorems over random worlds.

Each example runs a complete seeded execution with randomly drawn system
size, inputs, fault assignment, and scheduler — and asserts the safety
properties via the checked harness (which raises on any violation).
Examples are kept small (n ≤ 7) so hundreds of executions stay fast.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import run_broadcast
from repro.scenario import Scenario, run

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def consensus_world(draw):
    t = draw(st.integers(min_value=1, max_value=2))
    n = 3 * t + 1
    proposals = [draw(st.integers(min_value=0, max_value=1)) for _ in range(n)]
    n_faults = draw(st.integers(min_value=0, max_value=t))
    fault_kinds = draw(
        st.lists(
            st.sampled_from(["silent", "two_faced", "fuzzer"]),
            min_size=n_faults, max_size=n_faults,
        )
    )
    faults = {n - 1 - i: kind for i, kind in enumerate(fault_kinds)}
    coin = draw(st.sampled_from(["local", "dealer"]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    scheduler_name = draw(st.sampled_from(["random", "fifo", "victim", "split"]))
    return n, proposals, faults, coin, seed, scheduler_name


#: scheduler name -> its scenario arguments (``split`` defaults to the
#: lower half of the pids as group A).
SCHEDULER_ARGS = {
    "random": {},
    "fifo": {},
    "victim": {"victims": [0], "holdback": 60},
    "split": {"holdback": 60},
}


@given(consensus_world())
@SLOW
def test_agreement_validity_integrity_everywhere(world):
    """The checked harness raises on any violation — reaching the assert
    means agreement, strong validity, integrity, and completion held."""
    n, proposals, faults, coin, seed, scheduler_name = world
    result = run(Scenario(
        n=n, proposals=proposals, faults=faults, coin=coin,
        scheduler=scheduler_name, scheduler_args=SCHEDULER_ARGS[scheduler_name],
        seed=seed, max_steps=3_000_000,
    ))
    assert len(result.decided_values) == 1
    correct = [pid for pid in range(n) if pid not in faults]
    decided = result.decided_values.pop()
    assert decided in {proposals[pid] for pid in correct}


@given(consensus_world())
@SLOW
def test_unanimity_always_wins(world):
    """Forcing unanimous correct inputs: the decision must be that bit,
    whatever the faults and scheduling do."""
    n, _proposals, faults, coin, seed, scheduler_name = world
    result = run(Scenario(
        n=n, proposals=1, faults=faults, coin=coin,
        scheduler=scheduler_name, scheduler_args=SCHEDULER_ARGS[scheduler_name],
        seed=seed, max_steps=3_000_000,
    ))
    assert result.decided_values == {1}


@st.composite
def broadcast_world(draw):
    t = draw(st.integers(min_value=1, max_value=2))
    n = 3 * t + 1
    equivocate = draw(st.booleans())
    n_silent = draw(st.integers(min_value=0, max_value=t - (1 if equivocate else 0)))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, equivocate, n_silent, seed


@given(broadcast_world())
@SLOW
def test_broadcast_consistency_and_totality(world):
    n, equivocate, n_silent, seed = world
    silent = [n - 1 - i for i in range(n_silent)]
    sender = 0
    report = run_broadcast(
        n=n,
        sender=sender,
        equivocate=("A", "B") if equivocate else None,
        silent=[pid for pid in silent if pid != sender],
        seed=seed,
    )
    assert len(report["accepted_values"]) <= 1
    if not equivocate:
        assert report["accepted_values"] == {"payload"}


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_deterministic_replay(seed):
    """Same seed ⇒ byte-identical run metrics."""
    a = run(Scenario(n=4, proposals=[0, 1, 1, 0], seed=seed))
    b = run(Scenario(n=4, proposals=[0, 1, 1, 0], seed=seed))
    assert (a.steps, a.messages_sent, a.decided_values, a.rounds) == (
        b.steps, b.messages_sent, b.decided_values, b.rounds,
    )
