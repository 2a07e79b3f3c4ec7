"""Baseline protocols Bracha's paper is measured against.

* :mod:`repro.baselines.benor` — **Ben-Or (PODC 1983)**, the protocol
  Bracha improves on.  No broadcast, no validation: plain point-to-point
  voting with local coins.  Tolerates Byzantine faults only for
  ``t < n/5``; the validation ablation (T5) demonstrates experimentally
  what breaks beyond that.
* :mod:`repro.baselines.bv_broadcast` + :mod:`repro.baselines.mmr14` —
  an **MMR-2014-style binary agreement** (the ABA inside HoneyBadgerBFT),
  the modern descendant of Bracha's protocol: binary-value broadcast
  replaces full reliable broadcast, shaving a factor of ``n`` off the
  per-round message count, at the price of requiring a common coin.
* **Rabin (FOCS 1983)** is a configuration, not a module: Bracha's
  round structure driven by the dealer-shared common coin, giving
  constant expected rounds — ``Scenario(protocol="bracha",
  coin="dealer")`` (oracle coin) or ``coin="shares"`` (the coin
  reconstructed from Shamir shares over the network).

All baselines run on the same simulator, coin schemes, and fault
behaviors as the core protocol: each is a protocol name in
:data:`repro.stacks.STACKS`, run as a :class:`~repro.scenario.Scenario`
and held to the same safety checks.
"""

from .benor import BenOrConsensus
from .benor_crash import BenOrCrashConsensus
from .bv_broadcast import BinaryValueBroadcast, BvDeliver
from .mmr14 import Mmr14Consensus

__all__ = [
    "BenOrConsensus",
    "BenOrCrashConsensus",
    "BinaryValueBroadcast",
    "BvDeliver",
    "Mmr14Consensus",
]
