"""Seed derivation: one documented scheme for every random stream.

Every run in this codebase is determined by ``(adversary, programs,
seed)`` — the paper's ``run(A, I, F)`` — so replayability hinges on all
randomness being derived from integers that are themselves derived
deterministically.  Historically each call site added its own magic
offset (``seed + 104729`` here, ``seed + 31337`` there); this module is
now the single home for those derivations.

The scheme has two layers:

* **Trial seeds.**  Trial ``i`` of a batch uses ``base_seed + i``
  (:func:`trial_seed`).  Contiguity is deliberate: it makes batches
  replayable from one integer and lets the batch engine partition seed
  ranges into chunks without materialising them.

* **Stream seeds.**  Within one trial, independent consumers of
  randomness (the tape collection, the shared coin list, a dealer's
  coins, ...) must not share a seed, or their streams would be
  correlated.  Each consumer adds a fixed, documented *stream offset*
  (:func:`derive`).  The offsets are arbitrary constants far larger than
  any realistic trial count, so stream ``s`` of trial ``i`` can never
  collide with stream ``s`` of trial ``j`` for batches smaller than the
  smallest offset gap.

The numeric values are frozen: they reproduce the historical constants
scattered through the experiment runners, so tables generated before the
unification are byte-identical to tables generated after it.
"""

from __future__ import annotations

#: Stream offset of the shared coin list handed to Protocol 1 / Protocol 2
#: trials (historically ``seed + 104729`` in ``experiments/common.py``).
COIN_STREAM = 104_729

#: Stream offset of the swept coin list in the E5 coin-length ablation
#: (historically ``seed + 31337``).
ABLATION_COIN_STREAM = 31_337

#: Stream offset of Protocol 1's coin list in the E10 Ben-Or comparison
#: (historically ``seed + 7_654_321``).
BENOR_COIN_STREAM = 7_654_321

#: Stream offset of the trusted dealer's coins in the E12 mechanism
#: ablation (historically ``seed + 424242``).
DEALER_COIN_STREAM = 424_242

#: Stream offset of the coordinator's coin list in the E12 mechanism
#: ablation (historically ``seed + 515151``).
COORDINATOR_COIN_STREAM = 515_151

#: Stream offset used by the test suite's agreement fixtures
#: (historically ``seed + 1000`` in ``tests/conftest.py``).
FIXTURE_COIN_STREAM = 1_000

#: Stream offset of the per-trial vote draw in fault campaigns
#: (:mod:`repro.faults.campaign`), independent of the plan randomness.
CAMPAIGN_VOTE_STREAM = 9_700_417

#: Stream offset of the per-trial shape draw (within- vs over-budget) in
#: fault campaigns.
CAMPAIGN_SHAPE_STREAM = 9_999_991

#: Keyed stream of one *service* envelope's randomness (link-fault
#: verdict, delivery delay, retransmission backoff jitter), keyed by
#: ``(sender, incarnation, seq, recipient, attempt)`` so each
#: transmission's draws are independent of how the event loop
#: interleaves concurrent retransmit loops (:mod:`repro.service.bus`).
SERVICE_ENVELOPE_STREAM = 15_485_863

#: Per-node stream of service-layer tape seeds and handshake jitter,
#: keyed by pid (:mod:`repro.service.cluster`).
SERVICE_NODE_STREAM = 17_624_813

#: Keyed stream of one hosted transaction instance's protocol tape,
#: keyed by ``txn_id`` off the node's own tape seed — transaction 0
#: keeps the node tape seed itself so v1 WALs, which hosted only it,
#: replay byte-identically (:mod:`repro.service.txn`).
SERVICE_TXN_TAPE_STREAM = 19_999_999

#: Keyed stream of one hosted transaction instance's derived initial
#: vote, keyed by ``txn_id`` off the node's own tape seed
#: (:func:`repro.service.txn.txn_vote`).
SERVICE_TXN_VOTE_STREAM = 22_801_763

#: Per-trial stream of a timing model's delivery randomness — hold
#: draws, random-async schedule hashing (:mod:`repro.models`).  Model
#: draws live strictly *after* every historical stream: selecting the
#: default ``realistic`` model consumes nothing from this stream, so
#: pre-zoo plans, campaign reports, and mc reports replay byte-for-byte
#: (the same pattern as the service track's recovery draws).
MODEL_TIMING_STREAM = 23_879_519

#: Keyed stream of the granular model's per-directed-link synchrony
#: class draw, keyed by ``(sender, recipient)`` so a link's class never
#: depends on message arrival order (:mod:`repro.models.policies`).
MODEL_LINK_STREAM = 25_165_843


def trial_seed(base_seed: int, index: int) -> int:
    """Seed of trial ``index`` in a batch anchored at ``base_seed``."""
    if index < 0:
        raise ValueError(f"trial index must be non-negative, got {index}")
    return base_seed + index


def derive(seed: int, stream: int) -> int:
    """Seed of one named random stream within a trial.

    ``stream`` should be one of the module's ``*_STREAM`` constants; the
    derivation is a plain offset so existing tables replay unchanged.
    """
    return seed + stream


def derive_keyed(seed: int, stream: int, *keys: int) -> int:
    """Seed of one keyed random stream within a trial.

    Where :func:`derive` names a fixed per-trial stream, this derives one
    stream *per key tuple* — e.g. per transport envelope — so concurrent
    consumers each own an independent generator and the draw order of one
    cannot perturb another.  The mix is a fixed-odd-multiplier LCG step
    per key: deterministic, collision-sparse, and independent of
    ``PYTHONHASHSEED``.
    """
    value = (seed + stream) & _MASK64
    for key in keys:
        value = (value * 6_364_136_223_846_793_005 + key + 1) & _MASK64
    return value


_MASK64 = (1 << 64) - 1


def coin_seed(seed: int) -> int:
    """Seed of the standard shared coin list for a trial (see
    :data:`COIN_STREAM`)."""
    return derive(seed, COIN_STREAM)
