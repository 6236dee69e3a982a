"""Per-processor random tapes — the collection ``F`` of the paper.

The formal model supplies each processor with an infinite sequence of real
numbers uniform on ``[0, 1)``; the number consumed at a step is an input of
the transition function.  The time lower bound (Section 5 of the paper)
additionally assumes each step consumes at most ``f(s)`` random *bits*.

:class:`RandomTape` realises one processor's sequence.  Each step draws one
float; protocol code obtains ``i`` bits from that step's float via
:meth:`RandomTape.flip`, which expands the float deterministically (so a run
is a pure function of the tape seed, exactly as a run in the paper is a pure
function of ``F``).

:class:`TapeCollection` is the full ``F``: one tape per processor, derived
from a single master seed so that experiments can be replayed from one
integer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import TapeExhaustedError

#: Number of deterministic bits we are willing to expand out of one step's
#: random float.  Far above what any shipped protocol uses per step; the
#: paper's technical restriction only requires *some* finite bound f(s).
_MAX_BITS_PER_STEP = 4096

#: Tape cells are materialised in batches of this many draws — one
#: generator call per simulated round's worth of steps instead of one
#: Python-level call per step.  The batch boundary is derived only from
#: how far the tape has been read, so the produced values are exactly the
#: same stream as one-at-a-time draws.
_PREFILL_CHUNK = 64


def _bit_expander(value: float) -> random.Random:
    """A deterministic per-step bit source derived from one uniform float.

    Seeding a local PRNG with the float's exact fraction makes the bits a
    pure function of the tape cell, independent of how many bits earlier
    steps consumed — so runs replay exactly from the tape seed.
    """
    return random.Random(value.hex())


@dataclass
class RandomTape:
    """One processor's infinite (or finite) sequence of random numbers.

    An infinite tape is generated lazily from ``seed``.  A finite tape can
    be constructed from an explicit ``values`` sequence, which is how the
    lower-bound machinery builds the finite seeds of Section 5.

    Attributes:
        seed: generator seed for lazily extended tapes (ignored when
            ``values`` is given and ``finite`` is true).
        values: materialised prefix of the tape; on an infinite tape it
            may end before :attr:`position` (see :meth:`advance`).
        finite: when true, reading past ``values`` raises
            :class:`~repro.errors.TapeExhaustedError` instead of extending.
    """

    seed: int = 0
    values: list[float] = field(default_factory=list)
    finite: bool = False
    _position: int = field(default=0, repr=False)
    _rng: random.Random | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._bits_this_step: random.Random | None = None
        self._bits_consumed = 0

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "RandomTape":
        """Build a finite tape holding exactly ``values``."""
        materialised = list(values)
        for v in materialised:
            if not 0.0 <= v < 1.0:
                raise ValueError(f"tape values must lie in [0, 1), got {v}")
        return cls(values=materialised, finite=True)

    @property
    def position(self) -> int:
        """Index of the next unread tape cell."""
        return self._position

    @property
    def length(self) -> int | None:
        """Length of a finite tape, or ``None`` for an infinite tape."""
        return len(self.values) if self.finite else None

    def peek(self, index: int) -> float:
        """Return the value at ``index`` without consuming anything."""
        self._ensure(index + 1)
        return self.values[index]

    def next_step_value(self) -> float:
        """Consume and return the random number for the next step.

        This is the ``f`` component of an event ``(p, M, f)``.  The value
        also becomes the source for :meth:`flip` calls made during the step.
        """
        self._ensure(self._position + 1)
        value = self.values[self._position]
        self._position += 1
        self._bits_this_step = None
        self._bits_consumed = 0
        return value

    def advance(self, count: int) -> None:
        """Consume ``count`` step values at once, drawing none of them.

        Only the position moves: the cells stepped over are drawn when a
        later read (:meth:`next_step_value`, :meth:`peek`, :meth:`flip`)
        reaches past them.  The generator is private to the tape, so
        drawing later yields the same stream, and every read returns
        what it would after ``count`` calls of :meth:`next_step_value`.
        O(1) on an infinite tape.  A finite tape too short for ``count``
        raises :class:`~repro.errors.TapeExhaustedError` and consumes
        nothing.
        """
        if count <= 0:
            return
        if self.finite:
            self._ensure(self._position + count)
        self._position += count
        self._bits_this_step = None
        self._bits_consumed = 0

    def flip(self, count: int) -> list[int]:
        """Return ``count`` random bits derived from the current step.

        Mirrors the paper's ``flip(i)`` procedure.  Successive calls within
        one step consume successive bits of the step's expansion; the next
        step re-seeds from its own tape value.

        Raises:
            TapeExhaustedError: if called before any step value was drawn,
                or past the per-step bit budget (the model's ``f(s)``
                restriction).
        """
        if count < 0:
            raise ValueError(f"bit count must be non-negative, got {count}")
        if self._position == 0:
            raise TapeExhaustedError(
                "flip() called before the tape supplied a step value"
            )
        if self._bits_this_step is None:
            self._bits_this_step = _bit_expander(self.peek(self._position - 1))
            self._bits_consumed = 0
        if self._bits_consumed + count > _MAX_BITS_PER_STEP:
            raise TapeExhaustedError(
                f"step bit budget exhausted: wanted {count}, have "
                f"{_MAX_BITS_PER_STEP - self._bits_consumed}"
            )
        self._bits_consumed += count
        return [self._bits_this_step.getrandbits(1) for _ in range(count)]

    def _ensure(self, length: int) -> None:
        """Materialise the tape out to ``length`` cells.

        Cells are drawn in deterministic batches (rounded up to the next
        :data:`_PREFILL_CHUNK` boundary) so the generator is called once
        per round's worth of steps rather than once per step.  The
        generator is read in order from the first unmaterialised cell, so
        however the batches fall (and however far :meth:`advance` moved
        ahead of them) the cells are the stream a per-step loop draws.
        """
        have = len(self.values)
        if have >= length:
            return
        if self.finite:
            raise TapeExhaustedError(
                f"finite tape of length {have} read at "
                f"position {length - 1}"
            )
        target = -(-length // _PREFILL_CHUNK) * _PREFILL_CHUNK
        assert self._rng is not None
        rng_random = self._rng.random
        self.values.extend(rng_random() for _ in range(target - have))


class TapeCollection:
    """The collection ``F``: one random tape per processor.

    Tapes are derived from a master seed with a splitmix-style decorrelation
    so that per-processor streams are independent, yet the whole collection
    is reproducible from one integer.
    """

    def __init__(self, n: int, master_seed: int = 0) -> None:
        if n <= 0:
            raise ValueError(f"need at least one processor, got n={n}")
        self.n = n
        self.master_seed = master_seed
        self._tapes = [
            RandomTape(seed=self._derive_seed(master_seed, pid))
            for pid in range(n)
        ]

    @staticmethod
    def _derive_seed(master_seed: int, pid: int) -> int:
        """Decorrelate per-processor seeds from the master seed."""
        mix = (master_seed * 0x9E3779B97F4A7C15 + pid * 0xBF58476D1CE4E5B9)
        return mix & 0xFFFFFFFFFFFFFFFF

    @classmethod
    def from_tapes(cls, tapes: Sequence[RandomTape]) -> "TapeCollection":
        """Wrap explicit tapes (used to build the finite seeds of Sec. 5)."""
        collection = cls.__new__(cls)
        collection.n = len(tapes)
        collection.master_seed = -1
        collection._tapes = list(tapes)
        if collection.n == 0:
            raise ValueError("a tape collection needs at least one tape")
        return collection

    def tape(self, pid: int) -> RandomTape:
        """Return processor ``pid``'s tape."""
        return self._tapes[pid]

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self._tapes)
