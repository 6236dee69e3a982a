"""Trace-pinning tests for the batched tape generator.

The tape's contract is that batching is purely an implementation
detail: the value stream must be cell-for-cell the one
``random.Random(seed)`` produces, for every seed.
"""

import random

import pytest

from repro.errors import TapeExhaustedError
from repro.sim.tape import RandomTape, TapeCollection

#: Cells a long read covers: many prefill batches.
LONG_TAPE = 2048

#: Single- and multi-word seeds (either side of 2**32) plus a
#: TapeCollection-derived seed and the splitmix constant itself.
PIN_SEEDS = [
    0,
    1,
    7,
    2**32 - 1,
    2**32,
    2**32 + 9,
    2**40 + 123,
    0x9E3779B97F4A7C15,
    TapeCollection._derive_seed(42, 3),
]


class TestStreamPinning:
    @pytest.mark.parametrize("seed", PIN_SEEDS)
    def test_long_stream_matches_stdlib(self, seed):
        # Read across many prefill batches; the stream must not fork at
        # a batch boundary.
        count = LONG_TAPE + 500
        tape = RandomTape(seed=seed)
        reference = random.Random(seed)
        expected = [reference.random() for _ in range(count)]
        assert [tape.next_step_value() for _ in range(count)] == expected

    @pytest.mark.parametrize("seed", [5, 2**32 + 5])
    def test_peek_then_read_matches_stdlib(self, seed):
        # Peeking materialises a prefix ahead of the read position; later
        # batches must extend it, not replay it.
        tape = RandomTape(seed=seed)
        reference = random.Random(seed)
        expected = [reference.random() for _ in range(LONG_TAPE + 100)]
        assert tape.peek(10) == expected[10]
        values = [
            tape.next_step_value() for _ in range(LONG_TAPE + 100)
        ]
        assert values == expected

    def test_flip_unchanged_by_batching(self):
        a = RandomTape(seed=2**33 + 1)
        b = random.Random(2**33 + 1)
        for _ in range(5):
            value = a.next_step_value()
            assert value == b.random()
            bits = a.flip(16)
            expander = random.Random(value.hex())
            assert bits == [expander.getrandbits(1) for _ in range(16)]


class TestFiniteTapesUnchanged:
    def test_finite_exhaustion_still_raises(self):
        tape = RandomTape.from_values([0.25, 0.5])
        tape.next_step_value()
        tape.next_step_value()
        with pytest.raises(TapeExhaustedError):
            tape.next_step_value()

    def test_finite_values_returned_verbatim(self):
        values = [0.125, 0.625, 0.875]
        tape = RandomTape.from_values(values)
        assert [tape.next_step_value() for _ in range(3)] == values
