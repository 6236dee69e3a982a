"""Tests for the random tapes (the collection F)."""

import pytest

from repro.errors import TapeExhaustedError
from repro.sim.tape import RandomTape, TapeCollection


class TestRandomTape:
    def test_values_lie_in_unit_interval(self):
        tape = RandomTape(seed=1)
        for _ in range(100):
            assert 0.0 <= tape.next_step_value() < 1.0

    def test_same_seed_same_sequence(self):
        a = RandomTape(seed=42)
        b = RandomTape(seed=42)
        assert [a.next_step_value() for _ in range(50)] == [
            b.next_step_value() for _ in range(50)
        ]

    def test_different_seeds_differ(self):
        a = RandomTape(seed=1)
        b = RandomTape(seed=2)
        assert [a.next_step_value() for _ in range(10)] != [
            b.next_step_value() for _ in range(10)
        ]

    def test_position_advances(self):
        tape = RandomTape(seed=0)
        assert tape.position == 0
        tape.next_step_value()
        assert tape.position == 1

    def test_peek_does_not_consume(self):
        tape = RandomTape(seed=3)
        value = tape.peek(5)
        assert tape.position == 0
        for _ in range(5):
            tape.next_step_value()
        assert tape.next_step_value() == value

    def test_infinite_tape_reports_no_length(self):
        assert RandomTape(seed=0).length is None

    def test_finite_tape_from_values(self):
        tape = RandomTape.from_values([0.25, 0.5])
        assert tape.length == 2
        assert tape.next_step_value() == 0.25
        assert tape.next_step_value() == 0.5
        with pytest.raises(TapeExhaustedError):
            tape.next_step_value()

    def test_finite_tape_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            RandomTape.from_values([1.5])
        with pytest.raises(ValueError):
            RandomTape.from_values([-0.1])

    def test_flip_before_first_step_rejected(self):
        tape = RandomTape(seed=0)
        with pytest.raises(TapeExhaustedError):
            tape.flip(1)

    def test_flip_returns_bits(self):
        tape = RandomTape(seed=7)
        tape.next_step_value()
        bits = tape.flip(64)
        assert len(bits) == 64
        assert set(bits) <= {0, 1}

    def test_flip_deterministic_per_step(self):
        a = RandomTape(seed=9)
        b = RandomTape(seed=9)
        a.next_step_value()
        b.next_step_value()
        assert a.flip(32) == b.flip(32)

    def test_flip_bits_vary_across_steps(self):
        tape = RandomTape(seed=11)
        tape.next_step_value()
        first = tape.flip(64)
        tape.next_step_value()
        second = tape.flip(64)
        assert first != second

    def test_successive_flips_consume_distinct_bits(self):
        tape = RandomTape(seed=13)
        tape.next_step_value()
        first = tape.flip(1000)
        second = tape.flip(1000)
        # Overwhelmingly unlikely to coincide if truly distinct draws.
        assert first != second

    def test_per_step_bit_budget_enforced(self):
        tape = RandomTape(seed=5)
        tape.next_step_value()
        tape.flip(4096)
        with pytest.raises(TapeExhaustedError):
            tape.flip(1)

    def test_budget_resets_each_step(self):
        tape = RandomTape(seed=5)
        tape.next_step_value()
        tape.flip(4096)
        tape.next_step_value()
        assert len(tape.flip(10)) == 10

    def test_negative_flip_rejected(self):
        tape = RandomTape(seed=0)
        tape.next_step_value()
        with pytest.raises(ValueError):
            tape.flip(-1)

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 300])
    def test_advance_is_count_step_draws(self, count):
        stepped, skipped = RandomTape(seed=9), RandomTape(seed=9)
        stepped.next_step_value()
        skipped.next_step_value()
        for _ in range(count):
            stepped.next_step_value()
        skipped.advance(count)
        assert skipped.position == stepped.position
        assert [skipped.peek(i) for i in range(skipped.position)] == [
            stepped.peek(i) for i in range(stepped.position)
        ]
        assert skipped.flip(8) == stepped.flip(8)
        assert skipped.next_step_value() == stepped.next_step_value()

    @pytest.mark.parametrize("count", [1, 64, 300])
    def test_advance_draws_nothing_and_flip_reads_the_last_cell(self, count):
        stepped, skipped = RandomTape(seed=9), RandomTape(seed=9)
        for _ in range(count):
            stepped.next_step_value()
        skipped.advance(count)
        assert skipped.values == []
        assert skipped.flip(8) == stepped.flip(8)
        assert skipped.flip(8) == stepped.flip(8)
        assert skipped.next_step_value() == stepped.next_step_value()

    def test_advance_past_a_finite_tape_consumes_nothing(self):
        tape = RandomTape.from_values([0.5] * 3)
        with pytest.raises(TapeExhaustedError):
            tape.advance(4)
        assert tape.position == 0
        tape.advance(3)
        assert tape.position == 3


class TestTapeCollection:
    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            TapeCollection(0)

    def test_len_and_iter(self):
        tapes = TapeCollection(4, master_seed=1)
        assert len(tapes) == 4
        assert len(list(tapes)) == 4

    def test_per_processor_streams_are_decorrelated(self):
        tapes = TapeCollection(3, master_seed=0)
        streams = [
            [tapes.tape(pid).next_step_value() for _ in range(20)]
            for pid in range(3)
        ]
        assert streams[0] != streams[1]
        assert streams[1] != streams[2]

    def test_reproducible_from_master_seed(self):
        a = TapeCollection(3, master_seed=99)
        b = TapeCollection(3, master_seed=99)
        for pid in range(3):
            assert a.tape(pid).peek(10) == b.tape(pid).peek(10)

    def test_from_tapes_wraps_explicit_tapes(self):
        explicit = [RandomTape.from_values([0.1]), RandomTape.from_values([0.9])]
        tapes = TapeCollection.from_tapes(explicit)
        assert len(tapes) == 2
        assert tapes.tape(1).next_step_value() == 0.9

    def test_from_tapes_rejects_empty(self):
        with pytest.raises(ValueError):
            TapeCollection.from_tapes([])
