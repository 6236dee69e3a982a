"""Hypothesis property tests on the simulation kernel primitives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import summarize
from repro.sim.board import BulletinBoard
from repro.sim.message import RawPayload, ReceivedPayload
from repro.sim.rounds import RoundAnalyzer
from repro.sim.tape import RandomTape, TapeCollection
from tests.conftest import make_commit_simulation

QUICK = settings(max_examples=50, deadline=None)


class TestTapeProperties:
    @QUICK
    @given(seed=st.integers(0, 2**32 - 1), reads=st.integers(1, 100))
    def test_tape_values_in_unit_interval(self, seed, reads):
        tape = RandomTape(seed=seed)
        for _ in range(reads):
            assert 0.0 <= tape.next_step_value() < 1.0

    @QUICK
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 256))
    def test_flip_count_and_domain(self, seed, count):
        tape = RandomTape(seed=seed)
        tape.next_step_value()
        bits = tape.flip(count)
        assert len(bits) == count
        assert set(bits) <= {0, 1}

    @QUICK
    @given(
        master=st.integers(0, 2**31), n=st.integers(1, 16)
    )
    def test_collection_reproducibility(self, master, n):
        a = TapeCollection(n, master)
        b = TapeCollection(n, master)
        for pid in range(n):
            assert a.tape(pid).peek(3) == b.tape(pid).peek(3)


class TestBoardProperties:
    @QUICK
    @given(
        posts=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=60
        )
    )
    def test_counts_consistent_with_entries(self, posts):
        board = BulletinBoard()
        for sender, value in posts:
            board.post(
                ReceivedPayload(
                    sender=sender, payload=RawPayload(value), receive_clock=1
                )
            )
        assert len(board) == len(posts)
        everyone = board.count_matching(lambda p: True, distinct_senders=True)
        assert everyone == len({s for s, _ in posts})
        raw_count = board.count_matching(
            lambda p: True, distinct_senders=False
        )
        assert raw_count == len(posts)


class TestStatsProperties:
    @QUICK
    @given(
        samples=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200
        )
    )
    def test_summary_bounds(self, samples):
        import math

        summary = summarize(samples)
        # fmean can differ from the exact range bounds by one ulp.
        low = math.nextafter(summary.minimum, -math.inf)
        high = math.nextafter(summary.maximum, math.inf)
        assert low <= summary.mean <= high
        assert summary.ci_low <= summary.mean <= summary.ci_high
        assert summary.count == len(samples)


class TestRoundProperties:
    @QUICK
    @given(seed=st.integers(0, 500), K=st.integers(2, 8))
    def test_round_boundaries_monotone_and_spaced(self, seed, K):
        from repro.adversary.standard import OnTimeAdversary

        sim, _ = make_commit_simulation(
            [1] * 5, K=K, adversary=OnTimeAdversary(K=K, seed=seed), seed=seed
        )
        result = sim.run()
        analyzer = RoundAnalyzer(result.run.trial_record())
        for pid in range(5):
            ends = analyzer.boundaries(pid)
            assert ends[0] == 0
            assert ends[1] == K
            for previous, current in zip(ends, ends[1:]):
                assert current - previous >= K
