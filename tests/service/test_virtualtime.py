"""Virtual-clock event loop: fast-forward semantics and determinism."""

import asyncio
import time

from repro.service.virtualtime import VirtualClockEventLoop, run_virtual


class TestFastForward:
    def test_sleeps_cost_no_wall_clock(self):
        async def long_nap():
            await asyncio.sleep(60.0)
            return asyncio.get_running_loop().time()

        start = time.monotonic()
        virtual_end = run_virtual(long_nap())
        elapsed = time.monotonic() - start
        assert virtual_end >= 60.0
        assert elapsed < 5.0

    def test_timers_fire_in_order(self):
        fired = []

        async def schedule():
            loop = asyncio.get_running_loop()
            loop.call_later(0.3, fired.append, "c")
            loop.call_later(0.1, fired.append, "a")
            loop.call_later(0.2, fired.append, "b")
            await asyncio.sleep(1.0)

        run_virtual(schedule())
        assert fired == ["a", "b", "c"]

    def test_concurrent_sleepers_interleave(self):
        order = []

        async def sleeper(name, delay):
            await asyncio.sleep(delay)
            order.append(name)

        async def main():
            await asyncio.gather(
                sleeper("slow", 0.5),
                sleeper("fast", 0.1),
                sleeper("mid", 0.3),
            )

        run_virtual(main())
        assert order == ["fast", "mid", "slow"]

    def test_wait_for_timeout_fires(self):
        async def main():
            try:
                await asyncio.wait_for(asyncio.sleep(10.0), timeout=0.5)
            except asyncio.TimeoutError:
                return "timed out"
            return "slept"

        assert run_virtual(main()) == "timed out"


class TestDeterminism:
    def test_same_program_same_virtual_trace(self):
        async def busy():
            loop = asyncio.get_running_loop()
            stamps = []
            for delay in (0.05, 0.2, 0.01):
                await asyncio.sleep(delay)
                stamps.append(loop.time())
            return stamps

        assert run_virtual(busy()) == run_virtual(busy())

    def test_fresh_loops_start_at_zero(self):
        loop_a = VirtualClockEventLoop()
        loop_b = VirtualClockEventLoop()
        try:
            assert isinstance(loop_a, VirtualClockEventLoop)
            assert loop_a is not loop_b
            assert loop_a.time() == 0.0
        finally:
            loop_a.close()
            loop_b.close()
