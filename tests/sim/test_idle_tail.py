"""Parked runs finish to the horizon without being stepped, on both kernels.

A run is parked (:mod:`repro.sim.parking`) when nothing it holds can
change any more; both kernels then write the rest of its events per
processor (``Simulation._finish_parked``, ``fastcore._finish_parked``)
instead of stepping them.  Every test here runs each trial twice on the
same kernel, once as shipped and once with the parked test patched off,
so that every event is stepped, and requires the two to be equal: the
campaign record, the rows, the ``Run``, the ``RunMetrics``, the horizon
warning, every process's clock and the stream its tape handed out, and
the adversary's cycle bookkeeping and rng.  The negative cases hold a
blocker (a pending timeout, a partitioned envelope, a late crash, an
adversary that decides for itself, a finite tape) and require the cut
to wait for it.
"""

import logging
import random

import pytest

from repro.adversary.base import CrashAt, CycleAdversary, DeliveryPolicy
from repro.errors import TapeExhaustedError
from repro.faults.campaign import (
    CampaignConfig,
    case_from_config,
    run_campaign_trial,
    sim_track_adversary,
)
from repro.faults.variants import make_programs
from repro.models import model_names, resolve_model
from repro.sim import fastcore, parking
from repro.sim.coreselect import _reference_metrics, set_default_sim_core
from repro.sim.message import RawPayload
from repro.sim.process import Program
from repro.sim.scheduler import Outcome, Simulation
from repro.sim.tape import RandomTape, TapeCollection
from repro.sim.waits import ClockAtLeast, MessageCount, WithTimeout

KERNELS = ("reference", "fast")

#: A short horizon keeps the stepped runs cheap; a parked run reaches it
#: all the same.
MAX_STEPS = 3_000


def _draw_cases(count=14, seed=5):
    """Campaign cases with n from 3 to 7, within and over budget, under
    every timing model of the zoo."""
    rng = random.Random(seed)
    models = model_names()
    cases = []
    for index in range(count):
        config = CampaignConfig(
            n=3 + index % 5,
            plans=1,
            tracks=("sim",),
            max_steps=MAX_STEPS,
            over_budget_fraction=(index // 2) % 2,
            model=models[index % len(models)],
        )
        cases.append((config, rng.randrange(10_000)))
    return cases


CASES = _draw_cases()


class ParkedSpy:
    """Stands in for the parked test in both kernels.

    ``cuts`` collects the clocks of every state the test cut; with
    ``stepping`` set it answers no, so every event goes through the loop.
    """

    def __init__(self):
        self.cuts = []
        self.stepping = False

    def __call__(self, processes, buffers, crashes_left):
        if self.stepping:
            return False
        verdict = PARKED(processes, buffers, crashes_left)
        if verdict:
            self.cuts.append([process.clock for process in processes])
        return verdict


PARKED = parking.parked


@pytest.fixture
def spy(monkeypatch):
    spy = ParkedSpy()
    monkeypatch.setattr(parking, "parked", spy)
    monkeypatch.setattr(fastcore, "parked", spy)
    return spy


def _tape_state(tape):
    """The stream a tape has handed out: its position and every cell
    before it.  Which cells are materialised is the tape's own cache
    (``RandomTape.advance`` draws none), so it is not compared."""
    return (tape.position, [tape.peek(i) for i in range(tape.position)])


def _adversary_state(adversary):
    return (
        adversary._cycle,
        list(adversary._queue),
        list(adversary._event_cycles),
        list(adversary._pending_crashes),
        adversary.rng.getstate(),
        dict(getattr(adversary.delivery, "_holds", {})),
    )


def _warnings(caplog):
    return [
        record.getMessage()
        for record in caplog.records
        if record.levelno >= logging.WARNING
    ]


def _reference_state(programs, adversary, K, t, seed, caplog, **kwargs):
    caplog.clear()
    simulation = Simulation(
        programs, adversary, K=K, t=t, seed=seed, max_steps=MAX_STEPS, **kwargs
    )
    outcome = simulation.execute()
    return {
        "outcome": outcome,
        "events": simulation.event_count,
        "rows": list(simulation.event_rows()),
        "run": simulation.result().run,
        "metrics": _reference_metrics(simulation, programs),
        "warnings": _warnings(caplog),
        "processes": [
            (process.clock, process.status, _tape_state(process.tape))
            for process in simulation.processes
        ],
        "step_events": simulation._pid_step_events,
        "adversary": _adversary_state(adversary),
    }


def _envelope_state(env):
    return tuple(getattr(env, name) for name in fastcore._FastEnv.__slots__)


def _sweep_state(programs, adversary, K, t, seed, caplog):
    caplog.clear()
    swept = fastcore.sweep_run(programs, adversary, K, t, seed, MAX_STEPS)
    processes, crashed, envelopes, pid_steps, events, terminated = swept
    return {
        "terminated": terminated,
        "events": events,
        "crashed": crashed,
        "envelopes": [_envelope_state(env) for env in envelopes],
        "pid_steps": pid_steps,
        "metrics": fastcore.sweep_metrics(programs, *swept, K),
        "warnings": _warnings(caplog),
        "processes": [
            (process.clock, process.status, _tape_state(process.tape))
            for process in processes
        ],
        "adversary": _adversary_state(adversary),
    }


def _kernel_state(kernel, case, caplog):
    programs = make_programs(case.program, case.n, case.t, case.votes, case.K)
    adversary = sim_track_adversary(case)
    run = _reference_state if kernel == "reference" else _sweep_state
    return run(programs, adversary, case.K, case.t, case.seed, caplog)


@pytest.fixture
def core():
    def select(kernel):
        set_default_sim_core(kernel)

    yield select
    set_default_sim_core(None)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "config,seed",
    CASES,
    ids=[f"n{c.n}-over{c.over_budget_fraction:g}-{c.model}-s{s}" for c, s in CASES],
)
def test_parked_cut_equals_stepping(kernel, config, seed, spy, core, caplog):
    case = case_from_config(config, seed)
    cut = _kernel_state(kernel, case, caplog)
    core(kernel)
    cut_record = run_campaign_trial(config, seed)
    parked_here = bool(spy.cuts)

    spy.stepping = True
    stepped = _kernel_state(kernel, case, caplog)
    stepped_record = run_campaign_trial(config, seed)

    assert cut_record == stepped_record
    assert cut == stepped
    if kernel == "reference":
        horizon = cut["outcome"] is Outcome.HORIZON
    else:
        horizon = not cut["terminated"]
    if not horizon:
        assert not parked_here
    if parked_here:
        assert cut["events"] == MAX_STEPS
        assert cut["warnings"] and "step horizon" in cut["warnings"][0]


@pytest.mark.parametrize("kernel", KERNELS)
def test_over_budget_horizon_trials_park(kernel, spy, core):
    """The cut is not vacuous: every over-budget horizon trial drawn
    here parks, and a within-budget plan never does.  A model that drops
    messages for good (round-closed) leaves them pending, which holds
    the cut, so its trials are stepped to the horizon."""
    core(kernel)
    horizons = 0
    for config, seed in CASES:
        if not (
            config.over_budget_fraction
            and resolve_model(config.model).preserves_eventual_delivery
        ):
            continue
        del spy.cuts[:]
        record = run_campaign_trial(config, seed)
        if record["tracks"]["sim"]["outcome"] != "terminated":
            horizons += 1
            assert spy.cuts, (config, seed)
    assert horizons >= 3
    del spy.cuts[:]
    within = CampaignConfig(
        n=5, plans=1, tracks=("sim",), max_steps=MAX_STEPS,
        over_budget_fraction=0.0,
    )
    for seed in range(4):
        run_campaign_trial(within, seed)
    assert not spy.cuts


# ---------------------------------------------------------------------------
# Negative cases: a blocker holds the cut until it clears
# ---------------------------------------------------------------------------


def _never(_payload):
    return False


def _is_hello(payload):
    return isinstance(payload, RawPayload) and payload.data == "hello"


class HelloThenBlock(Program):
    """Broadcast once, wait for everyone's hello, then wait forever."""

    def run(self):
        self.broadcast(RawPayload("hello"))
        yield MessageCount(_is_hello, self.n)
        yield MessageCount(_never, 1)


class TimeoutThenBlock(Program):
    """Time out on a message that never comes, broadcast, wait forever."""

    TICKS = 150

    def run(self):
        yield WithTimeout(MessageCount(_never, 1), ticks=self.TICKS)
        self.broadcast(RawPayload("late"))
        yield MessageCount(_never, 1)


class LinkDownUntil(DeliveryPolicy):
    """Withholds 0 -> 1 until ``cycle``; delivers everything else."""

    def __init__(self, cycle):
        super().__init__()
        self.until = cycle

    def blocked(self, sender, recipient, cycle):
        return (sender, recipient) == (0, 1) and cycle < self.until


class DecidesItself(CycleAdversary):
    """Overrides ``decide`` (identically), which rules out the cut."""

    def decide(self, view):
        return super().decide(view)


class DrawsEveryStep(DeliveryPolicy):
    """Overrides ``select`` to draw from the adversary's rng at every step."""

    def select(self, view, pid, pending, ctx):
        ctx.rng.random()
        return super().select(view, pid, pending, ctx)


class ReturnAtClock(Program):
    """Sends nothing and returns at clock 3: a run that ends quietly."""

    def run(self):
        yield ClockAtLeast(3)


def _programs(cls, n):
    return [cls(pid=pid, n=n) for pid in range(n)]


def _both_ways(kernel, make, spy, caplog):
    """(cut, stepped) states of the trial ``make()`` builds."""
    states = []
    for stepping in (False, True):
        spy.stepping = stepping
        programs, adversary = make()
        run = _reference_state if kernel == "reference" else _sweep_state
        states.append(run(programs, adversary, 4, 1, 3, caplog))
    return states


@pytest.mark.parametrize("kernel", KERNELS)
def test_pending_timeout_holds_the_cut(kernel, spy, caplog):
    make = lambda: (_programs(TimeoutThenBlock, 4), CycleAdversary(seed=1))
    cut, stepped = _both_ways(kernel, make, spy, caplog)
    assert cut == stepped
    assert spy.cuts and min(spy.cuts[0]) > TimeoutThenBlock.TICKS


@pytest.mark.parametrize("kernel", KERNELS)
def test_partitioned_envelope_holds_the_cut(kernel, spy, caplog):
    reopen = 200
    make = lambda: (
        _programs(HelloThenBlock, 4),
        CycleAdversary(seed=1, delivery=LinkDownUntil(reopen)),
    )
    cut, stepped = _both_ways(kernel, make, spy, caplog)
    assert cut == stepped
    assert spy.cuts and min(spy.cuts[0]) >= reopen


@pytest.mark.parametrize("kernel", KERNELS)
def test_late_crash_entry_holds_the_cut(kernel, spy, caplog):
    late = 300
    make = lambda: (
        _programs(HelloThenBlock, 4),
        CycleAdversary(seed=1, crash_plan=[CrashAt(pid=2, cycle=late)]),
    )
    cut, stepped = _both_ways(kernel, make, spy, caplog)
    assert cut == stepped
    # The crashed processor's clock stops one short of the crash cycle.
    assert spy.cuts and max(spy.cuts[0]) >= late


def test_adversary_that_decides_is_never_cut(spy, caplog):
    make = lambda: (_programs(HelloThenBlock, 4), DecidesItself(seed=1))
    cut, stepped = _both_ways("reference", make, spy, caplog)
    assert cut == stepped
    assert cut["outcome"] is Outcome.HORIZON
    assert not spy.cuts


def test_policy_that_selects_for_itself_is_never_cut(spy, caplog):
    make = lambda: (
        _programs(HelloThenBlock, 4),
        CycleAdversary(seed=1, delivery=DrawsEveryStep()),
    )
    cut, stepped = _both_ways("reference", make, spy, caplog)
    assert cut == stepped
    assert not spy.cuts


@pytest.mark.parametrize("kernel", KERNELS)
def test_quiet_run_that_terminates_is_not_cut(kernel, spy, caplog):
    make = lambda: (_programs(ReturnAtClock, 4), CycleAdversary(seed=1))
    cut, stepped = _both_ways(kernel, make, spy, caplog)
    assert cut == stepped
    assert cut["events"] == 4 * 3
    assert not spy.cuts


def test_finite_tape_runs_out_at_the_same_event(spy):
    """The cut finds where a finite tape runs out from the tapes'
    remaining cells, so it raises at the event stepping would have
    reached, with the state stepping leaves."""
    n, length = 4, 500

    def attempt():
        tapes = TapeCollection.from_tapes(
            [
                RandomTape.from_values([(pid + 1) / 10] * length)
                for pid in range(n)
            ]
        )
        simulation = Simulation(
            _programs(HelloThenBlock, n),
            CycleAdversary(seed=1),
            K=4,
            t=1,
            tapes=tapes,
            max_steps=MAX_STEPS,
        )
        with pytest.raises(TapeExhaustedError) as raised:
            simulation.execute()
        return (
            str(raised.value),
            simulation.event_count,
            list(simulation.event_rows()),
            [process.clock for process in simulation.processes],
            _adversary_state(simulation.adversary),
        )

    cut = attempt()
    assert spy.cuts
    spy.stepping = True
    assert cut == attempt()
    assert cut[1] == n * length


@pytest.mark.parametrize("lengths", [(520, 505, 530, 510), (700, 700, 700, 650)])
def test_the_shortest_finite_tape_stops_the_cut_mid_cycle(spy, lengths):
    """Tapes of different lengths: the one that runs out first, at any
    offset in the cycle, raises where stepping raises, with the same
    rows, clocks, tape positions and adversary state."""

    def attempt():
        tapes = TapeCollection.from_tapes(
            [
                RandomTape.from_values([(pid + 1) / 10] * length)
                for pid, length in enumerate(lengths)
            ]
        )
        simulation = Simulation(
            _programs(HelloThenBlock, len(lengths)),
            CycleAdversary(seed=1),
            K=4,
            t=1,
            tapes=tapes,
            max_steps=MAX_STEPS,
        )
        with pytest.raises(TapeExhaustedError) as raised:
            simulation.execute()
        return (
            str(raised.value),
            simulation.event_count,
            list(simulation.event_rows()),
            [
                (process.clock, process.tape.position)
                for process in simulation.processes
            ],
            _adversary_state(simulation.adversary),
        )

    cut = attempt()
    assert spy.cuts
    spy.stepping = True
    assert cut == attempt()
    assert cut[1] < MAX_STEPS

def test_reference_cut_draws_no_tape_cells(spy, monkeypatch):
    """Once the reference kernel cuts a parked run it reads no tape: each
    position moves by ``RandomTape.advance``, which draws no cells."""
    calls = []
    step_value = RandomTape.next_step_value

    def counting(tape):
        calls.append(tape)
        return step_value(tape)

    monkeypatch.setattr(RandomTape, "next_step_value", counting)
    simulation = Simulation(
        _programs(HelloThenBlock, 4),
        CycleAdversary(seed=1),
        K=4,
        t=1,
        seed=3,
        max_steps=MAX_STEPS,
    )
    at_cut = []
    finish = simulation._finish_parked

    def noting():
        at_cut.append(
            (len(calls), [len(tape.values) for tape in simulation.tapes])
        )
        finish()

    simulation._finish_parked = noting
    assert simulation.execute() is Outcome.HORIZON
    assert spy.cuts and at_cut
    calls_at_cut, drawn_at_cut = at_cut[0]
    assert 0 < calls_at_cut == len(calls)
    assert [len(tape.values) for tape in simulation.tapes] == drawn_at_cut
    assert simulation.event_count == MAX_STEPS
