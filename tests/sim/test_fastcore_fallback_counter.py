"""The ``sim_fastcore_fallbacks_total`` counter and the rule behind it.

The fused sweep replicates any fresh stock ``CycleAdversary`` whose
delivery policy keeps to the hold contract, i.e. does not override
``DeliveryPolicy.select``.  That rule *is* the whitelist: there is no
list of classes.  The counter pins two regression guarantees —

* on-contract trials (realistic plan-compiled adversaries and every zoo
  model) NEVER increment it, and an active telemetry registry keeps
  them on the fused sweep; only a span recorder forces them off it,
  deliberately and uncounted (spans are built from the ``Run``);
* a policy that overrides ``select`` increments it once per trial,
  labelled by adversary class.

Deleted with PR 15: ``test_model_adversaries_counted_per_trial``, which
asserted that ``granular`` / ``random-async`` / ``round-closed`` trials
were counted once each.  That behaviour went away — those policies now
run on the sweep — and ``test_zoo_models_never_increment`` pins the
opposite.
"""

import pytest

from repro.adversary.base import CycleAdversary, DelayCycles, DeliveryPolicy
from repro.analysis.montecarlo import CommitTrialConfig, run_commit_trial
from repro.engine.seeds import MODEL_TIMING_STREAM, derive
from repro.faults.plan import FaultPlan
from repro.faults.sim_compile import compile_to_adversary
from repro.models import resolve_model, set_default_timing_model
from repro.sim.coreselect import set_default_sim_core
from repro.sim.fastcore import adversary_sweep_supported, sweep_gate
from repro.telemetry import registry as telemetry
from repro.trace import spans as trace_spans

N, T, K = 5, 2, 4

COUNTER = "sim_fastcore_fallbacks_total"

ZOO = ["granular", "random-async", "round-closed"]


class _SlowerDelays(DelayCycles):
    """Overrides ``hold`` only: still on the contract."""

    def hold(self, sender, recipient, send_cycle, rng):
        return super().hold(sender, recipient, send_cycle, rng) + (sender % 2)


class _OldestFirst(DeliveryPolicy):
    """Overrides ``select``: only the reference path knows what it does."""

    def select(self, view, pid, pending, ctx):
        return tuple(m.message_id for m in pending[:1])


@pytest.fixture
def metrics():
    registry = telemetry.enable_telemetry()
    registry.reset()
    yield registry
    registry.reset()
    telemetry.disable_telemetry()


@pytest.fixture(autouse=True)
def _reset_ambient():
    set_default_timing_model(None)
    set_default_sim_core(None)
    yield
    set_default_timing_model(None)
    set_default_sim_core(None)


def _config(adversary_factory):
    return CommitTrialConfig(
        votes=[1] * N,
        adversary_factory=adversary_factory,
        t=T,
        K=K,
        max_steps=2_000,
    )


def _realistic_config():
    return _config(
        lambda seed: compile_to_adversary(
            FaultPlan.random(n=N, t=T, seed=seed, K=K), K=K
        )
    )


def _model_config(model_name):
    model = resolve_model(model_name)
    return _config(
        lambda seed: model.compile_plan(
            FaultPlan.random(n=N, t=T, seed=seed, K=K),
            K=K,
            seed=derive(seed, MODEL_TIMING_STREAM),
        )
    )


def _policy_config(policy_factory):
    return _config(
        lambda seed: CycleAdversary(seed=seed, delivery=policy_factory())
    )


def _counter_total(registry):
    snapshot = registry.snapshot()
    if COUNTER not in snapshot:
        return 0
    return sum(s["value"] for s in snapshot[COUNTER]["samples"])


class TestWhitelistedNeverCounted:
    def test_plan_compiled_adversary_is_whitelisted(self):
        adversary = _realistic_config().adversary_factory(0)
        assert adversary_sweep_supported(adversary)

    def test_whitelisted_trials_never_increment(self, metrics):
        config = _realistic_config()
        for seed in range(5):
            run_commit_trial(config, seed, core="fast")
        assert _counter_total(metrics) == 0
        assert COUNTER not in metrics.snapshot()

    def test_registry_keeps_trials_on_the_sweep(self, metrics):
        # Counters are recorded from the finished trial on either
        # kernel, so an active registry is no reason to decline.
        adversary = _realistic_config().adversary_factory(0)
        assert sweep_gate(adversary)
        assert COUNTER not in metrics.snapshot()

    def test_span_fallback_is_not_a_whitelist_fallback(self, metrics):
        # An active span recorder forces these trials off the fused
        # sweep — deliberately, and deliberately uncounted.
        adversary = _realistic_config().adversary_factory(0)
        assert adversary_sweep_supported(adversary)
        trace_spans.enable_tracing()
        try:
            assert not sweep_gate(adversary)
        finally:
            trace_spans.disable_tracing()
        assert COUNTER not in metrics.snapshot()

    @pytest.mark.parametrize("model_name", ZOO)
    def test_zoo_models_never_increment(self, metrics, model_name):
        config = _model_config(model_name)
        assert adversary_sweep_supported(config.adversary_factory(0))
        for seed in range(3):
            run_commit_trial(config, seed, core="fast")
        assert COUNTER not in metrics.snapshot()

    @pytest.mark.parametrize("model_name", ZOO)
    def test_ambient_model_on_fast_core_never_increments(
        self, metrics, model_name
    ):
        # The `--sim-core fast --model <zoo>` route: run_commit_trial
        # re-times a stock adversary under the ambient model.
        from repro.adversary.standard import OnTimeAdversary

        set_default_sim_core("fast")
        set_default_timing_model(model_name)
        config = _config(lambda seed: OnTimeAdversary(K=K, seed=seed))
        for seed in range(3):
            run_commit_trial(config, seed)
        assert COUNTER not in metrics.snapshot()

    @pytest.mark.parametrize("model_name", ["realistic", *ZOO])
    def test_200_seeds_match_reference(self, model_name):
        config = _model_config(model_name)
        for seed in range(200):
            assert adversary_sweep_supported(config.adversary_factory(seed))
            fast = run_commit_trial(config, seed, core="fast")
            assert fast == run_commit_trial(
                config, seed, core="reference"
            ), (model_name, seed)

    def test_hold_override_stays_on_the_sweep(self):
        config = _policy_config(lambda: _SlowerDelays(1, 3))
        assert adversary_sweep_supported(config.adversary_factory(0))
        for seed in range(20):
            fast = run_commit_trial(config, seed, core="fast")
            assert fast == run_commit_trial(config, seed, core="reference")

    def test_hold_override_never_increments(self, metrics):
        config = _policy_config(lambda: _SlowerDelays(1, 3))
        run_commit_trial(config, 0, core="fast")
        assert COUNTER not in metrics.snapshot()


class TestOffWhitelistCounted:
    def test_select_override_is_off_the_sweep(self):
        adversary = _policy_config(_OldestFirst).adversary_factory(0)
        assert not adversary_sweep_supported(adversary)

    def test_select_override_counted(self, metrics):
        # Once per trial, labelled by adversary class.
        config = _policy_config(_OldestFirst)
        trials = 3
        for seed in range(trials):
            run_commit_trial(config, seed, core="fast")
        assert _counter_total(metrics) == trials
        [sample] = metrics.snapshot()[COUNTER]["samples"]
        assert sample["labels"] == {"adversary": "CycleAdversary"}

    def test_select_override_still_matches_the_reference(self):
        config = _policy_config(_OldestFirst)
        for seed in range(5):
            fast = run_commit_trial(config, seed, core="fast")
            assert fast == run_commit_trial(config, seed, core="reference")

    def test_disabled_telemetry_records_nothing(self):
        assert not telemetry.enabled()
        run_commit_trial(_policy_config(_OldestFirst), 0, core="fast")
        assert not telemetry.enabled()
