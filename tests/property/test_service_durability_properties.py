"""Property tests: durable before visible, at one sync per pass.

Three multi-transaction service nodes run on the virtual clock over
lossy, duplicating links the test owns, under Hypothesis-generated
traffic: client submissions (direct and as bus envelopes, some repeated),
state queries that make peers transfer decisions, snapshots.  The stores
model a disk's write cache (:meth:`MemoryWalStore.power_cut` loses what
was appended after the last sync), and every way a node can show
something to the outside goes through one checkpoint:

* **the durability rule** — no acknowledgement, message, state transfer,
  client reply or ``decisions()`` entry is observable while an appended
  record is unsynced, an acknowledged envelope is inside a surviving
  ``step`` record, and the store is synced once per pass that appended
  something;
* **the power-cut model** — cut the power at every pass boundary of one
  node: recovery succeeds, every acknowledged submission and envelope is
  still there, the replayed state is the last synced state, and no
  decision anyone saw is contradicted by a later incarnation.

Both checks are shown to bite on a node that sends ahead of its sync.
"""

import asyncio
import copy
import random
from dataclasses import dataclass

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.runtime.virtualtime import run_virtual
from repro.service.cluster import shard_configs
from repro.service.node import ServiceNode
from repro.service.recovery import replay
from repro.service.wal import MemoryWalStore, durable_records
from repro.service.wire import ServiceEnvelope

N, T, K = 3, 1, 4
TICK = 0.002
RUN_SECONDS = 0.15
DELAYS = (0.0003, 0.0007, 0.001, 0.0024)


class RecordingStore(MemoryWalStore):
    """Counts appends, and syncs apart from the compaction marker's."""

    def __init__(self):
        super().__init__()
        self.appended = 0
        self.pass_syncs = 0
        self._compacting = False

    def append_line(self, line):
        super().append_line(line)
        self.appended += 1

    def reset_log(self):
        self._compacting = True
        super().reset_log()

    def sync(self):
        super().sync()
        if self._compacting:
            self._compacting = False
        else:
            self.pass_syncs += 1


def surviving_records(store):
    """The records a power cut right now would leave."""
    after = copy.deepcopy(store)
    after.power_cut()
    return durable_records(after).records


class SendsAheadOfItsSync(ServiceNode):
    """The deliberately wrong order: nothing waits for the pass's sync."""

    def _send(self, recipient, envelope, attempt):
        self._send_raw(recipient, envelope, attempt)


class PowerCut(Exception):
    pass


@dataclass(frozen=True)
class Traffic:
    seed: int
    submits: tuple  # (at_ms, txn, as_envelope)
    queries: tuple  # (at_ms, asker, asked)
    snapshot_every: int
    drop: float
    duplicate: float
    commit_bias: float


@dataclass(frozen=True)
class Cut:
    """Cut the power at ``pid``'s ``at_pass``-th pass that appended
    something (a pass that appended nothing ends where the one before it
    did), before its sync or right after it."""

    pid: int
    at_pass: int
    before_sync: bool
    down_ms: float


traffic = st.builds(
    Traffic,
    seed=st.integers(0, 10_000),
    submits=st.lists(
        st.tuples(
            st.floats(0.0, 8.0), st.integers(1, 3), st.booleans()
        ),
        min_size=1,
        max_size=4,
    ).map(tuple),
    queries=st.lists(
        st.tuples(
            st.floats(0.0, 30.0), st.integers(0, N - 1), st.integers(0, N - 1)
        ),
        max_size=4,
    ).map(tuple),
    snapshot_every=st.sampled_from([0, 3]),
    drop=st.sampled_from([0.0, 0.1]),
    duplicate=st.sampled_from([0.0, 0.25]),
    commit_bias=st.sampled_from([1.0, 0.6]),
)


class Harness:
    """One cluster run; ``violations`` collects every broken promise."""

    def __init__(self, traffic, node_cls=ServiceNode, cut=None, stores=None):
        self.traffic = traffic
        self.node_cls = node_cls
        self.cut = cut
        self.configs = shard_configs(
            1, N, T, K, traffic.seed, commit_bias=traffic.commit_bias
        )
        self.stores = stores or [RecordingStore() for _ in range(N)]
        self.rng = random.Random(traffic.seed)
        self.nodes = {}
        self.runners = {}
        self.down = set()
        self.violations = []
        #: Per node, across incarnations: what it has shown to anyone.
        self.acked = [set() for _ in range(N)]
        self.accepted = set()
        self.seen = [{} for _ in range(N)]
        #: Passes that appended something: started, and synced.
        self.passes = [0] * N
        self.synced_passes = [0] * N
        self._appended_at_commit = [0] * N
        #: The mux digest when everything appended was last durable.
        self._digest_at_commit = [None] * N
        self._survivors = [None] * N
        self.cuts_done = 0

    # -- what survives, cached per sync ----------------------------------------

    def survivors(self, pid):
        store = self.stores[pid]
        key = (store.syncs, store.read_snapshot())
        cached = self._survivors[pid]
        if cached is None or cached[0] != key:
            applied, decided, submitted = set(), {}, set()
            for record in surviving_records(store):
                if record["type"] == "step":
                    applied.update(tuple(e[:3]) for e in record.get("batch", ()))
                elif record["type"] in ("decision", "close"):
                    decided[record.get("txn", 0)] = record["value"]
                elif record["type"] == "submit":
                    submitted.add(record.get("txn", 0))
            cached = (key, applied, decided, submitted)
            self._survivors[pid] = cached
        return cached[1:]

    # -- the checkpoint every observable effect passes ----------------------------

    def observe(self, pid, what, leaves_the_node=True):
        """``what`` is happening at ``pid``: something leaves the node (a
        send, a reply), or someone in the process reads its decisions."""
        store = self.stores[pid]
        if leaves_the_node and store.unsynced:
            self.violations.append(
                f"p{pid}: {what} with {store.unsynced} unsynced record(s)"
            )
        node = self.nodes.get(pid)
        if node is None or self.runners[pid].done():
            return  # a dead node's memory is nobody's to read
        for txn, value in node.decisions().items():
            if txn in self.seen[pid]:
                if self.seen[pid][txn] != value:
                    self.violations.append(
                        f"p{pid}: txn {txn} decided {self.seen[pid][txn]}, "
                        f"then {value}"
                    )
                continue
            self.seen[pid][txn] = value
            if self.survivors(pid)[1].get(txn) != value:
                self.violations.append(
                    f"p{pid}: decision {value} of txn {txn} visible at "
                    f"{what}, not durable"
                )

    def send_hook(self, pid):
        def send(recipient, envelope, attempt):
            self.observe(pid, f"send {envelope.kind} to p{recipient}")
            if envelope.kind == "ack":
                identity = (
                    recipient,
                    envelope.body["incarnation"],
                    envelope.body["seq"],
                )
                self.acked[pid].add(identity)
                if identity not in self.survivors(pid)[0]:
                    self.violations.append(
                        f"p{pid}: acked {identity}, in no surviving step record"
                    )
            roll = self.rng.random()
            if roll < self.traffic.drop:
                return
            copies = 2 if roll < self.traffic.drop + self.traffic.duplicate else 1
            loop = asyncio.get_running_loop()
            for _ in range(copies):
                loop.call_later(
                    self.rng.choice(DELAYS), self.deliver, recipient, envelope
                )

        return send

    def deliver(self, recipient, envelope):
        if recipient not in self.down and recipient in self.nodes:
            self.nodes[recipient].deliver(envelope)

    # -- node lifecycle -------------------------------------------------------------

    def spawn(self, pid):
        node = self.node_cls(
            self.configs[pid],
            self.stores[pid],
            self.send_hook(pid),
            tick_interval=TICK,
            fsync=True,
            snapshot_every=self.traffic.snapshot_every,
            seed=self.traffic.seed,
        )
        real_commit = node._commit
        store = self.stores[pid]

        def commit():
            if store.appended == self._appended_at_commit[pid]:
                return real_commit()
            cut = self.cut
            mine = cut is not None and cut.pid == pid and not self.cuts_done
            here = mine and cut.at_pass == self.passes[pid]
            self.passes[pid] += 1
            if here and cut.before_sync:
                raise PowerCut
            real_commit()
            self.synced_passes[pid] += 1
            self._appended_at_commit[pid] = store.appended
            if mine:
                self._digest_at_commit[pid] = node.mux.digest()
            if here:
                raise PowerCut

        real_snapshot = node._take_snapshot

        def take_snapshot():
            # A pass may go on stepping after a compaction: the snapshot
            # is then the last point at which everything was durable.
            real_snapshot()
            self._digest_at_commit[pid] = node.mux.digest()

        node._commit = commit
        node._take_snapshot = take_snapshot
        self.nodes[pid] = node
        runner = asyncio.ensure_future(node.run())
        runner.add_done_callback(lambda task: self.died(pid, task))
        self.runners[pid] = runner

    def died(self, pid, task):
        if task.cancelled() or not isinstance(task.exception(), PowerCut):
            return
        self.cuts_done += 1
        node = self.nodes.pop(pid)
        self.down.add(pid)
        store = self.stores[pid]
        expected_digest = (
            node.mux.digest() if not store.unsynced else self._digest_at_commit[pid]
        )
        store.power_cut()
        self._appended_at_commit[pid] = store.appended
        self.check_survivor(pid, expected_digest)
        asyncio.get_running_loop().call_later(
            self.cut.down_ms / 1e3, self.restart, pid
        )

    def restart(self, pid):
        self.down.discard(pid)
        self.spawn(pid)

    def check_survivor(self, pid, expected_digest):
        """What the next incarnation will find, against what this one showed."""
        records = durable_records(self.stores[pid]).records
        if not records:
            if self.acked[pid] or self.seen[pid] or (pid == 0 and self.accepted):
                self.violations.append(f"p{pid}: showed things, kept nothing")
            return
        replayed = replay(records, expect_config=self.configs[pid])
        if replayed.mux.digest() != expected_digest:
            self.violations.append(
                f"p{pid}: replay after the cut is not the last synced state"
            )
        for identity in self.acked[pid] - replayed.applied:
            self.violations.append(f"p{pid}: acked {identity}, lost by the cut")
        if pid == 0:
            for txn in self.accepted - replayed.submitted_txns:
                self.violations.append(
                    f"p0: submission of txn {txn} acknowledged, lost by the cut"
                )
        for txn, value in self.seen[pid].items():
            if replayed.decisions().get(txn) != value:
                self.violations.append(
                    f"p{pid}: showed decision {value} of txn {txn}, the cut "
                    f"left {replayed.decisions().get(txn)}"
                )

    # -- traffic -----------------------------------------------------------------------

    async def client_submit(self, txn):
        """What the TCP server does with a client's submit."""
        node = self.nodes.get(0)
        if node is None or not node.ready or self.runners[0].done():
            return
        try:
            node.submit_txn(txn)
            outcome = "accepted"
        except ServiceError:
            outcome = "rejected as a duplicate"
        # The reply is built here and written after the barrier: it shows
        # what is logged now, not what other clients append meanwhile.
        store = self.stores[0]
        logged = store.appended
        try:
            await node.durable()
        except asyncio.CancelledError:
            return  # the node died first: no reply
        if store.appended - store.unsynced < logged:
            self.violations.append(
                f"p0: client reply: txn {txn} {outcome}, ahead of its sync"
            )
        if txn not in self.survivors(0)[2]:
            self.violations.append(
                f"p0: replied that txn {txn} was {outcome}; no surviving "
                f"submit record"
            )
        self.accepted.add(txn)

    async def drive(self):
        loop = asyncio.get_running_loop()
        for pid in range(N):
            self.spawn(pid)
        clients = []
        events = [(at, "submit", txn, flag) for at, txn, flag in self.traffic.submits]
        events += [(at, "query", a, b) for at, a, b in self.traffic.queries]
        for at, kind, first, second in sorted(events):
            await asyncio.sleep(max(0.0, at / 1e3 - loop.time()))
            if kind == "query":
                if first != second:
                    self.deliver(
                        second,
                        ServiceEnvelope(kind="state-query", sender=first),
                    )
            elif second:
                self.deliver(
                    0,
                    ServiceEnvelope(
                        kind="submit", sender=-1, body={"txn": first}
                    ),
                )
            else:
                clients.append(asyncio.ensure_future(self.client_submit(first)))
        while loop.time() < RUN_SECONDS:
            await asyncio.sleep(TICK / 2)
            for pid in range(N):
                self.observe(pid, "decisions() read", leaves_the_node=False)
        for node in self.nodes.values():
            node.halt()
        await asyncio.gather(*clients, *self.runners.values(), return_exceptions=True)

    def run(self):
        run_virtual(self.drive())
        for pid in range(N):
            if self.stores[pid].pass_syncs != self.synced_passes[pid]:
                self.violations.append(
                    f"p{pid}: {self.stores[pid].pass_syncs} syncs for "
                    f"{self.synced_passes[pid]} passes that appended"
                )
        finals = [
            self.nodes[pid].decisions() if pid in self.nodes else {}
            for pid in range(N)
        ]
        for pid in range(N):
            for txn, value in self.seen[pid].items():
                for other, final in enumerate(finals):
                    if final.get(txn, value) != value:
                        self.violations.append(
                            f"txn {txn}: p{pid} showed {value}, p{other} "
                            f"ends with {final[txn]}"
                        )
        return self


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(traffic=traffic)
def test_nothing_is_visible_before_its_sync_and_each_pass_syncs_once(traffic):
    harness = Harness(traffic).run()
    assert harness.violations == []
    assert all(store.pass_syncs > 0 for store in harness.stores)
    if traffic.drop == 0.0:
        # Not vacuous: on clean links everything submitted is decided
        # everywhere, and shown.
        submitted = {txn for _at, txn, _flag in traffic.submits}
        assert all(set(seen) == submitted for seen in harness.seen)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    traffic=traffic,
    victim=st.integers(0, N - 1),
    before_sync=st.booleans(),
    down_ms=st.sampled_from([1.0, 20.0]),
)
def test_power_cut_at_every_pass_boundary_loses_nothing_shown(
    traffic, victim, before_sync, down_ms
):
    passes = Harness(traffic).run().passes[victim]
    assert passes > 2
    for at_pass in range(passes):
        cut = Cut(victim, at_pass, before_sync, down_ms)
        harness = Harness(traffic, cut=cut).run()
        assert harness.cuts_done == 1, cut
        assert harness.violations == [], cut
        assert harness.nodes[victim].recovered or at_pass == 0, cut


LOSSLESS = Traffic(
    seed=7,
    submits=((0.0, 1, False), (1.0, 2, True)),
    queries=(),
    snapshot_every=0,
    drop=0.0,
    duplicate=0.0,
    commit_bias=1.0,
)


def test_the_rule_check_catches_a_node_that_sends_ahead_of_its_sync():
    right = Harness(LOSSLESS).run()
    assert right.violations == []
    wrong = Harness(LOSSLESS, node_cls=SendsAheadOfItsSync).run()
    assert any("send ack" in v and "unsynced" in v for v in wrong.violations)
    assert any("in no surviving step record" in v for v in wrong.violations)


def test_the_power_cut_check_catches_a_node_that_sends_ahead_of_its_sync():
    """Some cut lands between an ack and the sync it ran ahead of."""
    passes = Harness(LOSSLESS, node_cls=SendsAheadOfItsSync).run().passes[1]
    for at_pass in range(passes):
        cut = Cut(pid=1, at_pass=at_pass, before_sync=True, down_ms=1.0)
        harness = Harness(LOSSLESS, node_cls=SendsAheadOfItsSync, cut=cut).run()
        if any("lost by the cut" in v for v in harness.violations):
            return
    raise AssertionError("no cut exposed the early acknowledgements")
