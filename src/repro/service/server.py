"""The TCP face of a service node: one OS process per processor.

Deployment layout: node ``p`` of an ``n``-node cluster is one process
(`repro service start`) listening on ``base_port + p``, with its WAL and
snapshot in ``<data_dir>/node<p>/``.

**Peer channels.**  Peers exchange newline-framed
:class:`~repro.service.wire.ServiceEnvelope` lines over one long-lived
outbound stream per peer.  The node is handed ``send(recipient,
envelope, attempt)`` and never sees a socket; behind it:

* the stream is opened lazily by the first send, with at most one
  connect in flight per peer.  Lines queued meanwhile ride the first
  write; if the connect fails they are dropped transmissions;
* every line one node step produces for one peer (its acks, and the
  messages its retransmit tasks send in the following event-loop pass)
  leaves in one ``write``;
* the sender watches the stream's read side (peers never write on it),
  so a SIGKILLed peer's EOF/RST tears the channel down at once instead
  of losing later writes silently.  Whatever was still buffered is a
  dropped transmission;
* nothing buffers without bound: a send that would take a channel's
  queued-plus-unwritten bytes past :data:`CHANNEL_BUFFER_CAP` is
  dropped and counted (``service_channel_drops_total``);
* a returning peer ends retransmission back-off at once.  A channel
  whose connect failed or whose stream was torn down marks its peer
  lost; the first envelope that peer sends on a newly accepted
  connection (its hello), or a reconnect of ours that succeeds,
  whichever comes first, calls
  :meth:`~repro.service.node.ServiceNode.peer_returned` once, which
  re-sends every envelope that peer has not acknowledged.

Every kind of drop is covered the same way as on the in-memory bus: the
node-level retry-until-acked loop (:mod:`repro.service.node`) is the
reliability layer, so a peer that is down (killed, restarting) catches
up when it returns.  The inbound side reads any number of lines per
connection, so a sender that writes one line and closes is still served.

Clients (``repro service submit|status``) speak the same envelope
framing with ``sender = -1`` and get an inline reply on the same
connection, once the node's log is synced (a reply may reveal what the
log could still lose, see
:meth:`~repro.service.node.ServiceNode.durable`).  A reply costs what
the node's open work costs, not what its history does:

* ``submit`` opens the transaction it names (transaction 0 when it names
  none) and returns an ``ack`` carrying the status *header* (pid,
  incarnation, steps, WAL records, ``txns: null``): a line of constant
  size;
* ``state-query`` returns a ``state-transfer`` whose body is the header
  with ``txns`` listing every transaction's decision — the record
  ``repro service status`` prints.  The list is not encoded per reply:
  the multiplexer keeps the text of every closed decision, written once
  when it closed, and the reply line is the encoded header with that
  text spliced in (:func:`~repro.service.wire.splice_member`), so the
  key order inside ``txns`` is the order of closing, not sorted.

A line longer than :data:`~repro.service.wire.MAX_LINE_BYTES` cannot be
framed: it is counted (``service_oversize_lines_total``) and its
connection closed, and the server keeps serving every other one.  A
line that is not an envelope is counted
(``service_undecodable_lines_total``) and skipped; the decoder checks
every field's type, so nothing it lets through can raise in the node.

Real sockets need real time, so servers run on the standard event loop
(contrast :mod:`repro.service.cluster`, which co-hosts nodes on the
virtual clock).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ServiceError
from repro.service.node import ServiceNode
from repro.service.recovery import NodeConfig
from repro.service.wal import FileWalStore
from repro.service.wire import (
    DEFAULT_TXN,
    MAX_LINE_BYTES,
    ServiceEnvelope,
    splice_member,
)
from repro.telemetry import registry as telemetry
from repro.telemetry.log import get_logger

_log = get_logger("service.server")

#: Most bytes one peer channel may hold (lines queued for the next write
#: plus the transport's unwritten buffer) before sends to it are dropped.
#: Several maximal lines, and hours of acks to a peer that stopped reading.
CHANNEL_BUFFER_CAP = 4 * MAX_LINE_BYTES


def peer_address(base_port: int, pid: int, host: str = "127.0.0.1") -> tuple[str, int]:
    """The listen address of node ``pid`` under the port convention."""
    return (host, base_port + pid)


@dataclass
class _PeerChannel:
    """The outbound stream to one peer and what is queued for it."""

    #: The open stream, ``None`` while down or still connecting.
    writer: asyncio.StreamWriter | None = None
    #: The :meth:`ServiceServer._transmit` task that owns the stream.
    task: asyncio.Task | None = None
    #: Lines waiting for the pass's one write (or for the connect).
    queued: list[bytes] = field(default_factory=list)
    queued_bytes: int = 0
    flush_scheduled: bool = False
    #: The last connect failed or the last stream was torn down, and the
    #: node has not been told since that the peer is back.
    lost: bool = False

    def held_bytes(self) -> int:
        unwritten = 0
        if self.writer is not None:
            unwritten = self.writer.transport.get_write_buffer_size()
        return self.queued_bytes + unwritten

    def take_queued(self) -> bytes:
        data = b"".join(self.queued)
        self.queued.clear()
        self.queued_bytes = 0
        return data


class ServiceServer:
    """Hosts one :class:`~repro.service.node.ServiceNode` behind TCP.

    Args:
        config: the node's protocol identity.
        store: its durable storage (a
            :class:`~repro.service.wal.FileWalStore` in deployment).
        peers: listen addresses, indexed by pid.
        tick_interval: protocol step granularity in (real) seconds —
            coarser than the in-memory default because real sockets
            carry the traffic.
        fsync: WAL fsync policy (on, in deployment).
        opening: transactions the node opens when it creates its log
            (see :class:`~repro.service.node.ServiceNode`).
        seed: retransmission jitter seed.
    """

    def __init__(
        self,
        config: NodeConfig,
        store: FileWalStore,
        peers: list[tuple[str, int]],
        *,
        tick_interval: float = 0.02,
        fsync: bool = True,
        opening: tuple[int, ...] = (),
        snapshot_every: int = 256,
        seed: int = 0,
    ) -> None:
        if len(peers) != config.n:
            raise ServiceError(
                f"got {len(peers)} peer addresses for n={config.n}"
            )
        self.peers = peers
        self.node = ServiceNode(
            config,
            store,
            self._send,
            tick_interval=tick_interval,
            fsync=fsync,
            opening=opening,
            snapshot_every=snapshot_every,
            seed=seed,
        )
        self._server: asyncio.base_events.Server | None = None
        self._channels = [_PeerChannel() for _ in peers]
        self._inbound: set[asyncio.StreamWriter] = set()

    # -- outbound ------------------------------------------------------------

    def _send(
        self, recipient: int, envelope: ServiceEnvelope, attempt: int
    ) -> None:
        channel = self._channels[recipient]
        line = envelope.encode()
        if channel.held_bytes() + len(line) > CHANNEL_BUFFER_CAP:
            telemetry.count(
                "service_channel_drops_total",
                help="sends dropped because the peer channel was full",
                pid=self.node.pid,
                peer=recipient,
            )
            return
        channel.queued.append(line)
        channel.queued_bytes += len(line)
        if channel.writer is not None:
            if not channel.flush_scheduled:
                channel.flush_scheduled = True
                # A node step sends its acks at once and its messages
                # from retransmit tasks that first run in the next pass;
                # flushing at the end of *that* pass (callbacks run in
                # the order scheduled) puts both in one write.
                loop = asyncio.get_running_loop()
                loop.call_soon(loop.call_soon, self._flush, channel)
        elif channel.task is None:
            channel.task = asyncio.ensure_future(self._transmit(recipient))

    def _flush(self, channel: _PeerChannel) -> None:
        """Write everything queued for one peer this pass, in one call."""
        channel.flush_scheduled = False
        writer = channel.writer
        if writer is None or not channel.queued:
            return  # torn down since the send: the lines went with it
        data = channel.take_queued()
        if not writer.transport.is_closing():  # else a failed write closed
            writer.write(data)  # it, and these are dropped transmissions

    async def _transmit(self, recipient: int) -> None:
        """Own one outbound connection to ``recipient``: connect, write
        what was queued meanwhile, then hold the stream until the peer
        closes or resets it."""
        channel = self._channels[recipient]
        host, port = self.peers[recipient]
        writer = None
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_LINE_BYTES
            )
            channel.writer = writer
            self._flush(channel)
            self._peer_returned(recipient)
            while await reader.read(MAX_LINE_BYTES):
                pass  # peers send on their own channel, never on ours
        except OSError:
            pass  # peer down (refused) or gone (reset): dropped transmissions
        finally:
            channel.writer = None
            channel.task = None
            channel.take_queued()
            channel.lost = True
            if writer is not None:
                # Not close(): that waits for the write buffer to drain,
                # and a peer that is gone or not reading never lets it.
                writer.transport.abort()

    def _peer_returned(self, peer: int) -> None:
        """A connect to ``peer`` succeeded, or it said hello: if we had
        lost it, have the node re-send what it has not acknowledged.

        Once per outage: a peer we never lost has missed nothing, and
        whichever of the two signals comes second finds the flag clear.
        """
        if 0 <= peer < len(self._channels) and self._channels[peer].lost:
            self._channels[peer].lost = False
            self.node.peer_returned(peer)

    # -- inbound -------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._inbound.add(writer)
        greeted = False
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    telemetry.count(
                        "service_oversize_lines_total",
                        help="connections closed for a line over the limit",
                        pid=self.node.pid,
                    )
                    _log.warning(
                        "closing a connection: line over %d bytes",
                        MAX_LINE_BYTES,
                    )
                    break
                if not line:
                    break
                try:
                    envelope = ServiceEnvelope.decode(line)
                except ServiceError:
                    telemetry.count(
                        "service_undecodable_lines_total",
                        help="lines dropped because they are not an envelope",
                        pid=self.node.pid,
                    )
                    _log.warning("dropping undecodable line: %r", line[:200])
                    continue
                if envelope.sender < 0:
                    reply = self._client_request(envelope)
                    # A reply may reveal what the log could still lose
                    # (the submission, or that one was made before).
                    await self.node.durable()
                    writer.write(reply)
                    await writer.drain()
                    continue
                self.node.deliver(envelope)
                if not greeted:
                    # A peer's first envelope on a new connection is its
                    # hello: it is up, whatever our last connect found.
                    greeted = True
                    self._peer_returned(envelope.sender)
        except (OSError, asyncio.IncompleteReadError):
            pass
        finally:
            self._inbound.discard(writer)
            writer.close()

    def _client_request(self, envelope: ServiceEnvelope) -> bytes:
        """The reply line for one client envelope.

        What a reply costs follows the node's open work, not its
        history: a ``submit`` ack carries the status header alone, and a
        ``state-query`` reply, which lists every decision, is the header
        with the decision list spliced in as text the multiplexer
        encoded once per closed transaction
        (:meth:`~repro.service.txn.InstanceMux.decisions_json`).
        """
        if envelope.kind == "submit":
            try:
                self.node.submit_txn(envelope.body.get("txn", DEFAULT_TXN))
            except ServiceError as exc:
                return self._reply("ack", {"error": f"submit rejected: {exc}"})
            return self._reply("ack", {"status": self._status()})
        if envelope.kind == "state-query":
            line = self._reply("state-transfer", {"status": self._status()})
            return splice_member(line, "txns", self.node.mux.decisions_json())
        return self._reply(
            "ack", {"error": f"unsupported client request {envelope.kind!r}"}
        )

    def _reply(self, kind: str, body: dict[str, Any]) -> bytes:
        return ServiceEnvelope(
            kind=kind, sender=self.node.pid, body=body
        ).encode()

    def _status(self) -> dict[str, Any]:
        """The status header: constant size, ``txns`` null."""
        return vars(self.node.snapshot_state())

    # -- lifecycle -----------------------------------------------------------

    async def serve(self) -> None:
        """Listen, recover/run the node, and serve until halted."""
        host, port = self.peers[self.node.pid]
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=MAX_LINE_BYTES
        )
        # The process's CPU time so far is what the start cost before
        # the node could be reached: the interpreter plus the imports.
        _log.info(
            "p%d listening on %s:%d (data: %s) start_cpu_ms=%.0f",
            self.node.pid,
            host,
            port,
            getattr(self.node.store, "directory", "<memory>"),
            time.process_time() * 1000,
        )
        try:
            await self.node.run()
        finally:
            self._server.close()
            transmits = [c.task for c in self._channels if c.task is not None]
            for task in transmits:
                task.cancel()
            for writer in list(self._inbound):
                writer.close()
            await asyncio.gather(*transmits, return_exceptions=True)
            await self._server.wait_closed()

    def halt(self) -> None:
        self.node.halt()
