"""Client helpers for the TCP commit service.

Clients are not cluster members: they send envelopes with ``sender =
-1`` and the server answers inline on the same connection
(:mod:`repro.service.server`).  Two requests exist — ``submit``
(release a transaction at its coordinator, optionally a specific
``txn`` of a multi-transaction node; the acknowledgement carries the
node's status header and lists no decisions) and ``state-query``
(decision + full node status, whose ``txns`` lists every decision in
no particular key order).  The helpers here are small sync wrappers the
CLI and the crash demo share.

Connection hygiene matters here: these helpers run inside long-lived
tools (the crash demo polls status in a loop), so every path —
including timeouts — must release the socket.  ``asyncio.wait_for``
around ``open_connection`` has a well-known hazard: the connection can
finish being established in the same event-loop step the timeout
fires, in which case ``wait_for`` raises ``TimeoutError`` while the
freshly created transport is left open with no reference to close.
:func:`open_connection` guards that race, and :func:`request` closes
the writer (and waits for the close) on every exit path.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any

from repro.errors import ServiceError
from repro.service.wire import MAX_LINE_BYTES, ServiceEnvelope


async def open_connection(
    host: str, port: int, timeout: float
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """``asyncio.open_connection`` with a leak-proof timeout.

    Runs the connect as a task so that when the timeout and the
    connect's completion race, the already-created transport is
    retrieved from the finished task and closed instead of leaking.
    """
    task = asyncio.ensure_future(
        asyncio.open_connection(host, port, limit=MAX_LINE_BYTES)
    )
    try:
        return await asyncio.wait_for(asyncio.shield(task), timeout=timeout)
    except (asyncio.TimeoutError, asyncio.CancelledError):
        task.cancel()
        # The connect may have completed in the same loop step the
        # timeout fired (cancel() is then a no-op): close whatever
        # transport the abandoned task produced.
        task.add_done_callback(_close_abandoned)
        raise


def _close_abandoned(task: asyncio.Task) -> None:
    if task.cancelled() or task.exception() is not None:
        return
    _reader, writer = task.result()
    writer.close()


async def request(
    host: str, port: int, envelope: ServiceEnvelope, timeout: float = 5.0
) -> ServiceEnvelope:
    """Send one client envelope and await the inline reply."""
    reader, writer = await open_connection(host, port, timeout)
    try:
        writer.write(envelope.encode())
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=timeout)
    except ValueError as exc:  # readline: no newline within the limit
        raise ServiceError(
            f"reply from {host}:{port} is over {MAX_LINE_BYTES} bytes"
        ) from exc
    finally:
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()
    if not line:
        raise ServiceError(f"no reply from {host}:{port}")
    return ServiceEnvelope.decode(line)


def submit(
    host: str, port: int, timeout: float = 5.0, txn: int = 0
) -> dict[str, Any]:
    """Release a transaction at ``host:port`` (its coordinator).

    ``txn = 0`` releases the node's default held transaction (the v1
    single-transaction service); a positive ``txn`` submits that
    transaction to a multi-transaction node.  Returns the node's status
    header from the acknowledgement (``txns`` is ``None``: ask
    :func:`status` for decisions); a rejected submission (duplicate
    ``txn``, or an id already decided and compacted away) raises
    :class:`~repro.errors.ServiceError` with the server's reason.
    """
    body = {"txn": txn} if txn else {}
    reply = asyncio.run(
        request(
            host,
            port,
            ServiceEnvelope(kind="submit", sender=-1, body=body),
            timeout,
        )
    )
    if "error" in reply.body:
        raise ServiceError(reply.body["error"])
    return reply.body.get("status", {})


def status(host: str, port: int, timeout: float = 5.0) -> dict[str, Any]:
    """One node's status: pid, incarnation, decision(s), steps, records."""
    reply = asyncio.run(
        request(
            host,
            port,
            ServiceEnvelope(kind="state-query", sender=-1),
            timeout,
        )
    )
    body = dict(reply.body.get("status", {}))
    body.setdefault("decision", reply.body.get("decision"))
    return body
