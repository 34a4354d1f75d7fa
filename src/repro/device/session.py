"""Device-side streaming session: the client half of :mod:`repro.core.session`.

:class:`DeviceSession` drives one upload/poll session against a gateway
through the platform's :class:`~repro.core.netmanager.NetworkManager` (so
every exchange gets the same retry/backoff/shed handling and telemetry as
the classic store-and-forward verbs):

* :meth:`upload` — the resume handshake plus the chunk burst.  The
  handshake and every chunk of one attempt ride a single persistent
  connection (:class:`~repro.core.netmanager.SessionChannel`), so the
  wireless link's setup cost is paid once per burst rather than once per
  chunk.  A LinkDown mid-burst kills the connection and loses at most
  the chunk in flight; the device backs off, reconnects, and re-opens:
  the handshake is keyed by the task id and answers the first
  unacknowledged offset, so the device never re-sends bytes the gateway
  already holds.
* :meth:`poll` — drains partial results past the device's cursor plus any
  queued push events; detects gateway restarts via the stream epoch and
  re-synchronises its cursor.
* :meth:`close` — releases the gateway-side record (leak hygiene).

All state a caller may want to inspect afterwards is kept as plain
attributes (``bytes_sent``, ``partials``, ``events``, ``ticket_id`` …) —
the experiments read these ledgers directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional

from ..core.errors import DeadlineExpiredError, DeploymentError, GatewayError
from ..core.session import (
    CHUNK_OFFSET_HEADER,
    NEXT_OFFSET_HEADER,
    PARTIAL_CURSOR_HEADER,
)
from ..crypto import md5_hex
from ..telemetry.spans import SpanContext
from ..xmlcodec import Element, XmlError, parse_bytes, write_bytes

if TYPE_CHECKING:  # pragma: no cover
    from ..core.netmanager import NetworkManager
    from ..simnet.http import HttpResponse

__all__ = ["DeviceSession", "SessionPoll"]

#: How many times :meth:`DeviceSession.upload` will reconnect and re-open
#: the session after a burst's connection died, before giving up.
MAX_REOPENS = 5

#: Backoff between re-open attempts: exponential from FIRST up to CAP.
#: The total budget (2+4+8+16+16 = 46 s) deliberately outlasts the
#: device-side circuit breaker's cooldown, so a session can sit out a
#: link outage that tripped the breaker and then *resume* — the whole
#: point of the resumable upload — instead of failing over and paying
#: for a fresh session (and a full re-send) at another gateway.
REOPEN_BACKOFF_FIRST_S = 2.0
REOPEN_BACKOFF_CAP_S = 16.0


@dataclass
class SessionPoll:
    """One poll's harvest, plus the session's accumulated view."""

    #: Partials new in *this* poll (dicts with ``seq``/``site``/``payload``).
    fresh: list[dict] = field(default_factory=list)
    #: Push events flushed in this poll (dicts with at least ``kind``).
    events: list[dict] = field(default_factory=list)
    #: True when the final result document is downloadable.
    ready: bool = False
    #: Gateway stream epoch the poll was answered under.
    epoch: int = 0


class DeviceSession:
    """Client state machine for one streaming session.

    Parameters
    ----------
    net:
        The platform's network manager (all wireless I/O goes through it).
    gateway:
        Address of the gateway the session is held with.  Sessions are
        gateway-local; failing over means starting a new session.
    config:
        The :class:`~repro.core.config.PDAgentConfig` in force (chunk size).
    task_id:
        The task id packed inside the frame — the resume/dedup key.
    frame:
        The packed PI frame to upload.
    """

    def __init__(
        self,
        net: "NetworkManager",
        gateway: str,
        config,
        task_id: str,
        frame: bytes,
        trace: Optional[SpanContext] = None,
    ) -> None:
        self.net = net
        self.gateway = gateway
        self.config = config
        self.task_id = task_id
        self.frame = frame
        self.trace = trace
        self.session_id = ""
        self.epoch: int = 0
        self.ticket_id = ""
        self.agent_id = ""
        # -- ledgers (read by experiments/benchmarks) ----------------------
        self.bytes_sent = 0
        self.chunks_sent = 0
        self.reopens = 0
        self.partials: list[dict] = []
        self.events: list[dict] = []
        self.result_ready = False
        #: Sim time the first partial reached the device (time-to-first-
        #: result in the streaming experiments); None until one arrives.
        self.first_partial_at: Optional[float] = None
        self._cursor = 0
        #: Highest frame offset ever put on the wire; a resume below it
        #: means the gap bytes are sent a second time (ledger fodder).
        self._sent_high = 0

    # ------------------------------------------------------------ upload
    def upload(self) -> Generator:
        """Process: open/resume the session and upload every missing byte.

        Each attempt is one *burst*: a persistent connection carrying the
        open/resume handshake and the remaining chunks back to back.  A
        dead connection (LinkDown, gateway crash, breaker-refused dial)
        costs a backoff and a fresh burst that resumes where the gateway's
        acknowledgements left off.  Returns ``(ticket_id, agent_id)`` once
        the gateway has assembled the frame and dispatched it through the
        normal intake path.
        """
        sim = self.net.network.sim
        reopens = 0
        while True:
            try:
                result = yield from self._upload_burst()
            except GatewayError:
                # Connection died (long outage, crashed gateway) or the
                # dial itself failed.  Back off, then reconnect: the next
                # handshake tells us exactly where to resume — or
                # short-circuits to the ticket if the commit happened and
                # only its answer was lost.
                reopens += 1
                self.reopens += 1
                if reopens > MAX_REOPENS:
                    raise
                if self._nothing_to_resume():
                    # No byte has been acknowledged yet, so waiting out the
                    # breaker buys nothing a fresh session elsewhere would
                    # not: surface the failure and let the deploy failover
                    # pick a healthier gateway.  Once there IS progress,
                    # sitting out the outage (the backoff ladder outlasts
                    # the breaker cooldown) is what makes resume pay.
                    raise
                yield sim.timeout(self._backoff(reopens))
                continue
            if result is not None:
                return result
            # Session vanished gateway-side (TTL reap or a memory-backend
            # crash): immediate fresh handshake — the gateway is alive and
            # answering, there is nothing to wait out.
            reopens += 1
            self.reopens += 1
            if reopens > MAX_REOPENS:
                raise GatewayError(
                    f"session for task {self.task_id!r} lost and "
                    f"re-open budget exhausted"
                )

    def _upload_burst(self) -> Generator:
        """Process: one connection's worth of progress.

        Returns ``(ticket_id, agent_id)`` on commit, or ``None`` when the
        gateway answered 404 (session record gone — caller re-opens).
        Raises :class:`GatewayError` when the connection dies.
        """
        total = len(self.frame)
        channel = yield from self.net.open_session_channel(
            self.gateway, trace=self.trace
        )
        try:
            offset = yield from self._open(channel)
            if self.ticket_id:
                return self.ticket_id, self.agent_id
            self._count_resume(offset)
            while offset < total:
                chunk = self.frame[
                    offset : offset + self.config.session_chunk_bytes
                ]
                self._sent_high = max(self._sent_high, offset + len(chunk))
                resp = yield from channel.exchange(
                    "PUT",
                    f"/session/chunk/{self.session_id}",
                    body=chunk,
                    headers={CHUNK_OFFSET_HEADER: str(offset)},
                )
                if resp.status == 404:
                    self.session_id = ""
                    return None
                if resp.status == 409:
                    # Offset resync: the gateway names its contiguous prefix.
                    offset = self._next_offset(resp, default=0)
                    self._count_resume(offset)
                    continue
                if resp.status == 503:
                    # Shed ("come back later"): wait it out on the open
                    # connection, then re-send the same chunk.
                    delay = resp.retry_after
                    if delay is None:
                        delay = self.net.retry_policy.backoff_delay(1)
                    yield channel.sim.timeout(
                        min(delay, self.net.retry_policy.retry_after_cap)
                    )
                    self.net.count_restart(len(chunk), "session-chunk")
                    continue
                if not resp.ok:
                    if resp.headers.get("x-deadline-expired"):
                        # The commit chunk ran full PI intake and the task's
                        # deadline had passed: deterministic, don't resync.
                        raise DeadlineExpiredError(
                            f"session dispatch refused: {resp.reason}"
                        )
                    raise DeploymentError(
                        f"session chunk rejected: {resp.status} {resp.reason}"
                    )
                self.bytes_sent += len(chunk)
                self.chunks_sent += 1
                doc = parse_bytes(resp.body)
                offset = int(doc.require("next"))
                if doc.get("complete") == "1":
                    self.ticket_id = doc.require_child("ticket").text
                    self.agent_id = doc.findtext("agent") or ""
                    return self.ticket_id, self.agent_id
            # Covered every byte but never saw a commit answer — resync.
            yield from self._open(channel)
            if not self.ticket_id:
                raise GatewayError("session upload finished without a ticket")
            return self.ticket_id, self.agent_id
        finally:
            channel.close()

    def _open(self, channel) -> Generator:
        """Process: the open/resume handshake; returns the next offset."""
        doc = Element(
            "sessionopen",
            {
                "device": self.net.device.device_id,
                "task": self.task_id,
                "total": str(len(self.frame)),
                "digest": md5_hex(self.frame),
            },
        )
        resp = yield from channel.exchange(
            "POST", "/session/open", body=write_bytes(doc)
        )
        if not resp.ok:
            raise DeploymentError(
                f"session open rejected: {resp.status} {resp.reason}"
            )
        opened = parse_bytes(resp.body)
        self.session_id = opened.get("id", "")
        self.epoch = int(opened.get("epoch", "0"))
        ticket = opened.findtext("ticket")
        if ticket:
            # Dedup short-circuit: the task already dispatched.
            self.ticket_id = ticket
            self.agent_id = opened.findtext("agent") or ""
        return int(opened.require("next"))

    # ------------------------------------------------------------ poll
    def poll(self) -> Generator:
        """Process: one ``GET /session/poll`` round trip.

        Returns a :class:`SessionPoll`; the session's own ``partials`` /
        ``events`` / ``result_ready`` ledgers accumulate across polls.  A
        stream-epoch change (gateway restart) resets the cursor and
        re-polls once so the accumulated list stays a prefix of the
        gateway's authoritative stream.
        """
        result = yield from self._poll_once()
        if result.epoch != self.epoch:
            # Restart detected: our cursor indexed the *old* stream.
            self.epoch = result.epoch
            self._cursor = 0
            self.partials = []
            result = yield from self._poll_once()
        return result

    def _poll_once(self) -> Generator:
        resp = yield from self._request(
            "GET",
            f"/session/poll/{self.session_id}",
            purpose="session-poll",
            headers={PARTIAL_CURSOR_HEADER: str(self._cursor)},
        )
        if resp.status == 404:
            raise GatewayError(f"session {self.session_id!r} expired")
        if not resp.ok:
            raise GatewayError(
                f"session poll failed: {resp.status} {resp.reason}"
            )
        try:
            doc = parse_bytes(resp.body)
        except XmlError as exc:
            raise GatewayError(f"bad session poll answer: {exc}") from exc
        out = SessionPoll(
            ready=doc.get("ready") == "1",
            epoch=int(doc.get("epoch", "0")),
        )
        for child in doc.findall("partial"):
            entry = {
                "seq": int(child.get("seq", "0")),
                "site": child.get("site", ""),
                "payload": child.text,
            }
            out.fresh.append(entry)
            self.partials.append(entry)
            if self.first_partial_at is None:
                self.first_partial_at = self.net.network.sim.now
        for child in doc.findall("event"):
            event = dict(child.attrib)
            out.events.append(event)
            self.events.append(event)
        self._cursor = int(doc.get("cursor", str(self._cursor)))
        self.result_ready = self.result_ready or out.ready
        return out

    # ------------------------------------------------------------ close
    def close(self) -> Generator:
        """Process: release the gateway-side session record."""
        if not self.session_id:
            return None
        yield from self._request(
            "POST", f"/session/close/{self.session_id}",
            body=b"", purpose="session-close",
        )
        return None

    # ------------------------------------------------------------ plumbing
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        purpose: str = "session",
        headers: Optional[dict[str, str]] = None,
    ) -> Generator:
        resp: "HttpResponse" = yield from self.net.session_exchange(
            self.gateway, method, path, body=body, purpose=purpose,
            headers=headers, trace=self.trace,
        )
        return resp

    def _nothing_to_resume(self) -> bool:
        """True when failing over loses nothing: zero bytes acknowledged
        and the gateway's circuit breaker is open (it just failed us)."""
        return (
            self.net.breaker.is_open(self.gateway)
            and self.bytes_sent == 0
            and not self.ticket_id
        )

    def _count_resume(self, offset: int) -> None:
        """Ledger a resume below the wire high-water mark as retransmit."""
        gap = self._sent_high - offset
        if gap > 0:
            self.net.count_restart(gap, "session-resume")
            # The gap bytes are about to be sent again; reset the mark so
            # a *second* failure in the same region counts them again.
            self._sent_high = offset

    @staticmethod
    def _backoff(attempt: int) -> float:
        return min(
            REOPEN_BACKOFF_FIRST_S * (2 ** (attempt - 1)),
            REOPEN_BACKOFF_CAP_S,
        )

    @staticmethod
    def _next_offset(resp: "HttpResponse", default: int) -> int:
        raw: Any = resp.headers.get(NEXT_OFFSET_HEADER)
        try:
            return int(raw)
        except (TypeError, ValueError):
            return default
