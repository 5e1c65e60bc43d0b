"""Load drivers: a closed-loop lookup stream and an open-loop update stream.

Both speak the server's wire protocol over their own loopback
connection.  Payloads arrive pre-encoded; the timed loops only frame,
send, receive and compare bytes against pre-encoded expected answers
(decoding only when the bytes differ).
"""

from __future__ import annotations

import select
import socket
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Tuple

from repro.serve import protocol
from repro.serve.protocol import Frame

from workloads import UpdateRequest, wrong_positions

#: Seconds a single response may take before the run is declared hung.
RECV_TIMEOUT_S = 30.0
#: Lookup latency percentiles are taken per slice of this many seconds,
#: then the median over the slices is reported.
SLICE_S = 1.0
#: A slice with fewer answers than this gives no percentile.
SLICE_MIN_SAMPLES = 20
#: Update figures are taken per chunk of this many requests, in send
#: order, then the median over the chunks is reported.  A chunk's p90
#: has ten samples beyond it.
UPDATE_CHUNK = 100


class Conn:
    """One pipelined protocol connection (blocking socket)."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.sock = socket.create_connection((host, port), timeout=5.0)
        self.sock.settimeout(RECV_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._next_id = 0

    def send(self, msg_type: int, payload: bytes = b"") -> int:
        self._next_id = (self._next_id + 1) & 0xFFFFFFFF
        self.sock.sendall(
            protocol.encode_frame(msg_type, self._next_id, payload)
        )
        return self._next_id

    def recv(self) -> Frame:
        frame = protocol.read_frame_blocking(self.sock)
        if frame is None:
            raise ConnectionError("server closed the connection")
        return frame

    def call(self, msg_type: int, payload: bytes = b"") -> Frame:
        request_id = self.send(msg_type, payload)
        frame = self.recv()
        if frame.request_id != request_id:
            raise ConnectionError("response out of order")
        return frame

    def admin(self, msg_type: int) -> dict:
        frame = self.call(msg_type)
        if frame.type != protocol.MSG_ADMIN_OK:
            raise ConnectionError(
                f"admin request {msg_type:#x} answered {frame.type:#x}: "
                f"{frame.payload[:200]!r}"
            )
        return protocol.decode_json(frame.payload)  # type: ignore[return-value]

    def lookup(self, addresses: Sequence[int]) -> List[Optional[int]]:
        frame = self.call(protocol.MSG_LOOKUP, protocol.encode_addresses(addresses))
        if frame.type != protocol.MSG_LOOKUP_OK:
            raise ConnectionError(f"lookup answered {frame.type:#x}")
        return protocol.decode_hops(frame.payload)

    def close(self) -> None:
        self.sock.close()


def metric(value: float, unit: str) -> dict:
    """One entry of the result's ``metrics`` object."""
    return {"value": value, "unit": unit}


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    position = int(round(fraction * (len(sorted_values) - 1)))
    return sorted_values[position]


@dataclass
class LookupResult:
    attempted: int = 0
    #: Requests answered with a wrong next hop.
    wrong: int = 0
    #: Requests refused (BUSY) or answered with an error.
    refused: int = 0
    lookups: int = 0
    started: float = 0.0
    finished: float = 0.0
    latencies: List[float] = field(default_factory=list)
    #: (completion instant, latency) of every answer, in arrival order.
    samples: List[Tuple[float, float]] = field(default_factory=list)
    #: (completion instant, lookups) of every correct answer.
    completions: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.wrong + self.refused

    @property
    def rate(self) -> float:
        return self.lookups / (self.finished - self.started)

    def sliced_rate(self, seconds: float) -> float:
        """Median over the window's whole :data:`SLICE_S` slices of the
        lookups answered correctly per second in each."""
        if seconds < SLICE_S:
            return self.rate
        slices = int(seconds / SLICE_S)
        counts = [0] * slices
        for instant, lookups in self.completions:
            slot = int((instant - self.started) / SLICE_S)
            if slot < slices:
                counts[slot] += lookups
        return statistics.median(counts) / SLICE_S

    def slice_percentiles(self, fraction: float) -> List[float]:
        """The latency percentile of each :data:`SLICE_S` slice of the
        window, in order (slices with too few answers are left out)."""
        buckets: List[List[float]] = []
        for instant, latency in self.samples:
            slot = int((instant - self.started) / SLICE_S)
            while len(buckets) <= slot:
                buckets.append([])
            buckets[slot].append(latency)
        return [
            percentile(sorted(bucket), fraction)
            for bucket in buckets
            if len(bucket) >= SLICE_MIN_SAMPLES
        ]

    def sliced_percentile(self, fraction: float) -> float:
        """Median over the window's slices of each slice's percentile.

        A burst of host load moves a few slices, not the median, so the
        figure tracks the program rather than the moment it ran in.
        """
        per_slice = self.slice_percentiles(fraction)
        if not per_slice:  # a window too short to slice
            return percentile(self.latencies, fraction)
        return statistics.median(per_slice)

    def quarter_rates(self, seconds: float) -> List[float]:
        """Lookups/s completed in each quarter of the timed window."""
        quarter = seconds / 4.0
        counts = [0, 0, 0, 0]
        for instant, lookups in self.completions:
            slot = min(3, int((instant - self.started) / quarter))
            counts[slot] += lookups
        return [count / quarter for count in counts]


def closed_loop_lookups(
    conn: Conn,
    payloads: Sequence[bytes],
    expected: Sequence[bytes],
    reference: Sequence[Sequence[Optional[int]]],
    volatile: Sequence[Sequence[int]],
    window: int,
    seconds: float,
    first: int = 0,
) -> LookupResult:
    """Keep ``window`` lookup requests in flight for ``seconds``.

    Requests cycle through the payload pool starting at ``first``.
    An answer is correct when its bytes equal the pre-encoded reference,
    or, failing that, when every determinate position matches (see
    :func:`workloads.wrong_positions`).  That slower check runs after
    the window closes, so it never steals the interpreter from a
    concurrent open-loop generator thread.
    """
    result = LookupResult()
    outstanding: Deque[Tuple[int, int, float]] = deque()
    #: (completion index, pool slot, payload) of answers to re-check.
    differing: List[Tuple[int, int, bytes]] = []
    completions = result.completions
    pool = len(payloads)
    index = first
    send = conn.send
    recv = conn.recv
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    result.started = started
    while True:
        now = clock()
        while len(outstanding) < window and now < deadline:
            slot = index % pool
            outstanding.append((send(protocol.MSG_LOOKUP, payloads[slot]), slot, now))
            index += 1
            result.attempted += 1
        if not outstanding:
            break
        frame = recv()
        done = clock()
        request_id, slot, sent = outstanding.popleft()
        if frame.request_id != request_id:
            raise ConnectionError("lookup response out of order")
        result.samples.append((done, done - sent))
        if frame.type != protocol.MSG_LOOKUP_OK:
            result.refused += 1
            continue
        if frame.payload != expected[slot]:
            differing.append((len(completions), slot, frame.payload))
        completions.append((done, len(frame.payload) >> 2))
        result.finished = done
    wrong = {
        position
        for position, slot, payload in differing
        if wrong_positions(
            protocol.decode_hops(payload), reference[slot], volatile[slot]
        )
    }
    if wrong:
        result.wrong = len(wrong)
        result.completions = [
            entry for position, entry in enumerate(completions)
            if position not in wrong
        ]
    result.lookups = sum(count for _, count in result.completions)
    result.latencies = sorted(latency for _, latency in result.samples)
    if not result.finished:
        result.finished = clock()
    return result


@dataclass
class UpdateResult:
    attempted: int = 0
    #: Requests refused, shed by the scheduler, or acked non-durably.
    failed: int = 0
    updates: int = 0
    #: Messages acked durably, in send order (the reference applies them).
    acked: List[object] = field(default_factory=list)
    #: Due time to ack, per request.
    latencies: List[float] = field(default_factory=list)
    #: (due or send instant, ack instant, updates acked durably) per
    #: request, in send order.
    requests: List[Tuple[float, float, int]] = field(default_factory=list)
    #: Actual send time minus due time, per request.
    lags: List[float] = field(default_factory=list)
    error: Optional[BaseException] = None

    def _chunks(self) -> List[List[Tuple[float, float, int]]]:
        return [
            self.requests[start:start + UPDATE_CHUNK]
            for start in range(0, len(self.requests), UPDATE_CHUNK)
        ]

    def chunked_percentile(self, fraction: float) -> float:
        """Median over :data:`UPDATE_CHUNK`-request chunks of each
        chunk's ack-latency percentile."""
        return statistics.median(
            percentile(sorted(done - due for due, done, _ in chunk), fraction)
            for chunk in self._chunks()
        )

    def chunked_rate(self) -> float:
        """Median over the chunks of updates acked per second, from the
        chunk's first due (or send) instant to its last ack."""
        return statistics.median(
            sum(acked for _, _, acked in chunk) / (chunk[-1][1] - chunk[0][0])
            for chunk in self._chunks()
        )

    def merged(self, other: "UpdateResult") -> "UpdateResult":
        """Both streams' samples and counts together."""
        return UpdateResult(
            attempted=self.attempted + other.attempted,
            failed=self.failed + other.failed,
            updates=self.updates + other.updates,
            acked=self.acked + other.acked,
            latencies=sorted(self.latencies + other.latencies),
            requests=self.requests + other.requests,
            lags=sorted(self.lags + other.lags),
            error=self.error or other.error,
        )


def _durably_acked(
    frame: Frame, request: UpdateRequest, result: UpdateResult
) -> int:
    """Count one update response into ``result``; return how many of
    the request's updates it acked durably (0 when it failed)."""
    if frame.type == protocol.MSG_UPDATE_OK:
        ack = protocol.decode_update_ack(frame.payload)
        if not ack.shed and ack.durable:
            result.updates += len(request.messages)
            result.acked.extend(request.messages)
            return len(request.messages)
    result.failed += 1
    return 0


def open_loop_updates(
    conn: Conn,
    requests: Sequence[UpdateRequest],
    started: float,
    result: UpdateResult,
) -> None:
    """Send every request at its due time, whatever is still in flight.

    Latency runs from the *due* time, so a stall in the server (or in
    the generator) is charged to every request it delays.
    """
    try:
        _open_loop(conn, requests, started, result)
    except BaseException as exc:  # re-raised by the joining thread
        result.error = exc


def _open_loop(
    conn: Conn,
    requests: Sequence[UpdateRequest],
    started: float,
    result: UpdateResult,
) -> None:
    outstanding: Deque[Tuple[int, int, float]] = deque()
    clock = time.perf_counter
    sock = conn.sock
    index = 0
    total = len(requests)
    while index < total or outstanding:
        now = clock()
        while index < total and started + requests[index].due_s <= now:
            due = started + requests[index].due_s
            request_id = conn.send(protocol.MSG_UPDATE, requests[index].payload)
            result.lags.append(clock() - due)
            outstanding.append((request_id, index, due))
            index += 1
            result.attempted += 1
            now = clock()
        wait = (
            started + requests[index].due_s - now
            if index < total
            else RECV_TIMEOUT_S
        )
        if not outstanding:
            time.sleep(max(0.0, wait))
            continue
        readable, _, _ = select.select([sock], [], [], max(0.0, wait))
        if not readable:
            if index >= total:
                raise ConnectionError("update acks stopped arriving")
            continue
        frame = conn.recv()
        done = clock()
        request_id, slot, due = outstanding.popleft()
        if frame.request_id != request_id:
            raise ConnectionError("update response out of order")
        result.latencies.append(done - due)
        acked = _durably_acked(frame, requests[slot], result)
        result.requests.append((due, done, acked))
    result.latencies.sort()
    result.lags.sort()


def closed_loop_updates(
    conn: Conn, requests: Sequence[UpdateRequest], result: UpdateResult
) -> None:
    """Send the requests back to back, one in flight: the durable update
    path's capacity and service latency.  ``lags`` records the time from
    one ack to the next send (how long the generator took to react)."""
    clock = time.perf_counter
    ready = clock()
    for request in requests:
        sent = clock()
        result.lags.append(sent - ready)
        frame = conn.call(protocol.MSG_UPDATE, request.payload)
        ready = clock()
        result.latencies.append(ready - sent)
        result.attempted += 1
        acked = _durably_acked(frame, request, result)
        result.requests.append((sent, ready, acked))
    result.latencies.sort()
    result.lags.sort()


def scatter_closed_loop(
    conns: Sequence[Conn],
    plans: Sequence[Sequence[Tuple[int, bytes]]],
    window: int,
    seconds: float,
) -> Tuple[float, List[float]]:
    """The front's scatter/gather done by the client, straight to workers.

    ``plans[i]`` lists the ``(shard, payload)`` sub-requests of batch
    ``i``.  A batch completes when every sub-request has answered;
    ``window`` batches ride in flight.  Returns ``(lookups/s, sorted
    per-batch latencies)``.
    """
    outstanding: Deque[Tuple[List[Tuple[int, int]], float]] = deque()
    latencies: List[float] = []
    lookups = 0
    index = 0
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    finished = started
    while True:
        now = clock()
        while len(outstanding) < window and now < deadline:
            plan = plans[index % len(plans)]
            sent = [(shard, conns[shard].send(protocol.MSG_LOOKUP, payload))
                    for shard, payload in plan]
            outstanding.append((sent, now))
            index += 1
        if not outstanding:
            break
        sent, when = outstanding.popleft()
        for shard, request_id in sent:
            frame = conns[shard].recv()
            if frame.request_id != request_id or frame.type != protocol.MSG_LOOKUP_OK:
                raise ConnectionError("worker lookup failed")
            lookups += len(frame.payload) >> 2
        finished = clock()
        latencies.append(finished - when)
    latencies.sort()
    return lookups / (finished - started), latencies
