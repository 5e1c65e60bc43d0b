"""Workload definitions and their seeded inputs.

Everything a run sends is generated here from ``--seed`` and encoded
before the clock starts; the reference answers are computed here too,
with a plain binary trie over the raw routes, independent of the
compressed tables and stride tables the server answers from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.prefix import Prefix
from repro.serve import protocol
from repro.serve.loadgen import generate_batches
from repro.trie.trie import BinaryTrie
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.traces import save_table
from repro.workload.updategen import (
    UpdateGenerator,
    UpdateKind,
    UpdateMessage,
    UpdateParameters,
)

Route = Tuple[Prefix, int]

#: The routing table every workload serves (fixed; the workload seed
#: varies traffic and updates, never the table).
RIB_SEED = 101
RIB_SIZE = 8_000
#: Distinct lookup addresses per run; the closed loop cycles over them.
POOL_ADDRESSES = 1 << 17
#: Closed-loop lookup stream: one connection, this many requests in flight.
LOOKUP_WINDOW = 4
#: Seconds of that stream run, and checked, before the clock starts: the
#: first seconds after start-up run faster while the server's caches fill.
LOOKUP_WARMUP_S = 3.0
#: Probe addresses checked exactly after the updates have been flushed.
PROBE_ADDRESSES = 4_096
#: Update probe of the lookup workloads: requests in all, and the number
#: of server instances (one per set-up) they are spread over.  Each part
#: is a whole number of ``drive.UPDATE_CHUNK`` chunks, so no chunk spans
#: two instances.
PROBE_REQUESTS = 1_200
PROBE_PARTS = 3


@dataclass(frozen=True)
class UpdateStreamShape:
    """A BGP stream of ``requests`` requests of ``per_request`` updates.

    ``rate`` > 0 makes it open loop at that mean rate (updates/s);
    ``rate`` == 0 sends it closed loop, one request in flight.
    """

    rate: float
    per_request: int
    requests: int
    #: Burst rate over calm rate, and mean burst length in updates (the
    #: generator's defaults are 15 and 400).
    burst_multiplier: float = 15.0
    burst_length: float = 400.0


@dataclass(frozen=True)
class Workload:
    name: str
    batch_size: int
    #: Updates run concurrently with the lookup window (else a closed-loop
    #: probe runs them alone, so every run still measures the durable
    #: update path and restore).
    churn: bool = False

    def update_shape(self, seconds: float) -> UpdateStreamShape:
        if self.churn:
            # Through the front, one connection's requests are served one
            # at a time, and an update waits for the lookup sub-batch its
            # worker is running.  Beside the bulk loop on 2 cores that
            # caps this stream near 105 requests/s of 4 updates (which
            # cuts lookups to a third), and at 50/s the ack tail still
            # swung with machine load.  So: 40 requests/s of 4 updates
            # (600 samples in 15 s).  Bursts keep the generator's default
            # peak-to-mean ratio (1.67) but are short, so a run holds
            # dozens of them, not two or three long ones.
            per_request = 4
            requests = max(1, int(round(40.0 * seconds)))
            return UpdateStreamShape(
                160.0, per_request, requests,
                burst_multiplier=2.0, burst_length=10.0,
            )
        # Probe: the durable update path alone, closed loop, requests of
        # 16 updates back to back.  On an otherwise idle server an open
        # loop measures mostly process wake-ups, whose run-to-run spread
        # is several times the bound a metric may carry.  The probe runs
        # in PROBE_PARTS parts on successive server instances, spread
        # over the run (see ``Inputs.early_updates``).
        return UpdateStreamShape(0.0, 16, PROBE_REQUESTS // PROBE_PARTS)


#: Why each workload exists is recorded with it in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("lookup-bulk", 1024),
        Workload("lookup-small", 64),
        Workload("update-churn", 1024, churn=True),
    )
}


@dataclass
class UpdateRequest:
    due_s: float
    payload: bytes
    messages: List[UpdateMessage]


@dataclass
class Inputs:
    """Everything one run sends and every answer it expects."""

    routes: List[Route]
    table_path: Path
    batches: List[List[int]]
    #: Encoded MSG_LOOKUP payloads, one per batch.
    payloads: List[bytes]
    #: Encoded MSG_LOOKUP_OK payloads the pre-update table must produce.
    expected: List[bytes]
    #: Per batch, positions whose answer an update may change (churn only).
    volatile: List[Tuple[int, ...]]
    reference: List[List[Optional[int]]]
    #: The update stream of the measured server instance.
    updates: List[UpdateRequest]
    #: Update-probe parts for the earlier set-up instances, each an
    #: independent stream over the initial table (empty on churn).
    early_updates: List[List[UpdateRequest]]
    shape: UpdateStreamShape
    probe: List[int] = field(default_factory=list)
    #: Reference answers for ``probe`` after every update has applied.
    probe_expected: List[Optional[int]] = field(default_factory=list)



def build_routes() -> List[Route]:
    return generate_rib(RIB_SEED, RibParameters(size=RIB_SIZE))


def update_stream(
    routes: Sequence[Route], seed: int, shape: UpdateStreamShape
) -> List[UpdateRequest]:
    """The generator's stream, rescaled to the shape's mean rate.

    The generator's burst structure is kept and only the time axis is
    stretched so the whole stream spans exactly ``count / rate``
    seconds; a request is due when its last update has arrived.  A
    closed-loop stream (``rate`` 0) is due at once.
    """
    count = shape.requests * shape.per_request
    parameters = UpdateParameters(
        burst_rate_multiplier=shape.burst_multiplier,
        burst_length_mean=shape.burst_length,
    )
    messages = UpdateGenerator(routes, seed, parameters).take(count)
    span = messages[-1].timestamp or 1.0
    requests = []
    for start in range(0, count, shape.per_request):
        group = messages[start:start + shape.per_request]
        due = (
            group[-1].timestamp * (count / shape.rate) / span
            if shape.rate
            else 0.0
        )
        requests.append(
            UpdateRequest(due, protocol.encode_updates(group), group)
        )
    return requests


def apply_updates(
    routes: Sequence[Route], messages: Sequence[UpdateMessage]
) -> List[Route]:
    """The routing table after ``messages`` applied in order."""
    live = dict(routes)
    for message in messages:
        if message.kind is UpdateKind.WITHDRAW:
            live.pop(message.prefix, None)
        else:
            live[message.prefix] = message.next_hop
    return list(live.items())


def probe_addresses(
    pool: Sequence[int], messages: Sequence[UpdateMessage], seed: int
) -> List[int]:
    """Half drawn from the lookup pool, half inside updated prefixes."""
    rng = random.Random(seed ^ 0x5EED)
    half = PROBE_ADDRESSES // 2
    probe = rng.sample(list(pool), min(half, len(pool)))
    for _ in range(PROBE_ADDRESSES - len(probe)):
        prefix = messages[rng.randrange(len(messages))].prefix
        span = 1 << (32 - prefix.length)
        probe.append(prefix.network + rng.randrange(span))
    return probe


def build_inputs(
    workload: Workload, seed: int, seconds: float, workdir: Path
) -> Inputs:
    routes = build_routes()
    table_path = workdir / "table.txt"
    save_table(routes, table_path)

    batches = generate_batches(
        routes, POOL_ADDRESSES // workload.batch_size, workload.batch_size,
        seed=seed,
    )
    trie = BinaryTrie.from_routes(routes)
    reference = [[trie.lookup(a) for a in batch] for batch in batches]

    shape = workload.update_shape(seconds)
    updates = update_stream(routes, seed, shape)
    messages = [m for request in updates for m in request.messages]
    early = [
        [] if workload.churn
        else update_stream(routes, seed * PROBE_PARTS + part, shape)
        for part in range(1, PROBE_PARTS)
    ]

    volatile: List[Tuple[int, ...]] = [()] * len(batches)
    if workload.churn:
        # While updates stream in, an answer under an updated prefix is
        # either the old or the new route: indeterminate until the flush,
        # after which the probe set checks it exactly.
        touched = BinaryTrie.from_routes((m.prefix, 0) for m in messages)
        volatile = [
            tuple(
                position
                for position, address in enumerate(batch)
                if touched.lookup(address) is not None
            )
            for batch in batches
        ]

    pool = [address for batch in batches for address in batch]
    probe = probe_addresses(pool, messages, seed)
    final = BinaryTrie.from_routes(apply_updates(routes, messages))
    return Inputs(
        routes=routes,
        table_path=table_path,
        batches=batches,
        payloads=[protocol.encode_addresses(batch) for batch in batches],
        expected=[protocol.encode_hops(hops) for hops in reference],
        volatile=volatile,
        reference=reference,
        updates=updates,
        early_updates=early,
        shape=shape,
        probe=probe,
        probe_expected=[final.lookup(address) for address in probe],

    )


def wrong_positions(
    answers: Sequence[Optional[int]],
    expected: Sequence[Optional[int]],
    volatile: Sequence[int] = (),
) -> List[int]:
    """Positions answered differently from the reference.

    A position the reference leaves unrouted is indeterminate: ONRTC's
    don't-care compression may legitimately answer a route there.  So is
    a ``volatile`` position (an update in flight may change it).
    """
    if len(answers) != len(expected):
        return list(range(max(len(answers), len(expected))))
    skip = set(volatile)
    return [
        position
        for position, (got, want) in enumerate(zip(answers, expected))
        if want is not None and got != want and position not in skip
    ]
