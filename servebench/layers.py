"""Per-layer metrics: a traced in-process replay plus same-run ratios.

The traced pass rebuilds the serving objects in this process (a 2-shard
durable ``ShardSet`` with the server's configuration) and replays the
run's own inputs through each layer's public calls, every call wrapped
in a span.  Calls that happen inside the server's processes (the front
and its worker links) cannot be wrapped from here; those layers are
measured by the same-run comparison in :func:`front_versus_direct`
against the live server instead.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.engine import EngineConfig
from repro.serve import protocol
from repro.serve.router import ShardRouter

from serverctl import BACKEND, CHIPS, DRED, SHARDS

#: Seconds per phase of the through-front versus direct comparison.
PHASE_S = 1.0
#: Lookup addresses replayed per traced or untraced pass.
REPLAY_ADDRESSES = 1 << 16
#: Cap on lookup requests per replay pass (small batches).
REPLAY_REQUESTS = 256
#: Update requests replayed through the traced update path.
REPLAY_UPDATES = 400
#: Batch sizes of the engine's per-call set-up versus per-packet split.
SMALL_BATCH = 64
LARGE_BATCH = 16_384


def server_config() -> SystemConfig:
    """The configuration ``repro serve`` gives each shard."""
    return SystemConfig(
        engine=EngineConfig(
            chip_count=CHIPS,
            dred_capacity=DRED,
            queue_capacity=256,
            lookup_backend=BACKEND,
        ),
        update_queue_capacity=256,
    )


# -- spans ------------------------------------------------------------------


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        stack = tracer.stack
        self.record = [
            name, 0, 0, stack[-1] if stack else -1, tracer.request
        ]

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter_ns()

    def __exit__(self, *_exc) -> None:
        self.record[2] = time.perf_counter_ns()
        self.tracer.stack.pop()


class Tracer:
    """Spans kept in memory: ``[name, start_ns, end_ns, parent, request]``.

    ``parent`` is the index of the enclosing span (``-1`` at the root);
    ``request`` the id of the request being replayed.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.request = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Time every call of ``owner.attribute`` as a span ``name``."""
        original = getattr(owner, attribute)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)

    def totals(self) -> Dict[str, Tuple[int, int, int]]:
        """Per span name: ``(count, total_ns, self_ns)``."""
        selfs = self_times(self.spans)
        totals: Dict[str, List[int]] = {}
        for record, own in zip(self.spans, selfs):
            entry = totals.setdefault(record[0], [0, 0, 0])
            entry[0] += 1
            entry[1] += record[2] - record[1]
            entry[2] += own
        return {name: tuple(entry) for name, entry in totals.items()}

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "request"],
                    "spans": self.spans,
                    "totals": {
                        name: {"count": c, "total_ns": t, "self_ns": s}
                        for name, (c, t, s) in sorted(self.totals().items())
                    },
                }
            )
        )


class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc) -> None:
        return None


class NullTracer:
    """The untraced twin: same calls, no spans."""

    request = 0
    _span = _NoSpan()

    def span(self, _name: str) -> _NoSpan:
        return self._span


def covered_ns(start: int, end: int, children: Sequence[Tuple[int, int]]) -> int:
    """Length of ``[start, end)`` covered by the union of ``children``."""
    covered = 0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return covered


def self_times(spans: Sequence[Sequence]) -> List[int]:
    """Each span's duration minus the part its children cover."""
    children: List[List[Tuple[int, int]]] = [[] for _ in spans]
    for record in spans:
        parent = record[3]
        if parent >= 0:
            children[parent].append((record[1], record[2]))
    return [
        (record[2] - record[1]) - covered_ns(record[1], record[2], kids)
        for record, kids in zip(spans, children)
    ]


# -- the live server: front versus direct ---------------------------------


def split_plans(
    batches: Sequence[Sequence[int]], router: ShardRouter
) -> List[List[Tuple[int, bytes]]]:
    """Each batch as the front would scatter it: ``[(shard, payload)]``."""
    plans = []
    for batch in batches:
        buckets: Dict[int, List[int]] = {}
        for address in batch:
            buckets.setdefault(router.shard_of(address), []).append(address)
        plans.append(
            [
                (shard, protocol.encode_addresses(buckets[shard]))
                for shard in sorted(buckets)
            ]
        )
    return plans


def front_versus_direct(run, port: int) -> Dict[str, object]:
    """Same batches, same window: through the front, then straight to
    the workers with the client doing the scatter/gather; alternated
    twice.  Also drives worker 0 alone with its own sub-batches (the
    in-serve engine rate)."""
    from drive import Conn, closed_loop_lookups, percentile, scatter_closed_loop
    from workloads import LOOKUP_WINDOW

    inputs = run.inputs
    conn = Conn(port)
    try:
        health = conn.admin(protocol.MSG_HEALTH)
        router = ShardRouter(health["boundaries"])
        ports = {row["shard"]: row["port"] for row in health["workers"]}
        plans = split_plans(inputs.batches, router)
        workers = [Conn(ports[shard]) for shard in range(SHARDS)]
        through_rates, through_p50, direct_rates, direct_p50 = [], [], [], []
        try:
            for _round in range(2):
                result = closed_loop_lookups(
                    conn, inputs.payloads, inputs.expected, inputs.reference,
                    inputs.volatile, LOOKUP_WINDOW, PHASE_S,
                )
                if result.failed:
                    run.fail("front answered wrongly in the comparison pass")
                through_rates.append(result.rate)
                through_p50.append(percentile(result.latencies, 0.5))
                rate, latencies = scatter_closed_loop(
                    workers, plans, LOOKUP_WINDOW, PHASE_S
                )
                direct_rates.append(rate)
                direct_p50.append(percentile(latencies, 0.5))
            shard0 = [
                [(0, payload) for shard, payload in plan if shard == 0]
                for plan in plans
            ]
            shard0 = [plan for plan in shard0 if plan]
            in_serve_rate, _ = scatter_closed_loop(
                workers, shard0, LOOKUP_WINDOW, PHASE_S
            )
        finally:
            for worker in workers:
                worker.close()
    finally:
        conn.close()
    return {
        "router": router,
        "through_over_direct": statistics.median(through_rates)
        / statistics.median(direct_rates),
        "front_overhead_us": (
            statistics.median(through_p50) - statistics.median(direct_p50)
        ) * 1e6,
        "in_serve_rate": in_serve_rate,
        "shard0_payloads": [plan[0][1] for plan in shard0],
    }


# -- the traced in-process replay -------------------------------------------


def replay_lookup(shards, payload: bytes, tracer) -> bytes:
    """One lookup request along the served path: client encode, front
    decode/split, per-worker codec + engine, front merge, client decode."""
    span = tracer.span
    with span("request"):
        with span("protocol.lookup_codec"):
            addresses = protocol.decode_addresses(payload)
        with span("router.split"):
            shard_of = shards.router.shard_of
            buckets: Dict[int, List[int]] = {}
            positions: Dict[int, List[int]] = {}
            for position, address in enumerate(addresses):
                shard = shard_of(address)
                buckets.setdefault(shard, []).append(address)
                positions.setdefault(shard, []).append(position)
        hops: List[Optional[int]] = [None] * len(addresses)
        for shard in sorted(buckets):
            with span("protocol.lookup_codec"):
                sub = protocol.decode_addresses(
                    protocol.encode_addresses(buckets[shard])
                )
            with span("engine.process_lookups"):
                answers = shards.workers[shard].lookup_batch(sub)
            with span("protocol.lookup_codec"):
                answers = protocol.decode_hops(protocol.encode_hops(answers))
            for position, hop in zip(positions[shard], answers):
                hops[position] = hop
        with span("protocol.lookup_codec"):
            reply = protocol.encode_hops(hops)
            protocol.decode_hops(reply)
    tracer.request += 1
    return reply


def replay_update(shards, payload: bytes, tracer) -> None:
    """One update request: front decode, fan-out, per-worker codec and
    durable group commit, ack merge."""
    span = tracer.span
    with span("request"):
        with span("protocol.update_codec"):
            messages = protocol.decode_updates(payload)
        with span("router.split"):
            batches: Dict[int, list] = {}
            for message in messages:
                for shard in shards.router.shards_covering(message.prefix):
                    batches.setdefault(shard, []).append(message)
        for shard in sorted(batches):
            with span("protocol.update_codec"):
                sub = protocol.decode_updates(
                    protocol.encode_updates(batches[shard])
                )
            with span("shard.update_batch"):
                ack = shards.workers[shard].update_batch(sub)
            with span("protocol.update_codec"):
                protocol.decode_update_ack(protocol.encode_update_ack(ack))
    tracer.request += 1


def timed_replay(shards, payloads: Sequence[bytes], tracer) -> float:
    """Lookups/s of one replay pass."""
    started = time.perf_counter()
    count = 0
    for payload in payloads:
        count += len(replay_lookup(shards, payload, tracer)) >> 2
    return count / (time.perf_counter() - started)


def _rate(call, addresses: Sequence[int], batch: int) -> Tuple[float, float]:
    """``(lookups/s, seconds per call)`` of ``call`` over ``addresses``."""
    chunks = [addresses[i:i + batch] for i in range(0, len(addresses), batch)]
    started = time.perf_counter()
    for chunk in chunks:
        call(chunk)
    elapsed = time.perf_counter() - started
    return len(addresses) / elapsed, elapsed / len(chunks)


def engine_split(system, addresses: Sequence[int]) -> Dict[str, float]:
    """Per-call set-up and per-packet cost from two batch sizes, the
    degraded/healthy ratio, on one shard's engine (best of two rounds)."""
    addresses = list(addresses[:LARGE_BATCH])
    small, large = [], []
    for _round in range(2):
        small.append(_rate(system.process_lookups, addresses, SMALL_BATCH))
        large.append(_rate(system.process_lookups, addresses, LARGE_BATCH))
    small_rate, small_call = max(small)
    large_rate, large_call = max(large)
    slope = (large_call - small_call) / (LARGE_BATCH - SMALL_BATCH)
    healthy, _ = _rate(system.process_lookups, addresses, 1024)
    system.fail_chip(0)
    degraded, _ = _rate(system.process_lookups, addresses, 1024)
    system.recover_chip(0)
    return {
        "engine.call_setup_us": (small_call - SMALL_BATCH * slope) * 1e6,
        "engine.ns_per_packet": slope * 1e9,
        "engine.small_over_large": small_rate / large_rate,
        "engine.degraded_over_healthy": degraded / healthy,
    }


def trace_updates(shards, payloads: Sequence[bytes], tracer: Tracer):
    """Replay update requests with every update-path layer wrapped."""
    for worker in shards.workers:
        system = worker.system
        pipeline = system.pipeline
        tracer.wrap(pipeline.trie_stage, "apply", "update.trie")
        tracer.wrap(pipeline.tcam_stage, "apply_diff", "update.tcam")
        tracer.wrap(pipeline.dred_stage, "apply", "update.dred")
        for chip in system.engine.chips:
            tracer.wrap(chip.table, "insert", "fastlpm.update")
            tracer.wrap(chip.table, "delete", "fastlpm.update")
        journal = worker.manager.journal
        tracer.wrap(journal, "append", "persist.append")
        tracer.wrap(journal, "sync", "persist.fsync")
        tracer.wrap(worker.manager, "commit_batch", "persist.commit_batch")
    before = _update_counters(shards)
    for payload in payloads:
        replay_update(shards, payload, tracer)
    after = _update_counters(shards)
    return {key: after[key] - before[key] for key in after}


def _update_counters(shards) -> Dict[str, int]:
    counters = dict.fromkeys(
        ("updates", "tcam_moves", "trie_nodes", "offered", "shed",
         "deferred", "applied"), 0
    )
    for worker in shards.workers:
        totals = worker.system.pipeline.totals
        scheduler = worker.system.scheduler.stats
        counters["updates"] += totals.updates
        counters["tcam_moves"] += totals.tcam_moves
        counters["trie_nodes"] += totals.trie_nodes
        counters["offered"] += scheduler.offered
        counters["shed"] += scheduler.shed
        counters["deferred"] += scheduler.deferred
        counters["applied"] += scheduler.applied
    return counters


def _mean_us(totals, name: str, per: Optional[int] = None) -> float:
    count, total_ns, _self_ns = totals.get(name, (0, 0, 0))
    divisor = per if per is not None else count
    return total_ns / divisor / 1e3 if divisor else 0.0


def engine_counters(stats: dict) -> Dict[str, int]:
    """Sum the workers' ``EngineStats`` from a front STATS snapshot."""
    keys = ("cycles", "arrivals", "completions", "dred_hits", "dred_misses",
            "diverted")
    totals = dict.fromkeys(keys, 0)
    for row in stats["shards"]:
        for key in keys:
            totals[key] += row["engine_stats"][key]
    return totals


def layer_metrics(run, lookups, updates, stats, extra, out_dir: Path, src: Path):
    """Every per-layer metric of one run (see BENCHMARK.json)."""
    from drive import metric, percentile
    from repro.compress.onrtc import compress
    from repro.engine.fastlpm import FastLpmTable
    from repro.partition.even import even_partition
    from repro.serve.shard import ShardSet
    from repro.trie.trie import BinaryTrie
    from serverctl import ServerProcess

    inputs = run.inputs
    routes = inputs.routes
    config = server_config()
    metrics: Dict[str, Dict[str, object]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = metric(value, unit)

    # Set-up layers: ONRTC compression, even partitioning, worker spawn.
    started = time.perf_counter()
    compressed = compress(BinaryTrie.from_routes(routes), config.compression_mode)
    put("compress.build_s", time.perf_counter() - started, "s")
    put("compress.ratio", len(compressed) / len(routes), "ratio")
    ordered = sorted(compressed.items(), key=lambda route: route[0].sort_key())
    started = time.perf_counter()
    partition = even_partition(ordered, config.partition_count)
    put("partition.build_s", time.perf_counter() - started, "s")
    put("partition.max_over_mean", partition.imbalance, "ratio")
    worker = ServerProcess(
        src,
        [
            "serve", "--shards", str(SHARDS), "--shard-index", "0",
            "--chips", str(CHIPS), "--dred", str(DRED), "--backend", BACKEND,
            "--port", "0", "--table", str(inputs.table_path),
        ],
        run.workdir,
    )
    try:
        worker.wait_port()
        put("serve.spawn_s", time.perf_counter() - worker.started, "s")
    finally:
        worker.stop()

    shards = ShardSet.build(
        routes, SHARDS, config, journal_dir=run.workdir / "trace-journal"
    )
    router = shards.router
    lookups_per_pass = min(
        REPLAY_REQUESTS, max(1, REPLAY_ADDRESSES // run.workload.batch_size)
    )
    payloads = inputs.payloads[:lookups_per_pass]

    # Engine split and raw stride table, before any update touches the
    # tables (the disjointness certificate still holds).
    shard0 = [a for batch in inputs.batches for a in batch
              if router.shard_of(a) == 0]
    system0 = shards.workers[0].system
    for name, value in engine_split(system0, shard0).items():
        put(name, value, {"engine.call_setup_us": "us",
                          "engine.ns_per_packet": "ns"}.get(name, "ratio"))
    # The worker's own sub-batches, called the way the worker calls them.
    standalone = [
        protocol.decode_addresses(payload)
        for payload in extra["shard0_payloads"][:lookups_per_pass]
    ]
    started = time.perf_counter()
    for batch in standalone:
        system0.process_lookups(batch)
    standalone_rate = sum(map(len, standalone)) / (time.perf_counter() - started)
    put("engine.in_serve_over_standalone",
        extra["in_serve_rate"] / standalone_rate, "ratio")
    raw = FastLpmTable(routes)
    pool = [a for batch in inputs.batches for a in batch][:REPLAY_ADDRESSES]
    started = time.perf_counter()
    for address in pool:
        raw.lookup(address)
    put("fastlpm.lookups_per_s", len(pool) / (time.perf_counter() - started),
        "lookups/s")

    # Lookup replay: warm, then untraced and traced passes alternated.
    timed_replay(shards, payloads[: max(1, len(payloads) // 4)], NullTracer())
    tracer = Tracer()
    untraced, traced = [], []
    for _round in range(2):
        # Alternate which goes first so warming favours neither.
        untraced.append(timed_replay(shards, payloads, NullTracer()))
        traced.append(timed_replay(shards, payloads, tracer))
        traced.append(timed_replay(shards, payloads, tracer))
        untraced.append(timed_replay(shards, payloads, NullTracer()))
    put("trace.overhead", statistics.median(traced) / statistics.median(untraced),
        "ratio")
    totals = tracer.totals()
    requests = len(traced) * len(payloads)
    put("protocol.lookup_codec_us_per_req",
        _mean_us(totals, "protocol.lookup_codec", requests), "us")
    put("router.split_us_per_req", _mean_us(totals, "router.split", requests),
        "us")
    put("router.shards_per_req",
        totals["engine.process_lookups"][0] / requests, "count")

    # Update replay, traced through every update-path layer.
    update_payloads = [request.payload
                       for request in inputs.updates[:REPLAY_UPDATES]]
    messages = sum(len(request.messages)
                   for request in inputs.updates[:REPLAY_UPDATES])
    counts = trace_updates(shards, update_payloads, tracer)
    totals = tracer.totals()
    put("protocol.update_codec_us_per_msg",
        _mean_us(totals, "protocol.update_codec", messages), "us")
    put("update.trie_us_per_msg", _mean_us(totals, "update.trie"), "us")
    put("update.tcam_us_per_msg", _mean_us(totals, "update.tcam"), "us")
    put("update.dred_us_per_msg", _mean_us(totals, "update.dred"), "us")
    put("fastlpm.update_us_per_op", _mean_us(totals, "fastlpm.update"), "us")
    applied = max(1, counts["updates"])
    put("update.tcam_moves_per_msg", counts["tcam_moves"] / applied, "count")
    put("update.trie_nodes_per_msg", counts["trie_nodes"] / applied, "count")
    put("update.shed_frac", counts["shed"] / max(1, counts["offered"]),
        "fraction")
    put("update.deferred_frac", counts["deferred"] / max(1, counts["applied"]),
        "fraction")
    put("persist.append_us_per_record", _mean_us(totals, "persist.append"),
        "us")
    put("persist.fsync_us", _mean_us(totals, "persist.fsync"), "us")
    put("persist.fsyncs_per_req",
        totals["persist.fsync"][0] / totals["persist.commit_batch"][0],
        "count")

    # Restore: replay the journal the traced updates wrote.
    for shard in shards.workers:
        shard.manager.close()
    started = time.perf_counter()
    _restored, reports = ShardSet.restore(run.workdir / "trace-journal",
                                          config=config)
    put("persist.restore_replay_s", time.perf_counter() - started, "s")
    put("persist.replay_records",
        sum(report.replayed_records for report in reports), "count")

    # Guards from the live server's engine counters.
    engine = engine_counters(stats)
    probes = engine["dred_hits"] + engine["dred_misses"]
    put("engine.dred_hit_rate", engine["dred_hits"] / max(1, probes),
        "fraction")
    put("engine.diverted_frac", engine["diverted"] / max(1, engine["arrivals"]),
        "fraction")
    put("engine.cycles_per_packet",
        engine["cycles"] / max(1, engine["completions"]), "cycles")

    # Same-run ratios from the live server.
    put("front.through_over_direct", extra["through_over_direct"], "ratio")
    put("front.overhead_us_per_req", extra["front_overhead_us"], "us")
    put("serve.restore_s", extra["restore_s"], "s")

    # Generator diagnostics from the timed window.
    put("loadgen.sched_lag_p99_ms", percentile(updates.lags, 0.99) * 1e3, "ms")
    put("loadgen.lookup_p99_ms", percentile(lookups.latencies, 0.99) * 1e3, "ms")
    put("loadgen.update_ack_p99_ms", percentile(updates.latencies, 0.99) * 1e3,
        "ms")
    quarters = lookups.quarter_rates(run.seconds)
    for number, rate in enumerate(quarters, 1):
        put(f"loadgen.q{number}_lookup_rate", rate, "lookups/s")
    put("loadgen.rate_drift", quarters[3] / quarters[0], "ratio")

    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace-{run.workload.name}-{run.seed}.json")
    return metrics
