"""Engine throughput — reference trie vs. flattened fast path.

The first engine-throughput trajectory point (every earlier bench measured
*what* the engine computes; this one measures how fast the simulator gets
there).  Both backends run the seeded Figure 15 workload — same RIB, same
partition placement, same pre-generated address stream — and must produce
**byte-identical** statistics fingerprints; only then are the packets/sec
and cycles/sec numbers comparable, and only then do they land in
``results/BENCH_engine.json``.

Two partition→chip placements are measured: the paper's natural Figure 15
mapping (``fig15``, the primary configuration the ≥5x gate applies to)
and the Table II adversarial mapping (``adversarial``, which pins the
hottest partitions on chip 0 and makes the run divert-heavy — the
configuration that stresses the DRed fast path).

A third measurement gates the engine's per-call set-up cost:
``ClueSystem.process_lookups`` in the serving configuration, at batch 64
and at batch 16,384 over the same addresses.  Their rate ratio
(``small_over_large``) must stay at or above 0.4 in both run modes.

Runs two ways:

* ``python benchmarks/bench_engine.py`` — the full ≥5x gate (200k packets)
  that produces the committed ``BENCH_engine.json``;
* ``python benchmarks/bench_engine.py --quick`` — CI's bench-smoke: a
  small run that still asserts fingerprint equality and checks the fast
  backend against the ``floor_packets_per_sec`` stored in the committed
  JSON (a conservative lower bound, not a race: it only trips on a
  regression measured in multiples, never on machine jitter).

Also collected by ``pytest benchmarks/`` as a quick-mode test.
"""

import argparse
import gc
import json
import sys
import time
from pathlib import Path

if __package__ is None and __name__ == "__main__":
    # Standalone invocation: make src/ importable without installation.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.summarize import format_table
from repro.core import ClueSystem, SystemConfig
from repro.engine.builders import (
    build_clue_engine,
    map_partitions_to_chips,
    measure_partition_load,
)
from repro.engine.fastlpm import BackendMismatchError
from repro.engine.simulator import EngineConfig
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.trafficgen import TrafficGenerator, TrafficParameters

RESULTS_DIR = Path(__file__).resolve().parent / "results"
RESULT_FILE = RESULTS_DIR / "BENCH_engine.json"
QUICK_RESULT_FILE = RESULTS_DIR / "BENCH_engine_quick.json"

#: Figure 15 settings (4 chips, 4 clocks/lookup, 256 FIFO, 1024 DRed).
RIB_SEED = 101
RIB_SIZE = 8_000
TRAFFIC_SEED = 61
FIG15_TRAFFIC = TrafficParameters(zipf_exponent=1.4)

FULL_PACKETS = 200_000
QUICK_PACKETS = 20_000
#: The acceptance gate for the full run.
REQUIRED_SPEEDUP = 5.0
#: Timing repetitions per backend.  Reps alternate trie/fast so machine
#: noise (frequency scaling, neighbours) hits both backends alike; each
#: backend reports its best rep — the run closest to the actual cost of
#: the simulation rather than of the machine's distractions.
RUN_REPS = 3
#: Batch sizes of the call-overhead gate.
SMALL_BATCH = 64
LARGE_BATCH = 16_384
#: Gate on the batch-64 over batch-16384 lookup rate.  The ROADMAP's
#: target is 0.6; reaching it waits on keeping the memoised DRed target
#: sets (``replica_targets``) across calls instead of rebuilding them.
REQUIRED_SMALL_OVER_LARGE = 0.4


def engine_config(backend):
    return EngineConfig(
        chip_count=4,
        lookup_cycles=4,
        queue_capacity=256,
        dred_capacity=1024,
        arrivals_per_cycle=1.0,
        lookup_backend=backend,
    )


def adversarial_loads(rib, packets):
    """The Table II adversarial placement used by the Fig. 15 bench."""
    probe = build_clue_engine(rib, engine_config("trie"))
    sample = TrafficGenerator(
        rib, seed=TRAFFIC_SEED, parameters=FIG15_TRAFFIC
    ).take(packets)
    loads = measure_partition_load(
        probe.index, sample, probe.partition_result.count
    )
    # The mapping itself is derived inside build_clue_engine; reuse the
    # measured loads so every backend sees the identical placement.
    map_partitions_to_chips(len(loads), 4, loads)
    return loads, sample


def run_backend(rib, loads, addresses, backend):
    """Build and run one engine; returns (stats, build_sec, run_sec).

    The timed region runs with the cyclic collector paused (standard
    benchmarking practice; both backends get identical treatment): the
    engine allocates a packet-rate stream of short-lived objects, and GC
    pauses otherwise inject double-digit-percent noise that swamps the
    backend comparison.
    """
    build_start = time.perf_counter()
    built = build_clue_engine(rib, engine_config(backend), partition_loads=loads)
    build_sec = time.perf_counter() - build_start
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run_start = time.perf_counter()
        stats = built.engine.run(iter(addresses), len(addresses))
        run_sec = time.perf_counter() - run_start
    finally:
        if gc_was_enabled:
            gc.enable()
    return stats, build_sec, run_sec


def timed_batches(system, addresses, batch):
    """Answer ``addresses`` in ``batch``-sized calls; (hops, seconds)."""
    chunks = [
        addresses[start:start + batch]
        for start in range(0, len(addresses), batch)
    ]
    hops = []
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for chunk in chunks:
            hops.extend(system.process_lookups(chunk))
        elapsed = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    return hops, elapsed


def bench_call_overhead(rib, addresses):
    """Small- versus large-batch ``process_lookups`` rate, same run.

    One serving-configured system (4 chips, DRed 1024, fast backend)
    answers the same addresses at both batch sizes, alternating reps;
    each size reports its best rep.  Every rep must return the same
    answers.
    """
    system = ClueSystem(rib, SystemConfig(engine=engine_config("fast")))
    addresses = list(addresses[:LARGE_BATCH])
    best = {}
    first = None
    for _rep in range(RUN_REPS):
        for batch in (SMALL_BATCH, LARGE_BATCH):
            hops, elapsed = timed_batches(system, addresses, batch)
            if first is None:
                first = hops
            elif hops != first:
                raise AssertionError(f"batch-{batch} answers diverged")
            best[batch] = min(elapsed, best.get(batch, elapsed))
    small_rate = len(addresses) / best[SMALL_BATCH]
    large_rate = len(addresses) / best[LARGE_BATCH]
    return {
        "addresses": len(addresses),
        "small_batch": SMALL_BATCH,
        "large_batch": LARGE_BATCH,
        "small_lookups_per_sec": round(small_rate, 1),
        "large_lookups_per_sec": round(large_rate, 1),
        "small_over_large": round(small_rate / large_rate, 3),
    }


def bench_trafficgen(rib, count):
    """Satellite: batched take() vs. the per-call next_packet() loop."""
    single = TrafficGenerator(rib, seed=TRAFFIC_SEED, parameters=FIG15_TRAFFIC)
    start = time.perf_counter()
    loop_addresses = [single.next_packet() for _ in range(count)]
    loop_sec = time.perf_counter() - start
    batched = TrafficGenerator(rib, seed=TRAFFIC_SEED, parameters=FIG15_TRAFFIC)
    start = time.perf_counter()
    take_addresses = batched.take(count)
    take_sec = time.perf_counter() - start
    if take_addresses != loop_addresses:
        raise AssertionError("take() diverged from the next_packet() stream")
    return {
        "addresses": count,
        "next_packet_per_sec": round(count / loop_sec, 1),
        "take_per_sec": round(count / take_sec, 1),
        "take_speedup": round(loop_sec / take_sec, 3),
    }


def run_bench(packets, rib=None):
    """Run the reference/fast comparison; returns the JSON payload."""
    if rib is None:
        rib = generate_rib(RIB_SEED, RibParameters(size=RIB_SIZE))
    rib = list(rib)
    loads, warm_sample = adversarial_loads(rib, packets)
    addresses = TrafficGenerator(
        rib, seed=TRAFFIC_SEED, parameters=FIG15_TRAFFIC
    ).take(packets)

    placements = {
        "fig15": run_placement(rib, None, addresses),
        "adversarial": run_placement(rib, loads, addresses),
    }

    # Exercise the parity-checking backend on a slice of the same stream
    # (it cross-checks every lookup, so a short run suffices).
    verify_stats, _, _ = run_backend(
        rib, None, addresses[: min(2_000, packets)], "verify"
    )
    if verify_stats.completions != min(2_000, packets):
        raise AssertionError("verify backend lost packets")

    primary = placements["fig15"]
    return {
        "workload": {
            "rib_seed": RIB_SEED,
            "rib_size": len(rib),
            "traffic_seed": TRAFFIC_SEED,
            "zipf_exponent": FIG15_TRAFFIC.zipf_exponent,
            "packets": packets,
            "chips": 4,
            "partition_loads_sample": len(warm_sample),
        },
        # The primary (Fig. 15 natural-placement) comparison stays at the
        # top level: the ≥5x gate, the CI floor check and older tooling
        # all read these keys.
        "stats_fingerprint": primary["stats_fingerprint"],
        "backends": primary["backends"],
        "fast_over_trie_packets_per_sec": primary[
            "fast_over_trie_packets_per_sec"
        ],
        "placements": placements,
        "call_overhead": bench_call_overhead(rib, addresses),
        "trafficgen": bench_trafficgen(rib, packets),
    }


def run_placement(rib, loads, addresses):
    """Alternating-rep trie/fast comparison for one chip placement."""
    results = {}
    fingerprints = {}
    rep_times = {"trie": [], "fast": []}
    for _rep in range(RUN_REPS):
        for backend in ("trie", "fast"):
            stats, build_sec, run_sec = run_backend(
                rib, loads, addresses, backend
            )
            fingerprint = fingerprints.setdefault(
                backend, stats.fingerprint()
            )
            if stats.fingerprint() != fingerprint:
                raise AssertionError(
                    f"{backend} backend diverged across repetitions"
                )
            rep_times[backend].append(round(run_sec, 4))
            best = results.get(backend)
            if best is not None and best["run_sec"] <= run_sec:
                continue
            results[backend] = {
                "build_sec": round(build_sec, 4),
                "run_sec": round(run_sec, 4),
                "packets_per_sec": round(stats.completions / run_sec, 1),
                "cycles_per_sec": round(stats.cycles / run_sec, 1),
                "cycles": stats.cycles,
                "dred_hit_rate": round(stats.dred_hit_rate, 4),
                "speedup_factor": round(stats.speedup(4), 3),
            }
    for backend in results:
        results[backend]["rep_run_secs"] = rep_times[backend]
    if fingerprints["trie"] != fingerprints["fast"]:
        raise AssertionError(
            "stats fingerprints diverged between backends: "
            f"trie={fingerprints['trie']} fast={fingerprints['fast']}"
        )
    speedup = (
        results["fast"]["packets_per_sec"] / results["trie"]["packets_per_sec"]
    )
    return {
        "stats_fingerprint": fingerprints["fast"],
        "backends": results,
        "fast_over_trie_packets_per_sec": round(speedup, 3),
    }


def render(payload):
    rows = [
        (
            backend,
            f"{entry['packets_per_sec']:,.0f}",
            f"{entry['cycles_per_sec']:,.0f}",
            f"{entry['run_sec']:.2f}s",
            f"{entry['build_sec']:.2f}s",
        )
        for backend, entry in payload["backends"].items()
    ]
    text = format_table(
        ["backend", "packets/sec", "cycles/sec", "run", "build"], rows
    )
    traffic = payload["trafficgen"]
    adversarial = payload["placements"]["adversarial"]
    overhead = payload["call_overhead"]
    text += (
        f"\nfast/trie packets-per-sec ratio (fig15): "
        f"{payload['fast_over_trie_packets_per_sec']:.2f}x"
        f"\nfast/trie packets-per-sec ratio (adversarial): "
        f"{adversarial['fast_over_trie_packets_per_sec']:.2f}x"
        f"\nprocess_lookups batch-{overhead['small_batch']} over "
        f"batch-{overhead['large_batch']} rate: "
        f"{overhead['small_over_large']:.2f}"
        f"\nstats fingerprint (both backends): "
        f"{payload['stats_fingerprint'][:16]}…"
        f"\ntrafficgen take() vs next_packet(): "
        f"{traffic['take_speedup']:.2f}x"
    )
    return text


def stored_floor():
    if not RESULT_FILE.exists():
        return None
    return json.loads(RESULT_FILE.read_text()).get("floor_packets_per_sec")


def call_overhead_ok(payload):
    """The same-run per-call set-up gate, applied in both run modes."""
    ratio = payload["call_overhead"]["small_over_large"]
    if ratio >= REQUIRED_SMALL_OVER_LARGE:
        return True
    print(
        f"per-call set-up too costly: batch-{SMALL_BATCH} runs at "
        f"{ratio:.2f}x the batch-{LARGE_BATCH} rate "
        f"(gate: {REQUIRED_SMALL_OVER_LARGE})",
        file=sys.stderr,
    )
    return False


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: small packet count, floor check instead of 5x gate",
    )
    args = parser.parse_args(argv)

    packets = QUICK_PACKETS if args.quick else FULL_PACKETS
    try:
        payload = run_bench(packets)
    except (AssertionError, BackendMismatchError) as exc:
        print(f"bench failed: {exc}", file=sys.stderr)
        return 1
    print(render(payload))

    RESULTS_DIR.mkdir(exist_ok=True)
    if args.quick:
        floor = stored_floor()
        payload["floor_packets_per_sec"] = floor
        QUICK_RESULT_FILE.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="ascii"
        )
        fast_rate = payload["backends"]["fast"]["packets_per_sec"]
        if floor is not None and fast_rate < floor:
            print(
                f"fast backend regressed: {fast_rate:,.0f} packets/sec "
                f"below the stored floor {floor:,.0f}",
                file=sys.stderr,
            )
            return 1
        return 0 if call_overhead_ok(payload) else 1

    ratio = payload["fast_over_trie_packets_per_sec"]
    if ratio < REQUIRED_SPEEDUP:
        print(
            f"fast backend only {ratio:.2f}x over trie "
            f"(gate: {REQUIRED_SPEEDUP}x)",
            file=sys.stderr,
        )
        return 1
    if not call_overhead_ok(payload):
        return 1
    # The CI floor: deliberately far below the measured rate so it only
    # trips on order-of-magnitude regressions, not machine variance.
    previous = stored_floor()
    measured = payload["backends"]["fast"]["packets_per_sec"]
    payload["floor_packets_per_sec"] = (
        previous if previous is not None else round(measured / 10.0)
    )
    RESULT_FILE.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="ascii"
    )
    print(f"wrote {RESULT_FILE}")
    return 0


def test_engine_throughput(record, bench_rib):
    """Pytest entry point: quick-mode comparison on the shared bench RIB."""
    payload = run_bench(QUICK_PACKETS, rib=bench_rib)
    record("engine_throughput", render(payload))
    assert payload["fast_over_trie_packets_per_sec"] > 1.0
    assert payload["trafficgen"]["take_speedup"] > 1.0


if __name__ == "__main__":
    sys.exit(main())
