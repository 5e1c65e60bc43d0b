"""Equivalence tests for the engine's fast paths.

Two optimisations must be invisible in the statistics:

* the event-driven cycle skip in ``_run_reference`` (quiescent cycles are
  jumped over with closed-form counter catch-up), and
* the fused ``_run_turbo`` loop used for all-``fast``-backend CLUE runs.

Each test pits an optimised run against a configuration that forces the
plain cycle-by-cycle loop (an ``on_cycle`` observer disables skipping; a
``trie`` backend or an observer disables turbo) and requires *byte
identical* stats fingerprints — every counter, not headline numbers.
"""

import pytest

from repro.engine.builders import build_clue_engine
from repro.engine.simulator import EngineConfig
from repro.faults import FaultInjector, FaultSchedule
from repro.net.prefix import Prefix
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.trafficgen import TrafficGenerator

PACKETS = 3_000

#: Pinned fingerprint for the seeded workload below (rib seed 11, traffic
#: seed 17, 4 chips, 3k packets, rate 1.0).  Both backends and both run
#: loops must reproduce it exactly; a change here means the engine's
#: observable behaviour changed and needs a deliberate re-pin.
GOLDEN_FINGERPRINT = (
    "fbabe55d18741c028f03c1ce28e42a2c8f0d80c792071b599794a4c7f29a65c3"
)


@pytest.fixture(scope="module")
def routes():
    return generate_rib(11, RibParameters(size=2_000))


def fresh_engine(routes, backend="trie", rate=1.0, observer=None):
    built = build_clue_engine(
        routes,
        EngineConfig(
            chip_count=4, lookup_backend=backend, arrivals_per_cycle=rate
        ),
    )
    built.engine.on_cycle = observer
    return built.engine


def run_stats(routes, packets=PACKETS, traffic_seed=17, **kwargs):
    engine = fresh_engine(routes, **kwargs)
    stats = engine.run(TrafficGenerator(routes, seed=traffic_seed), packets)
    assert engine.verify_completions()
    return engine, stats


class TestCycleSkip:
    """Skipping quiescent cycles must not change any counter."""

    @pytest.mark.parametrize("rate", [1.0, 0.3, 0.25])
    def test_skip_matches_observed_run(self, routes, rate):
        # An attached observer forces the cycle-by-cycle loop; fractional
        # rates interleave quiescent cycles between arrivals so the
        # unobserved run actually exercises the skip (and its fractional
        # credit replay).
        seen = []
        _, observed = run_stats(
            routes, rate=rate, observer=seen.append, packets=1_000
        )
        _, skipped = run_stats(routes, rate=rate, packets=1_000)
        assert skipped.fingerprint() == observed.fingerprint()
        # The observer saw every cycle exactly once, in order.
        assert seen == list(range(observed.cycles))

    def test_skip_matches_under_faults(self, routes):
        # Stalls and a chip death/revival create long quiescent stretches;
        # the skip must consult the schedule's next_cycle and land faults
        # on exactly the right cycle.
        def faulted(observer):
            engine = fresh_engine(routes, rate=0.25, observer=observer)
            schedule = (
                FaultSchedule(seed=3)
                .stall(cycle=300, chip=1, cycles=200)
                .chip_down(2_000, chip=2)
                .chip_up(4_000, chip=2)
            )
            engine.fault_injector = FaultInjector(engine, schedule)
            stats = engine.run(
                TrafficGenerator(routes, seed=19), 1_500
            )
            assert engine.verify_completions()
            return stats

        observed = faulted(lambda cycle: None)
        skipped = faulted(None)
        assert skipped.chip_failures == 1
        assert skipped.chip_recoveries == 1
        assert skipped.fingerprint() == observed.fingerprint()

    def test_opaque_fault_source_disables_skip(self, routes):
        # A fault injector that does not expose ``next_cycle`` makes the
        # next fault unpredictable, so the engine must fall back to
        # visiting every cycle — and still agree with the observed run.
        class OpaqueInjector:
            def tick(self, cycle):
                return 0

        engine = fresh_engine(routes, rate=0.5)
        engine.fault_injector = OpaqueInjector()
        stats = engine.run(TrafficGenerator(routes, seed=23), 800)
        _, observed = run_stats(
            routes, rate=0.5, traffic_seed=23, packets=800,
            observer=lambda cycle: None,
        )
        # Only the fault-injector attachment differs, and it never fires.
        assert stats.fingerprint() == observed.fingerprint()

    def test_cycle_budget_still_enforced(self, routes):
        engine = fresh_engine(routes, rate=0.1)
        with pytest.raises(RuntimeError, match="cycle budget"):
            engine.run(TrafficGenerator(routes, seed=29), 500, max_cycles=50)


class TestTurboParity:
    """The fused fast-backend loop must match the reference loop exactly."""

    def test_backends_fingerprint_identical(self, routes):
        _, trie_stats = run_stats(routes, backend="trie")
        _, fast_stats = run_stats(routes, backend="fast")
        assert fast_stats.fingerprint() == trie_stats.fingerprint()

    def test_turbo_matches_forced_reference(self, routes):
        # Same fast backend, but an observer forces _run_reference — this
        # isolates the run-loop difference from the backend difference.
        _, turbo = run_stats(routes, backend="fast")
        _, reference = run_stats(
            routes, backend="fast", observer=lambda cycle: None
        )
        assert turbo.fingerprint() == reference.fingerprint()

    def test_verify_backend_agrees(self, routes):
        # The cross-checking backend runs the reference loop with both
        # tables consulted per lookup; any drift raises, and the stats
        # must still land on the same fingerprint.
        _, trie_stats = run_stats(routes, packets=600)
        _, verify_stats = run_stats(routes, backend="verify", packets=600)
        assert verify_stats.fingerprint() == trie_stats.fingerprint()

    def test_fractional_rate_parity(self, routes):
        _, trie_stats = run_stats(routes, backend="trie", rate=0.3)
        _, fast_stats = run_stats(routes, backend="fast", rate=0.3)
        assert fast_stats.fingerprint() == trie_stats.fingerprint()

    def test_parity_survives_updates_between_runs(self, routes):
        # Mid-sequence table updates invalidate the disjointness token
        # (mutations counter moves), so the turbo loop must drop to its
        # probe-plan DRed scan — and still match the trie run doing the
        # same updates.
        extra = routes[100][0], 9  # hop change on a live route

        def churned(backend):
            engine = fresh_engine(routes, backend=backend)
            traffic = TrafficGenerator(routes, seed=31)
            engine.run(traffic, 1_000)
            for chip in engine.chips:
                if extra[0] in chip.table:
                    chip.table.insert(*extra)
            stats = engine.run(traffic, 1_000)
            assert engine.verify_completions(covered_only=True)
            return stats

        assert churned("fast").fingerprint() == churned("trie").fingerprint()

    @staticmethod
    def sweep_stamp(engine):
        """The stamp a passing provenance sweep leaves on ``engine`` now."""
        return (
            engine._disjoint_token,
            tuple(
                (id(chip.dred), chip.dred.insertions)
                for chip in engine.chips
            ),
        )

    def test_unchanged_engine_keeps_its_sweep_stamp(self, routes):
        engine = fresh_engine(routes, backend="fast")
        traffic = TrafficGenerator(routes, seed=31)
        for _ in range(2):
            engine.run(traffic, 1_000)
            assert engine._dred_verified == self.sweep_stamp(engine)

    def test_stale_dred_entry_forces_the_probe_scan(self, routes):
        # A DRed insert outside the fused loop voids the sweep stamp.  The
        # covering 137.0.0.0/8 is no MAIN entry on any chip, so the next
        # run's sweep fails and the loop must take the probe-plan scan —
        # where the /8 answers diverted packets whose exact entry is not
        # cached, exactly as the trie backend's reference loop does.  Its
        # hop is the one every routed address under it resolves to, so
        # the answers stay correct.
        addresses = TrafficGenerator(routes, seed=31).take(2_000)
        warm, probe = addresses[:1_000], addresses[1_000:]
        stale = Prefix(137, 8)

        def tampered(backend):
            engine = fresh_engine(routes, backend=backend)
            engine.run(iter(warm), len(warm))
            assert all(stale not in chip.table for chip in engine.chips)
            (hop,) = {
                engine.reference.lookup(address) for address in probe
                if stale.contains_address(address)
            } - {None}
            owner = engine.home_of(stale.network)
            assert owner != 2
            engine.chips[2].dred.insert(stale, hop, owner)
            stale_stamp = engine._dred_verified
            stats = engine.run(iter(probe), len(probe))
            assert engine.verify_completions(covered_only=True)
            return engine, stale_stamp, stats

        fast, stale_stamp, fast_stats = tampered("fast")
        # The failed sweep did not renew the stamp.
        assert stale_stamp is not None
        assert fast._dred_verified == stale_stamp
        assert fast._dred_verified != self.sweep_stamp(fast)
        _, _, trie_stats = tampered("trie")
        assert fast_stats.fingerprint() == trie_stats.fingerprint()

    def test_dead_chip_forces_reference_and_matches(self, routes):
        # A dead chip fails the turbo gate; the fast backend must take the
        # reference loop and agree with the trie backend's identical run.
        def killed(backend):
            engine = fresh_engine(routes, backend=backend)
            engine.kill_chip(1)
            stats = engine.run(TrafficGenerator(routes, seed=37), 1_000)
            assert engine.verify_completions()
            return stats

        assert killed("fast").fingerprint() == killed("trie").fingerprint()


class TestDeterminismPin:
    """Golden fingerprint: the engine's observable behaviour is pinned."""

    @pytest.mark.parametrize("backend", ["trie", "fast"])
    def test_golden_fingerprint(self, routes, backend):
        _, stats = run_stats(routes, backend=backend)
        assert stats.fingerprint() == GOLDEN_FINGERPRINT
