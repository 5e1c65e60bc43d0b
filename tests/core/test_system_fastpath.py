"""ClueSystem under the ``fast`` lookup backend.

The integrated system must behave identically on every backend — same
engine statistics, same lookups, same snapshots — while the fast backend
actually takes the fused turbo loop for calm all-chips-alive traffic.
These tests drive the full facade (traffic, updates, rebalance, failover,
checkpoint/restore) rather than the bare engine.
"""

import pytest

from repro.core import ClueSystem, SystemConfig
from repro.engine.simulator import EngineConfig
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.trafficgen import TrafficGenerator
from repro.workload.updategen import UpdateGenerator


@pytest.fixture(scope="module")
def system_rib():
    return generate_rib(21, RibParameters(size=3_000))


def fast_system(system_rib):
    return ClueSystem(
        system_rib,
        SystemConfig(engine=EngineConfig(lookup_backend="fast")),
    )


def trie_system(system_rib):
    return ClueSystem(system_rib)


class TestTrafficParity:
    def test_stats_fingerprint_matches_trie(self, system_rib):
        results = {}
        for name, builder in (("fast", fast_system), ("trie", trie_system)):
            system = builder(system_rib)
            stats = system.process_traffic(
                TrafficGenerator(system_rib, seed=5), 4_000
            )
            assert system.engine.verify_completions()
            results[name] = stats.fingerprint()
        assert results["fast"] == results["trie"]

    def test_construction_certifies_disjoint_tables(self, system_rib):
        system = fast_system(system_rib)
        assert system.engine._disjoint_token is not None

    def test_control_plane_lookup_unchanged(self, system_rib):
        fast = fast_system(system_rib)
        trie = trie_system(system_rib)
        for prefix, _hop in system_rib[:300]:
            assert fast.lookup(prefix.network) == trie.lookup(prefix.network)


class TestUpdatesUnderFastBackend:
    def test_updates_apply_and_parity_survives(self, system_rib):
        """Updates invalidate the disjointness certificate (mutation
        counters move); traffic afterwards must still match the trie
        system applying the identical update stream."""
        fingerprints = {}
        for name, builder in (("fast", fast_system), ("trie", trie_system)):
            system = builder(system_rib)
            traffic = TrafficGenerator(system_rib, seed=7)
            system.process_traffic(traffic, 2_000)
            samples = system.apply_updates(
                UpdateGenerator(system_rib, seed=9).take(200)
            )
            assert len(samples) == 200
            # (verify_completions is not applicable here: completions
            # recorded before the updates are checked against the *new*
            # reference table.  Cross-backend fingerprint equality is the
            # correctness bar.)
            stats = system.process_traffic(traffic, 2_000)
            fingerprints[name] = stats.fingerprint()
        assert fingerprints["fast"] == fingerprints["trie"]

    def test_rebalance_renews_certificate(self, system_rib):
        system = fast_system(system_rib)
        system.apply_updates(UpdateGenerator(system_rib, seed=11).take(100))
        token_after_updates = system.engine._disjoint_token
        report = system.rebalance()
        assert report.partition_sizes
        token_after_rebalance = system.engine._disjoint_token
        assert token_after_rebalance != token_after_updates
        # The renewed certificate must actually match the live tables.
        assert token_after_rebalance == tuple(
            (id(chip.table), chip.table.mutations)
            for chip in system.engine.chips
        )
        stats = system.process_traffic(
            TrafficGenerator(system_rib, seed=13), 2_000
        )
        assert stats.completions == stats.arrivals


class TestFailoverUnderFastBackend:
    def test_chip_death_falls_back_and_recovers(self, system_rib):
        fingerprints = {}
        for name, builder in (("fast", fast_system), ("trie", trie_system)):
            system = builder(system_rib)
            system.fail_chip(1)
            stats = system.process_traffic(
                TrafficGenerator(system_rib, seed=17), 2_000
            )
            assert system.engine.verify_completions()
            assert stats.failed_over_packets > 0
            system.recover_chip(1)
            stats = system.process_traffic(
                TrafficGenerator(system_rib, seed=17), 1_000
            )
            fingerprints[name] = stats.fingerprint()
        assert fingerprints["fast"] == fingerprints["trie"]


def home_probe_addresses(system):
    """Addresses where a stale flattened home index would show: around
    every partition boundary, its /16 block's ends, and the space ends."""
    addresses = {0, (1 << 32) - 1}
    for boundary in system.index.boundaries:
        block = boundary & ~0xFFFF
        addresses.update(
            (boundary - 1, boundary, boundary + 1, block, block | 0xFFFF)
        )
    return sorted(a for a in addresses if 0 <= a < 1 << 32)


def assert_home_index_parity(system):
    for address in home_probe_addresses(system):
        expected = system.partition_to_chip[system.index.home_of(address)]
        assert system.engine.home_of(address) == expected, hex(address)


class TestHomeIndex:
    def test_flat_index_follows_every_repartition(self, system_rib):
        system = fast_system(system_rib)
        assert_home_index_parity(system)
        # Updates move the even-partition boundaries a rebalance recuts.
        system.apply_updates(UpdateGenerator(system_rib, seed=11).take(100))
        boundaries = list(system.index.boundaries)
        system.rebalance()
        assert system.index.boundaries != boundaries
        assert_home_index_parity(system)
        system.fail_chip(1)
        system.rebalance()
        assert 1 not in system.partition_to_chip
        assert_home_index_parity(system)
        restored = ClueSystem.from_state(system.capture_state())
        assert restored.partition_to_chip == system.partition_to_chip
        assert_home_index_parity(restored)


class TestSnapshotRoundTrip:
    def test_backend_survives_capture_restore(self, system_rib):
        system = fast_system(system_rib)
        system.process_traffic(TrafficGenerator(system_rib, seed=19), 1_500)
        system.apply_updates(UpdateGenerator(system_rib, seed=23).take(50))
        fingerprint = system.state_fingerprint()

        restored = ClueSystem.from_state(system.capture_state())
        assert restored.config.engine.lookup_backend == "fast"
        assert restored.state_fingerprint() == fingerprint
        # The restored chips actually run the fast tables.
        from repro.engine.fastlpm import FastLpmTable

        assert all(
            type(chip.table) is FastLpmTable for chip in restored.engine.chips
        )
        restored.process_traffic(TrafficGenerator(system_rib, seed=29), 1_000)
        assert restored.engine.verify_completions(covered_only=True)

    def test_trie_snapshot_restores_as_trie(self, system_rib):
        system = trie_system(system_rib)
        restored = ClueSystem.from_state(system.capture_state())
        assert restored.config.engine.lookup_backend == "trie"
