"""White-box tests of the Section 4.2 scheduling pool (NAGEI / LAGEI)."""

import pytest

from repro import GPUConfig, KernelBuilder, KernelFunction
from repro.config import DTBL_PENDING_GROUP_BYTES, LatencyModel
from repro.dtbl.agt import AggregatedGroupEntry
from repro.sim.gpu import GPU
from repro.sim.stats import LaunchKind, LaunchRecord


def tiny_func(name="k", block_ok=True) -> KernelFunction:
    k = KernelBuilder(name)
    k.nop()
    k.exit()
    return KernelFunction(name, k.build())


def record(kind=LaunchKind.HOST_KERNEL) -> LaunchRecord:
    return LaunchRecord(kind, "k", 0, 1, 32)


def age(blocks=2) -> AggregatedGroupEntry:
    return AggregatedGroupEntry(
        (blocks, 1, 1), 100, record(LaunchKind.AGG_GROUP)
    )


def fresh_gpu() -> GPU:
    return GPU(config=GPUConfig.small(), latency=LatencyModel.ideal())


class TestNageiLagei:
    def make_entry(self, gpu):
        func = gpu.register_kernel(tiny_func())
        return gpu.distributor.allocate(func, (2, 1, 1), (32, 1, 1), 0, record(), None)

    def test_first_group_sets_both(self):
        gpu = fresh_gpu()
        entry = self.make_entry(gpu)
        g = age()
        entry.append_group(g)
        assert entry.nagei is g
        assert entry.lagei is g

    def test_chain_order(self):
        gpu = fresh_gpu()
        entry = self.make_entry(gpu)
        g1, g2, g3 = age(), age(), age()
        for g in (g1, g2, g3):
            entry.append_group(g)
        assert entry.nagei is g1
        assert entry.lagei is g3
        assert g1.next is g2 and g2.next is g3

    def test_nagei_advances_past_distributed(self):
        gpu = fresh_gpu()
        entry = self.make_entry(gpu)
        g1, g2 = age(blocks=1), age(blocks=1)
        entry.append_group(g1)
        entry.append_group(g2)
        g1.next_block = 1  # fully distributed
        entry.advance_nagei()
        assert entry.nagei is g2

    def test_nagei_repointed_when_pool_drained(self):
        # The paper's 'first scenario': all prior groups distributed and
        # NAGEI empty; a new group must become the new NAGEI even though
        # LAGEI still points at the drained tail.
        gpu = fresh_gpu()
        entry = self.make_entry(gpu)
        g1 = age(blocks=1)
        entry.append_group(g1)
        g1.next_block = 1
        entry.advance_nagei()
        assert entry.nagei is None
        g2 = age(blocks=1)
        entry.append_group(g2)
        assert entry.nagei is g2
        assert g1.next is g2  # chain kept intact

    def test_fully_distributed_requires_all_groups(self):
        gpu = fresh_gpu()
        entry = self.make_entry(gpu)
        entry.next_block = entry.total_blocks  # native done
        assert entry.fully_distributed
        g = age(blocks=2)
        entry.append_group(g)
        assert not entry.fully_distributed
        g.next_block = 2
        assert entry.fully_distributed

    def test_completed_counts_unlinked_groups(self):
        # A fully distributed group dropped from the NAGEI chain must
        # still hold the entry open while its TBs execute.
        gpu = fresh_gpu()
        entry = self.make_entry(gpu)
        entry.next_block = entry.total_blocks
        g = age(blocks=1)
        entry.append_group(g)
        g.next_block = 1
        g.exe_blocks = 1
        entry.agg_exe_blocks = 1
        entry.advance_nagei()
        assert entry.nagei is None
        assert not entry.completed
        entry.agg_exe_blocks = 0
        g.exe_blocks = 0
        assert entry.completed


class TestProcessAggregation:
    def test_match_links_group_and_marks(self):
        gpu = fresh_gpu()
        func = gpu.register_kernel(tiny_func())
        entry = gpu.distributor.allocate(
            func, (1, 1, 1), (32, 1, 1), 0, record(), None
        )
        request = ("k", 0, (3, 1, 1), (32, 1, 1), 5)
        gpu.scheduler.process_aggregation([request], cycle=0)
        assert gpu.stats.agg_matched == 1
        assert entry.nagei is not None
        assert entry.nagei.total_blocks == 3
        assert entry.marked

    def test_block_shape_mismatch_falls_back(self):
        gpu = fresh_gpu()
        func = gpu.register_kernel(tiny_func())
        gpu.distributor.allocate(func, (1, 1, 1), (32, 1, 1), 0, record(), None)
        request = ("k", 0, (1, 1, 1), (64, 1, 1), 5)
        gpu.scheduler.process_aggregation([request], cycle=0)
        assert gpu.stats.agg_unmatched == 1
        # Launched as a device kernel: with ideal dispatch latency it lands
        # straight in a second KDE entry.
        assert gpu.kmu.pending_count + gpu.distributor.occupied == 2

    def test_agt_allocation_tracked(self):
        gpu = fresh_gpu()
        func = gpu.register_kernel(tiny_func())
        gpu.distributor.allocate(func, (1, 1, 1), (32, 1, 1), 0, record(), None)
        requests = [
            ("k", 0, (1, 1, 1), (32, 1, 1), i)
            for i in range(5)
        ]
        gpu.scheduler.process_aggregation(requests, cycle=0)
        assert gpu.stats.agt_hash_hits == 5
        assert gpu.scheduler.agt.occupied == 5

    def test_hash_collision_spills(self):
        gpu = fresh_gpu()
        func = gpu.register_kernel(tiny_func())
        gpu.distributor.allocate(func, (1, 1, 1), (32, 1, 1), 0, record(), None)
        same_slot = gpu.config.agt_entries  # hw_tid aliases of 0
        requests = [
            ("k", 0, (1, 1, 1), (32, 1, 1), 0),
            ("k", 0, (1, 1, 1), (32, 1, 1), same_slot),
        ]
        gpu.scheduler.process_aggregation(requests, cycle=0)
        assert gpu.stats.agt_hash_hits == 1
        assert gpu.stats.agt_hash_spills == 1

    def test_footprint_added_per_group(self):
        gpu = fresh_gpu()
        func = gpu.register_kernel(tiny_func())
        gpu.distributor.allocate(func, (1, 1, 1), (32, 1, 1), 0, record(), None)
        request = ("k", 0, (2, 1, 1), (32, 1, 1), 1)
        gpu.scheduler.process_aggregation([request], cycle=0)
        assert gpu.stats.footprint_bytes == DTBL_PENDING_GROUP_BYTES
