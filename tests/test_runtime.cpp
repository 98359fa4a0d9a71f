// World/Rank runtime: lifecycle, accounting, shared objects, determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <utility>

#include "fs/lustre.hpp"
#include "mpiio/stats.hpp"
#include "mpi/collectives.hpp"
#include "mpi/runtime.hpp"
#include "mpi/trace.hpp"

namespace parcoll::mpi {
namespace {

TEST(World, RunsEveryRankOnce) {
  World world(machine::MachineModel::jaguar(16));
  std::vector<int> visits(16, 0);
  world.run([&](Rank& self) { ++visits[self.rank()]; });
  for (int count : visits) EXPECT_EQ(count, 1);
}

TEST(World, SecondRunThrows) {
  World world(machine::MachineModel::jaguar(2));
  world.run([](Rank&) {});
  EXPECT_THROW(world.run([](Rank&) {}), std::logic_error);
}

TEST(World, ElapsedIsTheLastFinisher) {
  World world(machine::MachineModel::jaguar(4));
  world.run([&](Rank& self) {
    self.busy(TimeCat::Compute, 0.25 * (self.rank() + 1));
  });
  EXPECT_DOUBLE_EQ(world.elapsed(), 1.0);
}

TEST(World, RankTimesArePerRank) {
  World world(machine::MachineModel::jaguar(3));
  world.run([&](Rank& self) {
    self.busy(TimeCat::IO, 0.1 * self.rank());
  });
  EXPECT_DOUBLE_EQ(world.rank_times()[0][TimeCat::IO], 0.0);
  EXPECT_DOUBLE_EQ(world.rank_times()[2][TimeCat::IO], 0.2);
}

TEST(World, SharedObjectIsCreatedOnceAndShared) {
  World world(machine::MachineModel::jaguar(4));
  int factory_calls = 0;
  std::vector<void*> seen(4, nullptr);
  world.run([&](Rank& self) {
    auto obj = self.world().shared_object<int>("thing", [&]() {
      ++factory_calls;
      return std::make_shared<int>(7);
    });
    seen[self.rank()] = obj.get();
    auto other = self.world().shared_object<int>("other", [&]() {
      ++factory_calls;
      return std::make_shared<int>(8);
    });
    EXPECT_NE(obj.get(), other.get());
  });
  EXPECT_EQ(factory_calls, 2);
  for (int r = 1; r < 4; ++r) EXPECT_EQ(seen[r], seen[0]);
}

TEST(World, ByteTrueFlagSelectsStoreMode) {
  World real(machine::MachineModel::jaguar(1), true);
  World phantom(machine::MachineModel::jaguar(1), false);
  EXPECT_TRUE(real.byte_true());
  EXPECT_FALSE(phantom.byte_true());
  EXPECT_NE(dynamic_cast<fs::MemoryStore*>(&real.fs().store()), nullptr);
  EXPECT_NE(dynamic_cast<fs::PhantomStore*>(&phantom.fs().store()), nullptr);
}

TEST(Rank, NodePlacementFollowsTheTopology) {
  World world(machine::MachineModel::jaguar(8, machine::Mapping::Cyclic));
  world.run([&](Rank& self) {
    EXPECT_EQ(self.node(), self.rank() % 4);
    EXPECT_EQ(self.size(), 8);
  });
}

TEST(Rank, TouchBytesChargesMemcpyBandwidth) {
  World world(machine::MachineModel::jaguar(1));
  const double bw = machine::MemoryParams{}.memcpy_bandwidth;
  world.run([&](Rank& self) {
    self.touch_bytes(bw);  // exactly one second of copying
    EXPECT_DOUBLE_EQ(self.times().breakdown()[TimeCat::Compute], 1.0);
    EXPECT_DOUBLE_EQ(self.now(), 1.0);
  });
}

TEST(Rank, CollectiveSequencePerContext) {
  World world(machine::MachineModel::jaguar(1));
  world.run([&](Rank& self) {
    EXPECT_EQ(self.next_coll_seq(10), 0u);
    EXPECT_EQ(self.next_coll_seq(10), 1u);
    EXPECT_EQ(self.next_coll_seq(11), 0u);  // independent per context
  });
}

TEST(World, FullStackRunIsDeterministic) {
  const auto run_once = [] {
    World world(machine::MachineModel::jaguar(16));
    auto& tracer = world.enable_tracing();
    world.run([&](Rank& self) {
      const int fs_id = self.world().fs().open("det.dat");
      for (int round = 0; round < 3; ++round) {
        allreduce_sum(self, self.comm_world(), self.rank());
        const fs::Extent extent{
            static_cast<std::uint64_t>(self.rank()) * 4096, 4096};
        self.world().fs().write(self.rank(), fs_id, std::span(&extent, 1),
                                nullptr);
      }
    });
    std::ostringstream os;
    tracer.write_csv(os);
    return std::make_pair(world.elapsed(), os.str());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);  // identical traces, byte for byte
}

TEST(Comm, MembershipQueries) {
  const Comm comm(5, {10, 20, 30});
  EXPECT_EQ(comm.size(), 3);
  EXPECT_EQ(comm.world_rank(1), 20);
  EXPECT_EQ(comm.local_rank(30), 2);
  EXPECT_EQ(comm.local_rank(99), -1);
  EXPECT_THROW(static_cast<void>(comm.world_rank(3)), std::out_of_range);
  EXPECT_THROW(Comm(6, {1, 1}), std::invalid_argument);
}

/// Every FileStats field, embedded counters included, set by name to a
/// distinct multiple of `k`.
mpiio::FileStats numbered_stats(std::uint64_t k) {
  mpiio::FileStats s;
  for (std::size_t c = 0; c < kNumTimeCats; ++c) {
    s.time.seconds[c] = static_cast<double>(k * (c + 1));
  }
  s.bytes_written = k * 1;
  s.bytes_read = k * 2;
  s.collective_writes = k * 3;
  s.collective_reads = k * 4;
  s.independent_writes = k * 5;
  s.independent_reads = k * 6;
  s.exchange_cycles = k * 7;
  s.rmw_reads = k * 8;
  s.parcoll_calls = k * 9;
  s.intranode_calls = k * 10;
  s.intranode_bytes = k * 11;
  s.view_switches = k * 12;
  s.last_num_groups = 4;
  s.faults.retries = k * 13;
  s.faults.failovers = k * 14;
  s.faults.drops = k * 15;
  s.faults.delays = k * 16;
  s.faults.reelections = k * 17;
  s.faults.stalls = k * 18;
  s.faults.corrupt_injected = k * 19;
  s.faults.faulted_seconds = static_cast<double>(k * 20);
  s.bb.staged_segments = k * 21;
  s.bb.staged_bytes = k * 22;
  s.bb.drained_segments = k * 23;
  s.bb.drained_bytes = k * 24;
  s.bb.spills = k * 25;
  s.bb.spill_bytes = k * 26;
  s.bb.conflict_flushes = k * 27;
  s.bb.drain_retries = k * 28;
  s.bb.drain_failovers = k * 29;
  s.integrity.blocks = k * 30;
  s.integrity.bytes_checksummed = k * 31;
  s.integrity.detected = k * 32;
  s.integrity.repaired = k * 33;
  s.integrity.scrub_repairs = k * 34;
  s.integrity.errors = k * 35;
  return s;
}

void expect_same_stats(const mpiio::FileStats& a, const mpiio::FileStats& b) {
  for (std::size_t c = 0; c < kNumTimeCats; ++c) {
    EXPECT_DOUBLE_EQ(a.time.seconds[c], b.time.seconds[c]) << "time " << c;
  }
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.collective_writes, b.collective_writes);
  EXPECT_EQ(a.collective_reads, b.collective_reads);
  EXPECT_EQ(a.independent_writes, b.independent_writes);
  EXPECT_EQ(a.independent_reads, b.independent_reads);
  EXPECT_EQ(a.exchange_cycles, b.exchange_cycles);
  EXPECT_EQ(a.rmw_reads, b.rmw_reads);
  EXPECT_EQ(a.parcoll_calls, b.parcoll_calls);
  EXPECT_EQ(a.intranode_calls, b.intranode_calls);
  EXPECT_EQ(a.intranode_bytes, b.intranode_bytes);
  EXPECT_EQ(a.view_switches, b.view_switches);
  EXPECT_EQ(a.last_num_groups, b.last_num_groups);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.failovers, b.faults.failovers);
  EXPECT_EQ(a.faults.drops, b.faults.drops);
  EXPECT_EQ(a.faults.delays, b.faults.delays);
  EXPECT_EQ(a.faults.reelections, b.faults.reelections);
  EXPECT_EQ(a.faults.stalls, b.faults.stalls);
  EXPECT_EQ(a.faults.corrupt_injected, b.faults.corrupt_injected);
  EXPECT_DOUBLE_EQ(a.faults.faulted_seconds, b.faults.faulted_seconds);
  EXPECT_EQ(a.bb.staged_segments, b.bb.staged_segments);
  EXPECT_EQ(a.bb.staged_bytes, b.bb.staged_bytes);
  EXPECT_EQ(a.bb.drained_segments, b.bb.drained_segments);
  EXPECT_EQ(a.bb.drained_bytes, b.bb.drained_bytes);
  EXPECT_EQ(a.bb.spills, b.bb.spills);
  EXPECT_EQ(a.bb.spill_bytes, b.bb.spill_bytes);
  EXPECT_EQ(a.bb.conflict_flushes, b.bb.conflict_flushes);
  EXPECT_EQ(a.bb.drain_retries, b.bb.drain_retries);
  EXPECT_EQ(a.bb.drain_failovers, b.bb.drain_failovers);
  EXPECT_EQ(a.integrity.blocks, b.integrity.blocks);
  EXPECT_EQ(a.integrity.bytes_checksummed, b.integrity.bytes_checksummed);
  EXPECT_EQ(a.integrity.detected, b.integrity.detected);
  EXPECT_EQ(a.integrity.repaired, b.integrity.repaired);
  EXPECT_EQ(a.integrity.scrub_repairs, b.integrity.scrub_repairs);
  EXPECT_EQ(a.integrity.errors, b.integrity.errors);
}

/// Fields a counter struct's `fields` visitor reaches, times their size:
/// equals sizeof(T) only when no member was left off the list.
template <typename T>
std::size_t visited_bytes() {
  std::size_t bytes = 0;
  T::fields([&](const char*, auto member) {
    bytes += sizeof(std::declval<T&>().*member);
  });
  return bytes;
}

TEST(Stats, AccumulateAllFields) {
  mpiio::FileStats a = numbered_stats(1);
  mpiio::FileStats b = numbered_stats(1);
  b.last_num_groups = 0;  // zero must not clobber the previous value
  a += b;
  expect_same_stats(a, numbered_stats(2));
  mpiio::FileStats c;
  c.last_num_groups = 8;
  a += c;
  EXPECT_EQ(a.last_num_groups, 8);  // newer nonzero value wins

  // The struct-level difference is the inverse of +=.
  mpiio::FileStats d = numbered_stats(2);
  d.faults = numbered_stats(3).faults - numbered_stats(1).faults;
  d.integrity = numbered_stats(3).integrity - numbered_stats(1).integrity;
  expect_same_stats(d, numbered_stats(2));

  // Every member of the embedded structs is on its field list.
  EXPECT_EQ(visited_bytes<fault::FaultCounters>(),
            sizeof(fault::FaultCounters));
  EXPECT_EQ(visited_bytes<bb::BbCounters>(), sizeof(bb::BbCounters));
  EXPECT_EQ(visited_bytes<fs::IntegrityCounters>(),
            sizeof(fs::IntegrityCounters));
}

}  // namespace
}  // namespace parcoll::mpi
