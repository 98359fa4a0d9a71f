// Split-phase collective I/O, file access modes, the shared file pointer,
// and file deletion.
#include <gtest/gtest.h>

#include <numeric>

#include "core/split.hpp"
#include "mpi/collectives.hpp"
#include "mpiio/file.hpp"
#include "workloads/pattern.hpp"

namespace parcoll {
namespace {

using dtype::Datatype;

TEST(SplitCollective, WriteBeginEndProducesCorrectBytes) {
  mpi::World world(machine::MachineModel::jaguar(8));
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "split1.dat");
    constexpr std::uint64_t kBlock = 4096;
    const fs::Extent mine{static_cast<std::uint64_t>(self.rank()) * kBlock,
                          kBlock};
    std::vector<std::byte> data(kBlock);
    workloads::fill_stream(data.data(), std::span(&mine, 1), 41);
    auto request = core::write_at_all_begin(file, mine.offset, data.data(), 1,
                                            Datatype::bytes(kBlock));
    self.busy(mpi::TimeCat::Compute, 0.01);  // overlapped computation
    const auto outcome = core::split_end(file, request);
    EXPECT_EQ(outcome.bytes, kBlock);
    mpi::barrier(self, self.comm_world());
    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    ok = ok && store &&
         workloads::verify_store(*store, file.fs_id(), std::span(&mine, 1), 41);
    file.close();
  });
  EXPECT_TRUE(ok);
}

TEST(SplitCollective, ReadBeginEndDeliversData) {
  mpi::World world(machine::MachineModel::jaguar(4));
  bool ok = true;
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "split2.dat");
    constexpr std::uint64_t kBlock = 2048;
    const fs::Extent mine{static_cast<std::uint64_t>(self.rank()) * kBlock,
                          kBlock};
    {
      std::vector<std::byte> seed(kBlock);
      workloads::fill_stream(seed.data(), std::span(&mine, 1), 42);
      file.write_at(mine.offset, seed.data(), 1, Datatype::bytes(kBlock));
    }
    mpi::barrier(self, self.comm_world());
    std::vector<std::byte> back(kBlock);
    auto request = core::read_at_all_begin(file, mine.offset, back.data(), 1,
                                           Datatype::bytes(kBlock));
    self.busy(mpi::TimeCat::Compute, 0.005);
    core::split_end(file, request);
    ok = ok && workloads::check_stream(back.data(), std::span(&mine, 1), 42);
    file.close();
  });
  EXPECT_TRUE(ok);
}

TEST(SplitCollective, OverlapsComputationWithIo) {
  // Total time with overlap must beat compute-then-collective, and the
  // helper must actually run concurrently (end() returns promptly).
  const auto run = [](bool split) {
    mpi::World world(machine::MachineModel::jaguar(16), /*byte_true=*/false);
    double elapsed = 0;
    world.run([&](mpi::Rank& self) {
      mpiio::FileHandle file(self, self.comm_world(), "overlap.dat");
      constexpr std::uint64_t kBlock = 4ull << 20;
      const double t0 = self.now();
      if (split) {
        auto request = core::write_at_all_begin(
            file, static_cast<std::uint64_t>(self.rank()) * kBlock, nullptr,
            1, Datatype::bytes(kBlock));
        self.busy(mpi::TimeCat::Compute, 0.05);
        core::split_end(file, request);
      } else {
        self.busy(mpi::TimeCat::Compute, 0.05);
        core::write_at_all(file,
                           static_cast<std::uint64_t>(self.rank()) * kBlock,
                           nullptr, 1, Datatype::bytes(kBlock));
      }
      mpi::barrier(self, self.comm_world());
      if (self.rank() == 0) elapsed = self.now() - t0;
      file.close();
    });
    return elapsed;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(SplitCollective, ParcollHintsApplyToTheHelper) {
  mpi::World world(machine::MachineModel::jaguar(8));
  mpiio::Hints hints;
  hints.parcoll_num_groups = 2;
  hints.parcoll_min_group_size = 2;
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "split3.dat", hints);
    constexpr std::uint64_t kBlock = 1024;
    std::vector<std::byte> data(kBlock);
    auto request = core::write_at_all_begin(
        file, static_cast<std::uint64_t>(self.rank()) * kBlock, data.data(),
        1, Datatype::bytes(kBlock));
    const auto outcome = core::split_end(file, request);
    EXPECT_EQ(outcome.num_groups, 2);
    file.close();
  });
}

TEST(SplitCollective, BooksTheSameStatsAsBlockingCalls) {
  // A split write and read book the same counters as write_at_all and
  // read_at_all on the same pattern: ParColl over an interleaved view
  // (intermediate file view), two-level staging on 2-core nodes.
  constexpr int kRanks = 8;
  mpi::World world(
      machine::MachineModel::jaguar(kRanks, machine::Mapping::Block, 2));
  mpiio::Hints hints;
  hints.parcoll_num_groups = 2;
  hints.parcoll_min_group_size = 2;
  hints.cb_buffer_size = 1024;
  hints.cb_intranode = node::IntranodeMode::On;
  mpiio::FileStats split_stats;
  mpiio::FileStats blocking_stats;
  world.run([&](mpi::Rank& self) {
    // Rank r owns every kRanks-th 128-byte slot, 16 slots in all.
    const Datatype slot =
        Datatype::resized(Datatype::bytes(128), 0, kRanks * 128);
    const auto view_offset = static_cast<std::uint64_t>(self.rank()) * 128;
    const Datatype memtype = Datatype::bytes(16 * 128);
    std::vector<std::byte> data(16 * 128);
    std::vector<std::byte> back(16 * 128);

    mpiio::FileHandle split(self, self.comm_world(), "split-stats.dat", hints);
    split.set_view(view_offset, 1, slot);
    auto write = core::write_at_all_begin(split, 0, data.data(), 1, memtype);
    core::split_end(split, write);
    auto read = core::read_at_all_begin(split, 0, back.data(), 1, memtype);
    core::split_end(split, read);

    mpiio::FileHandle blocking(self, self.comm_world(), "blocking-stats.dat",
                               hints);
    blocking.set_view(view_offset, 1, slot);
    core::write_at_all(blocking, 0, data.data(), 1, memtype);
    core::read_at_all(blocking, 0, back.data(), 1, memtype);

    mpi::barrier(self, self.comm_world());  // all deltas recorded
    if (self.rank() == 0) {
      split_stats = split.stats();
      blocking_stats = blocking.stats();
    }
    split.close();
    blocking.close();
  });
  EXPECT_EQ(blocking_stats.intranode_calls, 2u);
  EXPECT_GT(blocking_stats.intranode_bytes, 0u);
  EXPECT_EQ(blocking_stats.parcoll_calls, 2u);
  EXPECT_EQ(blocking_stats.view_switches, 2u);
  EXPECT_EQ(blocking_stats.last_num_groups, 2);
  EXPECT_GT(blocking_stats.exchange_cycles, 0u);

  EXPECT_EQ(split_stats.collective_writes, blocking_stats.collective_writes);
  EXPECT_EQ(split_stats.collective_reads, blocking_stats.collective_reads);
  EXPECT_EQ(split_stats.intranode_calls, blocking_stats.intranode_calls);
  EXPECT_EQ(split_stats.intranode_bytes, blocking_stats.intranode_bytes);
  EXPECT_EQ(split_stats.parcoll_calls, blocking_stats.parcoll_calls);
  EXPECT_EQ(split_stats.view_switches, blocking_stats.view_switches);
  EXPECT_EQ(split_stats.last_num_groups, blocking_stats.last_num_groups);
  EXPECT_EQ(split_stats.exchange_cycles, blocking_stats.exchange_cycles);
}

TEST(SplitCollective, EndWithoutBeginThrows) {
  mpi::World world(machine::MachineModel::jaguar(1));
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "split4.dat");
    core::SplitRequest request;
    EXPECT_THROW(core::split_end(file, request), std::logic_error);
    file.close();
  });
}

TEST(AccessModes, RdonlyRejectsWritesWronlyRejectsReads) {
  mpi::World world(machine::MachineModel::jaguar(1));
  world.run([&](mpi::Rank& self) {
    {
      mpiio::FileHandle writer(self, self.comm_world(), "modes.dat", {},
                               mpiio::kModeWronly | mpiio::kModeCreate);
      std::vector<std::byte> data(64);
      writer.write_at(0, data.data(), 1, Datatype::bytes(64));
      EXPECT_THROW(writer.read_at(0, data.data(), 1, Datatype::bytes(64)),
                   std::logic_error);
      writer.close();
    }
    {
      mpiio::FileHandle reader(self, self.comm_world(), "modes.dat", {},
                               mpiio::kModeRdonly);
      std::vector<std::byte> data(64);
      reader.read_at(0, data.data(), 1, Datatype::bytes(64));
      EXPECT_THROW(reader.write_at(0, data.data(), 1, Datatype::bytes(64)),
                   std::logic_error);
      EXPECT_THROW(core::write_at_all(reader, 0, data.data(), 1,
                                      Datatype::bytes(64)),
                   std::logic_error);
      reader.close();
    }
  });
}

TEST(AccessModes, OpenValidation) {
  mpi::World world(machine::MachineModel::jaguar(1));
  world.run([&](mpi::Rank& self) {
    // No CREATE and no such file.
    EXPECT_THROW(mpiio::FileHandle(self, self.comm_world(), "missing.dat", {},
                                   mpiio::kModeRdwr),
                 std::invalid_argument);
    // Exactly one of RDONLY/WRONLY/RDWR.
    EXPECT_THROW(
        mpiio::FileHandle(self, self.comm_world(), "x.dat", {},
                          mpiio::kModeRdonly | mpiio::kModeRdwr),
        std::invalid_argument);
    // EXCL on an existing file.
    mpiio::FileHandle first(self, self.comm_world(), "excl.dat", {},
                            mpiio::kModeRdwr | mpiio::kModeCreate);
    first.close();
    EXPECT_THROW(mpiio::FileHandle(self, self.comm_world(), "excl.dat", {},
                                   mpiio::kModeRdwr | mpiio::kModeCreate |
                                       mpiio::kModeExcl),
                 std::invalid_argument);
  });
}

TEST(AccessModes, AppendStartsAtEof) {
  mpi::World world(machine::MachineModel::jaguar(1));
  world.run([&](mpi::Rank& self) {
    {
      mpiio::FileHandle file(self, self.comm_world(), "append.dat");
      std::vector<std::byte> data(100);
      file.write_at(0, data.data(), 1, Datatype::bytes(100));
      file.close();
    }
    mpiio::FileHandle appender(self, self.comm_world(), "append.dat", {},
                               mpiio::kModeRdwr | mpiio::kModeAppend);
    EXPECT_EQ(appender.position(), 100u);
    appender.close();
  });
}

TEST(SharedPointer, ClaimsAreDisjointAndCoverTheFile) {
  // 8 ranks each append 3 records via the shared pointer: the 24 claimed
  // slots must be disjoint and cover [0, 24*64).
  mpi::World world(machine::MachineModel::jaguar(8));
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "shared.dat");
    std::vector<unsigned char> record(64,
                                      static_cast<unsigned char>(self.rank()));
    for (int i = 0; i < 3; ++i) {
      file.write_shared(record.data(), 1, Datatype::bytes(64));
    }
    mpi::barrier(self, self.comm_world());
    if (self.rank() == 0) {
      EXPECT_EQ(file.shared_position(), 24u * 64u);
      EXPECT_EQ(file.size(), 24u * 64u);
      // Every 64-byte slot is uniform (one writer) and each rank appears
      // exactly 3 times.
      auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
      const auto& bytes = store->contents(file.fs_id());
      std::vector<int> counts(8, 0);
      for (int slot = 0; slot < 24; ++slot) {
        const auto value = static_cast<unsigned char>(bytes[slot * 64]);
        ASSERT_LT(value, 8);
        for (int i = 1; i < 64; ++i) {
          ASSERT_EQ(static_cast<unsigned char>(bytes[slot * 64 + i]), value);
        }
        ++counts[value];
      }
      for (int count : counts) EXPECT_EQ(count, 3);
    }
    file.close();
  });
}

TEST(SharedPointer, ReadSharedConsumesSequentially) {
  mpi::World world(machine::MachineModel::jaguar(1));
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "sharedr.dat");
    std::vector<unsigned char> data(128);
    std::iota(data.begin(), data.end(), 0);
    file.write_at(0, data.data(), 1, Datatype::bytes(128));
    std::vector<unsigned char> a(64);
    std::vector<unsigned char> b(64);
    file.read_shared(a.data(), 1, Datatype::bytes(64));
    file.read_shared(b.data(), 1, Datatype::bytes(64));
    EXPECT_EQ(a[0], 0);
    EXPECT_EQ(b[0], 64);
    file.close();
  });
}

TEST(FileDelete, RemoveDropsTheNameAndRecreateIsFresh) {
  mpi::World world(machine::MachineModel::jaguar(1));
  world.run([&](mpi::Rank& self) {
    auto& fs = self.world().fs();
    {
      mpiio::FileHandle file(self, self.comm_world(), "victim.dat");
      std::vector<std::byte> data(32);
      file.write_at(0, data.data(), 1, Datatype::bytes(32));
      file.close();
    }
    EXPECT_TRUE(fs.exists("victim.dat"));
    fs.remove("victim.dat");
    EXPECT_FALSE(fs.exists("victim.dat"));
    EXPECT_THROW(fs.remove("victim.dat"), std::invalid_argument);
    // Re-creating yields a fresh (empty) file.
    mpiio::FileHandle fresh(self, self.comm_world(), "victim.dat");
    EXPECT_EQ(fresh.size(), 0u);
    fresh.close();
  });
}

}  // namespace
}  // namespace parcoll
