// The byte-true data path: pinned verification-pattern bytes, the direct
// fill/check of user buffers against the fill-stream-then-unpack reference,
// the store audit over pages, and the no-pack rule for contiguous buffers
// (a request's stream is then a view of the caller's buffer, which no
// engine may change).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parcoll.hpp"
#include "core/split.hpp"
#include "dtype/pack.hpp"
#include "fault/fault.hpp"
#include "fs/object_store.hpp"
#include "mpi/collectives.hpp"
#include "mpiio/async.hpp"
#include "mpiio/file.hpp"
#include "workloads/pattern.hpp"

namespace parcoll {
namespace {

using dtype::Datatype;

TEST(Pattern, PinnedBytes) {
  struct Pin {
    std::uint64_t salt;
    std::uint64_t position;
    unsigned value;
  };
  // Every byte-true digest pin rests on these values.
  const Pin pins[] = {
      {0, 0, 0xaf},
      {1, 0, 0xf4},
      {1, 1, 0x67},
      {42, 12345, 0xe6},
      {7, 1ull << 20, 0x03},
      {0x1234, (1ull << 40) + 3, 0x09},
      {99, ~0ull, 0xc0},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(workloads::pattern_byte(pin.salt, pin.position),
              static_cast<std::byte>(pin.value))
        << "salt " << pin.salt << " position " << pin.position;
  }
}

/// Irregular extents (lengths cycling through 7, 1, 29, 5000, 64; gaps of
/// 11 bytes) that total exactly `total` bytes.
std::vector<fs::Extent> ragged_extents(std::uint64_t total) {
  const std::uint64_t lengths[] = {7, 1, 29, 5000, 64};
  std::vector<fs::Extent> extents;
  std::uint64_t offset = 3;
  for (std::size_t i = 0; total > 0; ++i) {
    const std::uint64_t n = std::min(total, lengths[i % 5]);
    extents.push_back({offset, n});
    offset += n + 11;
    total -= n;
  }
  return extents;
}

TEST(Pattern, StreamFillAndCheckAgreeWithPatternByte) {
  const auto extents = ragged_extents(12000);  // runs past one check block
  std::vector<std::byte> stream(12000);
  workloads::fill_stream(stream.data(), extents, 5);
  std::size_t pos = 0;
  for (const fs::Extent& extent : extents) {
    for (std::uint64_t i = 0; i < extent.length; ++i) {
      ASSERT_EQ(stream[pos++], workloads::pattern_byte(5, extent.offset + i));
    }
  }
  EXPECT_TRUE(workloads::check_stream(stream.data(), extents, 5));
  stream[9000] ^= std::byte{0x10};
  EXPECT_FALSE(workloads::check_stream(stream.data(), extents, 5));
}

struct Layout {
  Datatype memtype;
  std::uint64_t count;
};

/// Bytes spanned by `count` x `memtype` from displacement 0.
std::uint64_t span_of(const Layout& layout) {
  std::int64_t end = 0;
  for (std::uint64_t k = 0; k < layout.count; ++k) {
    for (const dtype::Segment& seg : layout.memtype.segments()) {
      end = std::max(end, seg.end() + static_cast<std::int64_t>(k) *
                                          layout.memtype.extent());
    }
  }
  return static_cast<std::uint64_t>(end);
}

TEST(Pattern, BufferFillAndCheckMatchTheStreamAndPackReference) {
  const dtype::IndexedBlock reversed[] = {{7000, 40}, {0, 100}, {150, 5000}};
  const Layout layouts[] = {
      {Datatype::vec(6, 3, 5, Datatype::bytes(8)), 1},
      {Datatype::resized(Datatype::bytes(48), 0, 64), 5},
      {Datatype::resized(Datatype::bytes(5000), 0, 6000), 3},
      {Datatype::vec(4, 2, 3, Datatype::bytes(4)), 3},
      {Datatype::hindexed(reversed, Datatype::bytes(1)), 2},
  };
  constexpr std::uint64_t kFillSalt = 77;
  for (const Layout& layout : layouts) {
    SCOPED_TRACE(layout.memtype.describe());
    ASSERT_FALSE(dtype::is_contiguous_run(layout.memtype, layout.count));
    const std::uint64_t total = layout.count * layout.memtype.size();
    const auto extents = ragged_extents(total);

    // The reference: the packed stream, unpacked into the buffer.
    std::vector<std::byte> stream(total);
    workloads::fill_stream(stream.data(), extents, kFillSalt);
    std::vector<std::byte> expected(span_of(layout), std::byte{0xCD});
    dtype::unpack(stream.data(), layout.memtype, layout.count,
                  expected.data());

    std::vector<std::byte> buffer(span_of(layout), std::byte{0xCD});
    workloads::fill_buffer_for_extents(buffer.data(), layout.memtype,
                                       layout.count, extents, kFillSalt);
    EXPECT_EQ(buffer, expected);  // gaps untouched, data in place
    EXPECT_TRUE(workloads::check_buffer_for_extents(
        buffer.data(), layout.memtype, layout.count, extents, kFillSalt));

    // A flipped gap byte is not data; a flipped data byte is caught,
    // exactly when packing and checking the stream catches it.
    const std::int64_t last_disp =
        layout.memtype.segments().back().disp +
        static_cast<std::int64_t>(layout.count - 1) * layout.memtype.extent();
    for (std::uint64_t at = 0; at < buffer.size(); at += 97) {
      buffer[at] ^= std::byte{0x01};
      std::vector<std::byte> packed(total);
      dtype::pack(buffer.data(), layout.memtype, layout.count, packed.data());
      EXPECT_EQ(workloads::check_buffer_for_extents(
                    buffer.data(), layout.memtype, layout.count, extents,
                    kFillSalt),
                workloads::check_stream(packed.data(), extents, kFillSalt))
          << "flipped byte " << at;
      buffer[at] ^= std::byte{0x01};
    }
    buffer[static_cast<std::size_t>(last_disp)] ^= std::byte{0x01};
    EXPECT_FALSE(workloads::check_buffer_for_extents(
        buffer.data(), layout.memtype, layout.count, extents, kFillSalt));
  }
}

TEST(Pattern, BufferFillAndCheckRejectASizeMismatch) {
  // 256 bytes of buffer data against 128 bytes of extents: packing the
  // buffer into a stream sized by the extents would overrun it.
  std::vector<std::byte> buffer(256);
  const fs::Extent half{0, 128};
  const Datatype memtype = Datatype::bytes(256);
  EXPECT_THROW((void)workloads::check_buffer_for_extents(
                   buffer.data(), memtype, 1, std::span(&half, 1), 1),
               std::invalid_argument);
  EXPECT_THROW(workloads::fill_buffer_for_extents(buffer.data(), memtype, 1,
                                                  std::span(&half, 1), 1),
               std::invalid_argument);
}

TEST(Pattern, VerifyStoreWalksPagesAndHoles) {
  constexpr std::uint64_t kPage = fs::MemoryStore::kPageSize;
  fs::MemoryStore store;
  const fs::Extent across{kPage - 1000, 3000};
  std::vector<std::byte> bytes(across.length);
  workloads::fill_stream(bytes.data(), std::span(&across, 1), 9);
  store.write(1, across.offset, bytes.data(), bytes.size());
  EXPECT_TRUE(workloads::verify_store(store, 1, std::span(&across, 1), 9));
  EXPECT_FALSE(workloads::verify_store(store, 1, std::span(&across, 1), 10));

  // Growth without data leaves a hole: it reads as zeros, not the pattern.
  store.write(1, 3 * kPage, nullptr, 64);
  const fs::Extent hole{2 * kPage + 5, 100};
  EXPECT_FALSE(workloads::verify_store(store, 1, std::span(&hole, 1), 9));
  const fs::Extent past_eof{3 * kPage, 100};
  EXPECT_FALSE(workloads::verify_store(store, 1, std::span(&past_eof, 1), 9));
}

// --- The contiguous user buffer as the request stream ------------------

constexpr int kRanks = 8;
constexpr std::uint64_t kSlot = 128;
constexpr std::uint64_t kSlots = 16;
constexpr std::uint64_t kSalt = 0x5A;

struct AliasRun {
  bool buffer_unchanged = true;
  bool stored = true;
  bool read_back = true;
  fault::FaultCounters faults;
};

/// Each rank writes kSlots slots from one contiguous buffer with
/// write_at_all, then reads them back with read_at_all: every kRanks-th
/// slot of the file when `interleaved`, else one block. Records whether
/// the caller's buffer survived bit-identical.
AliasRun run_alias(machine::MachineModel model, const mpiio::Hints& hints,
                   const std::string& fault_spec, bool interleaved) {
  mpi::World world(std::move(model));
  if (!fault_spec.empty()) world.set_fault(fault::FaultPlan::parse(fault_spec));
  AliasRun result;
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "alias.dat", hints);
    const Datatype memtype = Datatype::bytes(kSlots * kSlot);
    const auto rank = static_cast<std::uint64_t>(self.rank());
    if (interleaved) {
      file.set_view(rank * kSlot, 1,
                    Datatype::resized(Datatype::bytes(kSlot), 0,
                                      kRanks * kSlot));
    } else {
      file.set_view(rank * memtype.size(), 1, memtype);
    }
    const auto extents = file.view().map(0, memtype.size());
    std::vector<std::byte> data(memtype.size());
    workloads::fill_buffer_for_extents(data.data(), memtype, 1, extents,
                                       kSalt);
    const std::vector<std::byte> before = data;
    core::write_at_all(file, 0, data.data(), 1, memtype);
    result.buffer_unchanged = result.buffer_unchanged && data == before;
    mpi::barrier(self, self.comm_world());
    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    result.stored = result.stored && store != nullptr &&
                    workloads::verify_store(*store, file.fs_id(), extents,
                                            kSalt);
    std::vector<std::byte> back(memtype.size(), std::byte{0xEE});
    core::read_at_all(file, 0, back.data(), 1, memtype);
    result.read_back = result.read_back &&
                       workloads::check_buffer_for_extents(
                           back.data(), memtype, 1, extents, kSalt);
    file.close();
  });
  result.faults = world.fault_state().total();
  return result;
}

TEST(ContiguousView, CorruptedAndRepairedWriteLeavesTheBufferIntact) {
  // Injected corruption flips bits of the stored copy; integrity repair
  // heals them from the clean source. Neither may touch the caller's bytes.
  mpiio::Hints hints;
  hints.cb_buffer_size = 1024;
  hints.integrity.level = fs::IntegrityLevel::Repair;
  hints.integrity.block = 512;
  const std::string plan =
      "seed=21;rpc-corrupt=0.5;timeout=0.002;backoff=0.001:0.004;"
      "max-retries=2";
  for (const bool cb : {true, false}) {
    // Without collective buffering one contiguous block per rank goes from
    // the caller's buffer straight to the OSTs' ingest.
    SCOPED_TRACE(cb ? "two-phase" : "cb disabled");
    hints.cb_write_enabled = cb;
    const AliasRun run = run_alias(machine::MachineModel::jaguar(kRanks),
                                   hints, plan, /*interleaved=*/cb);
    EXPECT_GT(run.faults.corrupt_injected, 0u);
    EXPECT_TRUE(run.buffer_unchanged);
    EXPECT_TRUE(run.stored);
    EXPECT_TRUE(run.read_back);
  }
}

TEST(ContiguousView, TwoLevelWriteLeavesTheBufferIntact) {
  mpiio::Hints hints;
  hints.cb_buffer_size = 1024;
  hints.cb_intranode = node::IntranodeMode::On;
  for (const int groups : {0, 2}) {
    SCOPED_TRACE(groups);
    hints.parcoll_num_groups = groups;
    hints.parcoll_min_group_size = 2;
    const AliasRun run = run_alias(
        machine::MachineModel::jaguar(kRanks, machine::Mapping::Block, 2),
        hints, "", /*interleaved=*/true);
    EXPECT_TRUE(run.buffer_unchanged);
    EXPECT_TRUE(run.stored);
    EXPECT_TRUE(run.read_back);
  }
}

TEST(ContiguousView, NonblockingAndSplitWritesKeepTheirResults) {
  // Each rank owns one 4 KiB block per file: written nonblocking to one
  // file and split-collective to the other, from a buffer that is a
  // single run, a run of count > 1 elements, or (packed) every other
  // 64-byte element.
  constexpr std::uint64_t kBlock = 4096;
  const Layout layouts[] = {
      {Datatype::bytes(kBlock), 1},
      {Datatype::bytes(64), kBlock / 64},
      {Datatype::resized(Datatype::bytes(64), 0, 128), kBlock / 64},
  };
  for (const Layout& layout : layouts) {
    SCOPED_TRACE(layout.memtype.describe());
    mpi::World world(machine::MachineModel::jaguar(4));
    bool ok = true;
    world.run([&](mpi::Rank& self) {
      const fs::Extent mine{static_cast<std::uint64_t>(self.rank()) * kBlock,
                            kBlock};
      std::vector<std::byte> data(span_of(layout), std::byte{0x3C});
      workloads::fill_buffer_for_extents(data.data(), layout.memtype,
                                         layout.count, std::span(&mine, 1),
                                         kSalt);
      const std::vector<std::byte> before = data;
      auto* store =
          dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());

      mpiio::FileHandle async(self, self.comm_world(), "iwrite.dat");
      auto write = mpiio::iwrite_at(async, mine.offset, data.data(),
                                    layout.count, layout.memtype);
      self.busy(mpi::TimeCat::Compute, 0.001);
      mpiio::io_wait(async, write);
      mpiio::FileHandle split(self, self.comm_world(), "split.dat");
      auto coll = core::write_at_all_begin(split, mine.offset, data.data(),
                                           layout.count, layout.memtype);
      self.busy(mpi::TimeCat::Compute, 0.001);
      const auto outcome = core::split_end(split, coll);
      ok = ok && outcome.bytes == kBlock && data == before;
      mpi::barrier(self, self.comm_world());
      ok = ok && store != nullptr &&
           workloads::verify_store(*store, async.fs_id(), std::span(&mine, 1),
                                   kSalt) &&
           workloads::verify_store(*store, split.fs_id(), std::span(&mine, 1),
                                   kSalt);

      // And back: nonblocking and split-collective reads.
      std::vector<std::byte> back(data.size(), std::byte{0x3C});
      auto read = mpiio::iread_at(async, mine.offset, back.data(),
                                  layout.count, layout.memtype);
      mpiio::io_wait(async, read);
      ok = ok && back == before;
      std::fill(back.begin(), back.end(), std::byte{0x3C});
      auto coll_read = core::read_at_all_begin(split, mine.offset, back.data(),
                                               layout.count, layout.memtype);
      core::split_end(split, coll_read);
      ok = ok && back == before;
      async.close();
      split.close();
    });
    EXPECT_TRUE(ok);
  }
}

}  // namespace
}  // namespace parcoll
