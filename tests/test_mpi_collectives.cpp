// Collectives: data semantics, wait-for-all timing, sync accounting,
// cost-model shape, and comm_split.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "mpi/collectives.hpp"
#include "mpi/runtime.hpp"
#include "sim/random.hpp"

namespace parcoll::mpi {
namespace {

World make_world(int nranks) {
  return World(machine::MachineModel::jaguar(nranks));
}

TEST(Collectives, BarrierSynchronizesArrivals) {
  World world = make_world(4);
  std::vector<double> release(4, 0);
  world.run([&](Rank& self) {
    self.busy(TimeCat::Compute, 0.1 * self.rank());  // staggered arrivals
    barrier(self, self.comm_world());
    release[self.rank()] = self.now();
  });
  // Everyone leaves at the same instant, no earlier than the last arrival.
  for (int r = 1; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(release[r], release[0]);
  }
  EXPECT_GE(release[0], 0.3);
}

TEST(Collectives, StragglerWaitIsChargedToSync) {
  World world = make_world(4);
  world.run([&](Rank& self) {
    if (self.rank() == 3) self.busy(TimeCat::Compute, 2.0);
    barrier(self, self.comm_world());
  });
  // Rank 0 waited ~2s for rank 3; rank 3 waited ~0.
  EXPECT_NEAR(world.rank_times()[0][TimeCat::Sync], 2.0, 0.01);
  EXPECT_LT(world.rank_times()[3][TimeCat::Sync], 0.01);
}

TEST(Collectives, AllgatherDeliversEveryValue) {
  World world = make_world(5);
  std::vector<std::vector<int>> results(5);
  world.run([&](Rank& self) {
    results[self.rank()] = allgather(self, self.comm_world(), self.rank() * 10);
  });
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(results[r], (std::vector<int>{0, 10, 20, 30, 40}));
  }
}

TEST(Collectives, AllgathervVariableLengths) {
  World world = make_world(3);
  std::vector<std::vector<std::vector<int>>> results(3);
  world.run([&](Rank& self) {
    std::vector<int> mine(static_cast<std::size_t>(self.rank()), self.rank());
    results[self.rank()] = allgatherv(self, self.comm_world(), mine);
  });
  for (int r = 0; r < 3; ++r) {
    ASSERT_EQ(results[r].size(), 3u);
    EXPECT_TRUE(results[r][0].empty());
    EXPECT_EQ(results[r][1], (std::vector<int>{1}));
    EXPECT_EQ(results[r][2], (std::vector<int>{2, 2}));
  }
}

TEST(Collectives, BcastFromNonzeroRoot) {
  World world = make_world(4);
  std::vector<int> results(4, -1);
  world.run([&](Rank& self) {
    const int value = self.rank() == 2 ? 777 : 0;
    results[self.rank()] = bcast(self, self.comm_world(), 2, value);
  });
  EXPECT_EQ(results, (std::vector<int>{777, 777, 777, 777}));
}

TEST(Collectives, GathervOnlyRootReceives) {
  World world = make_world(3);
  std::vector<std::size_t> sizes(3, 99);
  world.run([&](Rank& self) {
    std::vector<int> mine{self.rank()};
    const auto gathered = gatherv(self, self.comm_world(), 1, mine);
    sizes[self.rank()] = gathered.size();
  });
  EXPECT_EQ(sizes, (std::vector<std::size_t>{0, 3, 0}));
}

TEST(Collectives, AlltoallPersonalizedExchange) {
  World world = make_world(3);
  std::vector<std::vector<int>> results(3);
  world.run([&](Rank& self) {
    std::vector<int> send(3);
    for (int peer = 0; peer < 3; ++peer) {
      send[peer] = self.rank() * 100 + peer;  // value destined for `peer`
    }
    results[self.rank()] = alltoall(self, self.comm_world(), send);
  });
  // results[r][j] = what j sent to r = j*100 + r.
  for (int r = 0; r < 3; ++r) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(results[r][j], j * 100 + r);
    }
  }
}

TEST(Collectives, AllreduceSumMaxMin) {
  World world = make_world(6);
  std::vector<std::array<long, 3>> results(6);
  world.run([&](Rank& self) {
    const long value = self.rank() + 1;
    results[self.rank()] = {allreduce_sum(self, self.comm_world(), value),
                            allreduce_max(self, self.comm_world(), value),
                            allreduce_min(self, self.comm_world(), value)};
  });
  for (const auto& [sum, max, min] : results) {
    EXPECT_EQ(sum, 21);
    EXPECT_EQ(max, 6);
    EXPECT_EQ(min, 1);
  }
}

TEST(Collectives, ExscanSumPrefixes) {
  World world = make_world(5);
  std::vector<std::uint64_t> results(5);
  world.run([&](Rank& self) {
    results[self.rank()] =
        exscan_sum(self, self.comm_world(), std::uint64_t{10});
  });
  EXPECT_EQ(results, (std::vector<std::uint64_t>{0, 10, 20, 30, 40}));
}

TEST(Collectives, BackToBackCollectivesKeepSequence) {
  World world = make_world(4);
  world.run([&](Rank& self) {
    for (int round = 0; round < 10; ++round) {
      const auto values =
          allgather(self, self.comm_world(), self.rank() + round);
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(values[r], r + round);
      }
    }
  });
}

TEST(Collectives, SingletonCommIsFree) {
  World world = make_world(1);
  world.run([&](Rank& self) {
    const double t0 = self.now();
    barrier(self, self.comm_world());
    const auto all = allgather(self, self.comm_world(), 42);
    EXPECT_EQ(all, (std::vector<int>{42}));
    EXPECT_DOUBLE_EQ(self.now(), t0);
  });
}

TEST(CollectiveCost, AlltoallGrowsLinearlyBarrierLogarithmically) {
  const machine::NetworkParams net;
  const double barrier_64 = coll_cost(net, CollKind::Barrier, 64, 0, 0);
  const double barrier_1024 = coll_cost(net, CollKind::Barrier, 1024, 0, 0);
  EXPECT_NEAR(barrier_1024 / barrier_64, 10.0 / 6.0, 1e-9);  // log ratio

  const double a2a_64 = coll_cost(net, CollKind::Alltoall, 64, 256, 256 * 64);
  const double a2a_1024 =
      coll_cost(net, CollKind::Alltoall, 1024, 4096, 4096 * 1024);
  EXPECT_GT(a2a_1024 / a2a_64, 10.0);  // super-logarithmic growth
}

TEST(CollectiveCost, SingleRankIsFree) {
  const machine::NetworkParams net;
  for (CollKind kind : {CollKind::Barrier, CollKind::Bcast, CollKind::Gather,
                        CollKind::Allgather, CollKind::Alltoall,
                        CollKind::Allreduce, CollKind::Scan}) {
    EXPECT_DOUBLE_EQ(coll_cost(net, kind, 1, 1000, 1000), 0.0);
  }
}

TEST(CommSplit, SplitsByColorOrderedByKey) {
  World world = make_world(6);
  std::vector<int> sub_rank(6, -1);
  std::vector<int> sub_size(6, -1);
  world.run([&](Rank& self) {
    const int color = self.rank() % 2;
    // Reverse key order within each color.
    const Comm sub =
        comm_split(self, self.comm_world(), color, -self.rank());
    sub_rank[self.rank()] = sub.local_rank(self.rank());
    sub_size[self.rank()] = sub.size();
  });
  // Evens {0,2,4} with keys {0,-2,-4}: order 4,2,0.
  EXPECT_EQ(sub_size, (std::vector<int>{3, 3, 3, 3, 3, 3}));
  EXPECT_EQ(sub_rank[4], 0);
  EXPECT_EQ(sub_rank[2], 1);
  EXPECT_EQ(sub_rank[0], 2);
}

TEST(CommSplit, SubcommunicatorsIsolateCollectives) {
  World world = make_world(8);
  std::vector<int> sums(8, 0);
  world.run([&](Rank& self) {
    const int color = self.rank() / 4;  // two groups of 4
    const Comm sub = comm_split(self, self.comm_world(), color, self.rank());
    sums[self.rank()] = allreduce_sum(self, sub, self.rank());
  });
  // Group 0: 0+1+2+3 = 6; group 1: 4+5+6+7 = 22.
  for (int r = 0; r < 4; ++r) EXPECT_EQ(sums[r], 6);
  for (int r = 4; r < 8; ++r) EXPECT_EQ(sums[r], 22);
}

TEST(CommSplit, NestedSplitWorks) {
  World world = make_world(8);
  std::vector<int> sizes(8, 0);
  world.run([&](Rank& self) {
    const Comm half =
        comm_split(self, self.comm_world(), self.rank() / 4, self.rank());
    const Comm quarter =
        comm_split(self, half, self.rank() % 2, self.rank());
    sizes[self.rank()] = quarter.size();
  });
  EXPECT_EQ(sizes, std::vector<int>(8, 2));
}

TEST(Collectives, SmallerGroupsSynchronizeCheaper) {
  // The heart of ParColl: P/G-rank collectives cost less than P-rank ones.
  const auto sync_of = [](int nranks, int groups) {
    World world(machine::MachineModel::jaguar(nranks));
    world.run([&](Rank& self) {
      const int color = self.rank() / (nranks / groups);
      const Comm sub = comm_split(self, self.comm_world(), color, self.rank());
      for (int round = 0; round < 20; ++round) {
        std::vector<std::uint32_t> sizes(
            static_cast<std::size_t>(sub.size()), 1);
        alltoall(self, sub, sizes);
      }
    });
    double total = 0;
    for (const auto& breakdown : world.rank_times()) {
      total += breakdown[TimeCat::Sync];
    }
    return total;
  };
  EXPECT_LT(sync_of(64, 8), sync_of(64, 1) / 2.0);
}

/// What a run of the sparse-pattern program observed: per world rank, the
/// values received in every round (expanded to one per comm rank) and the
/// clock after every call, plus each rank's final Sync seconds.
struct PatternRun {
  std::vector<std::vector<std::uint32_t>> received;
  std::vector<std::vector<double>> clocks;
  std::vector<double> sync;
};

/// Three rounds of a pseudo-random sparse personalized exchange over the
/// world (or, with `split`, over two reverse-ordered halves of it), with
/// staggered arrivals. Every third comm rank sends nothing; every rank
/// whose comm rank is divisible by three also addresses itself. The dense
/// variant sends the same pattern with zeros in the holes.
PatternRun run_pattern(int nranks, bool split, bool sparse) {
  World world = make_world(nranks);
  PatternRun run;
  run.received.resize(static_cast<std::size_t>(nranks));
  run.clocks.resize(static_cast<std::size_t>(nranks));
  world.run([&](Rank& self) {
    Comm comm = self.comm_world();
    if (split) {
      comm = comm_split(self, comm, self.rank() % 2, -self.rank());
    }
    const int me = comm.local_rank(self.rank());
    auto& received = run.received[static_cast<std::size_t>(self.rank())];
    for (std::uint64_t round = 0; round < 3; ++round) {
      self.busy(TimeCat::Compute,
                1e-4 * static_cast<double>((self.rank() * 7 + round * 3) % 5));
      std::vector<std::uint32_t> dense(static_cast<std::size_t>(comm.size()));
      std::vector<PeerValue<std::uint32_t>> entries;
      for (int peer = 0; peer < comm.size(); ++peer) {
        const std::uint64_t h = sim::mix64(sim::hash_combine(
            sim::hash_combine(round, static_cast<std::uint64_t>(me)),
            static_cast<std::uint64_t>(peer)));
        const bool self_entry = peer == me && me % 3 == 0;
        if (me % 3 == 1 || (h % 3 != 0 && !self_entry)) continue;
        const auto value = static_cast<std::uint32_t>(h >> 32) | 1u;
        dense[static_cast<std::size_t>(peer)] = value;
        entries.push_back({peer, value});
      }
      if (sparse) {
        std::vector<std::uint32_t> expanded(
            static_cast<std::size_t>(comm.size()));
        int previous = -1;
        for (const auto& [source, value] :
             alltoall_sparse(self, comm, entries)) {
          EXPECT_GT(source, previous);  // ascending by source
          previous = source;
          expanded[static_cast<std::size_t>(source)] = value;
        }
        received.insert(received.end(), expanded.begin(), expanded.end());
      } else {
        const auto got = alltoall(self, comm, dense);
        received.insert(received.end(), got.begin(), got.end());
      }
      run.clocks[static_cast<std::size_t>(self.rank())].push_back(self.now());
    }
  });
  for (const auto& breakdown : world.rank_times()) {
    run.sync.push_back(breakdown[TimeCat::Sync]);
  }
  return run;
}

TEST(AlltoallSparse, MatchesDenseValuesSyncAndClocks) {
  for (const int nranks : {1, 2, 7, 64}) {
    for (const bool split : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "P=" << nranks << (split ? " split" : " world"));
      const PatternRun dense = run_pattern(nranks, split, /*sparse=*/false);
      const PatternRun sparse = run_pattern(nranks, split, /*sparse=*/true);
      EXPECT_EQ(sparse.received, dense.received);
      // Exact equality: the sparse exchange is charged as the dense one.
      EXPECT_EQ(sparse.clocks, dense.clocks);
      EXPECT_EQ(sparse.sync, dense.sync);
    }
  }
}

TEST(AlltoallSparse, PatternReachesTheRightPeers) {
  // Rank r sends r*10 + d to d = r+1 (and to itself when r is even); rank
  // 3 sends nothing.
  World world = make_world(4);
  std::vector<std::vector<PeerValue<int>>> results(4);
  world.run([&](Rank& self) {
    const int r = self.rank();
    std::vector<PeerValue<int>> send;
    if (r != 3) {
      if (r % 2 == 0) send.push_back({r, r * 10 + r});
      send.push_back({r + 1, r * 10 + r + 1});
    }
    results[static_cast<std::size_t>(r)] =
        alltoall_sparse(self, self.comm_world(), send);
  });
  const auto flat = [](const std::vector<PeerValue<int>>& got) {
    std::vector<std::pair<int, int>> out;
    for (const auto& [rank, value] : got) out.emplace_back(rank, value);
    return out;
  };
  using Pairs = std::vector<std::pair<int, int>>;
  EXPECT_EQ(flat(results[0]), (Pairs{{0, 0}}));
  EXPECT_EQ(flat(results[1]), (Pairs{{0, 1}}));
  EXPECT_EQ(flat(results[2]), (Pairs{{1, 12}, {2, 22}}));
  EXPECT_EQ(flat(results[3]), (Pairs{{2, 23}}));
}

TEST(AlltoallSparse, RejectsUnsortedDuplicateAndOutOfRangePeers) {
  const std::vector<std::vector<PeerValue<int>>> bad = {
      {{1, 5}, {0, 5}},  // descending
      {{1, 5}, {1, 6}},  // duplicate
      {{3, 5}},          // == comm.size()
      {{-1, 5}},         // negative
  };
  for (const auto& send : bad) {
    World world = make_world(3);
    EXPECT_THROW(world.run([&](Rank& self) {
                   alltoall_sparse(self, self.comm_world(), send);
                 }),
                 std::invalid_argument);
  }
}

TEST(Collectives, FoldedAllreduceMatchesALocalFoldOnASubcommunicator) {
  // The reference is the unfolded exchange of the same kind, folded by
  // every rank in local-rank order: same value to the last bit (a
  // floating-point sum is order sensitive) and the same Sync time.
  struct Observed {
    std::vector<double> values;
    std::vector<double> sync;
    std::vector<double> clocks;
  };
  const auto run = [](bool folded) {
    constexpr int kRanks = 6;
    World world = make_world(kRanks);
    Observed seen{std::vector<double>(kRanks), {},
                  std::vector<double>(kRanks)};
    world.run([&](Rank& self) {
      const Comm sub =
          comm_split(self, self.comm_world(), self.rank() % 2, -self.rank());
      self.busy(TimeCat::Compute, 1e-3 * self.rank());
      // In local-rank order (1 + 1e16) - 1e16 == 0; any other order of
      // these three addends gives 1.
      const double addends[] = {1.0, 1e16, -1e16};
      const double value = addends[sub.local_rank(self.rank())];
      double result = 0.0;
      if (folded) {
        result = allreduce_sum(self, sub, value);
      } else {
        const auto all =
            coll_run(self, sub, CollKind::Allreduce, detail::to_bytes(value));
        result = detail::scalar_from<double>((*all)[0]);
        for (std::size_t i = 1; i < all->size(); ++i) {
          result = result + detail::scalar_from<double>((*all)[i]);
        }
      }
      seen.values[static_cast<std::size_t>(self.rank())] = result;
      seen.clocks[static_cast<std::size_t>(self.rank())] = self.now();
    });
    for (const auto& breakdown : world.rank_times()) {
      seen.sync.push_back(breakdown[TimeCat::Sync]);
    }
    return seen;
  };
  const Observed folded = run(true);
  const Observed reference = run(false);
  EXPECT_EQ(folded.values, reference.values);
  EXPECT_EQ(folded.sync, reference.sync);
  EXPECT_EQ(folded.clocks, reference.clocks);
  EXPECT_EQ(folded.values, std::vector<double>(6, 0.0));
  EXPECT_GT(folded.sync[0], 0.0);  // rank 0 waited for rank 4
}

}  // namespace
}  // namespace parcoll::mpi
