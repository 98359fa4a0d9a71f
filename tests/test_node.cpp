// Two-level collective I/O: NodeComm structure, hierarchical collective
// equivalence, and the bit-identity guarantees of the intra-node
// aggregation stage (off — or structurally inapplicable — must be
// indistinguishable from the historical single-level protocol).
#include <gtest/gtest.h>

#include <vector>

#include "core/parcoll.hpp"
#include "fault/fault.hpp"
#include "machine/machine_model.hpp"
#include "mpi/collectives.hpp"
#include "mpi/runtime.hpp"
#include "mpiio/hints.hpp"
#include "node/hier_coll.hpp"
#include "node/nodecomm.hpp"
#include "node/options.hpp"
#include "workloads/btio.hpp"
#include "workloads/ior.hpp"
#include "workloads/tileio.hpp"

namespace parcoll {
namespace {

using machine::Mapping;

mpi::World make_world(int nranks, Mapping mapping = Mapping::Block,
                      int cores_per_node = 2) {
  return mpi::World(machine::MachineModel::jaguar(nranks, mapping,
                                                  cores_per_node));
}

node::NodeComm node_comm_of(mpi::Rank& self,
                            node::LeaderPolicy policy = node::LeaderPolicy::Lowest) {
  return node::make_node_comm(self, self.comm_world(),
                              self.world().model().topology, policy);
}

TEST(NodeComm, BlockMappingStructure) {
  auto world = make_world(8, Mapping::Block, 2);
  std::vector<node::NodeComm> ncs(8);
  world.run([&](mpi::Rank& self) {
    ncs[static_cast<std::size_t>(self.rank())] = node_comm_of(self);
  });
  for (int r = 0; r < 8; ++r) {
    const auto& nc = ncs[static_cast<std::size_t>(r)];
    EXPECT_TRUE(nc.multi());
    EXPECT_EQ(nc.num_nodes(), 4);
    EXPECT_EQ(nc.layout().leaders, (std::vector<int>{0, 2, 4, 6}));
    EXPECT_EQ(nc.layout().node_members[1], (std::vector<int>{2, 3}));
    EXPECT_EQ(nc.layout().node_index_of[5], 2);
    EXPECT_EQ(nc.my_parent_local(), r);
    EXPECT_EQ(nc.my_node_index(), r / 2);
    EXPECT_EQ(nc.i_lead(), r % 2 == 0);
    EXPECT_EQ(nc.layout().is_leader(r), r % 2 == 0);
    // node_comm holds my node's members; leader_comm one rank per node.
    EXPECT_EQ(nc.node_comm().members(),
              (std::vector<int>{r / 2 * 2, r / 2 * 2 + 1}));
    EXPECT_EQ(nc.leader_comm().members(), (std::vector<int>{0, 2, 4, 6}));
  }
}

TEST(NodeComm, CyclicMappingStructure) {
  auto world = make_world(8, Mapping::Cyclic, 2);
  std::vector<node::NodeComm> ncs(8);
  world.run([&](mpi::Rank& self) {
    ncs[static_cast<std::size_t>(self.rank())] = node_comm_of(self);
  });
  // node_of(r) = r % 4: N0(0,4) N1(1,5) N2(2,6) N3(3,7).
  const auto& nc = ncs[5];
  EXPECT_EQ(nc.num_nodes(), 4);
  EXPECT_EQ(nc.layout().leaders, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(nc.layout().node_members[1], (std::vector<int>{1, 5}));
  EXPECT_EQ(nc.layout().node_members[3], (std::vector<int>{3, 7}));
  EXPECT_EQ(nc.my_node_index(), 1);
  EXPECT_FALSE(nc.i_lead());
  EXPECT_EQ(nc.node_comm().members(), (std::vector<int>{1, 5}));
}

TEST(NodeComm, SpreadPolicyRotatesLeadersAcrossNodeLocals) {
  auto world = make_world(8, Mapping::Block, 2);
  std::vector<int> leader_of(8, -1);
  world.run([&](mpi::Rank& self) {
    const auto nc = node_comm_of(self, node::LeaderPolicy::Spread);
    leader_of[static_cast<std::size_t>(self.rank())] =
        nc.layout().leaders[static_cast<std::size_t>(nc.my_node_index())];
  });
  // Node n elects members[n % node_size]: 0, 3, 4, 7 — the leader role
  // rotates across core slots instead of always hitting core 0.
  EXPECT_EQ(leader_of, (std::vector<int>{0, 0, 3, 3, 4, 4, 7, 7}));
}

TEST(NodeComm, UnevenTailLeavesSingleRankNode) {
  auto world = make_world(7, Mapping::Block, 2);
  std::vector<node::NodeComm> ncs(7);
  world.run([&](mpi::Rank& self) {
    ncs[static_cast<std::size_t>(self.rank())] = node_comm_of(self);
  });
  const auto& nc = ncs[6];
  EXPECT_EQ(nc.num_nodes(), 4);
  EXPECT_EQ(nc.layout().node_members[3], (std::vector<int>{6}));
  EXPECT_TRUE(nc.i_lead());
  EXPECT_EQ(nc.node_comm().size(), 1);
  EXPECT_TRUE(nc.multi());  // other nodes still host pairs
}

TEST(NodeComm, ApplicabilityFollowsCohabitation) {
  {
    auto world = make_world(4, Mapping::Block, 1);
    world.run([&](mpi::Rank& self) {
      const auto& topo = self.world().model().topology;
      EXPECT_FALSE(node::two_level_applicable(topo, self.comm_world()));
      // On/Auto degenerate at one core per node; Off always declines.
      for (auto mode : {node::IntranodeMode::Off, node::IntranodeMode::On,
                        node::IntranodeMode::Auto}) {
        EXPECT_FALSE(node::two_level_active(mode, topo, self.comm_world()));
      }
      const auto nc = node_comm_of(self);
      EXPECT_FALSE(nc.multi());
    });
  }
  {
    auto world = make_world(8, Mapping::Block, 2);
    world.run([&](mpi::Rank& self) {
      const auto& topo = self.world().model().topology;
      EXPECT_TRUE(node::two_level_applicable(topo, self.comm_world()));
      EXPECT_FALSE(node::two_level_active(node::IntranodeMode::Off, topo,
                                          self.comm_world()));
      EXPECT_TRUE(node::two_level_active(node::IntranodeMode::Auto, topo,
                                         self.comm_world()));
      // A subgroup with at most one member per node has nothing to merge,
      // even though the machine is multi-core.
      const mpi::Comm spread_sub(0x5u, {0, 2, 4});
      EXPECT_FALSE(node::two_level_applicable(topo, spread_sub));
      // A subgroup keeping node pairs together stays applicable, and its
      // NodeComm speaks parent-local ranks.
      const mpi::Comm paired_sub(0x6u, {4, 5, 6, 7});
      EXPECT_TRUE(node::two_level_applicable(topo, paired_sub));
    });
  }
}

TEST(NodeComm, SubCommunicatorUsesParentLocalRanks) {
  auto world = make_world(8, Mapping::Block, 2);
  world.run([&](mpi::Rank& self) {
    if (self.rank() < 4) return;  // only the subgroup builds the NodeComm
    const mpi::Comm sub(0x7u, {4, 5, 6, 7});
    const auto nc = node::make_node_comm(self, sub,
                                         self.world().model().topology,
                                         node::LeaderPolicy::Lowest);
    EXPECT_EQ(nc.num_nodes(), 2);
    EXPECT_EQ(nc.layout().leaders, (std::vector<int>{0, 2}));  // parent locals
    EXPECT_EQ(nc.layout().node_members[0], (std::vector<int>{0, 1}));
    EXPECT_EQ(nc.layout().node_members[1], (std::vector<int>{2, 3}));
    EXPECT_EQ(nc.my_parent_local(), self.rank() - 4);
    EXPECT_EQ(nc.i_lead(), self.rank() == 4 || self.rank() == 6);
  });
}

TEST(NodeComm, LayoutIsBuiltOncePerCommunicatorAndShared) {
  auto world = make_world(8, Mapping::Block, 2);
  std::vector<const node::NodeLayout*> first(8, nullptr);
  std::vector<const node::NodeLayout*> second(8, nullptr);
  std::vector<node::NodeComm> spread(8);
  world.run([&](mpi::Rank& self) {
    const auto r = static_cast<std::size_t>(self.rank());
    const auto a = node_comm_of(self);
    const auto b = node_comm_of(self);
    first[r] = &a.layout();
    second[r] = &b.layout();
    spread[r] = node_comm_of(self, node::LeaderPolicy::Spread);
  });
  // Every rank, on both calls, holds the one layout of the world comm.
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(first[r], first[0]) << r;
    EXPECT_EQ(second[r], first[0]) << r;
    EXPECT_EQ(&spread[r].layout(), &spread[0].layout()) << r;
  }
  // The leader policy is part of the key: Spread gets its own layout.
  EXPECT_NE(&spread[0].layout(), first[0]);
  EXPECT_EQ(spread[2].layout().leaders, (std::vector<int>{0, 3, 4, 7}));
}

TEST(NodeComm, ReusedContextIdWithOtherMembersGetsItsOwnLayout) {
  // Two hand-made communicators share a context id but not their members.
  // The second must not be served the first one's cached layout.
  auto world = make_world(8, Mapping::Block, 2);
  world.run([&](mpi::Rank& self) {
    const auto& topo = self.world().model().topology;
    const mpi::Comm low(0x9u, {0, 1, 2, 3});
    const mpi::Comm high(0x9u, {2, 3, 4, 5, 6, 7});
    if (self.rank() < 4) {
      const auto nc =
          node::make_node_comm(self, low, topo, node::LeaderPolicy::Lowest);
      EXPECT_EQ(nc.parent().members(), low.members());
      EXPECT_EQ(nc.layout().leaders, (std::vector<int>{0, 2}));
      EXPECT_EQ(nc.leader_comm().members(), (std::vector<int>{0, 2}));
    }
    if (self.rank() >= 2) {
      const auto nc =
          node::make_node_comm(self, high, topo, node::LeaderPolicy::Lowest);
      EXPECT_EQ(nc.parent().members(), high.members());
      EXPECT_EQ(nc.num_nodes(), 3);
      EXPECT_EQ(nc.layout().leaders, (std::vector<int>{0, 2, 4}));
      EXPECT_EQ(nc.layout().node_members[2], (std::vector<int>{4, 5}));
      EXPECT_EQ(nc.my_parent_local(), self.rank() - 2);
      EXPECT_EQ(nc.leader_comm().members(), (std::vector<int>{2, 4, 6}));
      const int base = self.rank() / 2 * 2;
      EXPECT_EQ(nc.node_comm().members(), (std::vector<int>{base, base + 1}));
    }
  });
}

TEST(NodeComm, ToLeaderLocalsMapsAggregatorRosters) {
  auto world = make_world(8, Mapping::Block, 2);
  world.run([&](mpi::Rank& self) {
    const auto nc = node_comm_of(self);
    const auto& layout = nc.layout();
    // Hosts of {0,1,2,5} are nodes {0,0,1,2} -> leader locals {0,1,2}.
    EXPECT_EQ(layout.to_leader_locals({0, 1, 2, 5}),
              (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(layout.to_leader_locals({7}), (std::vector<int>{3}));
    // Output is sorted and deduplicated regardless of input order.
    EXPECT_EQ(layout.to_leader_locals({5, 2, 4}), (std::vector<int>{1, 2}));
    // shares_a_node says whether that mapping merges any entries.
    EXPECT_TRUE(layout.shares_a_node({0, 1, 2, 5}));
    EXPECT_TRUE(layout.shares_a_node({5, 2, 4}));
    EXPECT_TRUE(layout.shares_a_node({3, 3}));
    EXPECT_TRUE(layout.shares_a_node({0, 2, 4, 6, 1}));  // 5 > 4 nodes
    EXPECT_FALSE(layout.shares_a_node({7, 0, 3}));
    EXPECT_FALSE(layout.shares_a_node({}));
  });
}

void expect_hier_collectives_match_flat(Mapping mapping, int cores_per_node) {
  const int P = 8;
  auto world = make_world(P, mapping, cores_per_node);
  world.run([&](mpi::Rank& self) {
    const auto nc = node_comm_of(self);
    const int r = self.rank();

    const auto gathered = node::hier_allgather(self, nc, r * 10 + 1);
    ASSERT_EQ(gathered.size(), static_cast<std::size_t>(P));
    for (int j = 0; j < P; ++j) {
      EXPECT_EQ(gathered[static_cast<std::size_t>(j)], j * 10 + 1);
    }

    EXPECT_EQ(node::hier_allreduce_max(self, nc, r % 5), 4);
  });
}

TEST(HierColl, MatchesFlatResultsBlockMapping) {
  expect_hier_collectives_match_flat(Mapping::Block, 2);
}

TEST(HierColl, MatchesFlatResultsCyclicMapping) {
  expect_hier_collectives_match_flat(Mapping::Cyclic, 2);
}

TEST(HierColl, MatchesFlatResultsWideNodes) {
  expect_hier_collectives_match_flat(Mapping::Block, 4);
}

TEST(HierColl, DegeneratesOnSingleCoreNodes) {
  expect_hier_collectives_match_flat(Mapping::Block, 1);
}

TEST(IntranodeHints, RoundTripThroughInfoInterface) {
  mpiio::Hints hints;
  EXPECT_EQ(hints.get("cb_intranode"), "disable");
  EXPECT_EQ(hints.get("cb_intranode_leader"), "lowest");
  hints.set("cb_intranode", "enable");
  EXPECT_EQ(hints.cb_intranode, node::IntranodeMode::On);
  hints.set("cb_intranode", "automatic");
  EXPECT_EQ(hints.cb_intranode, node::IntranodeMode::Auto);
  EXPECT_EQ(hints.get("cb_intranode"), "automatic");
  hints.set("cb_intranode_leader", "spread");
  EXPECT_EQ(hints.cb_intranode_leader, node::LeaderPolicy::Spread);
  EXPECT_THROW(hints.set("cb_intranode", "sideways"), std::invalid_argument);
  EXPECT_THROW(hints.set("cb_intranode_leader", "tallest"),
               std::invalid_argument);
}

workloads::RunSpec byte_true_spec(workloads::Impl impl, int groups,
                                  node::IntranodeMode intranode,
                                  int cores_per_node = 2) {
  workloads::RunSpec spec;
  spec.impl = impl;
  spec.parcoll_groups = groups;
  spec.min_group_size = 2;
  spec.byte_true = true;
  spec.cb_buffer_size = 4096;
  spec.cores_per_node = cores_per_node;
  spec.intranode = intranode;
  return spec;
}

workloads::TileIOConfig small_tileio() {
  workloads::TileIOConfig config;
  config.tiles_x = 4;
  config.tile_w = 8;
  config.tile_h = 4;
  config.elem_size = 8;
  return config;
}

TEST(IntranodeEquivalence, TileIoWriteBitIdenticalAndCounted) {
  const auto config = small_tileio();
  const auto off = workloads::run_tileio(
      config, 8,
      byte_true_spec(workloads::Impl::Ext2ph, 0, node::IntranodeMode::Off),
      true);
  const auto on = workloads::run_tileio(
      config, 8,
      byte_true_spec(workloads::Impl::Ext2ph, 0, node::IntranodeMode::On),
      true);
  EXPECT_TRUE(off.verified);
  EXPECT_TRUE(on.verified);  // byte-identical file contents either way
  EXPECT_EQ(on.bytes, off.bytes);
  EXPECT_EQ(on.stats.bytes_written, off.stats.bytes_written);
  EXPECT_EQ(on.stats.collective_writes, off.stats.collective_writes);
  EXPECT_EQ(off.stats.intranode_calls, 0u);
  EXPECT_GT(on.stats.intranode_calls, 0u);
  EXPECT_GT(on.stats.intranode_bytes, 0u);
}

TEST(IntranodeEquivalence, TileIoReadRoundTrips) {
  // Two-level reads walk the same cycle schedule as two-level writes, both
  // through the leader-comm ext2ph (4 nodes of 2 cores) and through the
  // sole leader (all 8 ranks on one node).
  const auto config = small_tileio();
  for (const int cores_per_node : {2, 8}) {
    const auto spec = byte_true_spec(workloads::Impl::Ext2ph, 0,
                                     node::IntranodeMode::On, cores_per_node);
    const auto read = workloads::run_tileio(config, 8, spec, false);
    const auto write = workloads::run_tileio(config, 8, spec, true);
    EXPECT_TRUE(read.verified) << cores_per_node << " cores per node";
    EXPECT_GT(read.stats.intranode_calls, 0u);
    EXPECT_GT(read.stats.exchange_cycles, 0u);
    EXPECT_EQ(read.stats.exchange_cycles, write.stats.exchange_cycles)
        << cores_per_node << " cores per node";
  }
}

TEST(IntranodeEquivalence, ComposesWithParCollSubgroups) {
  workloads::BtIOConfig config;
  config.grid = 12;
  config.nsteps = 2;
  const auto off = workloads::run_btio(
      config, 9,
      byte_true_spec(workloads::Impl::ParColl, 2, node::IntranodeMode::Off),
      true);
  const auto on = workloads::run_btio(
      config, 9,
      byte_true_spec(workloads::Impl::ParColl, 2, node::IntranodeMode::On),
      true);
  EXPECT_TRUE(off.verified);
  EXPECT_TRUE(on.verified);
  EXPECT_EQ(on.stats.bytes_written, off.stats.bytes_written);
  EXPECT_GT(on.stats.parcoll_calls, 0u);
  EXPECT_GT(on.stats.intranode_calls, 0u);
}

TEST(IntranodeEquivalence, IorVerifiesUnderCyclicMapping) {
  workloads::IorConfig config;
  config.block_size = 32 << 10;
  config.xfer_size = 8 << 10;
  auto spec =
      byte_true_spec(workloads::Impl::Ext2ph, 0, node::IntranodeMode::On);
  spec.mapping = Mapping::Cyclic;
  const auto result = workloads::run_ior(config, 8, spec, true);
  EXPECT_TRUE(result.verified);
  EXPECT_GT(result.stats.intranode_calls, 0u);
}

TEST(IntranodeEquivalence, OffIsBitIdenticalToHistoricalRuns) {
  // Off must not change a single scheduling decision: identical virtual
  // elapsed time and identical profile, not merely identical bytes.
  const auto config = small_tileio();
  workloads::RunSpec historical;
  historical.impl = workloads::Impl::Ext2ph;
  historical.byte_true = true;
  historical.cb_buffer_size = 4096;
  auto off = historical;
  off.intranode = node::IntranodeMode::Off;
  const auto a = workloads::run_tileio(config, 8, historical, true);
  const auto b = workloads::run_tileio(config, 8, off, true);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.sum.total(), b.sum.total());
  EXPECT_EQ(a.stats.exchange_cycles, b.stats.exchange_cycles);
}

TEST(IntranodeEquivalence, SingleCoreNodesNeverActivate) {
  // On a one-process-per-node machine the activation rule degenerates, so
  // enabling the hint is a structural no-op: same timing, zero counters.
  const auto config = small_tileio();
  const auto off = workloads::run_tileio(
      config, 8,
      byte_true_spec(workloads::Impl::Ext2ph, 0, node::IntranodeMode::Off, 1),
      true);
  const auto on = workloads::run_tileio(
      config, 8,
      byte_true_spec(workloads::Impl::Ext2ph, 0, node::IntranodeMode::On, 1),
      true);
  EXPECT_TRUE(on.verified);
  EXPECT_EQ(on.elapsed, off.elapsed);
  EXPECT_EQ(on.sum.total(), off.sum.total());
  EXPECT_EQ(on.stats.intranode_calls, 0u);
  EXPECT_EQ(on.stats.intranode_bytes, 0u);
}

// Golden values for runs that take the active two-level path (On, two
// cores per node), captured before the node layout became a shared
// per-communicator object. Any drift means the refactor changed a
// scheduling decision, not just host cost.
workloads::TileIOConfig pinned_tileio() {
  workloads::TileIOConfig config;
  config.tiles_x = 4;
  config.tile_w = 16;
  config.tile_h = 8;
  config.elem_size = 8;
  return config;
}

TEST(IntranodeGolden, Ext2phTileIoTwoLevelPinned) {
  const auto got = workloads::run_tileio(
      pinned_tileio(), 16,
      byte_true_spec(workloads::Impl::Ext2ph, 0, node::IntranodeMode::On),
      true);
  EXPECT_TRUE(got.verified);
  EXPECT_EQ(got.stats.intranode_calls, 1u);
  EXPECT_EQ(got.elapsed, 0.015660757473317837);
  EXPECT_EQ(got.total_elapsed, 0.016280757473317836);
  EXPECT_EQ(got.sum[mpi::TimeCat::Intra], 5.5014400000000393e-05);
  EXPECT_EQ(got.schedule_token, "p");
  EXPECT_EQ(got.file_digest, 12821380317814191267ull);
}

TEST(IntranodeGolden, ParCollTileIoWithRankStallPinned) {
  // The stall plan routes every subgroup through the re-election round
  // (hier_allreduce_max over the subgroup's NodeComm) on top of the
  // partition hier_allgather and the two-level exchange; Spread covers
  // the second leader policy.
  auto spec =
      byte_true_spec(workloads::Impl::ParColl, 2, node::IntranodeMode::On);
  spec.intranode_leader = node::LeaderPolicy::Spread;
  spec.fault = fault::FaultPlan::parse(
      "seed=5;rank-stall=0:0.005:1;agg-stall-threshold=0.001");
  const auto got = workloads::run_tileio(pinned_tileio(), 16, spec, true);
  EXPECT_TRUE(got.verified);
  EXPECT_EQ(got.stats.parcoll_calls, 1u);
  EXPECT_EQ(got.stats.intranode_calls, 1u);
  EXPECT_EQ(got.elapsed, 1.0113359355988818);
  EXPECT_EQ(got.total_elapsed, 1.0119559355988819);
  EXPECT_EQ(got.sum[mpi::TimeCat::Intra], 5.5014400000000393e-05);
  EXPECT_EQ(got.schedule_token, "p");
  EXPECT_EQ(got.file_digest, 12821380317814191267ull);
}

}  // namespace
}  // namespace parcoll
