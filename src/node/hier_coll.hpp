// Hierarchical (two-level) coordination collectives.
//
// Each operation is staged: members funnel their contributions to the node
// leader over the node communicator, leaders run the inter-node exchange
// over the leader communicator, and results fan back out within the node.
// The expensive stage therefore runs over num_nodes participants instead of
// P — the same participant reduction the intra-node aggregation applies to
// the two-phase data exchange, applied to ext2ph's coordination traffic.
//
// Every variant degenerates to the flat collective when no node hosts two
// members (NodeLayout::multi == false), so results — and, in that case, the
// timing — are identical to the single-level protocol.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "mpi/collectives.hpp"
#include "mpi/runtime.hpp"
#include "node/nodecomm.hpp"

namespace parcoll::node {

/// Allgather of one value per rank, staged through the node leaders.
/// Result is ordered by parent local rank, exactly like mpi::allgather
/// over the parent communicator.
template <typename T>
std::vector<T> hier_allgather(mpi::Rank& self, const NodeComm& nc,
                              const T& value) {
  if (!nc.multi()) {
    return mpi::allgather(self, nc.parent(), value);
  }
  // Stage 1: node members deposit their values at the leader.
  auto node_vals =
      mpi::gather(self, nc.node_comm(), nc.leader_node_local(), value);
  std::vector<T> result(static_cast<std::size_t>(nc.parent().size()));
  if (nc.i_lead()) {
    // Stage 2: leaders exchange whole node vectors.
    auto per_node = mpi::allgatherv(self, nc.leader_comm(), node_vals);
    const auto& node_members = nc.layout().node_members;
    for (std::size_t n = 0; n < per_node.size(); ++n) {
      for (std::size_t i = 0; i < per_node[n].size(); ++i) {
        result[static_cast<std::size_t>(node_members[n][i])] =
            per_node[n][i];
      }
    }
  }
  // Stage 3: the leader rebroadcasts the assembled vector within the node.
  auto all = mpi::coll_run(
      self, nc.node_comm(), mpi::CollKind::Bcast,
      nc.i_lead() ? mpi::detail::to_bytes(result) : std::vector<std::byte>{});
  return mpi::detail::vector_from<T>(
      (*all)[static_cast<std::size_t>(nc.leader_node_local())]);
}

/// Allreduce staged through the node leaders: reduce within the node,
/// allreduce across leaders, broadcast back.
template <typename T, typename BinaryOp>
T hier_allreduce(mpi::Rank& self, const NodeComm& nc, const T& value,
                 BinaryOp op) {
  if (!nc.multi()) {
    return mpi::allreduce(self, nc.parent(), value, op);
  }
  auto node_vals =
      mpi::gather(self, nc.node_comm(), nc.leader_node_local(), value);
  T accum = value;
  if (nc.i_lead()) {
    accum = node_vals[0];
    for (std::size_t i = 1; i < node_vals.size(); ++i) {
      accum = op(accum, node_vals[i]);
    }
    accum = mpi::allreduce(self, nc.leader_comm(), accum, op);
  }
  return mpi::bcast(self, nc.node_comm(), nc.leader_node_local(), accum);
}

template <typename T>
T hier_allreduce_max(mpi::Rank& self, const NodeComm& nc, const T& value) {
  return hier_allreduce(self, nc, value,
                        [](T a, T b) { return a < b ? b : a; });
}

template <typename T>
T hier_allreduce_sum(mpi::Rank& self, const NodeComm& nc, const T& value) {
  return hier_allreduce(self, nc, value, [](T a, T b) { return a + b; });
}

/// Barrier staged through the node leaders: arrive at the leader, leaders
/// synchronize, leader releases the node.
inline void hier_barrier(mpi::Rank& self, const NodeComm& nc) {
  if (!nc.multi()) {
    mpi::barrier(self, nc.parent());
    return;
  }
  (void)mpi::gather(self, nc.node_comm(), nc.leader_node_local(), char{0});
  if (nc.i_lead()) {
    mpi::barrier(self, nc.leader_comm());
  }
  (void)mpi::bcast(self, nc.node_comm(), nc.leader_node_local(), char{0});
}

/// Personalized exchange staged leader-only: each rank supplies one value
/// per parent rank; the result's j-th entry is what parent rank j sent to
/// me. Only leaders participate in the inter-node alltoall, over blocks of
/// node-pair traffic.
template <typename T>
std::vector<T> hier_alltoall(mpi::Rank& self, const NodeComm& nc,
                             const std::vector<T>& send) {
  if (!nc.multi()) {
    return mpi::alltoall(self, nc.parent(), send);
  }
  const auto P = static_cast<std::size_t>(nc.parent().size());
  if (send.size() != P) {
    throw std::logic_error("hier_alltoall: send must have parent.size() items");
  }
  // Stage 1: members deposit their whole send vector at the leader.
  auto member_rows =
      mpi::gatherv(self, nc.node_comm(), nc.leader_node_local(), send);
  std::vector<std::vector<T>> mine;
  if (nc.i_lead()) {
    // Stage 2: leaders exchange per-node-pair blocks. The block my node m
    // sends node n is [send_s[d] for s in members(m), d in members(n)],
    // source-major.
    const NodeLayout& layout = nc.layout();
    const auto num_nodes = static_cast<std::size_t>(layout.num_nodes());
    const auto& my_members =
        layout.node_members[static_cast<std::size_t>(nc.my_node_index())];
    std::vector<std::vector<T>> blocks(num_nodes);
    for (std::size_t n = 0; n < num_nodes; ++n) {
      const auto& dst_members = layout.node_members[n];
      blocks[n].reserve(my_members.size() * dst_members.size());
      for (std::size_t s = 0; s < my_members.size(); ++s) {
        for (int d : dst_members) {
          blocks[n].push_back(member_rows[s][static_cast<std::size_t>(d)]);
        }
      }
    }
    auto received = mpi::alltoallv(self, nc.leader_comm(), blocks);
    // Stage 3a: reassemble each local member's result row, ordered by
    // parent local rank of the source.
    mine.resize(my_members.size());
    for (std::size_t di = 0; di < my_members.size(); ++di) {
      auto& row = mine[di];
      row.resize(P);
      for (std::size_t j = 0; j < P; ++j) {
        const auto m = static_cast<std::size_t>(layout.node_index_of[j]);
        const auto& src_members = layout.node_members[m];
        const auto si = static_cast<std::size_t>(
            std::find(src_members.begin(), src_members.end(),
                      static_cast<int>(j)) -
            src_members.begin());
        row[j] = received[m][si * my_members.size() + di];
      }
    }
  }
  // Stage 3b: the leader hands each member its row.
  return mpi::scatterv(self, nc.node_comm(), nc.leader_node_local(), mine);
}

}  // namespace parcoll::node
