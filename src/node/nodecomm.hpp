// Two-level process organization: per-node sub-communicators and leaders.
//
// Kang et al. ("Improving MPI Collective I/O Performance With Intra-node
// Request Aggregation") observe that the global coordination cost of
// two-phase collective I/O is a function of the number of *participants*,
// and that processes sharing a physical node can combine their requests
// over memory first, so only one process per node joins the inter-node
// exchange. A NodeComm captures the structure that makes that possible:
//
//   parent       the communicator a collective call runs over
//   node_comm    the parent members hosted on my physical node
//   leader_comm  one elected leader per node (the inter-node participants)
//
// Construction is deterministic and communication-free: node membership is
// a pure function of the parent communicator and the machine topology
// (correct under both Block and Cyclic mappings), and the derived context
// ids are stable hashes of the parent context — every member computes the
// identical communicators without exchanging a byte, exactly like ROMIO
// deriving its aggregator layout from the static process map.
//
// Node membership is a property of the communicator, not of the call. The
// comm-global part (NodeLayout) is built once per (parent communicator,
// leader policy) and cached in the World's collective engine, so every
// member of every later call shares that one copy. A NodeComm is a rank's
// O(1) view into it: the shared layout plus where the rank sits in it.
#pragma once

#include <memory>
#include <vector>

#include "machine/topology.hpp"
#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"
#include "node/options.hpp"

namespace parcoll::node {

/// The comm-global two-level structure of one parent communicator under
/// one leader policy. Immutable once built and shared by all members.
struct NodeLayout {
  mpi::Comm parent;
  /// True when some node hosts >= 2 parent members (two-level staging has
  /// something to aggregate).
  bool multi = false;
  /// Per node index: the leader's parent-local rank.
  std::vector<int> leaders;
  /// Per node index: all members' parent-local ranks, ascending.
  std::vector<std::vector<int>> node_members;
  /// Parent-local rank -> node index.
  std::vector<int> node_index_of;
  /// Per node index: the node's members as a communicator.
  std::vector<mpi::Comm> node_comms;
  /// One leader per occupied node, ordered by node index. Every rank sees
  /// the same member list, but only leaders participate in its traffic.
  mpi::Comm leader_comm;

  [[nodiscard]] int num_nodes() const {
    return static_cast<int>(leaders.size());
  }
  [[nodiscard]] bool is_leader(int parent_local) const {
    return leaders[static_cast<std::size_t>(
               node_index_of[static_cast<std::size_t>(parent_local)])] ==
           parent_local;
  }

  /// Map a set of parent-local ranks to the leader_comm-local ranks of the
  /// nodes hosting them (sorted, deduplicated). This is how an aggregator
  /// roster chosen over the parent (ParColl's Fig. 5 distribution, or a
  /// fault re-election) is carried into the leader-only inter-node stage.
  [[nodiscard]] std::vector<int> to_leader_locals(
      const std::vector<int>& parent_locals) const;

  /// True when two entries of `parent_locals` sit on the same node, i.e.
  /// to_leader_locals would merge some of them. O(size) with early exit.
  [[nodiscard]] bool shares_a_node(
      const std::vector<int>& parent_locals) const;
};

/// One rank's view of a NodeLayout: the shared layout plus the caller's
/// own position in it. Copies nothing O(P).
class NodeComm {
 public:
  NodeComm() = default;
  NodeComm(std::shared_ptr<const NodeLayout> layout, int my_parent_local);

  [[nodiscard]] const NodeLayout& layout() const { return *layout_; }
  [[nodiscard]] const mpi::Comm& parent() const { return layout_->parent; }
  /// Members of `parent` on my physical node, ordered by parent rank.
  [[nodiscard]] const mpi::Comm& node_comm() const {
    return layout_->node_comms[static_cast<std::size_t>(my_node_index_)];
  }
  [[nodiscard]] const mpi::Comm& leader_comm() const {
    return layout_->leader_comm;
  }
  [[nodiscard]] bool multi() const { return layout_->multi; }
  [[nodiscard]] int num_nodes() const { return layout_->num_nodes(); }

  [[nodiscard]] int my_parent_local() const { return my_parent_local_; }
  /// Dense index (leader_comm local rank of my node's leader) of my node.
  [[nodiscard]] int my_node_index() const { return my_node_index_; }
  /// My node's leader as a node_comm local rank.
  [[nodiscard]] int leader_node_local() const { return leader_node_local_; }
  /// Whether the calling rank leads its node.
  [[nodiscard]] bool i_lead() const { return i_lead_; }

 private:
  std::shared_ptr<const NodeLayout> layout_;
  int my_parent_local_ = -1;
  int my_node_index_ = -1;
  int leader_node_local_ = 0;
  bool i_lead_ = false;
};

/// True when two-level staging would aggregate anything: some physical node
/// hosts at least two members of `comm`. O(1) on single-core nodes, else
/// O(size) with early exit.
[[nodiscard]] bool two_level_applicable(const machine::Topology& topology,
                                        const mpi::Comm& comm);

/// The activation rule shared by every call site: Off disables; On and
/// Auto enable exactly when applicable (so cores_per_node == 1 machines
/// never pay a structural change).
[[nodiscard]] bool two_level_active(IntranodeMode mode,
                                    const machine::Topology& topology,
                                    const mpi::Comm& comm);

/// The two-level structure for `comm`, seen from the calling rank. The
/// layout is built on the first call for a (communicator, policy) pair and
/// cached in `self`'s World; later calls, from any member, share it, so
/// `topology` must be that World's. Deterministic and local: no exchange,
/// no collective sequence number.
[[nodiscard]] NodeComm make_node_comm(mpi::Rank& self, const mpi::Comm& comm,
                                      const machine::Topology& topology,
                                      LeaderPolicy policy);

}  // namespace parcoll::node
