#include "node/nodecomm.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "mpi/collectives.hpp"

namespace parcoll::node {

namespace {
// Context-derivation salts for the two derived communicators. Arbitrary but
// fixed: every rank must derive the same ids from the same parent context.
constexpr std::uint64_t kNodeSeq = 0x6e6f6465;    // "node"
constexpr std::uint64_t kLeaderSeq = 0x6c646572;  // "lder"
// Attribute key of the cached layout; the leader policy is added to it.
constexpr std::uint64_t kLayoutAttr = 0x6c61796f7574;  // "layout"

std::shared_ptr<const NodeLayout> build_layout(
    const mpi::CollEngine& colls, const mpi::Comm& comm,
    const machine::Topology& topology, LeaderPolicy policy) {
  auto layout = std::make_shared<NodeLayout>();
  layout->parent = comm;
  const std::vector<int>& members = comm.members();

  // Relabel physical node ids once into dense node indices, ascending by
  // physical node. Members are visited in local-rank order, so each node's
  // member list comes out ascending by parent local rank.
  std::vector<int> node_of_local(members.size());
  for (std::size_t local = 0; local < members.size(); ++local) {
    node_of_local[local] = topology.node_of(members[local]);
  }
  std::vector<int> node_ids = node_of_local;
  std::sort(node_ids.begin(), node_ids.end());
  node_ids.erase(std::unique(node_ids.begin(), node_ids.end()),
                 node_ids.end());
  layout->node_members.resize(node_ids.size());
  layout->node_index_of.resize(members.size());
  for (std::size_t local = 0; local < members.size(); ++local) {
    const auto at = static_cast<std::size_t>(
        std::lower_bound(node_ids.begin(), node_ids.end(),
                         node_of_local[local]) -
        node_ids.begin());
    layout->node_index_of[local] = static_cast<int>(at);
    layout->node_members[at].push_back(static_cast<int>(local));
  }

  // Elect one leader per node and materialize the derived communicators.
  // Context ids are deterministic functions of the parent context, so every
  // member would derive the same ones; building them here once is what
  // lets the members share them.
  const int num_nodes = static_cast<int>(node_ids.size());
  layout->leaders.reserve(node_ids.size());
  layout->node_comms.reserve(node_ids.size());
  std::vector<int> leader_world;
  leader_world.reserve(node_ids.size());
  for (int n = 0; n < num_nodes; ++n) {
    const auto& node = layout->node_members[static_cast<std::size_t>(n)];
    const std::size_t pick =
        policy == LeaderPolicy::Spread
            ? static_cast<std::size_t>(n) % node.size()
            : 0;
    layout->leaders.push_back(node[pick]);
    layout->multi = layout->multi || node.size() > 1;
    leader_world.push_back(members[static_cast<std::size_t>(node[pick])]);

    std::vector<int> node_world;
    node_world.reserve(node.size());
    for (int local : node) {
      node_world.push_back(members[static_cast<std::size_t>(local)]);
    }
    layout->node_comms.emplace_back(
        colls.derive_context(comm.context_id(), kNodeSeq, n),
        std::move(node_world));
  }
  layout->leader_comm =
      mpi::Comm(colls.derive_context(comm.context_id(), kLeaderSeq, 0),
                std::move(leader_world));
  return layout;
}
}  // namespace

bool two_level_applicable(const machine::Topology& topology,
                          const mpi::Comm& comm) {
  if (!comm.valid() || comm.size() < 2 || topology.cores_per_node() == 1) {
    return false;
  }
  if (comm.size() > topology.num_nodes()) {
    return true;  // more members than nodes: some node hosts two
  }
  std::vector<bool> seen(static_cast<std::size_t>(topology.num_nodes()));
  for (int world : comm.members()) {
    const auto node = static_cast<std::size_t>(topology.node_of(world));
    if (seen[node]) {
      return true;  // second member on the same node
    }
    seen[node] = true;
  }
  return false;
}

bool two_level_active(IntranodeMode mode, const machine::Topology& topology,
                      const mpi::Comm& comm) {
  if (mode == IntranodeMode::Off) {
    return false;
  }
  return two_level_applicable(topology, comm);
}

std::vector<int> NodeLayout::to_leader_locals(
    const std::vector<int>& parent_locals) const {
  std::vector<int> locals;
  locals.reserve(parent_locals.size());
  for (int parent_local : parent_locals) {
    locals.push_back(node_index_of[static_cast<std::size_t>(parent_local)]);
  }
  std::sort(locals.begin(), locals.end());
  locals.erase(std::unique(locals.begin(), locals.end()), locals.end());
  return locals;
}

bool NodeLayout::shares_a_node(const std::vector<int>& parent_locals) const {
  if (parent_locals.size() > leaders.size()) {
    return true;  // more entries than nodes
  }
  std::vector<bool> seen(leaders.size());
  for (int parent_local : parent_locals) {
    const auto node = static_cast<std::size_t>(
        node_index_of[static_cast<std::size_t>(parent_local)]);
    if (seen[node]) {
      return true;
    }
    seen[node] = true;
  }
  return false;
}

NodeComm::NodeComm(std::shared_ptr<const NodeLayout> layout,
                   int my_parent_local)
    : layout_(std::move(layout)), my_parent_local_(my_parent_local) {
  my_node_index_ =
      layout_->node_index_of[static_cast<std::size_t>(my_parent_local_)];
  const auto node = static_cast<std::size_t>(my_node_index_);
  const auto& my_members = layout_->node_members[node];
  const int leader = layout_->leaders[node];
  i_lead_ = leader == my_parent_local_;
  leader_node_local_ = static_cast<int>(
      std::find(my_members.begin(), my_members.end(), leader) -
      my_members.begin());
}

NodeComm make_node_comm(mpi::Rank& self, const mpi::Comm& comm,
                        const machine::Topology& topology,
                        LeaderPolicy policy) {
  const int me = comm.local_rank(self.rank());
  if (me < 0) {
    throw std::logic_error("make_node_comm: caller not a member of comm");
  }
  auto& colls = self.world().colls();
  const std::uint64_t key = kLayoutAttr + static_cast<std::uint64_t>(policy);
  auto layout = std::static_pointer_cast<const NodeLayout>(
      colls.cached_attr(comm.context_id(), key));
  if (layout == nullptr) {
    layout = build_layout(colls, comm, topology, policy);
    colls.cache_attr(comm.context_id(), key, layout);
  } else if (layout->parent != comm &&
             layout->parent.members() != comm.members()) {
    // A different communicator under a cached context id (hand-made comms
    // may reuse one): serve it an uncached layout of its own.
    layout = build_layout(colls, comm, topology, policy);
  }
  return {std::move(layout), me};
}

}  // namespace parcoll::node
