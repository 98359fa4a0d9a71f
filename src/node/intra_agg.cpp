#include "node/intra_agg.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "mpi/p2p.hpp"
#include "mpi/trace.hpp"

namespace parcoll::node {

namespace {

// Tags for the intra-node shipping protocol. They live on the node_comm
// context, so they can never collide with ext2ph's tags (which flow over
// the parent or leader communicator contexts).
constexpr int kTagHeader = 9001;
constexpr int kTagExtents = 9002;
constexpr int kTagData = 9003;
constexpr int kTagReply = 9004;

struct WireHeader {
  std::uint64_t n_extents = 0;
  std::uint64_t total_bytes = 0;
};

/// One node member's request as the leader sees it.
struct MemberReq {
  std::vector<fs::Extent> extents;
  std::uint64_t total_bytes = 0;         // announced payload size
  std::vector<std::byte> recv_data;      // shipped payload (writes, byte-true)
  const std::byte* data = nullptr;       // payload to merge from (may be null)
};

/// The node-level union request: sorted, coalesced extents plus prefix
/// sums locating each extent in the packed node stream.
struct Merged {
  std::vector<fs::Extent> extents;
  std::vector<std::uint64_t> prefix;
  std::uint64_t total = 0;

  /// Packed-stream position of file offset `off` (must lie inside an
  /// extent; every member piece does, by construction of the union).
  [[nodiscard]] std::uint64_t stream_pos(std::uint64_t off) const {
    auto it = std::upper_bound(
        extents.begin(), extents.end(), off,
        [](std::uint64_t v, const fs::Extent& e) { return v < e.offset; });
    const auto k = static_cast<std::size_t>(it - extents.begin()) - 1;
    return prefix[k] + (off - extents[k].offset);
  }
};

Merged merge_extents(const std::vector<MemberReq>& members) {
  Merged merged;
  std::size_t count = 0;
  for (const MemberReq& m : members) count += m.extents.size();
  std::vector<fs::Extent> all;
  all.reserve(count);
  for (const MemberReq& m : members) {
    all.insert(all.end(), m.extents.begin(), m.extents.end());
  }
  std::sort(all.begin(), all.end(),
            [](const fs::Extent& a, const fs::Extent& b) {
              return a.offset != b.offset ? a.offset < b.offset
                                          : a.length < b.length;
            });
  for (const fs::Extent& e : all) {
    if (e.length == 0) continue;
    if (!merged.extents.empty() && e.offset <= merged.extents.back().end()) {
      fs::Extent& last = merged.extents.back();
      last.length = std::max(last.end(), e.end()) - last.offset;
    } else {
      merged.extents.push_back(e);
    }
  }
  merged.prefix.reserve(merged.extents.size());
  for (const fs::Extent& e : merged.extents) {
    merged.prefix.push_back(merged.total);
    merged.total += e.length;
  }
  return merged;
}

/// Copy every member's packed stream into the union stream (later members
/// deterministically overwrite on overlap). Returns only the *leader's own*
/// staged bytes for the Intra time charge: shipped members already paid
/// their copy in the kTagData transfer — this models the shared-memory
/// window of the two-level design, where each member places its data
/// directly at its merged position, so shipping and staging are one copy,
/// not two. The leader stages its own request itself.
std::uint64_t stage_into(const std::vector<MemberReq>& members,
                         const Merged& merged, int leader_node_local,
                         std::byte* out) {
  std::uint64_t own_staged = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const MemberReq& m = members[i];
    std::uint64_t pos = 0;
    for (const fs::Extent& e : m.extents) {
      if (static_cast<int>(i) == leader_node_local) {
        own_staged += e.length;
      }
      if (out != nullptr && m.data != nullptr && e.length > 0) {
        std::memcpy(out + merged.stream_pos(e.offset), m.data + pos, e.length);
      }
      pos += e.length;
    }
  }
  return own_staged;
}

/// Copy one member's slices back out of the union stream (reads). Returns
/// bytes sliced; copies only when buffers are real.
std::uint64_t slice_from(const MemberReq& m, const Merged& merged,
                         const std::byte* in, std::byte* out) {
  std::uint64_t pos = 0;
  for (const fs::Extent& e : m.extents) {
    if (in != nullptr && out != nullptr && e.length > 0) {
      std::memcpy(out + pos, in + merged.stream_pos(e.offset), e.length);
    }
    pos += e.length;
  }
  return pos;
}

double memcpy_seconds(mpi::Rank& self, std::uint64_t bytes) {
  return static_cast<double>(bytes) /
         self.world().model().mem.memcpy_bandwidth;
}

/// Sole-leader fast path: when the whole communicator lives on one node,
/// the staged union request IS the group's file view — there is nobody to
/// exchange with, so the leader writes (or reads) it directly in
/// collective-buffer-sized batches instead of running a degenerate
/// self-exchange. This is the full payoff of intra-node aggregation for
/// single-node subgroups: collective I/O collapses into local I/O.
std::uint64_t run_sole_leader(mpi::Rank& self, mpiio::IoTarget& target,
                              const mpiio::CollRequest& request,
                              std::uint64_t cb_buffer_size, bool is_write) {
  const std::vector<fs::Extent>& extents = request.extents;
  std::uint64_t cycles = 0;
  std::size_t i = 0;
  std::uint64_t stream_off = 0;
  while (i < extents.size()) {
    mpi::SpanGuard cycle_span(self, obs::SpanKind::Stage, "local-cycle",
                              /*group=*/-1,
                              static_cast<std::int64_t>(cycles));
    std::uint64_t batch = 0;
    std::size_t j = i;
    while (j < extents.size() &&
           (batch == 0 || batch + extents[j].length <= cb_buffer_size)) {
      batch += extents[j].length;
      ++j;
    }
    self.touch_bytes(static_cast<double>(batch));  // assembly cost
    const std::span<const fs::Extent> span(&extents[i], j - i);
    std::byte* at = request.data == nullptr ? nullptr
                                            : request.data + stream_off;
    if (is_write) {
      target.write(self, span, at);
    } else {
      target.read(self, span, at);
    }
    stream_off += batch;
    i = j;
    ++cycles;
  }
  return cycles;
}

/// A leader's file-side step over `request`: its own when it is the lone
/// member of its node, else the node's merged request. A merged request
/// runs locally when this is the only leader (sole leader); everything
/// else joins the inter-node ext2ph exchange over the leader comm.
mpiio::Ext2phOutcome leader_io(mpi::Rank& self, const NodeComm& nodes,
                               mpiio::IoTarget& target,
                               const mpiio::CollRequest& request,
                               const mpiio::Ext2phOptions& options,
                               bool is_write) {
  if (nodes.node_comm().size() > 1 && nodes.leader_comm().size() == 1) {
    return {run_sole_leader(self, target, request, options.cb_buffer_size,
                            is_write),
            0};
  }
  return is_write ? mpiio::ext2ph_write(self, nodes.leader_comm(), target,
                                        request, options)
                  : mpiio::ext2ph_read(self, nodes.leader_comm(), target,
                                       request, options);
}

/// Non-leader side: ship the request description to the node leader.
/// Returns the bytes shipped.
std::uint64_t ship_to_leader(mpi::Rank& self, const NodeComm& nodes,
                             const mpiio::CollRequest& request) {
  mpi::P2PEngine& p2p = self.world().p2p();
  const WireHeader hdr{request.extents.size(), request.total_bytes()};
  const std::uint64_t extent_bytes = hdr.n_extents * sizeof(fs::Extent);
  p2p.send(self, nodes.node_comm(), nodes.leader_node_local(), kTagHeader, &hdr,
           sizeof hdr, mpi::TimeCat::Intra);
  p2p.send(self, nodes.node_comm(), nodes.leader_node_local(), kTagExtents,
           request.extents.data(), extent_bytes, mpi::TimeCat::Intra);
  return extent_bytes;
}

/// A leader's node-level request: every member's request (slot order is
/// node_comm local rank order, the leader's own included, so the merge is
/// deterministic), their union, and the union's packed stream (empty in
/// phantom runs).
struct NodeRequest {
  std::vector<MemberReq> members;
  Merged merged;
  std::vector<std::byte> stream;

  [[nodiscard]] std::byte* data() {
    return stream.empty() ? nullptr : stream.data();
  }
  [[nodiscard]] mpiio::CollRequest request() {
    return {merged.extents, data()};
  }
};

/// Leader side: collect every node member's request description and merge
/// them into the node request.
NodeRequest gather_and_merge(mpi::Rank& self, const NodeComm& nodes,
                             const mpiio::CollRequest& own_request) {
  mpi::P2PEngine& p2p = self.world().p2p();
  const auto n = static_cast<std::size_t>(nodes.node_comm().size());
  NodeRequest node;
  node.members.resize(n);
  for (std::size_t m = 0; m < n; ++m) {
    MemberReq& member = node.members[m];
    if (static_cast<int>(m) == nodes.leader_node_local()) {
      member.extents = own_request.extents;
      member.data = own_request.data;
      continue;
    }
    WireHeader hdr;
    p2p.recv(self, nodes.node_comm(), static_cast<int>(m), kTagHeader, &hdr,
             sizeof hdr, mpi::TimeCat::Intra);
    member.extents.resize(hdr.n_extents);
    p2p.recv(self, nodes.node_comm(), static_cast<int>(m), kTagExtents,
             member.extents.data(), hdr.n_extents * sizeof(fs::Extent),
             mpi::TimeCat::Intra);
    member.total_bytes = hdr.total_bytes;
  }
  node.merged = merge_extents(node.members);
  if (self.world().byte_true() && node.merged.total > 0) {
    node.stream.assign(node.merged.total, std::byte{0});
  }
  return node;
}

}  // namespace

TwoLevelOutcome two_level_write(mpi::Rank& self, const NodeComm& nodes,
                                mpiio::IoTarget& target,
                                const mpiio::CollRequest& request,
                                const mpiio::Ext2phOptions& leader_options) {
  TwoLevelOutcome outcome;
  mpi::P2PEngine& p2p = self.world().p2p();
  if (!nodes.i_lead()) {
    mpi::SpanGuard ship_span(self, obs::SpanKind::Stage, "intra-ship");
    outcome.intra_bytes = ship_to_leader(self, nodes, request);
    const std::uint64_t total = request.total_bytes();
    if (total > 0) {
      p2p.send(self, nodes.node_comm(), nodes.leader_node_local(), kTagData,
               request.data, total, mpi::TimeCat::Intra);
      outcome.intra_bytes += total;
    }
    return outcome;
  }
  if (nodes.node_comm().size() == 1) {
    // Lone member: nothing to merge, join the inter-node exchange as-is.
    outcome.exchange =
        leader_io(self, nodes, target, request, leader_options,
                  /*is_write=*/true);
    return outcome;
  }
  NodeRequest node;
  {
    mpi::SpanGuard gather_span(self, obs::SpanKind::Stage, "intra-gather");
    node = gather_and_merge(self, nodes, request);
    // The payloads arrive overlapped: each member copies into the node's
    // shared staging window from its own core, concurrently — the wall time
    // is the slowest member's copy, not the sum.
    const bool byte_true = self.world().byte_true();
    std::vector<mpi::Request> pending;
    for (std::size_t m = 0; m < node.members.size(); ++m) {
      MemberReq& member = node.members[m];
      if (static_cast<int>(m) == nodes.leader_node_local() ||
          member.total_bytes == 0) {
        continue;
      }
      if (byte_true) member.recv_data.resize(member.total_bytes);
      pending.push_back(p2p.irecv(
          self, nodes.node_comm(), static_cast<int>(m), kTagData,
          byte_true ? member.recv_data.data() : nullptr, member.total_bytes,
          mpi::TimeCat::Intra));
      member.data = member.recv_data.data();
    }
    p2p.waitall(self, pending, mpi::TimeCat::Intra);
    const std::uint64_t own_staged = stage_into(
        node.members, node.merged, nodes.leader_node_local(), node.data());
    self.busy(mpi::TimeCat::Intra, memcpy_seconds(self, own_staged));
  }
  outcome.exchange =
      leader_io(self, nodes, target, node.request(), leader_options,
                  /*is_write=*/true);
  return outcome;
}

TwoLevelOutcome two_level_read(mpi::Rank& self, const NodeComm& nodes,
                               mpiio::IoTarget& target,
                               const mpiio::CollRequest& request,
                               const mpiio::Ext2phOptions& leader_options) {
  TwoLevelOutcome outcome;
  mpi::P2PEngine& p2p = self.world().p2p();
  if (!nodes.i_lead()) {
    mpi::SpanGuard ship_span(self, obs::SpanKind::Stage, "intra-ship");
    outcome.intra_bytes = ship_to_leader(self, nodes, request);
    const std::uint64_t total = request.total_bytes();
    if (total > 0) {
      p2p.recv(self, nodes.node_comm(), nodes.leader_node_local(), kTagReply,
               request.data, total, mpi::TimeCat::Intra);
      outcome.intra_bytes += total;
    }
    return outcome;
  }
  if (nodes.node_comm().size() == 1) {
    outcome.exchange =
        leader_io(self, nodes, target, request, leader_options,
                  /*is_write=*/false);
    return outcome;
  }
  NodeRequest node;
  {
    mpi::SpanGuard gather_span(self, obs::SpanKind::Stage, "intra-gather");
    node = gather_and_merge(self, nodes, request);
  }
  outcome.exchange =
      leader_io(self, nodes, target, node.request(), leader_options,
                  /*is_write=*/false);

  // Scatter each member's slice of the node stream back, overlapped: like
  // the inbound staging, each member pulls its slice out of the shared
  // window from its own core, so the reply transfers carry the copy cost
  // and run concurrently. The leader only pays for its own local slice.
  mpi::SpanGuard scatter_span(self, obs::SpanKind::Stage, "intra-scatter");
  const bool byte_true = self.world().byte_true();
  std::uint64_t own_sliced = 0;
  std::vector<std::vector<std::byte>> replies(node.members.size());
  std::vector<mpi::Request> pending;
  for (std::size_t m = 0; m < node.members.size(); ++m) {
    const MemberReq& member = node.members[m];
    if (static_cast<int>(m) == nodes.leader_node_local()) {
      own_sliced += slice_from(member, node.merged, node.data(), request.data);
      continue;
    }
    if (member.total_bytes == 0) continue;
    auto& reply = replies[m];
    if (byte_true) {
      reply.resize(member.total_bytes);
      slice_from(member, node.merged, node.stream.data(), reply.data());
    }
    pending.push_back(p2p.isend(self, nodes.node_comm(), static_cast<int>(m),
                                kTagReply,
                                reply.empty() ? nullptr : reply.data(),
                                member.total_bytes, mpi::TimeCat::Intra));
  }
  p2p.waitall(self, pending, mpi::TimeCat::Intra);
  self.busy(mpi::TimeCat::Intra, memcpy_seconds(self, own_sliced));
  return outcome;
}

}  // namespace parcoll::node
