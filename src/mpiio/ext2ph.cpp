#include "mpiio/ext2ph.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "mpi/collectives.hpp"
#include "mpi/p2p.hpp"
#include "mpi/trace.hpp"
#include "obs/metrics.hpp"

namespace parcoll::mpiio {

namespace {

constexpr int kTagReq = 1000;   // request-dissemination offset lists
constexpr int kTagData = 2000;  // + cycle index: exchange-phase payloads

/// A sub-extent of one rank's request, remembering where its bytes sit in
/// that rank's packed data stream.
struct Piece {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t stream_pos = 0;
};

/// Clip monotone `extents` to [lo, hi); `prefix[i]` is the stream offset of
/// extents[i].
std::vector<Piece> clip_stream(const std::vector<fs::Extent>& extents,
                               const std::vector<std::uint64_t>& prefix,
                               std::uint64_t lo, std::uint64_t hi) {
  std::vector<Piece> pieces;
  // First extent whose end is beyond lo.
  auto it = std::partition_point(
      extents.begin(), extents.end(),
      [lo](const fs::Extent& e) { return e.end() <= lo; });
  for (; it != extents.end() && it->offset < hi; ++it) {
    const std::uint64_t begin = std::max(it->offset, lo);
    const std::uint64_t end = std::min(it->end(), hi);
    if (begin >= end) continue;
    const auto index = static_cast<std::size_t>(it - extents.begin());
    pieces.push_back(Piece{begin, end - begin,
                           prefix[index] + (begin - it->offset)});
  }
  return pieces;
}

/// Clip plain extents (aggregator's stored request lists) to [lo, hi).
std::vector<fs::Extent> clip_extents(const std::vector<fs::Extent>& extents,
                                     std::uint64_t lo, std::uint64_t hi) {
  std::vector<fs::Extent> out;
  auto it = std::partition_point(
      extents.begin(), extents.end(),
      [lo](const fs::Extent& e) { return e.end() <= lo; });
  for (; it != extents.end() && it->offset < hi; ++it) {
    const std::uint64_t begin = std::max(it->offset, lo);
    const std::uint64_t end = std::min(it->end(), hi);
    if (begin < end) out.push_back(fs::Extent{begin, end - begin});
  }
  return out;
}

/// A half-open byte range [st, end). Trivially copyable: it is the record of
/// the st/end and st_loc/end_loc Allgathers as well as a cycle's window.
struct Range {
  std::uint64_t st = 0;
  std::uint64_t end = 0;

  [[nodiscard]] bool empty() const { return st >= end; }
};

/// Covered range [st_loc, end_loc) of each aggregator's file domain —
/// the first/last byte actually requested there (ROMIO's st_loc/end_loc) —
/// and the cycle count they imply (the deepest aggregator's).
struct LocTable {
  std::vector<Range> locs;  // by aggregator index
  std::uint64_t ntimes = 0;
};

/// A source's extents within an aggregator's domain (aggregator side).
struct SourceExtents {
  int rank = 0;  // the source's local rank
  std::vector<fs::Extent> extents;
};

/// Everything both directions of the protocol share: the result of phases
/// 1-3 (range gathering, file-domain partitioning, request dissemination).
struct Plan {
  bool active = false;
  int me = -1;
  std::uint64_t min_st = 0;
  std::uint64_t max_end = 0;
  std::uint64_t fd_len = 0;
  std::uint64_t cb_buffer_size = 0;
  std::uint64_t ntimes = 0;
  int my_agg_index = -1;  // index into options.aggregators, or -1
  /// Aggregators whose domains my request touches: a_lo..a_hi (empty when
  /// a_lo > a_hi).
  int a_lo = 0;
  int a_hi = -1;
  /// Windows walk each aggregator's covered range, not the whole domain,
  /// so sparse requests do not spin through empty cycles. Identical on
  /// every rank, so all of them share one copy (a private naggs-sized
  /// vector per rank is quadratic when every process aggregates on a wide
  /// comm).
  std::shared_ptr<const LocTable> loc_shared;
  std::vector<std::uint64_t> prefix;  // stream prefix of my extents
  /// Aggregator side: the sources with extents in my domain, ascending by
  /// rank.
  std::vector<SourceExtents> others;

  [[nodiscard]] std::uint64_t fd_start(int a) const {
    return std::min(max_end, min_st + static_cast<std::uint64_t>(a) * fd_len);
  }
  [[nodiscard]] std::uint64_t fd_end(int a) const {
    return std::min(max_end,
                    min_st + static_cast<std::uint64_t>(a + 1) * fd_len);
  }
  /// Aggregator domain index containing `offset`.
  [[nodiscard]] int agg_of(std::uint64_t offset, int naggs) const {
    if (offset <= min_st) return 0;
    const auto a = static_cast<int>((offset - min_st) / fd_len);
    return std::min(a, naggs - 1);
  }
  /// Aggregator `a`'s window in cycle `t`: the t-th cb_buffer_size slice of
  /// its covered range, clipped to the covered end. Empty once past it.
  [[nodiscard]] Range window(int a, std::uint64_t t) const {
    const Range& loc = loc_shared->locs[static_cast<std::size_t>(a)];
    if (loc.empty()) return {};
    const std::uint64_t lo = loc.st + t * cb_buffer_size;
    return {lo, std::min(loc.end, lo + cb_buffer_size)};
  }
};

/// Phases 1-3, traced as the "plan" stage.
Plan make_plan(mpi::Rank& self, const mpi::Comm& comm,
               const CollRequest& request, const Ext2phOptions& options) {
  mpi::SpanGuard plan_span(self, obs::SpanKind::Stage, "plan");
  if (options.aggregators.empty()) {
    throw std::invalid_argument("ext2ph: aggregator list must not be empty");
  }
  Plan plan;
  plan.me = comm.local_rank(self.rank());
  plan.cb_buffer_size = options.cb_buffer_size;
  const int naggs = static_cast<int>(options.aggregators.size());

  // Phase 1: file-range gathering.
  Range mine{std::numeric_limits<std::uint64_t>::max(), 0};
  if (!request.extents.empty()) {
    mine.st = request.extents.front().offset;
    mine.end = request.extents.back().end();
  }
  // Exchange bytes identical to a plain allgather; the min/max fold over
  // the P ranges runs once and every rank reads the two shared scalars.
  const auto bounds = mpi::coll_fold<Range>(
      self, comm, mpi::CollKind::Allgather, mpi::detail::to_bytes(mine),
      [](const mpi::CollContribs& all) {
        Range folded{std::numeric_limits<std::uint64_t>::max(), 0};
        for (const auto& contribution : all) {
          const Range range = mpi::detail::scalar_from<Range>(contribution);
          if (!range.empty()) {  // rank actually has data
            folded.st = std::min(folded.st, range.st);
            folded.end = std::max(folded.end, range.end);
          }
        }
        return folded;
      });
  plan.min_st = bounds->st;
  plan.max_end = bounds->end;
  if (plan.max_end <= plan.min_st) {
    return plan;  // nothing to do anywhere; every rank agrees
  }
  plan.active = true;

  // Phase 2: file-domain partitioning (even division among aggregators,
  // optionally rounded up to stripe boundaries for lock affinity).
  plan.fd_len =
      (plan.max_end - plan.min_st + static_cast<std::uint64_t>(naggs) - 1) /
      static_cast<std::uint64_t>(naggs);
  if (options.fd_alignment > 0) {
    const std::uint64_t align = options.fd_alignment;
    plan.fd_len = (plan.fd_len + align - 1) / align * align;
  }
  const auto agg_it = std::lower_bound(options.aggregators.begin(),
                                       options.aggregators.end(), plan.me);
  if (agg_it != options.aggregators.end() && *agg_it == plan.me) {
    plan.my_agg_index = static_cast<int>(agg_it - options.aggregators.begin());
  }

  // Stream prefix of my extents.
  plan.prefix.reserve(request.extents.size());
  std::uint64_t pos = 0;
  for (const fs::Extent& extent : request.extents) {
    plan.prefix.push_back(pos);
    pos += extent.length;
  }

  // Phase 3: request dissemination. Tell each aggregator which pieces of
  // my request fall inside its file domain (Alltoall of counts, then
  // point-to-point offset lists). Aggregator ranks ascend with a, so the
  // counts list is in the order alltoall_sparse wants.
  std::vector<mpi::PeerValue<std::uint32_t>> counts;
  std::vector<std::pair<int, std::vector<fs::Extent>>> outgoing;
  if (!request.extents.empty()) {
    plan.a_lo = plan.agg_of(mine.st, naggs);
    plan.a_hi = plan.agg_of(mine.end - 1, naggs);
    for (int a = plan.a_lo; a <= plan.a_hi; ++a) {
      auto pieces = clip_extents(request.extents, plan.fd_start(a),
                                 plan.fd_end(a));
      if (!pieces.empty()) {
        const int agg_rank = options.aggregators[static_cast<std::size_t>(a)];
        counts.push_back({agg_rank, static_cast<std::uint32_t>(pieces.size())});
        outgoing.emplace_back(agg_rank, std::move(pieces));
      }
    }
  }
  const auto incoming_counts = mpi::alltoall_sparse(self, comm, counts);

  std::vector<mpi::Request> requests;
  auto& p2p = self.world().p2p();
  if (plan.my_agg_index >= 0) {
    // Reserved up front: each posted receive points into its list.
    plan.others.reserve(incoming_counts.size());
    for (const auto& [r, n] : incoming_counts) {
      auto& list = plan.others.emplace_back(
          SourceExtents{r, std::vector<fs::Extent>(n)}).extents;
      requests.push_back(p2p.irecv(self, comm, r, kTagReq, list.data(),
                                   list.size() * sizeof(fs::Extent)));
    }
  }
  for (const auto& [agg_rank, pieces] : outgoing) {
    requests.push_back(p2p.isend(self, comm, agg_rank, kTagReq, pieces.data(),
                                 pieces.size() * sizeof(fs::Extent)));
  }
  p2p.waitall(self, requests);

  // Covered range of my domain (st_loc/end_loc), from the received request
  // lists; Allgather so every rank can compute every aggregator's windows,
  // and derive the interleaving depth (max cycles over aggregators).
  Range my_loc{std::numeric_limits<std::uint64_t>::max(), 0};
  for (const SourceExtents& source : plan.others) {
    my_loc.st = std::min(my_loc.st, source.extents.front().offset);
    my_loc.end = std::max(my_loc.end, source.extents.back().end());
  }
  plan.loc_shared = mpi::coll_fold<LocTable>(
      self, comm, mpi::CollKind::Allgather, mpi::detail::to_bytes(my_loc),
      [&](const mpi::CollContribs& all) {
        LocTable table;
        table.locs.reserve(options.aggregators.size());
        for (int agg_rank : options.aggregators) {
          const Range loc = mpi::detail::scalar_from<Range>(
              all[static_cast<std::size_t>(agg_rank)]);
          if (!loc.empty()) {
            table.ntimes =
                std::max(table.ntimes,
                         (loc.end - loc.st + plan.cb_buffer_size - 1) /
                             plan.cb_buffer_size);
          }
          table.locs.push_back(loc);
        }
        return table;
      });
  plan.ntimes = plan.loc_shared->ntimes;
  return plan;
}

/// (peer local rank, bytes) entries of a cycle's sparse size exchange,
/// ascending by rank.
using SizeList = std::vector<mpi::PeerValue<std::uint32_t>>;

/// This rank's part of one cycle: for each aggregator whose window holds
/// some of my request, the pieces and their byte total, plus the matching
/// size list for the cycle's Alltoall.
struct CycleShares {
  struct Share {
    int rank;  // the aggregator's local rank
    std::vector<Piece> pieces;
    std::uint64_t bytes;
  };
  std::vector<Share> shares;
  SizeList sizes;  // parallel to shares
};

CycleShares cycle_shares(const Plan& plan, const CollRequest& request,
                         const Ext2phOptions& options, std::uint64_t t) {
  CycleShares cycle;
  for (int a = plan.a_lo; a <= plan.a_hi; ++a) {
    const Range win = plan.window(a, t);
    if (win.empty()) continue;
    auto pieces = clip_stream(request.extents, plan.prefix, win.st, win.end);
    if (pieces.empty()) continue;
    std::uint64_t bytes = 0;
    for (const Piece& piece : pieces) bytes += piece.length;
    const int agg_rank = options.aggregators[static_cast<std::size_t>(a)];
    cycle.sizes.push_back({agg_rank, static_cast<std::uint32_t>(bytes)});
    cycle.shares.push_back({agg_rank, std::move(pieces), bytes});
  }
  return cycle;
}

/// Run `step(t)` for each of the plan's cycles inside a "cycle" span,
/// observing each cycle's duration as coll.cycle_s. Returns the count.
template <typename Step>
std::uint64_t for_each_cycle(mpi::Rank& self, const Plan& plan, Step&& step) {
  for (std::uint64_t t = 0; t < plan.ntimes; ++t) {
    const double cycle_begin = self.now();
    mpi::SpanGuard cycle_span(self, obs::SpanKind::Stage, "cycle",
                              /*group=*/-1, static_cast<std::int64_t>(t));
    step(t);
    if (auto* metrics = self.world().metrics()) {
      metrics->quantile("coll.cycle_s").observe(self.now() - cycle_begin);
    }
  }
  return plan.ntimes;
}

/// Merge the per-source window pieces an aggregator will handle this cycle.
struct WindowWork {
  struct Entry {
    std::uint64_t offset;
    std::uint64_t length;
    std::size_t slot;         // the source's index in the cycle's SizeList
    std::uint64_t msg_pos;    // byte position within that source's message
  };
  std::vector<Entry> entries;  // sorted by offset
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t total = 0;

  [[nodiscard]] bool empty() const { return entries.empty(); }
  [[nodiscard]] bool has_holes() const { return total != hi - lo; }
};

/// The aggregator's work in its cycle-`t` window: every source's pieces
/// there, checked against the sizes that source announced. `sizes` and
/// plan.others both ascend by source rank, so one merge walk pairs them.
WindowWork gather_window_work(const Plan& plan, const SizeList& sizes,
                              std::uint64_t t) {
  WindowWork work;
  const Range win = plan.window(plan.my_agg_index, t);
  if (win.empty()) return work;
  auto source = plan.others.begin();
  for (std::size_t slot = 0; slot < sizes.size(); ++slot) {
    const auto [r, size] = sizes[slot];
    while (source != plan.others.end() && source->rank < r) ++source;
    std::uint64_t msg_pos = 0;
    if (source != plan.others.end() && source->rank == r) {
      for (const fs::Extent& piece :
           clip_extents(source->extents, win.st, win.end)) {
        work.entries.push_back(
            WindowWork::Entry{piece.offset, piece.length, slot, msg_pos});
        msg_pos += piece.length;
      }
    }
    if (msg_pos != size) {
      throw std::logic_error(
          "ext2ph: cycle size mismatch between alltoall and request lists");
    }
  }
  if (work.entries.empty()) return work;
  std::sort(work.entries.begin(), work.entries.end(),
            [](const WindowWork::Entry& a, const WindowWork::Entry& b) {
              return a.offset < b.offset;
            });
  work.lo = work.entries.front().offset;
  work.hi = 0;
  for (const auto& entry : work.entries) {
    work.hi = std::max(work.hi, entry.offset + entry.length);
    work.total += entry.length;
  }
  return work;
}

}  // namespace

void DirectTarget::write(mpi::Rank& self, std::span<const fs::Extent> extents,
                         const std::byte* data) {
  const double start = self.now();
  const fs::IoResult r = fs_.write(self.rank(), file_id_, extents, data);
  self.times().add(mpi::TimeCat::IO, self.now() - start - r.faulted_seconds);
  if (r.faulted_seconds > 0) {
    self.times().add(mpi::TimeCat::Faulted, r.faulted_seconds);
  }
}

void DirectTarget::read(mpi::Rank& self, std::span<const fs::Extent> extents,
                        std::byte* out) {
  const double start = self.now();
  const fs::IoResult r = fs_.read(self.rank(), file_id_, extents, out);
  self.times().add(mpi::TimeCat::IO, self.now() - start - r.faulted_seconds);
  if (r.faulted_seconds > 0) {
    self.times().add(mpi::TimeCat::Faulted, r.faulted_seconds);
  }
}

AggregatorRoster::AggregatorRoster() {
  static const auto kEmpty = std::make_shared<const std::vector<int>>();
  ranks_ = kEmpty;
}

AggregatorRoster::AggregatorRoster(std::vector<int> ranks) {
  if (std::adjacent_find(ranks.begin(), ranks.end(), std::greater_equal<>()) !=
      ranks.end()) {
    throw std::invalid_argument(
        "ext2ph: aggregator list must be strictly ascending");
  }
  ranks_ = std::make_shared<const std::vector<int>>(std::move(ranks));
}

std::vector<int> default_aggregators(const machine::Topology& topology,
                                     const mpi::Comm& comm,
                                     const Hints& hints) {
  if (hints.cb_node_list.empty() && hints.cb_nodes == 0) {
    // No aggregator hints: every process aggregates (the AD_sysio behaviour
    // on Catamount — no intra-node distinction, one single-threaded process
    // per core). Node-based selection applies once hints are given.
    std::vector<int> all(static_cast<std::size_t>(comm.size()));
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  // Node order: explicit list, or all nodes hosting comm members.
  std::vector<int> nodes;
  if (!hints.cb_node_list.empty()) {
    nodes = hints.cb_node_list;
  } else {
    std::vector<bool> seen(static_cast<std::size_t>(topology.num_nodes()));
    for (int local = 0; local < comm.size(); ++local) {
      const int node = topology.node_of(comm.world_rank(local));
      if (!seen[static_cast<std::size_t>(node)]) {
        seen[static_cast<std::size_t>(node)] = true;
        nodes.push_back(node);
      }
    }
    std::sort(nodes.begin(), nodes.end());
  }
  if (hints.cb_nodes > 0 &&
      static_cast<std::size_t>(hints.cb_nodes) < nodes.size()) {
    nodes.resize(static_cast<std::size_t>(hints.cb_nodes));
  }
  // One aggregator per node: the lowest comm rank hosted there.
  std::vector<int> aggregators;
  for (int node : nodes) {
    int best = -1;
    for (int world : topology.ranks_on_node(node)) {
      const int local = comm.local_rank(world);
      if (local >= 0 && (best < 0 || local < best)) {
        best = local;
      }
    }
    if (best >= 0) {
      aggregators.push_back(best);
    }
  }
  std::sort(aggregators.begin(), aggregators.end());
  aggregators.erase(std::unique(aggregators.begin(), aggregators.end()),
                    aggregators.end());
  return aggregators;
}

Ext2phOutcome ext2ph_write(mpi::Rank& self, const mpi::Comm& comm,
                           IoTarget& target, const CollRequest& request,
                           const Ext2phOptions& options) {
  Ext2phOutcome outcome;
  const Plan plan = make_plan(self, comm, request, options);
  if (!plan.active) return outcome;

  auto& p2p = self.world().p2p();
  // Whether to materialize exchange/window buffers (world property) and
  // whether this rank's outgoing payload is real.
  const bool byte_true = self.world().byte_true();
  const bool have_data = request.data != nullptr;

  std::vector<std::byte> window_buffer;
  outcome.cycles = for_each_cycle(self, plan, [&](std::uint64_t t) {
    const int tag = kTagData + static_cast<int>(t);
    const CycleShares cycle = cycle_shares(plan, request, options, t);

    // Per-cycle coordination: the Alltoall of cycle sizes. This is the
    // synchronization the paper's collective wall is made of.
    const auto recv_sizes = mpi::alltoall_sparse(self, comm, cycle.sizes);

    std::vector<mpi::Request> requests;
    std::vector<std::vector<std::byte>> recv_buffers(recv_sizes.size());
    if (plan.my_agg_index >= 0) {
      for (std::size_t slot = 0; slot < recv_sizes.size(); ++slot) {
        const auto [r, n] = recv_sizes[slot];
        auto& buffer = recv_buffers[slot];
        if (byte_true) buffer.resize(n);
        requests.push_back(p2p.irecv(self, comm, r, tag,
                                     byte_true ? buffer.data() : nullptr, n));
      }
    }
    std::vector<std::vector<std::byte>> send_buffers(cycle.shares.size());
    for (std::size_t i = 0; i < cycle.shares.size(); ++i) {
      const CycleShares::Share& share = cycle.shares[i];
      auto& buffer = send_buffers[i];
      if (have_data) {
        buffer.resize(share.bytes);
        std::uint64_t pos = 0;
        for (const Piece& piece : share.pieces) {
          std::memcpy(buffer.data() + pos, request.data + piece.stream_pos,
                      piece.length);
          pos += piece.length;
        }
      }
      self.touch_bytes(static_cast<double>(share.bytes));  // gather cost
      requests.push_back(p2p.isend(self, comm, share.rank, tag,
                                   have_data ? buffer.data() : nullptr,
                                   share.bytes));
    }
    p2p.waitall(self, requests);

    // File-I/O phase: the aggregator assembles and writes its window,
    // filling holes from the file first (read-modify-write). Phantom runs
    // move no bytes: the buffer is null and only the timing is modelled.
    if (plan.my_agg_index < 0) return;
    const WindowWork work = gather_window_work(plan, recv_sizes, t);
    if (work.empty()) return;
    const fs::Extent span{work.lo, work.hi - work.lo};
    std::byte* window = nullptr;
    if (byte_true) {
      window_buffer.assign(span.length, std::byte{0});
      window = window_buffer.data();
    }
    if (work.has_holes()) {
      target.read(self, std::span(&span, 1), window);
      ++outcome.rmw_reads;
    }
    if (window != nullptr) {
      for (const auto& entry : work.entries) {
        std::memcpy(window + (entry.offset - work.lo),
                    recv_buffers[entry.slot].data() + entry.msg_pos,
                    entry.length);
      }
    }
    self.touch_bytes(static_cast<double>(work.total));
    target.write(self, std::span(&span, 1), window);
  });

  // Trailing status agreement (ROMIO reduces error codes).
  {
    mpi::SpanGuard finalize_span(self, obs::SpanKind::Stage, "finalize",
                                 /*group=*/-1,
                                 static_cast<std::int64_t>(plan.ntimes));
    mpi::allreduce_max(self, comm, 0);
  }
  return outcome;
}

Ext2phOutcome ext2ph_read(mpi::Rank& self, const mpi::Comm& comm,
                          IoTarget& target, const CollRequest& request,
                          const Ext2phOptions& options) {
  Ext2phOutcome outcome;
  const Plan plan = make_plan(self, comm, request, options);
  if (!plan.active) return outcome;

  auto& p2p = self.world().p2p();
  const bool byte_true = self.world().byte_true();
  const bool want_data = request.data != nullptr;

  std::vector<std::byte> window_buffer;
  outcome.cycles = for_each_cycle(self, plan, [&](std::uint64_t t) {
    const int tag = kTagData + static_cast<int>(t);
    // What I want from each aggregator's window this cycle.
    const CycleShares cycle = cycle_shares(plan, request, options, t);
    const auto asked_sizes = mpi::alltoall_sparse(self, comm, cycle.sizes);

    // Post my receives for the data I asked for.
    std::vector<mpi::Request> requests;
    std::vector<std::vector<std::byte>> recv_buffers(cycle.shares.size());
    for (std::size_t i = 0; i < cycle.shares.size(); ++i) {
      const CycleShares::Share& share = cycle.shares[i];
      auto& buffer = recv_buffers[i];
      if (want_data) buffer.resize(share.bytes);
      requests.push_back(p2p.irecv(self, comm, share.rank, tag,
                                   want_data ? buffer.data() : nullptr,
                                   share.bytes));
    }

    // Aggregator: read the window's covered span, slice one reply per
    // requester (pieces in offset order), and send. Each reply is exactly
    // the size its requester asked for.
    std::vector<std::vector<std::byte>> reply_buffers;
    const WindowWork work = plan.my_agg_index >= 0
                                ? gather_window_work(plan, asked_sizes, t)
                                : WindowWork{};
    if (!work.empty()) {
      const fs::Extent span{work.lo, work.hi - work.lo};
      window_buffer.assign(byte_true ? span.length : 0, std::byte{0});
      target.read(self, std::span(&span, 1),
                  byte_true ? window_buffer.data() : nullptr);
      reply_buffers.resize(asked_sizes.size());
      if (byte_true) {
        for (const auto& entry : work.entries) {
          auto& reply = reply_buffers[entry.slot];
          if (reply.capacity() == 0) {
            reply.reserve(asked_sizes[entry.slot].value);
          }
          const auto* begin = window_buffer.data() + (entry.offset - work.lo);
          reply.insert(reply.end(), begin, begin + entry.length);
        }
      }
      self.touch_bytes(static_cast<double>(work.total));
      for (std::size_t slot = 0; slot < asked_sizes.size(); ++slot) {
        const auto [r, n] = asked_sizes[slot];
        requests.push_back(p2p.isend(
            self, comm, r, tag,
            byte_true ? reply_buffers[slot].data() : nullptr, n));
      }
    }

    p2p.waitall(self, requests);

    // Scatter the replies into my packed stream.
    if (want_data) {
      for (std::size_t i = 0; i < cycle.shares.size(); ++i) {
        const CycleShares::Share& share = cycle.shares[i];
        std::uint64_t pos = 0;
        for (const Piece& piece : share.pieces) {
          std::memcpy(request.data + piece.stream_pos,
                      recv_buffers[i].data() + pos, piece.length);
          pos += piece.length;
        }
        self.touch_bytes(static_cast<double>(share.bytes));
      }
    }
  });
  return outcome;
}

}  // namespace parcoll::mpiio
