// Extended two-phase collective I/O (ext2ph), ROMIO-style.
//
// This is the paper's baseline protocol and the inner aggregation engine
// that ParColl retains per subgroup (paper §4: "The original ext2ph
// protocol is still retained as a part of ParColl"). The processing phases
// match the paper's dissection (§2.2):
//
//   1. file-range gathering      — Allgather of each rank's [start, end)
//   2. file-domain partitioning  — the range is divided evenly among the
//                                  I/O aggregators (deterministic, local)
//   3. request dissemination     — Alltoall of per-aggregator request
//                                  counts + point-to-point offset lists
//   4. interleaved data exchange and file I/O — for each cycle (their
//      number is the deepest aggregator's, read off the Allgathered table
//      of covered ranges): Alltoall of cycle sizes (the per-cycle
//      synchronization that builds the collective wall), isend/irecv data
//      exchange, and aggregator reads/writes of its collective-buffer
//      window, with read-modify-write when the received data has holes.
//
// The Alltoalls of phases 3 and 4 carry only the nonzero entries
// (mpi::alltoall_sparse): each rank lists the aggregators it sends to and
// receives the sources that sent to it, so its host cost follows its own
// peers, not the communicator size. They are charged as the dense
// Alltoall of one count per rank, so the simulated wall is unchanged.
//
// Extents are expressed in "target space" via the IoTarget seam: the
// physical file for plain collective I/O, or intermediate-view coordinates
// under ParColl's file-view switch.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "fs/lustre.hpp"
#include "fs/stripe.hpp"
#include "machine/topology.hpp"
#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"
#include "mpiio/hints.hpp"

namespace parcoll::mpiio {

/// Where aggregators perform their reads and writes.
class IoTarget {
 public:
  virtual ~IoTarget() = default;
  /// Write `extents` (data = concatenated payload, may be nullptr) and
  /// charge the calling rank's IO time.
  virtual void write(mpi::Rank& self, std::span<const fs::Extent> extents,
                     const std::byte* data) = 0;
  virtual void read(mpi::Rank& self, std::span<const fs::Extent> extents,
                    std::byte* out) = 0;
};

/// Reads/writes the physical file.
class DirectTarget final : public IoTarget {
 public:
  DirectTarget(fs::LustreSim& fs, int file_id)
      : fs_(fs), file_id_(file_id) {}
  void write(mpi::Rank& self, std::span<const fs::Extent> extents,
             const std::byte* data) override;
  void read(mpi::Rank& self, std::span<const fs::Extent> extents,
            std::byte* out) override;

 private:
  fs::LustreSim& fs_;
  int file_id_;
};

/// One rank's contribution to a collective call: its file extents (target
/// space, monotone, coalesced) and the matching packed data stream.
struct CollRequest {
  std::vector<fs::Extent> extents;
  std::byte* data = nullptr;  // write: source; read: destination; may be null

  [[nodiscard]] std::uint64_t total_bytes() const {
    std::uint64_t total = 0;
    for (const fs::Extent& e : extents) total += e.length;
    return total;
  }
};

/// Aggregators as local ranks in the calling communicator: an immutable
/// list shared by every copy, checked strictly ascending once when built,
/// so handing one roster to every rank's options costs O(1) per rank.
class AggregatorRoster {
 public:
  AggregatorRoster();
  /// Throws std::invalid_argument unless `ranks` is strictly ascending.
  /// Implicit, so options can be assigned a vector or a brace list.
  AggregatorRoster(std::vector<int> ranks);
  AggregatorRoster(std::initializer_list<int> ranks)
      : AggregatorRoster(std::vector<int>(ranks)) {}

  [[nodiscard]] const std::vector<int>& ranks() const { return *ranks_; }
  [[nodiscard]] std::size_t size() const { return ranks_->size(); }
  [[nodiscard]] bool empty() const { return ranks_->empty(); }
  [[nodiscard]] int operator[](std::size_t i) const { return (*ranks_)[i]; }
  [[nodiscard]] auto begin() const { return ranks_->begin(); }
  [[nodiscard]] auto end() const { return ranks_->end(); }

 private:
  std::shared_ptr<const std::vector<int>> ranks_;
};

struct Ext2phOptions {
  std::uint64_t cb_buffer_size = 4ull << 20;
  /// Must not be empty.
  AggregatorRoster aggregators;
  /// When nonzero, file-domain boundaries are rounded up to multiples of
  /// this (the stripe size): the Lustre-aware ADIO optimization that keeps
  /// any one stripe inside a single aggregator's domain, avoiding shared
  /// extent locks at domain boundaries.
  std::uint64_t fd_alignment = 0;
};

struct Ext2phOutcome {
  std::uint64_t cycles = 0;     // data-exchange/file-I/O cycles executed
  std::uint64_t rmw_reads = 0;  // aggregator read-modify-write fills (this rank)
};

/// Collective write over `comm`. Every member must call with the same
/// options. Returns per-rank outcome counters.
Ext2phOutcome ext2ph_write(mpi::Rank& self, const mpi::Comm& comm,
                           IoTarget& target, const CollRequest& request,
                           const Ext2phOptions& options);

/// Collective read over `comm`.
Ext2phOutcome ext2ph_read(mpi::Rank& self, const mpi::Comm& comm,
                          IoTarget& target, const CollRequest& request,
                          const Ext2phOptions& options);

/// The default aggregator set for `comm` under `hints` (paper §4.2): one
/// aggregator per node (the lowest comm rank on it), nodes taken from
/// hints.cb_node_list if given, else all nodes hosting comm members in node
/// order; truncated to hints.cb_nodes if positive. Result: sorted local ranks.
std::vector<int> default_aggregators(const machine::Topology& topology,
                                     const mpi::Comm& comm,
                                     const Hints& hints);

}  // namespace parcoll::mpiio
