// Per-file I/O statistics, mirroring the paper's profiler: "we profiled
// these processing tasks at run-time. When a file is closed, a summary is
// reported." The breakdown categories are the paper's Fig. 2 series.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "bb/staging.hpp"
#include "fault/fault.hpp"
#include "fs/integrity.hpp"
#include "mpi/timecat.hpp"

namespace parcoll::obs {
class JsonValue;
}

namespace parcoll::mpiio {

struct FileStats {
  /// Time spent inside this file's I/O operations, summed over all ranks.
  mpi::TimeBreakdown time;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t collective_writes = 0;
  std::uint64_t collective_reads = 0;
  std::uint64_t independent_writes = 0;
  std::uint64_t independent_reads = 0;
  /// Total data-exchange/file-I/O cycles executed across collective calls.
  std::uint64_t exchange_cycles = 0;
  /// Read-modify-write fills performed by aggregators (write holes).
  std::uint64_t rmw_reads = 0;
  /// Collective calls that went through ParColl partitioning.
  std::uint64_t parcoll_calls = 0;
  /// Collective calls that used two-level (intra-node aggregated) staging.
  std::uint64_t intranode_calls = 0;
  /// Bytes shipped over the intra-node path (request metadata + payload,
  /// counted at the non-leader side).
  std::uint64_t intranode_bytes = 0;
  /// ParColl calls that switched to an intermediate file view (Fig. 4c).
  std::uint64_t view_switches = 0;
  /// Subgroups used by the most recent ParColl call.
  int last_num_groups = 0;
  /// Degraded-mode events of the ranks during this file's collective calls
  /// (per-call deltas; all zero unless a fault plan is installed).
  fault::FaultCounters faults;
  /// Burst-buffer staging activity (all zero unless bb=enable): the
  /// StagingStore's lifetime counters, taken at close by the first rank.
  bb::BbCounters bb;
  /// Checksum-pipeline activity (all zero unless the integrity hint is on):
  /// harvested from the IntegrityManager at close by the file's first rank.
  fs::IntegrityCounters integrity;

  /// The plain counter fields, written out once: += and json() visit them
  /// (time, last_num_groups and the embedded structs merge by their own
  /// rules).
  template <typename Visit>
  static constexpr void fields(Visit&& visit) {
    visit("bytes_written", &FileStats::bytes_written);
    visit("bytes_read", &FileStats::bytes_read);
    visit("collective_writes", &FileStats::collective_writes);
    visit("collective_reads", &FileStats::collective_reads);
    visit("independent_writes", &FileStats::independent_writes);
    visit("independent_reads", &FileStats::independent_reads);
    visit("exchange_cycles", &FileStats::exchange_cycles);
    visit("rmw_reads", &FileStats::rmw_reads);
    visit("parcoll_calls", &FileStats::parcoll_calls);
    visit("intranode_calls", &FileStats::intranode_calls);
    visit("intranode_bytes", &FileStats::intranode_bytes);
    visit("view_switches", &FileStats::view_switches);
  }

  FileStats& operator+=(const FileStats& other);

  /// The close-time summary (single line per category plus counters).
  [[nodiscard]] std::string summary(const std::string& name) const;

  /// The "stats" object of a parcoll-run document: time, the plain
  /// counters, last_num_groups, then "faults", "bb" and "integrity".
  [[nodiscard]] obs::JsonValue json() const;
};

std::ostream& operator<<(std::ostream& os, const FileStats& stats);

}  // namespace parcoll::mpiio
