#include "mpiio/stats.hpp"

#include <ostream>
#include <sstream>

#include "obs/fields.hpp"
#include "obs/run_export.hpp"

namespace parcoll::mpiio {

FileStats& FileStats::operator+=(const FileStats& other) {
  time += other.time;
  obs::add_fields(*this, other);
  last_num_groups = other.last_num_groups ? other.last_num_groups
                                          : last_num_groups;
  faults += other.faults;
  bb += other.bb;
  integrity += other.integrity;
  return *this;
}

std::string FileStats::summary(const std::string& name) const {
  std::ostringstream os;
  os << "file \"" << name << "\" summary:\n";
  os << "  time:   compute=" << time[mpi::TimeCat::Compute]
     << "s p2p=" << time[mpi::TimeCat::P2P]
     << "s sync=" << time[mpi::TimeCat::Sync]
     << "s io=" << time[mpi::TimeCat::IO]
     << "s faulted=" << time[mpi::TimeCat::Faulted]
     << "s intra=" << time[mpi::TimeCat::Intra];
  if (time[mpi::TimeCat::Drain] > 0 || time[mpi::TimeCat::DrainWait] > 0) {
    os << "s drain=" << time[mpi::TimeCat::Drain]
       << "s dwait=" << time[mpi::TimeCat::DrainWait];
  }
  if (time[mpi::TimeCat::Integrity] > 0) {
    os << "s integrity=" << time[mpi::TimeCat::Integrity];
  }
  os << "s (sum over ranks)\n";
  os << "  data:   written=" << bytes_written << "B read=" << bytes_read
     << "B\n";
  os << "  calls:  coll_w=" << collective_writes << " coll_r="
     << collective_reads << " indep_w=" << independent_writes << " indep_r="
     << independent_reads << "\n";
  os << "  cycles: " << exchange_cycles << " (rmw_reads=" << rmw_reads
     << ")\n";
  os << "  parcoll: calls=" << parcoll_calls << " view_switches="
     << view_switches << " last_groups=" << last_num_groups;
  if (intranode_calls || intranode_bytes) {
    os << "\n  intra:  calls=" << intranode_calls
       << " bytes=" << intranode_bytes << "B";
  }
  if (faults.retries || faults.failovers || faults.drops ||
      faults.reelections || faults.stalls) {
    os << "\n  faults: retries=" << faults.retries
       << " failovers=" << faults.failovers << " drops=" << faults.drops
       << " reelections=" << faults.reelections
       << " stalls=" << faults.stalls;
  }
  if (bb.staged_segments || bb.spills) {
    os << "\n  bb:     staged=" << bb.staged_segments << " ("
       << bb.staged_bytes << "B) drained=" << bb.drained_bytes
       << "B spills=" << bb.spills << " (" << bb.spill_bytes
       << "B) conflict_flushes=" << bb.conflict_flushes
       << " drain_retries=" << bb.drain_retries
       << " drain_failovers=" << bb.drain_failovers;
  }
  if (integrity.blocks || integrity.detected || integrity.errors) {
    os << "\n  integrity: blocks=" << integrity.blocks << " ("
       << integrity.bytes_checksummed << "B) detected=" << integrity.detected
       << " repaired=" << integrity.repaired
       << " scrub_repairs=" << integrity.scrub_repairs
       << " errors=" << integrity.errors;
  }
  return os.str();
}

obs::JsonValue FileStats::json() const {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("time", obs::time_breakdown_json(time));
  fields([&](const char* name, auto member) { doc.set(name, this->*member); });
  doc.set("last_num_groups", last_num_groups);
  doc.set("faults", faults.json());
  doc.set("bb", bb.json());
  doc.set("integrity", integrity.json());
  return doc;
}

std::ostream& operator<<(std::ostream& os, const FileStats& stats) {
  return os << stats.summary("");
}

}  // namespace parcoll::mpiio
