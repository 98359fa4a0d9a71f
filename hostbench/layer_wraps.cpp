// Link-time wrappers around the layer entry points the traced harness
// attributes host time to. Each one is bound with -Wl,--wrap=<symbol> (see
// CMakeLists.txt), so every call the library makes across modules into
// that function lands here first; calls inside the defining source file
// are not redirected, which is why only cross-module entry points are
// wrapped. Each wrapper opens a Probe and forwards to __real_<symbol>.
//
// The __real_ declarations are weak and the library is linked whole, so a
// wrapped function that a later change renames or re-signs leaves its
// wrapper unused (its layer reports 0 calls) instead of breaking the build.
#include <span>
#include <stdexcept>

#include "core/parcoll.hpp"
#include "fs/object_store.hpp"
#include "mpi/collectives.hpp"
#include "mpi/runtime.hpp"
#include "mpiio/ext2ph.hpp"
#include "node/nodecomm.hpp"
#include "probes.hpp"
#include "workloads/runner.hpp"

namespace pc = parcoll;
using hostbench::Layer;
using hostbench::Probe;
using Extents = std::span<const pc::fs::Extent>;

namespace {

/// Bytes the byte-true object store holds across every file of the run;
/// 0 for phantom payloads, which keep no bytes.
std::uint64_t store_bytes(pc::mpi::World& world) {
  pc::fs::LustreSim& fs = world.fs();
  if (dynamic_cast<const pc::fs::MemoryStore*>(&fs.store()) == nullptr) {
    return 0;
  }
  std::uint64_t bytes = 0;
  for (int id = 0;; ++id) {
    try {
      (void)fs.meta(id);  // file ids are dense from 0
    } catch (const std::out_of_range&) {
      break;
    }
    bytes += fs.file_size(id);
  }
  return bytes;
}

}  // namespace

extern "C" {

// node::make_node_comm(Rank&, const Comm&, const Topology&, LeaderPolicy)
__attribute__((weak)) pc::node::NodeComm
__real__ZN7parcoll4node14make_node_commERNS_3mpi4RankERKNS1_4CommERKNS_7machine8TopologyENS0_12LeaderPolicyE(
    pc::mpi::Rank&, const pc::mpi::Comm&, const pc::machine::Topology&,
    pc::node::LeaderPolicy);
pc::node::NodeComm
__wrap__ZN7parcoll4node14make_node_commERNS_3mpi4RankERKNS1_4CommERKNS_7machine8TopologyENS0_12LeaderPolicyE(
    pc::mpi::Rank& self, const pc::mpi::Comm& comm,
    const pc::machine::Topology& topology, pc::node::LeaderPolicy policy) {
  const Probe probe(Layer::kMakeNodeComm);
  return __real__ZN7parcoll4node14make_node_commERNS_3mpi4RankERKNS1_4CommERKNS_7machine8TopologyENS0_12LeaderPolicyE(
      self, comm, topology, policy);
}

// mpiio::default_aggregators(const Topology&, const Comm&, const Hints&)
__attribute__((weak)) std::vector<int>
__real__ZN7parcoll5mpiio19default_aggregatorsERKNS_7machine8TopologyERKNS_3mpi4CommERKNS0_5HintsE(
    const pc::machine::Topology&, const pc::mpi::Comm&,
    const pc::mpiio::Hints&);
std::vector<int>
__wrap__ZN7parcoll5mpiio19default_aggregatorsERKNS_7machine8TopologyERKNS_3mpi4CommERKNS0_5HintsE(
    const pc::machine::Topology& topology, const pc::mpi::Comm& comm,
    const pc::mpiio::Hints& hints) {
  const Probe probe(Layer::kDefaultAggregators);
  return __real__ZN7parcoll5mpiio19default_aggregatorsERKNS_7machine8TopologyERKNS_3mpi4CommERKNS0_5HintsE(
      topology, comm, hints);
}

// mpi::comm_split(Rank&, const Comm&, int color, int key)
__attribute__((weak)) pc::mpi::Comm __real__ZN7parcoll3mpi10comm_splitERNS0_4RankERKNS0_4CommEii(
    pc::mpi::Rank&, const pc::mpi::Comm&, int, int);
pc::mpi::Comm __wrap__ZN7parcoll3mpi10comm_splitERNS0_4RankERKNS0_4CommEii(
    pc::mpi::Rank& self, const pc::mpi::Comm& comm, int color, int key) {
  const Probe probe(Layer::kCommSplit);
  return __real__ZN7parcoll3mpi10comm_splitERNS0_4RankERKNS0_4CommEii(
      self, comm, color, key);
}

// core::write_at_all(FileHandle&, uint64_t, const void*, uint64_t,
//                    const Datatype&)
__attribute__((weak)) pc::core::CollectiveOutcome
__real__ZN7parcoll4core12write_at_allERNS_5mpiio10FileHandleEmPKvmRKNS_5dtype8DatatypeE(
    pc::mpiio::FileHandle&, std::uint64_t, const void*, std::uint64_t,
    const pc::dtype::Datatype&);
pc::core::CollectiveOutcome
__wrap__ZN7parcoll4core12write_at_allERNS_5mpiio10FileHandleEmPKvmRKNS_5dtype8DatatypeE(
    pc::mpiio::FileHandle& file, std::uint64_t offset, const void* buffer,
    std::uint64_t count, const pc::dtype::Datatype& memtype) {
  const Probe probe(Layer::kWriteAtAll);
  return __real__ZN7parcoll4core12write_at_allERNS_5mpiio10FileHandleEmPKvmRKNS_5dtype8DatatypeE(
      file, offset, buffer, count, memtype);
}

// core::read_at_all(FileHandle&, uint64_t, void*, uint64_t, const Datatype&)
__attribute__((weak)) pc::core::CollectiveOutcome
__real__ZN7parcoll4core11read_at_allERNS_5mpiio10FileHandleEmPvmRKNS_5dtype8DatatypeE(
    pc::mpiio::FileHandle&, std::uint64_t, void*, std::uint64_t,
    const pc::dtype::Datatype&);
pc::core::CollectiveOutcome
__wrap__ZN7parcoll4core11read_at_allERNS_5mpiio10FileHandleEmPvmRKNS_5dtype8DatatypeE(
    pc::mpiio::FileHandle& file, std::uint64_t offset, void* buffer,
    std::uint64_t count, const pc::dtype::Datatype& memtype) {
  const Probe probe(Layer::kReadAtAll);
  return __real__ZN7parcoll4core11read_at_allERNS_5mpiio10FileHandleEmPvmRKNS_5dtype8DatatypeE(
      file, offset, buffer, count, memtype);
}

// workloads::fill_buffer_for_extents(void*, const Datatype&, uint64_t,
//                                    span<const Extent>, uint64_t salt)
__attribute__((weak)) void __real__ZN7parcoll9workloads23fill_buffer_for_extentsEPvRKNS_5dtype8DatatypeEmSt4spanIKNS_2fs6ExtentELm18446744073709551615EEm(
    void*, const pc::dtype::Datatype&, std::uint64_t, Extents, std::uint64_t);
void __wrap__ZN7parcoll9workloads23fill_buffer_for_extentsEPvRKNS_5dtype8DatatypeEmSt4spanIKNS_2fs6ExtentELm18446744073709551615EEm(
    void* buffer, const pc::dtype::Datatype& memtype, std::uint64_t count,
    Extents extents, std::uint64_t salt) {
  const Probe probe(Layer::kFill);
  __real__ZN7parcoll9workloads23fill_buffer_for_extentsEPvRKNS_5dtype8DatatypeEmSt4spanIKNS_2fs6ExtentELm18446744073709551615EEm(
      buffer, memtype, count, extents, salt);
}

// workloads::check_buffer_for_extents(const void*, const Datatype&,
//                                     uint64_t, span<const Extent>, uint64_t)
__attribute__((weak)) bool __real__ZN7parcoll9workloads24check_buffer_for_extentsEPKvRKNS_5dtype8DatatypeEmSt4spanIKNS_2fs6ExtentELm18446744073709551615EEm(
    const void*, const pc::dtype::Datatype&, std::uint64_t, Extents,
    std::uint64_t);
bool __wrap__ZN7parcoll9workloads24check_buffer_for_extentsEPKvRKNS_5dtype8DatatypeEmSt4spanIKNS_2fs6ExtentELm18446744073709551615EEm(
    const void* buffer, const pc::dtype::Datatype& memtype,
    std::uint64_t count, Extents extents, std::uint64_t salt) {
  const Probe probe(Layer::kCheckBuffer);
  return __real__ZN7parcoll9workloads24check_buffer_for_extentsEPKvRKNS_5dtype8DatatypeEmSt4spanIKNS_2fs6ExtentELm18446744073709551615EEm(
      buffer, memtype, count, extents, salt);
}

// workloads::verify_store(const MemoryStore&, int file_id,
//                         span<const Extent>, uint64_t salt)
__attribute__((weak)) bool __real__ZN7parcoll9workloads12verify_storeERKNS_2fs11MemoryStoreEiSt4spanIKNS1_6ExtentELm18446744073709551615EEm(
    const pc::fs::MemoryStore&, int, Extents, std::uint64_t);
bool __wrap__ZN7parcoll9workloads12verify_storeERKNS_2fs11MemoryStoreEiSt4spanIKNS1_6ExtentELm18446744073709551615EEm(
    const pc::fs::MemoryStore& store, int file_id, Extents extents,
    std::uint64_t salt) {
  const Probe probe(Layer::kVerifyStore);
  return __real__ZN7parcoll9workloads12verify_storeERKNS_2fs11MemoryStoreEiSt4spanIKNS1_6ExtentELm18446744073709551615EEm(
      store, file_id, extents, salt);
}

// workloads::collect(const World&, const PhaseClock&, uint64_t bytes,
//                    const FileStats&): the result snapshot, whose cost is
// the store's content digest.
__attribute__((weak)) pc::workloads::RunResult
__real__ZN7parcoll9workloads7collectERKNS_3mpi5WorldERKNS0_10PhaseClockEmRKNS_5mpiio9FileStatsE(
    const pc::mpi::World&, const pc::workloads::PhaseClock&, std::uint64_t,
    const pc::mpiio::FileStats&);
pc::workloads::RunResult
__wrap__ZN7parcoll9workloads7collectERKNS_3mpi5WorldERKNS0_10PhaseClockEmRKNS_5mpiio9FileStatsE(
    const pc::mpi::World& world, const pc::workloads::PhaseClock& clock,
    std::uint64_t bytes, const pc::mpiio::FileStats& stats) {
  hostbench::record_store_bytes(
      store_bytes(const_cast<pc::mpi::World&>(world)));
  const Probe probe(Layer::kCollect);
  return __real__ZN7parcoll9workloads7collectERKNS_3mpi5WorldERKNS0_10PhaseClockEmRKNS_5mpiio9FileStatsE(
      world, clock, bytes, stats);
}

}  // extern "C"
